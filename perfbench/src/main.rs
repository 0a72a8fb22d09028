//! Benchmark driver: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--fmm-seed n] [--tree-seed n] [--noise-seed n]
//!           [--arrival-seed n] [--data-seed n] [--work <dir>] [--commit <id>]
//! ```
//!
//! A warm-up round fixes the reference outputs, and measured rounds
//! follow until `--seconds` have passed; every round builds its inputs
//! afresh (one timed set-up or more) and its outputs must equal the
//! reference. Times are calibrated to the host's reference speed (see
//! `calib`) and reported as medians over rounds. With `--trace 0` the
//! last stdout line carries the end-to-end metrics; with `--trace 1`
//! half the time runs untraced and half traced, and the last line
//! carries the per-layer metrics. Any failed check makes the exit
//! code 1.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::layers::Ledger;
use perfbench::span::drain;
use perfbench::workloads::{by_name, rate_metrics, Round, Seeds, Workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    seeds: Seeds,
    work: Option<PathBuf>,
    commit: String,
}

fn parse() -> Result<Args, String> {
    let mut kv = std::collections::BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key, v);
    }
    let num = |k: &str| -> Result<Option<u64>, String> {
        kv.get(k)
            .map(|v| v.parse::<u64>().map_err(|e| format!("--{k} {v}: {e}")))
            .transpose()
    };
    let workload = kv
        .get("workload")
        .cloned()
        .ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = num("seed")?.ok_or("--seed is required")?;
    let seconds = num("seconds")?.ok_or("--seconds is required")?;
    let trace = match kv.get("trace").map(String::as_str) {
        Some("0") | None => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace {v}: expected 0 or 1")),
    };
    let mut seeds = Seeds::from_run_seed(seed);
    for (k, slot) in [
        ("fmm-seed", &mut seeds.fmm),
        ("tree-seed", &mut seeds.tree),
        ("noise-seed", &mut seeds.noise),
        ("arrival-seed", &mut seeds.arrival),
        ("data-seed", &mut seeds.data),
    ] {
        if let Some(v) = num(k)? {
            *slot = v;
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        seeds,
        work: kv.get("work").map(PathBuf::from),
        commit: kv
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn geomean(v: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in v {
        sum += x.ln();
        n += 1;
    }
    (sum / n.max(1) as f64).exp()
}

/// Median over rounds of the geometric mean over each round's timed
/// calls of items per `secs(call)`. Every call weighs the same: neither
/// a call whose input size follows the seed (the sparse-QR tree) nor one
/// long call (FIFO in `policy_sweep`) sets the figure alone.
fn round_rate(rs: &[Round], secs: impl Fn(&perfbench::calib::Timed) -> f64) -> f64 {
    let rates: Vec<f64> = rs
        .iter()
        .map(|r| geomean(r.phases.iter().map(|p| p.items / secs(&p.t))))
        .collect();
    median(&rates)
}

/// The workload's throughput: items (tasks, or cache records for the
/// reopen) per calibrated second, times calibrated with `sensitivity`.
fn tasks_per_s(rs: &[Round], sensitivity: f64) -> f64 {
    round_rate(rs, |t| t.calibrated_s(sensitivity))
}

/// Each per-call rate metric of `rs`: its count per calibrated second,
/// median over rounds.
fn call_rates(rs: &[Round], sensitivity: f64) -> Vec<(String, f64)> {
    (0..rs[0].phases.len())
        .map(|i| {
            let rates: Vec<f64> = rs
                .iter()
                .map(|r| r.phases[i].rate.1 / r.phases[i].t.calibrated_s(sensitivity))
                .collect();
            (rs[0].phases[i].rate.0.clone(), median(&rates))
        })
        .collect()
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Running tally of checks over every round of the run.
struct Tally {
    reference: Vec<(String, u64)>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, r: &Round) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        for f in &r.failures {
            eprintln!("FAILED: {f}");
        }
        self.attempted += self.reference.len() as u64;
        if r.outputs.len() != self.reference.len() {
            self.failed += self.reference.len() as u64;
            eprintln!(
                "FAILED: round produced {} outputs, reference {}",
                r.outputs.len(),
                self.reference.len()
            );
            return;
        }
        for ((name, want), (_, got)) in self.reference.iter().zip(&r.outputs) {
            if want != got {
                self.failed += 1;
                eprintln!("FAILED: {name} = {got:016x}, reference {want:016x}");
            }
        }
    }
}

/// Run untraced (or traced) rounds, each on a fresh set-up, until
/// `budget` has passed; at least one.
fn rounds(
    w: &mut dyn Workload,
    budget: Duration,
    traced: bool,
    ledger: &mut Ledger,
    tally: &mut Tally,
) -> Vec<Round> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || t0.elapsed() < budget {
        w.setup(traced);
        if traced {
            ledger.fold(&drain());
        }
        let r = w.round(traced, ledger);
        if traced {
            ledger.fold(&drain());
            ledger.rounds += 1;
        }
        tally.add(&r);
        out.push(r);
    }
    out
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args.work.clone().unwrap_or_else(|| {
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()))
    });
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let code = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    code
}

fn run(args: &Args, work: &std::path::Path) -> ExitCode {
    let mut w = by_name(&args.workload, args.seeds, work).expect("workload name was checked");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let s = args.seeds;
    println!(
        "meta {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"commit\": {}, \"seeds\": {{\"fmm\": {}, \"tree\": {}, \"noise\": {}, \"arrival\": {}, \
         \"data\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&args.commit),
        s.fmm,
        s.tree,
        s.noise,
        s.arrival,
        s.data
    );

    w.setup(false);
    let mut scratch = Ledger::default();
    let warmup = w.round(false, &mut scratch);
    let mut tally = Tally {
        reference: warmup.outputs.clone(),
        attempted: 0,
        failed: 0,
    };
    tally.add(&warmup);

    let budget = Duration::from_secs(args.seconds);
    let metrics: Vec<(String, f64, &str, &str)> = if !args.trace {
        let rs = rounds(w.as_mut(), budget, false, &mut scratch, &mut tally);
        report_end_to_end(&args.workload, w.as_ref(), &rs)
    } else {
        let untraced = rounds(w.as_mut(), budget / 2, false, &mut scratch, &mut tally);
        let mut ledger = Ledger::default();
        let traced = rounds(w.as_mut(), budget / 2, true, &mut ledger, &mut tally);
        let k = w.host_sensitivity();
        let base = tasks_per_s(&untraced, k);
        let with = tasks_per_s(&traced, k);
        let mut m = ledger.metrics();
        let measured = call_rates(&untraced, k);
        for (name, unit) in rate_metrics() {
            let v = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            m.push((name, v, unit, "wall-calibrated"));
        }
        m.push((
            "trace.overhead_frac".into(),
            1.0 - with / base,
            "ratio",
            "wall",
        ));
        println!(
            "rounds {} untraced, {} traced (tasks/s {base} untraced, {with} traced); peak {} MiB",
            untraced.len(),
            traced.len(),
            peak_rss_mb()
        );
        m
    };

    for (name, v, unit, clock) in &metrics {
        println!("metric {} {name} {v} {unit} {clock}", args.workload);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u, _)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The end-to-end metrics; the per-call rates, the raw wall-clock
/// figures and the model outputs are printed before them for reference.
fn report_end_to_end(
    workload: &str,
    w: &dyn Workload,
    rs: &[Round],
) -> Vec<(String, f64, &'static str, &'static str)> {
    let n = rs.len();
    let setups = w.setup_times();
    let sensitivity = w.host_sensitivity();
    println!(
        "rounds {n}; set-ups {}; host sensitivity {sensitivity}",
        setups.len()
    );
    for (k, r) in rs.iter().enumerate() {
        for p in &r.phases {
            println!(
                "sample {workload} round {k} {}: {} items, {} s, calibration {} s",
                p.label, p.items, p.t.wall_s, p.t.cal_s
            );
        }
    }
    let known = rate_metrics();
    for (i, p) in rs[0].phases.iter().enumerate() {
        let raw = median(
            &rs.iter()
                .map(|r| r.phases[i].rate.1 / r.phases[i].t.wall_s)
                .collect::<Vec<_>>(),
        );
        println!(
            "phase {workload} {}: {} items; {} {raw} by the uncalibrated clock \
             (median over {n} rounds)",
            p.label, p.items, p.rate.0
        );
        assert!(
            known.iter().any(|(k, _)| *k == p.rate.0),
            "{} is not listed by rate_metrics",
            p.rate.0
        );
    }
    let mut detail: Vec<(String, f64, &'static str, &'static str)> = vec![
        (
            "wall_tasks_per_s".into(),
            round_rate(rs, |t| t.wall_s),
            "tasks/s",
            "wall",
        ),
        (
            "wall_setup_s".into(),
            median(&setups.iter().map(|t| t.wall_s).collect::<Vec<_>>()),
            "s",
            "wall",
        ),
        (
            "calibration_s".into(),
            median(
                &rs.iter()
                    .flat_map(|r| r.phases.iter().map(|p| p.t.cal_s))
                    .collect::<Vec<_>>(),
            ),
            "s",
            "wall",
        ),
    ];
    for (name, v) in call_rates(rs, sensitivity) {
        let unit = known
            .iter()
            .find(|(k, _)| *k == name)
            .map_or("1/s", |(_, u)| *u);
        detail.push((name, v, unit, "wall-calibrated"));
    }
    for (i, (name, _)) in rs[0].model.iter().enumerate() {
        let unit = if name.ends_with("_us") {
            "virtual_us"
        } else {
            "ratio"
        };
        let v = median(&rs.iter().map(|r| r.model[i].1).collect::<Vec<_>>());
        detail.push((name.to_string(), v, unit, "virtual"));
    }
    for (name, v, unit, clock) in &detail {
        println!("detail {workload} {name} {v} {unit} {clock}");
    }
    vec![
        (
            "setup_s".into(),
            median(
                &setups
                    .iter()
                    .map(|t| t.calibrated_s(sensitivity))
                    .collect::<Vec<_>>(),
            ),
            "s",
            "wall-calibrated",
        ),
        (
            "tasks_per_s".into(),
            tasks_per_s(rs, sensitivity),
            "tasks/s",
            "wall-calibrated",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB", "wall"),
    ]
}
