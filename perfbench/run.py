#!/usr/bin/env python3
"""Build and run the benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, depending on the
library crates by path) into $CARGO_TARGET_DIR, or `.bench_build` when
that is unset, then runs it. Build output goes to stderr; stdout carries
the benchmark's report, whose last line is the JSON result. The exit code
is the benchmark's: 0 when every output check passed.

Extra seed overrides (--fmm-seed, --tree-seed, --noise-seed,
--arrival-seed, --data-seed) are passed through unchanged.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the sources the benchmark builds from."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", os.path.basename(HERE)]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


# Signals that asked this script to stop, in order.
STOPPED = []
# The child currently running, in a process group of its own.
CHILD = []


def stop(signum, _frame):
    """Forward a stop signal to the running child's process group. The
    handler only forwards: waiting here would re-enter the `wait` it
    interrupted, whose lock that `wait` still holds."""
    STOPPED.append(signum)
    for child in CHILD:
        try:
            os.killpg(child.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass


def run(cmd, **kw):
    """Run `cmd` to its end in a process group of its own, so that a
    stop signal reaches it and everything it started (rustc under
    cargo); return its exit code."""
    child = subprocess.Popen(cmd, start_new_session=True, **kw)
    CHILD[:] = [child]
    if STOPPED:
        stop(STOPPED[0], None)
    try:
        return child.wait()
    except KeyboardInterrupt:
        stop(signal.SIGINT, None)
        return child.wait()
    finally:
        CHILD.clear()
        if STOPPED:
            # Wait, up to 10 s, for the rest of the group to end too.
            for _ in range(200):
                try:
                    os.killpg(child.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)


def main(argv):
    signal.signal(signal.SIGTERM, stop)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print("perfbench: the library sources are not next to the benchmark", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    code = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if STOPPED:
        return 128 + STOPPED[0]
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    workload = "unknown"
    if "--workload" in argv[:-1]:
        workload = argv[argv.index("--workload") + 1]
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (workload, os.getpid()))
    code = run([exe] + argv + ["--work", work, "--commit", source_id()], cwd=ROOT, env=env)
    # The benchmark removes its work directory itself unless stopped.
    shutil.rmtree(work, ignore_errors=True)
    return 128 + STOPPED[0] if STOPPED else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
