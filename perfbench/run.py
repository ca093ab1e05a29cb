#!/usr/bin/env python3
"""Build the SVC benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/svcbench.exe with dune (release profile, build directory
.bench_build, dune cache off, temporary files under .bench_out, so nothing
is written outside the checkout),
runs it once in its own process group and relays its output.  The last
line of standard output is the result JSON; run.py checks that it names
exactly the metrics BENCHMARK.json declares for the mode.  A checkout that
cannot be built (for instance a directory holding only the benchmark's own
files) makes run.py exit non-zero without printing a result.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "svcbench.exe")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in a new process group; on timeout kill the whole group.
    Temporary files (the compiler's among them) go under OUT_DIR."""
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, env=env, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s", 124)
    return proc.returncode, out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    argv = sys.argv[1:]
    if "--trace" not in argv or argv.index("--trace") + 1 >= len(argv):
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    trace = argv[argv.index("--trace") + 1] == "1"
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail(f"no dune project with lib/ at {ROOT}")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    code, _ = run_group(
        [dune, "build", "--root", ROOT, "--profile", "release", "--cache=disabled",
         "--build-dir", BUILD_DIR, "./perfbench/svcbench.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})", code or 1)
    code, out = run_group(
        [EXE, *argv, "--out", OUT_DIR],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if code != 0:
        fail(f"svcbench exited {code}", code)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))}, "
             f"unit changes {sorted(k for k in got if k in want and got[k] != want[k])}", 3)
    print(lines[-1])


if __name__ == "__main__":
    main()
