#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Configures the repository's CMake project with bench/suite added to it
(bench_suite.cmake), builds dbtf_bench, runs each requested workload in its
own dbtf_bench process, checks the outputs, and prints every metric as
"workload metric value unit". The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 bench/suite/run.py --workload factorize-socket --seed 3 \
      --seconds 25 --trace 0
  python3 bench/suite/run.py --build build --seed 1   # every workload
  python3 bench/suite/run.py --smoke             # small inputs, both modes

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
with the span recorder on and reports the per-layer metrics (a layer the
workload does not exercise reports 0), writing the spans to
<build>/traces/. With several workloads the last line carries every
workload's result under "workloads". --out FILE also writes the results as
JSON, the input of compare.py. Exit status: 0 when every check passed, 1
when a check failed or a run broke, 2 on bad arguments or a checkout
without the dbtf sources.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SPEC = ROOT / "BENCHMARK.json"
HOOK = SUITE / "bench_suite.cmake"
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message, code=1):
    log(f"run.py: {message}")
    sys.exit(code)


def load_spec():
    if not SPEC.is_file():
        fail(f"{SPEC} is missing", 2)
    with SPEC.open() as f:
        return json.load(f)


def build(build_dir, env):
    """Adds bench/suite to the repository's build tree `build_dir` (once)
    and builds dbtf_bench and the worker daemon."""
    hook = f"CMAKE_PROJECT_dbtf_INCLUDE:FILEPATH={HOOK}"
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file() or hook not in cache.read_text().splitlines():
        subprocess.run(["cmake", "-S", str(ROOT), "-B", str(build_dir),
                        f"-D{hook}"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "dbtf_bench", "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return build_dir / "bench" / "dbtf_bench"


def run_workload(binary, build_dir, env, workload, seed, seconds, trace,
                 smoke):
    """Runs one workload in its own process; returns (exit code, lines,
    result) where result is the parsed last line or None."""
    run_dir = build_dir / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", "--socket-dir=."]
    if trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        cmd.append(f"--trace={trace_dir / f'{workload}-seed{seed}.json'}")
    if smoke:
        cmd.append("--smoke")
    # Socket files go to the run directory; the binary's own process group
    # holds the worker processes, so a timeout can stop them all.
    proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def conform(workload, result, spec, trace):
    """Holds the binary's metrics to BENCHMARK.json: known names and units,
    every end-to-end metric present, per-layer metrics a workload does not
    exercise filled with 0. Returns (metrics, names the binary reported)."""
    group = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    reported = result["metrics"]
    for name, metric in reported.items():
        if name not in units:
            fail(f"{workload} reported {name}, which BENCHMARK.json does not "
                 "define for this mode")
        if metric["unit"] != units[name]:
            fail(f"{workload} reported {name} in {metric['unit']}, "
                 f"BENCHMARK.json says {units[name]}")
    metrics = {}
    for name, unit in units.items():
        if name in reported:
            metrics[name] = {"value": reported[name]["value"], "unit": unit}
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"{workload} did not report {name}")
    return metrics, set(reported)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and 1 s phases, every workload "
                             "untraced and traced; checks that every metric "
                             "is reported, asserts no timings")
    parser.add_argument("--build", type=Path,
                        default=Path(os.environ.get("CARGO_TARGET_DIR") or
                                     ROOT / ".bench_build"),
                        help="build tree of the repository, new or "
                             "existing (default $CARGO_TARGET_DIR, else "
                             ".bench_build at the repository root)")
    parser.add_argument("--out", type=Path,
                        help="also write the results as JSON (compare.py)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dbtf sources at {ROOT}: the benchmark builds the "
             "repository it sits in", 2)
    build_dir = args.build.resolve()
    env = dict(os.environ)
    # Compilers and the program keep their temporary files in the build tree.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    try:
        binary = build(build_dir, env)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    workloads = names if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.smoke else [args.trace]
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    results = {}
    layered = set()  # per-layer metrics some traced run reported itself
    digests = {}
    correct = True
    for trace in modes:
        for workload in workloads:
            code, lines, result = run_workload(
                binary, build_dir, env, workload, args.seed, seconds, trace,
                args.smoke)
            if result is None or code not in (0, 1):
                fail(f"{workload} broke (exit {code}) without a result")
            for line in lines:
                print(line)
            metrics, names_reported = conform(workload, result, spec, trace)
            if trace:
                layered |= names_reported
            ok = code == 0 and result["correct"]
            correct = correct and ok
            if trace == 0:
                digests[workload] = result.get("digests", {})
            results[(workload, trace)] = {
                "correct": ok, "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics if ok else {}}

    # The transports must agree bitwise on every factorization seed.
    inproc = digests.get("factorize-inproc")
    socket = digests.get("factorize-socket")
    if inproc and socket:
        for seed in set(inproc) & set(socket):
            if inproc[seed] != socket[seed]:
                log(f"CHECK FAILED: seed {seed} factors differ between "
                    "factorize-inproc and factorize-socket")
                correct = False

    if args.smoke:
        # conform() already holds every run to its units and every untraced
        # run to the full end-to-end set; per-layer metrics are per workload.
        missing = {m["name"] for m in spec["per_layer"]} - layered
        if missing:
            log(f"CHECK FAILED: no workload reports {sorted(missing)}")
            correct = False
        for key, result in results.items():
            if result["failed"]:
                log(f"CHECK FAILED: {key[0]} had {result['failed']} failed "
                    "operations")
                correct = False

    if args.out:
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": seconds,
            "results": [{"workload": w, "trace": t, **r}
                        for (w, t), r in results.items()]}, indent=1) + "\n")

    if len(results) == 1:
        (only,) = results.values()
        summary = dict(only)
    else:
        summary = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {w + (".trace" if t else ""): r["metrics"]
                          for (w, t), r in results.items()}}
    summary["correct"] = correct
    print(json.dumps(summary), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
