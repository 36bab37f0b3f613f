"""wsrbeam benchmark: per-algorithm solve time and weighted sum rate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is wide-array, dense-overload, sweep-pool, or all.  Each workload runs in
a fresh Python process with BLAS pinned to one thread.  With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json; ``setup_s`` is the median
wall time of several fresh processes that only import wsrbeam and build the
workload's inputs, timed before, during (the run pauses) and after the
timed phase.  With --trace 1 a separate traced run reports the
per-layer metrics.  Outputs are checked; a failed check marks the run
incorrect and reports no numbers.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

The launcher uses only the standard library, so numpy is first imported in
a child whose environment already pins the BLAS threads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

WORKLOADS = ("wide-array", "dense-overload", "sweep-pool")
DEFAULT_SEED = 0
# Set-up probes: SETUP_EACH before the timed phase, SETUP_EACH at each of
# SETUP_PAUSES pauses spread over it, and SETUP_EACH after it, so a run
# samples the speed of a shared machine at several moments.
SETUP_PAUSES = 3
SETUP_EACH = 2
DEADLINE_S = 170.0  # a run must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RESULTS = ROOT / ".bench_build" / "perfbench"


class ChildFailed(Exception):
    pass


def _child(args: list[str], deadline: float, on_pause=None) -> str:
    """Run workloads.py with pinned BLAS threads and return its standard
    output.  Each ``pause`` line it prints calls ``on_pause`` and then
    resumes it.  Its whole process group (pool workers too) is killed if it
    outlives ``deadline`` (a time.monotonic() value)."""
    env = dict(os.environ, **PINNED)
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args], env=env,
                            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    expired = threading.Event()

    def kill():
        expired.set()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), kill)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            if line.strip() == "pause" and on_pause is not None:
                on_pause()
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if expired.is_set():
        raise ChildFailed("timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"exited with code {proc.returncode}")
    return "".join(lines)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(RESULTS)]
    setup: list[float] = []

    def probe(count: int = SETUP_EACH) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            _child(common + ["--setup-only"], deadline)
            setup.append(time.perf_counter() - t0)

    if trace:
        out = _child(common + ["--seconds", repr(seconds), "--trace", "1"], deadline)
    else:
        probe()
        out = _child(common + ["--seconds", repr(seconds), "--trace", "0",
                               "--pauses", str(SETUP_PAUSES)], deadline, on_pause=probe)
        probe(max(SETUP_EACH, SETUP_EACH * (SETUP_PAUSES + 2) - len(setup)))
    payload = json.loads(out.strip().splitlines()[-1])
    if setup:
        payload["metrics"]["setup_s"] = statistics.median(setup)
        payload["notes"]["setup_s"] = (f"median of {len(setup)} fresh processes, spread over "
                                       "the run")
        payload["info"]["setup_samples_s"] = setup
    payload.update(workload=name, seed=seed, default_seed=DEFAULT_SEED, seconds=seconds,
                   trace=trace)
    (RESULTS / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def report(payload: dict, expected) -> bool:
    """Print one workload's numbers; True when the run is correct."""
    name = payload["workload"]
    print(f"== {name}  seed {payload['seed']} (default {payload['default_seed']})  "
          f"trace {payload['trace']}  {payload['seconds']:g} s")
    info = payload["info"]
    env = info.get("env", {})
    print("env " + json.dumps({k: env.get(k) for k in
                               ("cpu_count", "python", "numpy", "scipy", "blas_threads")}))
    blas = env.get("numpy_config", {}).get("Build Dependencies", {}).get("blas", {})
    print("blas " + json.dumps(blas, sort_keys=True))
    for problem in payload["problems"]:
        print(f"FAIL {name}: {problem}")
    metrics = payload.get("metrics", {})
    missing = [m for m in expected if m not in metrics]
    if missing:
        print(f"FAIL {name}: metrics not measured: {', '.join(missing)}")
    correct = not payload["problems"] and not payload["failed"] and not missing
    if correct:
        notes = payload.get("notes", {})
        for metric in expected:
            note = f"  ({notes[metric]})" if metric in notes else ""
            print(f"{metric} = {metrics[metric]!r} {M.UNITS[metric]}{note}")
        for key in sorted(info):
            if key.startswith("share_sum."):
                print(f"{key} = {info[key]!r}  (block shares plus driver_self; must be 1 +- 0.01)")
        for key in ("ammmse_over_wmmse", "ammmse_over_mmmse"):
            if key in info:
                print(f"{key} = {info[key]!r}  (ratio of median solve times; informational, "
                      "not gated)")
        if "peak_rss_mb" in info:
            print(f"peak_rss_mb = {info['peak_rss_mb']!r} MB  (peak resident memory of the run "
                  "process, on sweep-pool also of its pool workers; informational, not gated)")
        for key in sorted(k for k in info if k.endswith("_invocation_ms_p50")):
            print(f"{key} = {info[key]!r} ms  (median `wsrbeam run --verify` wall time; "
                  "informational, not gated)")
    print(f"attempted {payload['attempted']}, failed {payload['failed']}, "
          f"error share {info.get('error_share', 0.0)!r}")
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wsrbeam" / "__init__.py").is_file():
        print(f"error: no wsrbeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2

    table = M.PER_LAYER if args.trace else M.END_TO_END
    expected = [name for name, _, _ in table]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            payload = run_workload(name, args.seed, args.seconds, args.trace)
        except (ChildFailed, ValueError, KeyError) as exc:
            print(f"FAIL {name}: run did not complete: {exc}")
            correct = False
            continue
        ok = report(payload, expected)
        correct = correct and ok
        attempted += payload["attempted"]
        failed += payload["failed"]
        if ok:
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + m: {"value": payload["metrics"][m], "unit": M.UNITS[m]}
                            for m in expected})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
