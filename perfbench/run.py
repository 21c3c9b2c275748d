"""lwpll benchmark: end-to-end CLI workloads and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run starts a few workers (worker.py) that only set up, to time set-up,
then one worker that repeats the workload in-process until ``--seconds``
have been spent. The timed iterations follow one warm-up iteration. With
``--trace 0`` it prints the end-to-end metrics: the median set-up time, the
mean wall time of an iteration, throughput over all timed iterations and
peak memory. With ``--trace 1`` the worker alternates untraced and traced
iterations and the run prints the median per-layer metrics of the traced
ones, plus the tracing overhead. The last line of standard output is the result object; the line
before it, and ``.bench_runs/<workload>_seed<N>_trace<T>/result.json``,
hold the full record: environment, per-iteration figures and output
digests.

``--smoke`` runs every workload at a tiny size, traced and untraced, checks
that each metric named in BENCHMARK.json is emitted with its unit, and that
a corrupted certifier (``verify --inject-beta-error``) is counted as failed.
See NOTES.md for why each workload exists and which layer should move which
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
WORKLOADS = ("corpus-csv", "verify-k8")
# Timed iterations after the warm-up, even if they run past --seconds.
MIN_TIMED = 3
# Workers that only set up, started before the iterating one; setup_s is the
# median over them and the iterating worker.
SETUP_PROBES = 4
# How long a worker may run past its deadline before it is stopped, so that
# a 60-s run ends within 180 s even when an iteration or a set-up hangs.
WORKER_GRACE_S = 90
SETUP_TIMEOUT_S = 15
# Both fixed at or below nproc: one BLAS thread, and serial sweep runs.
BLAS_THREADS = 1
LW_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict[str, str]:
    # A fixed hash seed keeps set and dict layouts, and so peak memory, repeatable.
    env = dict(os.environ, LW_THREADS=str(LW_THREADS), PYTHONHASHSEED="0")
    env.update({key: str(BLAS_THREADS) for key in BLAS_ENV})
    return env


def run_worker(workload: str, seed: int, run_dir: str, *, setup_only: bool = False,
               until: float = 0.0, min_timed: int = 1, trace: bool = False,
               smoke: bool = False, inject: bool = False) -> dict | None:
    """Start worker.py once and wait for it; None if it produced no record."""
    workdir = os.path.join(run_dir, "work")
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--until", repr(until), "--min-timed", str(min_timed)]
    if trace:
        cmd += ["--spans", os.path.join(run_dir, "spans.jsonl")]
    if smoke:
        cmd.append("--smoke")
    if inject:
        cmd.append("--inject-beta-error")
    # Past its deadline a worker finishes the iteration it is in; the grace
    # allows for that, within the run's time limit.
    timeout = (SETUP_TIMEOUT_S if setup_only
               else max(until - time.monotonic(), 0.0) + WORKER_GRACE_S)
    t0 = time.monotonic()
    try:
        out = subprocess.run(cmd + ["--t0", repr(t0)], env=worker_env(), cwd=ROOT,
                             stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print(f"{workload}: worker exited with {out.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def count_failures(iterations: list[dict]) -> tuple[int, int]:
    """(commands attempted, commands failed) over all iterations.

    A command fails when it exits non-zero, fails an output check, or writes
    a file whose digest differs from the first iteration's.
    """
    attempted = failed = 0
    reference: dict[str, str] = {}
    for iteration in iterations:
        for step in iteration["steps"]:
            attempted += 1
            for path, digest in step["digests"].items():
                reference.setdefault(path, digest)
            stable = all(reference[p] == d for p, d in step["digests"].items())
            if step["rc"] != 0 or not all(step["checks"].values()) or not stable:
                failed += 1
    return attempted, failed


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            inject: bool = False) -> tuple[dict, dict]:
    """Run the workload for `seconds`; return (result object, full record).

    An untraced run first starts SETUP_PROBES workers that only set up, then
    one worker that iterates until the deadline. A traced run starts only the
    iterating worker, which traces every other iteration.
    """
    tag = f"{workload}_seed{seed}_trace{int(trace)}" + ("_smoke" if smoke else "")
    run_dir = os.path.join(RUNS_DIR, tag)
    os.makedirs(run_dir, exist_ok=True)
    started = time.monotonic()
    probes = 0 if trace else (1 if smoke else SETUP_PROBES)
    setups = [run_worker(workload, seed, run_dir, setup_only=True, smoke=smoke)
              for _ in range(probes)]
    main = run_worker(workload, seed, run_dir, until=started + seconds, trace=trace,
                      min_timed=1 if smoke else MIN_TIMED, smoke=smoke, inject=inject)
    if main is None:
        raise RuntimeError(f"{workload}: the iterating worker produced no record")
    iterations = main["iterations"]
    attempted, failed = count_failures(iterations)
    # A set-up probe that failed counts as one failed attempt.
    attempted += sum(probe is None for probe in setups)
    failed += sum(probe is None for probe in setups)
    timed = iterations[1:]
    plain = [it for it in timed if not it["traced"]]
    traced_its = [it for it in timed if it["traced"]]

    def median(key, rows):
        return statistics.median(row[key] for row in rows)

    def throughput(rows):
        done = [s for it in rows for s in it["steps"] if s["items"]]
        return sum(s["items"] for s in done) / sum(s["wall_s"] for s in done) if done else 0.0

    if trace:
        values = {key: statistics.median(it["layers"][key] for it in traced_its)
                  for key in traced_its[0]["layers"]}
        values["trace.overhead_s"] = median("wall_s", traced_its) - median("wall_s", plain)
    else:
        # The host's CPU speed switches between a fast and a slow phase. The
        # median of a run's iterations jumps between the two as their mix
        # changes; the mean, and the throughput over the whole run, follow
        # the mix smoothly and spread less from run to run (NOTES.md).
        values = {
            "setup_s": statistics.median([main["setup_s"]] +
                                         [probe["setup_s"] for probe in setups if probe]),
            "wall_s": statistics.fmean(it["wall_s"] for it in plain),
            "items_per_s": throughput(plain),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    units = metric_units(trace)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": values[key], "unit": units[key]} for key in units}}
    accs = [it["test_accuracy"] for it in plain if it["test_accuracy"] is not None]
    digests = {path: digest for it in iterations for step in it["steps"]
               for path, digest in step["digests"].items()}
    listing = "".join(f"{path} {digest}\n" for path, digest in sorted(digests.items()))
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": dict(main["environment"], seed=seed),
        "elapsed_s": time.monotonic() - started,
        "failed_frac": failed / attempted,
        "test_accuracy": statistics.mean(accs) if accs else None,
        "digests": digests,
        # One SHA-256 over the sorted "path digest" lines, short enough to cite.
        "outputs_sha256": hashlib.sha256(listing.encode()).hexdigest(),
        "setup_probes_s": [probe and probe["setup_s"] for probe in setups],
        "setup_s": main["setup_s"],
        "peak_rss_mb": main["peak_rss_mb"],
        "wall_s_median": median("wall_s", plain),
        "wall_s_range": [min(it["wall_s"] for it in plain), max(it["wall_s"] for it in plain)],
        "iterations": [{k: v for k, v in it.items() if k != "layers"} for it in iterations],
        "result": result,
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result, record


def metric_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for one kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def smoke() -> int:
    """Tiny runs of every workload; assert metric names, units and failure counting."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = measure(workload, 0, 0.0, trace, smoke=True)
            expected = metric_units(trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{workload} trace={int(trace)}: metrics {got} != {expected}")
            if result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed")
            print(f"smoke {workload} trace={int(trace)}: attempted={result['attempted']} "
                  f"failed={result['failed']}")
    result, record = measure("verify-k8", 0, 0.0, False, smoke=True, inject=True)
    print(f"smoke verify-k8 --inject-beta-error: failed_frac={record['failed_frac']}")
    if not record["failed_frac"] > 0:
        problems.append("an injected certifier error was not counted as failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny runs of every workload")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "lwpll", "__init__.py")):
        print(f"error: no lwpll sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({k: v for k, v in record.items() if k != "iterations"}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
