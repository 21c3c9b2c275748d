"""Repetitions of one benchmark workload, in a fresh interpreter.

run.py starts this script from the checkout root, with the monotonic clock
reading taken just before the start (``--t0``). The script imports lwpll
from the checkout's ``src`` and writes the workload's configs into an empty
work directory; that is its set-up. With ``--setup-only`` it stops there.
Otherwise it drives ``lwpll.cli.main`` in-process through the workload's
command sequence again and again, each iteration in an emptied directory,
until the monotonic deadline ``--until`` is near. Iteration 0 warms the
process up and is not timed. Every iteration checks its outputs and hashes
every deterministic output file. The script prints one JSON record as the
last line of its standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lwpll  # noqa: E402
from lwpll import cli  # noqa: E402

from spans import Tracer  # noqa: E402

# Class-mean distance from the origin for the d=784 tasks. At 4 (the CLI
# default) they stay near chance after a few epochs; at 8 accuracy is a
# usable output check.
SEPARATION = 8.0
VERIFY_TOLERANCE = 1e-10


def config_text(**values) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def recorded_accuracy(metrics_path: str) -> float:
    """The `# test_accuracy=` footer a train or sweep run writes."""
    with open(metrics_path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# test_accuracy="):
                return float(line.split("=", 1)[1])
    raise ValueError(f"{metrics_path}: no test accuracy recorded")


class Step:
    """One CLI command of a workload and what it produced."""

    def __init__(self, argv, items=0):
        self.argv = argv
        # Training rows visited, CSV rows written or read, or certified instances.
        self.items = items
        self.rc = None
        self.wall_s = 0.0
        self.stdout = ""
        self.outputs: list[str] = []
        self.checks: dict[str, bool] = {}
        self.accuracies: list[float] = []

    def record(self) -> dict:
        return {"command": self.argv[0], "rc": self.rc, "wall_s": self.wall_s,
                "items": self.items, "checks": self.checks, "accuracies": self.accuracies,
                "digests": {path: sha256(path) for path in self.outputs}}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def accuracy_checks(step: Step, floor: float) -> list[float]:
    """Check that every run recorded a test accuracy and that their mean reaches `floor`."""
    step.accuracies = [recorded_accuracy(p) for p in step.outputs
                       if os.path.basename(p).startswith("metrics_")]
    step.checks["accuracy_recorded"] = bool(step.accuracies)
    step.checks["accuracy_floor"] = bool(step.accuracies and np.mean(step.accuracies) >= floor)
    return step.accuracies


class CorpusCsv:
    """Generate a partial-label CSV corpus, train on it, score a checkpoint."""

    CLASSES, DIM, SIGMA = 10, 784, 1.0
    Q1, Q2, Q3 = 0.5, 0.3, 0.1  # case-3 inclusion rates at ring distance 1, 2, 3

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.n, self.test_n, self.epochs = (100, 25, 2) if smoke else (1000, 250, 20)
        self.floor = 0.0 if smoke else 0.85
        self.configs = {"gen.cfg": config_text(
            **{"gaussian.classes": self.CLASSES, "gaussian.dim": self.DIM,
               "gaussian.separation": SEPARATION, "gaussian.sigma": self.SIGMA,
               "gaussian.n": self.n, "gaussian.test_n": self.test_n, "gaussian.seed": seed,
               "generation.kind": "case3", "generation.q1": self.Q1,
               "generation.q2": self.Q2, "generation.q3": self.Q3,
               "generation.seed": seed, "output.dir": "gen"})}
        self._expected: dict = {}
        self._read_back: dict[str, bool] = {}  # CSV digest -> round-trip check

    def steps(self):
        # This workload's unit of work is a corpus row passing through the CSV layer.
        rows = self.n + self.test_n
        yield Step(["generate", "--config", "gen.cfg", "--quiet"], items=rows)
        (self.corpus,) = glob.glob("gen/*/corpus.csv")
        self.test = os.path.join(os.path.dirname(self.corpus), "test.csv")
        with open("train.cfg", "w", encoding="utf-8") as fh:
            fh.write(config_text(
                **{"dataset.kind": "csv", "dataset.csv": self.corpus,
                   "dataset.test_csv": self.test, "dataset.num_classes": self.CLASSES,
                   "trainer.epochs": self.epochs, "seeds": self.seed, "output.dir": "out"}))
        yield Step(["sweep", "--config", "train.cfg", "--beta", "0,1", "--quiet"],
                   items=2 * rows)
        (self.checkpoint,) = glob.glob(f"out/*/beta1/checkpoint_seed{self.seed}.bin")
        yield Step(["eval", "--checkpoint", self.checkpoint, "--csv", self.test,
                    "--confusion", "confusion.csv", "--quiet"], items=self.test_n)

    def check(self, steps) -> list[float]:
        generate, sweep, evaluate = steps
        generate.checks["corpus_round_trip"] = self.read_back("corpus")
        generate.checks["test_round_trip"] = self.read_back("test")
        accs = accuracy_checks(sweep, self.floor)
        printed = evaluate.stdout.split()[0] if evaluate.stdout else ""
        recorded = recorded_accuracy(self.checkpoint.replace("checkpoint_", "metrics_")
                                     .replace(".bin", ".csv"))
        evaluate.checks["eval_matches_recorded"] = printed == f"accuracy={recorded!r}"
        return accs

    def expected(self) -> dict:
        """Features, candidate masks and labels of the corpus and test CSVs."""
        if not self._expected:
            # `generate` draws train and test rows as one task and the
            # candidate sets from stream 0 of the generation seed.
            full = lwpll.make_gaussian_task(self.CLASSES, self.DIM, self.n + self.test_n,
                                            SEPARATION, self.SIGMA, self.seed)
            labels = full.true_labels
            model = lwpll.make_case(self.CLASSES, 3, q1=self.Q1, q2=self.Q2, q3=self.Q3)
            masks = model.sample_sets(labels[: self.n], lwpll.make_rng(self.seed, stream=0))
            test_labels = labels[self.n:]
            test_masks = np.zeros((self.test_n, self.CLASSES), dtype=bool)
            test_masks[np.arange(self.test_n), test_labels] = True
            self._expected = {
                "corpus": (full.features[: self.n], masks, labels[: self.n]),
                "test": (full.features[self.n:], test_masks, test_labels)}
        return self._expected

    def read_back(self, which: str) -> bool:
        """Check one CSV against the regenerated arrays, once per distinct content."""
        path = self.corpus if which == "corpus" else self.test
        digest = sha256(path)
        if digest not in self._read_back:
            self._read_back[digest] = read_back_equal(path, *self.expected()[which])
        return self._read_back[digest]


def read_back_equal(path, features, masks, labels) -> bool:
    """Parse a partial-label CSV independently of lwpll; compare bit for bit.

    Rows are compared one at a time, so the check adds little to the
    process's peak memory.
    """
    d = features.shape[1]
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for i, row in enumerate(reader):
            rows += 1
            if i >= len(labels) or len(row) != d + 2:
                return False
            got = np.array([float(v) for v in row[:d]], dtype=np.float64)
            got_mask = np.zeros(masks.shape[1], dtype=bool)
            got_mask[[int(tok) for tok in row[d].split("|")]] = True
            if (got.tobytes() != features[i].tobytes() or not np.array_equal(got_mask, masks[i])
                    or int(row[d + 1]) != labels[i]):
                return False
    return rows == len(labels)


class VerifyK8:
    """The brute-force certifier over K = 2..8."""

    def __init__(self, seed: int, smoke: bool, inject_error: bool = False):
        self.argv = ["verify", "--trials", "30" if smoke else "1000", "--seed", str(seed),
                     "--quiet"] + (["--inject-beta-error"] if inject_error else [])
        self.configs = {}

    def steps(self):
        yield Step(self.argv)

    def check(self, steps) -> list[float]:
        (step,) = steps
        try:
            report = json.loads(step.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = {}
        step.items = int(report.get("instances", 0))
        step.checks["pass"] = report.get("pass") is True
        step.checks["max_discrepancy"] = report.get("max_discrepancy", 1.0) < VERIFY_TOLERANCE
        return []


WORKLOADS = {"corpus-csv": CorpusCsv, "verify-k8": VerifyK8}


def output_files() -> set[str]:
    """Deterministic outputs below the work directory; manifests carry wall times."""
    return {os.path.normpath(os.path.join(d, f)) for d, _, files in os.walk(".") for f in files
            if f.endswith((".csv", ".bin"))}


def environment() -> dict:
    """Interpreter, library, BLAS and machine facts this process ran with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_vendor": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "LW_THREADS": os.environ.get("LW_THREADS"), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def run_step(step: Step) -> None:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            step.rc = cli.main(step.argv)
        except SystemExit as exc:
            step.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            step.rc = -1
    step.wall_s = time.perf_counter() - start
    step.stdout = buf.getvalue()


def write_configs(workload) -> None:
    for name, text in workload.configs.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)


def run_iteration(workload, index: int, traced: bool) -> tuple[dict, Tracer | None]:
    """One pass through the workload's commands in the emptied directory ``it``."""
    shutil.rmtree("it", ignore_errors=True)
    os.mkdir("it")
    os.chdir("it")
    try:
        write_configs(workload)
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        steps: list[Step] = []
        seen: set[str] = set()
        try:
            for step in workload.steps():
                run_step(step)
                current = output_files()
                step.outputs = sorted(current - seen)
                seen = current
                steps.append(step)
                if step.rc != 0:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        accs: list[float] = []
        if all(step.rc == 0 for step in steps):
            try:
                accs = workload.check(steps)
            except (OSError, ValueError) as exc:
                print(f"output check failed: {exc}", file=sys.stderr)
                steps[-1].checks["outputs_readable"] = False
        record = {
            "index": index,
            "traced": traced,
            "wall_s": sum(step.wall_s for step in steps),
            "test_accuracy": float(np.mean(accs)) if accs else None,
            "steps": [step.record() for step in steps],
        }
    finally:
        os.chdir("..")
        shutil.rmtree("it", ignore_errors=True)
    if tracer:
        record["layers"] = tracer.layer_metrics()
    return record, tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once set up and report only the set-up time")
    parser.add_argument("--until", type=float, default=0.0,
                        help="monotonic clock reading by which to stop iterating")
    parser.add_argument("--min-timed", type=int, default=1,
                        help="timed iterations to run even past --until")
    parser.add_argument("--spans", help="trace every odd iteration; write the last one's spans here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-beta-error", action="store_true")
    args = parser.parse_args()

    extra = {"inject_error": True} if args.inject_beta_error else {}
    workload = WORKLOADS[args.workload](args.seed, args.smoke, **extra)
    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    write_configs(workload)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    iterations: list[dict] = []
    costs: list[float] = []
    last_tracer = None
    while True:
        index = len(iterations)
        started = time.monotonic()
        record, tracer = run_iteration(workload, index, bool(args.spans) and index % 2 == 1)
        costs.append(time.monotonic() - started)
        iterations.append(record)
        last_tracer = tracer or last_tracer
        # Iteration 0 is the warm-up; a traced run needs a timed iteration of each kind.
        timed = len(iterations) - 1
        enough = timed >= max(args.min_timed, 2 if args.spans else 1)
        if enough and time.monotonic() + statistics.median(costs) > args.until:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if last_tracer:
        last_tracer.write(os.path.join(ROOT, args.spans))
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                      "environment": environment(), "iterations": iterations}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
