"""Experiment harness: generate corpora, train, evaluate, sweep, verify.

Configs are plain ``key = value`` text with ``#`` comments and dotted keys
(``trainer.epochs = 30``). Every key is validated against a fixed schema and
unknown keys are hard errors. A run's identity is the fingerprint: the
SHA-256 of the normalized effective config (defaults filled in, output
directory excluded, seeds included), truncated to 12 hex digits. All
artifacts land under ``<output.dir>/<fingerprint>/`` and every metrics file
carries the fingerprint, so identical fingerprints mean byte-identical
metrics. Wall-clock timings go to the manifest, never into metrics CSVs.

A run directory appears whole or not at all: it is built in a hidden stage
``<output.dir>/.<fingerprint>.*``, finished with ``manifest.json`` and then
renamed into place. A failure removes the stage, so a failed rerun keeps
the previous directory. Bad input exits 2; a diverged run exits 1.

Sweeps pair runs across loss settings: for a given seed the corpus, the
candidate sets, the parameter init, and the shuffle order are identical for
every (alpha, beta) variant; the logged first-batch indices prove it.
``train`` is a one-variant sweep. ``LW_THREADS`` (default 1) caps worker
processes for the runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from . import consistency, labelgen
from .data import (
    Dataset,
    load_idx,
    load_partial_csv,
    make_gaussian_task,
    save_partial_csv,
    standardize,
    take,
    with_candidates,
)
from .losses import LWConfig, get_loss
from .model import (
    TrainerConfig,
    TrainingDiverged,
    accuracy,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .rng import make_rng

THEOREM1_TOL = 1e-10
LEMMA1_TOL = 1e-12
UNIFORM_RECOVERY_TOL = 1e-12

_TRAINABLE_PSI = ("sigmoid", "ramp", "cross_entropy")
_DEFAULT_SWEEP_BETAS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
ABLATION_VARIANTS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
_TEST_SET_KEY = {"gaussian": "gaussian.test_n", "csv": "dataset.test_csv",
                 "idx": "dataset.test_images"}


class ConfigError(ValueError):
    """Bad config file: unknown key, wrong type, or invalid combination."""


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_seeds(text: str) -> tuple[int, ...]:
    seeds = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not seeds:
        raise ValueError("seeds list is empty")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"duplicate seed {seed}")
    return seeds


# key -> (caster, default). The effective config always carries every key.
_SCHEMA = {
    "dataset.kind": (str, "gaussian"),
    "dataset.csv": (str, ""),
    "dataset.test_csv": (str, ""),
    "dataset.images": (str, ""),
    "dataset.labels": (str, ""),
    "dataset.test_images": (str, ""),
    "dataset.test_labels": (str, ""),
    "dataset.limit": (int, 0),
    "dataset.num_classes": (int, 0),
    "dataset.standardize": (_parse_bool, False),
    "gaussian.classes": (int, 3),
    "gaussian.dim": (int, 2),
    "gaussian.n": (int, 3000),
    "gaussian.separation": (float, 4.0),
    "gaussian.sigma": (float, 1.0),
    "gaussian.test_n": (int, 1000),
    "gaussian.seed": (int, 0),
    "generation.kind": (str, "uniform"),
    "generation.q": (float, 0.3),
    "generation.q1": (float, 0.5),
    "generation.q2": (float, 0.3),
    "generation.q3": (float, 0.1),
    "generation.reject_full": (_parse_bool, False),
    "generation.seed": (int, 0),
    "model.arch": (str, "linear"),
    "model.hidden": (int, 64),
    "loss.psi": (str, "sigmoid"),
    "loss.beta": (float, 1.0),
    "loss.alpha": (float, 1.0),
    "trainer.learning_rate": (float, 0.05),
    "trainer.epochs": (int, 30),
    "trainer.batch_size": (int, 256),
    "trainer.momentum": (float, 0.9),
    "trainer.weight_decay": (float, 0.0),
    "trainer.lr_halving_period": (int, 50),
    "trainer.val_fraction": (float, 0.1),
    "trainer.per_batch_weight_update": (_parse_bool, False),
    "seeds": (_parse_seeds, (0,)),
    "output.dir": (str, "out"),
}

_CHOICES = {
    "dataset.kind": ("gaussian", "csv", "idx"),
    "generation.kind": ("uniform", "case1", "case2", "case3", "none"),
    "model.arch": ("linear", "mlp"),
    "loss.psi": _TRAINABLE_PSI,
}


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings from `key = value` lines; '#' starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


class ExperimentConfig:
    """Typed, fully defaulted view of a config mapping."""

    def __init__(self, raw: dict[str, str]):
        unknown = sorted(set(raw) - set(_SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values = {}
        for key, (cast, default) in _SCHEMA.items():
            if key in raw:
                try:
                    values[key] = cast(raw[key])
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from None
            else:
                values[key] = default
        for key, choices in _CHOICES.items():
            if values[key] not in choices:
                raise ConfigError(
                    f"{key} must be one of {', '.join(choices)}, got {values[key]!r}"
                )
        self.values = values

    @classmethod
    def from_values(cls, values: dict) -> "ExperimentConfig":
        """Config over already-typed values, one for every schema key."""
        cfg = cls.__new__(cls)
        cfg.values = values
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls(parse_config_text(fh.read()))

    def __getitem__(self, key: str):
        return self.values[key]

    def override(self, **pairs) -> "ExperimentConfig":
        return ExperimentConfig.from_values({**self.values, **pairs})

    def normalized_lines(self, extra: dict | None = None) -> list[str]:
        """Canonical `key=value` lines (sorted, output.dir excluded)."""
        items = {k: v for k, v in self.values.items() if k != "output.dir"}
        if extra:
            items.update(extra)
        lines = []
        for key in sorted(items):
            v = items[key]
            if isinstance(v, bool):
                text = "true" if v else "false"
            elif isinstance(v, float):
                text = repr(v)
            elif isinstance(v, tuple):
                text = ",".join(str(x) for x in v)
            else:
                text = str(v)
            lines.append(f"{key}={text}")
        return lines

    def fingerprint(self, extra: dict | None = None) -> str:
        blob = "\n".join(self.normalized_lines(extra)).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _generation_model(cfg: ExperimentConfig, num_classes: int):
    kind = cfg["generation.kind"]
    reject = cfg["generation.reject_full"]
    if kind == "none":
        return None
    if kind == "uniform":
        return labelgen.make_uniform(num_classes, cfg["generation.q"], reject_full=reject)
    case = int(kind.removeprefix("case"))
    return labelgen.make_case(
        num_classes,
        case,
        q1=cfg["generation.q1"],
        q2=cfg["generation.q2"],
        q3=cfg["generation.q3"],
        reject_full=reject,
    )


def _load_source(cfg: ExperimentConfig, seed_shift: int) -> tuple[Dataset, Dataset | None]:
    """Supervised (or already-partial) train and optional test datasets."""
    kind = cfg["dataset.kind"]
    if kind == "gaussian":
        n, test_n = cfg["gaussian.n"], cfg["gaussian.test_n"]
        full = make_gaussian_task(
            cfg["gaussian.classes"],
            cfg["gaussian.dim"],
            n + test_n,
            cfg["gaussian.separation"],
            cfg["gaussian.sigma"],
            cfg["gaussian.seed"] + seed_shift,
        )
        train_ds = take(full, np.arange(n))
        test_ds = take(full, np.arange(n, n + test_n)) if test_n > 0 else None
        return train_ds, test_ds
    if kind == "idx":
        for key in ("dataset.images", "dataset.labels"):
            if not cfg[key]:
                raise ConfigError(f"dataset.kind=idx requires {key}")
        train_ds = load_idx(cfg["dataset.images"], cfg["dataset.labels"])
        test_ds = None
        if cfg["dataset.test_images"]:
            test_ds = load_idx(cfg["dataset.test_images"], cfg["dataset.test_labels"])
    else:
        if not cfg["dataset.csv"]:
            raise ConfigError("dataset.kind=csv requires dataset.csv")
        classes = cfg["dataset.num_classes"] or None
        train_ds = load_partial_csv(cfg["dataset.csv"], num_classes=classes)
        test_ds = None
        if cfg["dataset.test_csv"]:
            test_ds = load_partial_csv(
                cfg["dataset.test_csv"], num_classes=train_ds.num_classes
            )
            if test_ds.true_labels is None:
                raise ConfigError("the test set has no true labels to score against")
    limit = cfg["dataset.limit"]
    if limit > 0 and len(train_ds) > limit:
        train_ds = take(train_ds, np.arange(limit))
    return train_ds, test_ds


def _prepare_run(
    cfg: ExperimentConfig, seed: int, source: tuple[Dataset, Dataset | None] | None
) -> tuple[Dataset, Dataset | None]:
    """Partially labeled train set plus optional labeled test set for one seed."""
    if source is None:
        source = _load_source(cfg, seed_shift=seed)
    train_ds, test_ds = source
    if train_ds.partial_masks is None:
        model = _generation_model(cfg, train_ds.num_classes)
        if model is None:
            raise ConfigError(
                "the training source has no candidate sets and generation.kind=none"
            )
        if train_ds.true_labels is None:
            raise ConfigError("candidate-set generation needs true labels")
        masks = model.sample_sets(
            train_ds.true_labels, make_rng(cfg["generation.seed"], stream=seed)
        )
        train_ds = with_candidates(train_ds, masks)
    if cfg["dataset.standardize"]:
        if test_ds is None:
            (train_ds,) = standardize(train_ds)
        else:
            train_ds, test_ds = standardize(train_ds, test_ds)
    return train_ds, test_ds


def _write_metrics_csv(path: str, fingerprint: str, metrics, test_accuracy) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# fingerprint={fingerprint}\n")
        fh.write("epoch,lr,risk,train_accuracy,val_accuracy\n")
        for row in metrics:
            fh.write(
                f"{row.epoch},{row.lr!r},{row.risk!r},"
                f"{row.train_accuracy!r},{row.val_accuracy!r}\n"
            )
        if test_accuracy is not None:
            fh.write(f"# test_accuracy={test_accuracy!r}\n")


@dataclass
class RunOutcome:
    seed: int
    alpha: float
    beta: float
    metrics_path: str
    checkpoint_path: str
    test_accuracy: float | None
    final_risk: float | None
    first_batch_indices: list[int]
    wall_clock_seconds: float


def _execute_run(cfg: ExperimentConfig, alpha: float, beta: float, seed: int,
                 run_dir: str, fingerprint: str,
                 source: tuple[Dataset, Dataset | None] | None) -> RunOutcome:
    """One deterministic training run; writes its metrics CSV and checkpoint.

    `source` is the command's shared (train, test) pair, or None to load
    the source for this seed.
    """
    started = time.perf_counter()
    train_ds, test_ds = _prepare_run(cfg, seed, source)
    result = train(
        train_ds,
        LWConfig(beta=beta, alpha=alpha, psi=get_loss(cfg["loss.psi"])),
        TrainerConfig(
            learning_rate=cfg["trainer.learning_rate"],
            epochs=cfg["trainer.epochs"],
            batch_size=cfg["trainer.batch_size"],
            momentum=cfg["trainer.momentum"],
            weight_decay=cfg["trainer.weight_decay"],
            lr_halving_period=cfg["trainer.lr_halving_period"],
            seed=seed,
        ),
        arch=cfg["model.arch"],
        hidden=cfg["model.hidden"],
        val_fraction=cfg["trainer.val_fraction"],
        per_batch_weight_update=cfg["trainer.per_batch_weight_update"],
    )
    test_acc = accuracy(result.params, test_ds) if test_ds is not None else None
    os.makedirs(run_dir, exist_ok=True)
    metrics_path = os.path.join(run_dir, f"metrics_seed{seed}.csv")
    checkpoint_path = os.path.join(run_dir, f"checkpoint_seed{seed}.bin")
    _write_metrics_csv(metrics_path, fingerprint, result.metrics, test_acc)
    save_checkpoint(result.params, checkpoint_path)
    return RunOutcome(
        seed=seed,
        alpha=alpha,
        beta=beta,
        metrics_path=metrics_path,
        checkpoint_path=checkpoint_path,
        test_accuracy=test_acc,
        final_risk=result.metrics[-1].risk if result.metrics else None,
        first_batch_indices=[int(i) for i in result.first_batch_indices],
        wall_clock_seconds=time.perf_counter() - started,
    )


def _worker_count() -> int:
    """Worker processes allowed by LW_THREADS (default 1); must be >= 1."""
    text = os.environ.get("LW_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"LW_THREADS must be an integer >= 1, got {text!r}")
    return workers


@contextmanager
def _run_directory(cfg: ExperimentConfig, fp: str, command: str):
    """Yield (stage, publish): the one writer of <output.dir>/<fp>.

    Artifacts go into `stage`, a hidden `.<fp>.*` directory in output.dir.
    `publish(body)` writes manifest.json last, with the fingerprint, command
    and config added to `body`, then renames the stage to <output.dir>/<fp>,
    replacing an earlier run's directory. Leaving the block unpublished
    removes the stage, and output.dir if this call made it.
    """
    out_dir = cfg["output.dir"]
    made_out_dir = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=f".{fp}.", dir=out_dir)
    # mkdtemp makes the stage private (0700); give it the mode os.mkdir would.
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(stage, 0o777 & ~umask)

    def publish(body: dict) -> None:
        manifest = {**body, "fingerprint": fp, "command": command, "config": cfg.values}
        with open(os.path.join(stage, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        final, retired = os.path.join(out_dir, fp), stage + ".old"
        if os.path.isdir(final):
            os.replace(final, retired)
        os.replace(stage, final)
        shutil.rmtree(retired, ignore_errors=True)

    try:
        yield stage, publish
    finally:
        shutil.rmtree(stage, ignore_errors=True)  # already gone once published
        if made_out_dir:
            with suppress(OSError):  # only an empty output.dir is removed
                os.rmdir(out_dir)


def _run_record(out: RunOutcome, stage: str) -> dict:
    """The manifest entry of one run, file names relative to the run directory."""
    return {
        "seed": out.seed,
        "test_accuracy": out.test_accuracy,
        "first_batch_indices": out.first_batch_indices,
        "wall_clock_seconds": out.wall_clock_seconds,
        "metrics": os.path.relpath(out.metrics_path, stage),
    }


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def cmd_generate(cfg: ExperimentConfig, quiet: bool = False) -> int:
    """Sample one partial-label corpus and write it with a manifest."""
    if cfg["dataset.kind"] == "csv":
        raise ConfigError("dataset.kind=csv is already a partial corpus")
    if cfg["generation.kind"] == "none":
        raise ConfigError("cmd generate needs a generation model")
    fp = cfg.fingerprint(extra={"command": "generate"})
    train_ds, test_ds = _load_source(cfg, seed_shift=0)
    model = _generation_model(cfg, train_ds.num_classes)
    masks = model.sample_sets(
        train_ds.true_labels, make_rng(cfg["generation.seed"], stream=0)
    )
    corpus = with_candidates(train_ds, masks)
    files = {"corpus": (corpus, "corpus.csv")}
    if test_ds is not None:
        test_masks = np.zeros((len(test_ds), test_ds.num_classes), dtype=bool)
        test_masks[np.arange(len(test_ds)), test_ds.true_labels] = True
        files["test"] = (with_candidates(test_ds, test_masks), "test.csv")
    run_dir = os.path.join(cfg["output.dir"], fp)
    sizes = masks.sum(axis=1)
    histogram = {int(s): int(c) for s, c in zip(*np.unique(sizes, return_counts=True))}
    with _run_directory(cfg, fp, "generate") as (stage, publish):
        for dataset, name in files.values():
            save_partial_csv(dataset, os.path.join(stage, name))
        publish({
            "generation_seed": cfg["generation.seed"],
            "q_matrix_sha256": hashlib.sha256(
                np.ascontiguousarray(model.q, dtype="<f8").tobytes()
            ).hexdigest(),
            "set_size_histogram": histogram,
            "mean_set_size": float(sizes.mean()),
            "paths": {key: os.path.join(run_dir, name) for key, (_, name) in files.items()},
        })
    _say(quiet, f"generate {fp}: {len(corpus)} rows, mean set size {sizes.mean():.3f}")
    _say(quiet, f"  corpus: {os.path.join(run_dir, 'corpus.csv')}")
    return 0


def _train_variants(cfg: ExperimentConfig, command: str, variants: list,
                    manifest_body, fp_extra: dict | None = None) -> int:
    """The run loop of `train` and `sweep`: every seed of every (label,
    alpha, beta) variant trains into subdirectory `label`, in LW_THREADS
    processes. A seed's first batch must match across variants (the paired
    design). The manifest body is `manifest_body(stage, fp, outcomes)`; a
    diverged run or broken pairing publishes nothing and exits 1.
    """
    workers = _worker_count()
    fp = cfg.fingerprint(extra=fp_extra)
    # CSV and IDX sources do not depend on the seed: read them once for all
    # runs. Gaussian data is drawn per seed inside each run.
    source = None if cfg["dataset.kind"] == "gaussian" else _load_source(cfg, seed_shift=0)
    with _run_directory(cfg, fp, command) as (stage, publish):
        specs = [(cfg, alpha, beta, seed, os.path.join(stage, label), fp, source)
                 for label, alpha, beta in variants for seed in cfg["seeds"]]
        try:
            if workers > 1 and len(specs) > 1:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(pool.map(_execute_run, *zip(*specs)))
            else:
                outcomes = [_execute_run(*spec) for spec in specs]
        except TrainingDiverged as exc:
            print(f"error: {command} {fp} diverged: {exc}", file=sys.stderr)
            return 1
        reference: dict[int, list[int]] = {}
        for out in outcomes:
            if reference.setdefault(out.seed, out.first_batch_indices) != out.first_batch_indices:
                print(f"error: {command} {fp} broke pairing at seed {out.seed} "
                      f"(alpha={out.alpha}, beta={out.beta})", file=sys.stderr)
                return 1
        publish(manifest_body(stage, fp, outcomes))
    return 0


def cmd_train(cfg: ExperimentConfig, quiet: bool = False) -> int:
    """Train once per seed; metrics CSV and checkpoint per run, one manifest."""

    def manifest_body(stage: str, fp: str, outcomes: list[RunOutcome]) -> dict:
        for out in outcomes:
            shown = "n/a" if out.test_accuracy is None else f"{out.test_accuracy:.4f}"
            _say(quiet, f"train {fp} seed {out.seed}: test_accuracy={shown} "
                        f"({out.wall_clock_seconds:.2f}s)")
        return {"runs": [
            {**_run_record(out, stage), "final_risk": out.final_risk,
             "checkpoint": os.path.relpath(out.checkpoint_path, stage)}
            for out in outcomes
        ]}

    variant = ("", cfg["loss.alpha"], cfg["loss.beta"])
    return _train_variants(cfg, "train", [variant], manifest_body)


def _sweep_variants(betas, ablation: bool):
    if ablation:
        return [(f"alpha{a:g}_beta{b:g}", a, b) for a, b in ABLATION_VARIANTS]
    return [(f"beta{b:g}", 1.0, b) for b in betas]


def cmd_sweep(
    cfg: ExperimentConfig,
    betas=None,
    ablation: bool = False,
    quiet: bool = False,
) -> int:
    """Paired runs across loss variants with a mean/std summary table."""
    betas = tuple(betas) if betas is not None else _DEFAULT_SWEEP_BETAS
    variants = _sweep_variants(betas, ablation)
    if not cfg[_TEST_SET_KEY[cfg["dataset.kind"]]]:
        raise ConfigError("sweep needs a test set to summarize accuracy")

    def manifest_body(stage: str, fp: str, outcomes: list[RunOutcome]) -> dict:
        by_variant: dict[tuple[float, float], list[RunOutcome]] = {}
        for out in outcomes:
            by_variant.setdefault((out.alpha, out.beta), []).append(out)
        with open(os.path.join(stage, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# fingerprint={fp}\n")
            fh.write("variant,alpha,beta,mean_test_accuracy,std_test_accuracy,seeds\n")
            for label, alpha, beta in variants:
                accs = [o.test_accuracy for o in by_variant[(alpha, beta)]]
                mean = float(np.mean(accs))
                std = float(np.std(accs))
                fh.write(f"{label},{alpha!r},{beta!r},{mean!r},{std!r},{len(accs)}\n")
                _say(quiet, f"sweep {fp} {label}: {mean:.4f} +- {std:.4f}")
        return {
            "variants": [
                {"label": label, "alpha": alpha, "beta": beta, "runs": [
                    _run_record(o, stage)
                    for o in sorted(by_variant[(alpha, beta)], key=lambda o: o.seed)
                ]}
                for label, alpha, beta in variants
            ],
            "summary": "summary.csv",
        }

    sweep_key = "ablation" if ablation else ",".join(repr(b) for b in betas)
    return _train_variants(cfg, "sweep", variants, manifest_body, {"sweep": sweep_key})


def cmd_verify(
    k_values=(2, 3, 4, 5, 6, 7, 8),
    trials: int = 1000,
    seed: int = 0,
    inject_beta_error: bool = False,
    quiet: bool = False,
) -> int:
    """Run the full certification suite; exit 0 only if everything holds.

    Arguments are checked before any check runs: --k-list must name at
    least one K, each in 1..MAX_ENUMERATION_CLASSES, and --trials must be
    >= 0 (0 is allowed and warns that the certification is vacuous).
    """
    if not k_values:
        raise ConfigError("--k-list must name at least one K")
    if not 1 <= min(k_values) <= max(k_values) <= consistency.MAX_ENUMERATION_CLASSES:
        raise ConfigError(
            f"--k-list values must lie in 1..{consistency.MAX_ENUMERATION_CLASSES}, "
            f"got {','.join(str(k) for k in k_values)}"
        )
    if trials < 0:
        raise ConfigError(f"--trials must be >= 0, got {trials}")
    if trials == 0:
        print("warning: trials=0, certification is vacuous", file=sys.stderr)
        print(json.dumps({"pass": True, "max_discrepancy": 0.0, "instances": 0}))
        return 0
    mutated = None
    if inject_beta_error:
        from .losses import derived_supervised_loss

        def mutated(y, g, w, q_row, cfg):
            wrong = LWConfig(beta=cfg.beta + 0.1, alpha=cfg.alpha, psi=cfg.psi)
            return derived_supervised_loss(y, g, w, q_row, wrong)

    checks = [
        (
            "risk_equivalence",
            consistency.certify_risk_equivalence(
                instances=trials, seed=seed, k_values=tuple(k_values),
                derived_loss=mutated,
            ),
            THEOREM1_TOL,
        ),
        (
            "subset_normalization",
            consistency.certify_subset_normalization(models=100, seed=seed),
            LEMMA1_TOL,
        ),
        (
            "uniform_recovery",
            consistency.certify_uniform_recovery(),
            UNIFORM_RECOVERY_TOL,
        ),
        (
            "coefficient_ordering",
            consistency.certify_coefficient_ordering(instances=10**4, seed=seed),
            1.0,
        ),
    ]
    ok = True
    worst = 0.0
    total = 0
    for name, report, tol in checks:
        passed = report.within(tol)
        ok = ok and passed
        worst = max(worst, report.max_discrepancy, key=consistency.severity)
        total += report.instances
        _say(
            quiet,
            f"{name}: max_discrepancy={report.max_discrepancy:.3e} "
            f"tolerance={tol:g} instances={report.instances} "
            f"{'pass' if passed else 'FAIL'}\n  worst: {report.worst_case}",
        )
    print(
        json.dumps(
            {"pass": ok, "max_discrepancy": worst, "instances": total},
            sort_keys=True,
        )
    )
    return 0 if ok else 1


def cmd_eval(
    checkpoint_path: str,
    csv_path: str,
    confusion_path: str = "confusion.csv",
    num_classes: int | None = None,
    quiet: bool = False,
) -> int:
    """Score a checkpoint on a labeled CSV; print accuracy, write confusion."""
    params = load_checkpoint(checkpoint_path)
    dataset = load_partial_csv(csv_path, num_classes=num_classes)
    if dataset.true_labels is None:
        raise ConfigError("evaluation needs a true_label column")
    widths = params.widths
    if widths[0] != dataset.num_features or widths[-1] != dataset.num_classes:
        raise ConfigError(
            f"checkpoint expects d={widths[0]}, K={widths[-1]}; dataset has "
            f"d={dataset.num_features}, K={dataset.num_classes}"
        )
    preds = predict(params, dataset.features)
    acc = float(np.mean(preds == dataset.true_labels))
    k = dataset.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (dataset.true_labels, preds), 1)
    with open(confusion_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("true_label," + ",".join(f"pred_{j}" for j in range(k)) + "\n")
        for y in range(k):
            fh.write(f"{y}," + ",".join(str(c) for c in confusion[y]) + "\n")
    print(f"accuracy={acc!r} n={len(dataset)}")
    _say(quiet, f"confusion matrix: {confusion_path}")
    return 0


def _load_cli_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = (args.seed,)
    if getattr(args, "out", None):
        overrides["output.dir"] = args.out
    return cfg.override(**overrides) if overrides else cfg


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lwpll",
        description="Partial-label learning with leveraged weighted losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="config file path")
            p.add_argument("--seed", type=int, help="replace the seeds list")
            p.add_argument("--out", help="override output.dir")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    add_common(sub.add_parser("generate", help="sample a partial-label corpus"))
    add_common(sub.add_parser("train", help="train one run per seed"))
    p_sweep = sub.add_parser("sweep", help="paired runs across loss settings")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--beta",
        action="append",
        type=_parse_float_list,
        help="betas to sweep; repeat the flag or pass a comma-separated list",
    )
    p_sweep.add_argument(
        "--ablation",
        action="store_true",
        help="run the (alpha,beta) in {(1,0),(0,1),(1,1)} comparison instead",
    )
    p_verify = sub.add_parser("verify", help="run the numerical certification suite")
    add_common(p_verify, needs_config=False)
    p_verify.add_argument("--k-list", type=_parse_int_list, default=(2, 3, 4, 5, 6, 7, 8))
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--inject-beta-error",
        action="store_true",
        help="corrupt one code path to demonstrate the suite can fail",
    )
    p_eval = sub.add_parser("eval", help="score a checkpoint on a labeled CSV")
    add_common(p_eval, needs_config=False)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--csv", required=True)
    p_eval.add_argument("--confusion", default="confusion.csv")
    p_eval.add_argument("--num-classes", type=int)

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(_load_cli_config(args), quiet=args.quiet)
        if args.command == "train":
            return cmd_train(_load_cli_config(args), quiet=args.quiet)
        if args.command == "sweep":
            betas = None
            if args.beta is not None:
                betas = tuple(b for chunk in args.beta for b in chunk)
            return cmd_sweep(
                _load_cli_config(args),
                betas=betas,
                ablation=args.ablation,
                quiet=args.quiet,
            )
        if args.command == "verify":
            return cmd_verify(
                k_values=args.k_list,
                trials=args.trials,
                seed=args.seed,
                inject_beta_error=args.inject_beta_error,
                quiet=args.quiet,
            )
        return cmd_eval(
            args.checkpoint,
            args.csv,
            confusion_path=args.confusion,
            num_classes=args.num_classes,
            quiet=args.quiet,
        )
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
