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
import math
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager, suppress

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


def _list_of(cast):
    """Caster of a comma-separated list; blank items are skipped."""
    def parse(text: str) -> tuple:
        return tuple(cast(tok) for tok in text.split(",") if tok.strip())
    parse.__name__ = f"{cast.__name__} list"  # argparse names it in its errors
    return parse


def _must(rule: str, holds):
    """A check: None if holds(value), else the problem with the value. Every
    float must be finite, whatever the rule."""
    def check(value):
        if isinstance(value, float) and not math.isfinite(value):
            return f"must be finite, got {value}"
        return None if holds(value) else f"must {rule}, got {value!r}"
    return check


def _at_least(low):
    return _must(f"be >= {low}", lambda v: v >= low)


def _one_of(*choices):
    return _must(f"be one of {', '.join(choices)}", choices.__contains__)


def _seed_list(seeds) -> str | None:
    if not seeds:
        return "must name at least one seed"
    for i, seed in enumerate(seeds):
        if seed < 0:
            return f"must be >= 0, got {seed}"
        if seed in seeds[:i]:
            return f"duplicate seed {seed}"
    return None


_ANY = _must("", lambda v: True)
_FRACTION = _must("lie in [0, 1)", lambda v: 0.0 <= v < 1.0)

# key -> (caster, default, check). The effective config always carries every
# key, and every value in it has passed its check.
_SCHEMA = {
    "dataset.kind": (str, "gaussian", _one_of("gaussian", "csv", "idx")),
    "dataset.csv": (str, "", _ANY),
    "dataset.test_csv": (str, "", _ANY),
    "dataset.images": (str, "", _ANY),
    "dataset.labels": (str, "", _ANY),
    "dataset.test_images": (str, "", _ANY),
    "dataset.test_labels": (str, "", _ANY),
    "dataset.limit": (int, 0, _at_least(0)),
    "dataset.num_classes": (int, 0, _must("be 0 or >= 2", lambda v: v == 0 or v >= 2)),
    "dataset.standardize": (_parse_bool, False, _ANY),
    "gaussian.classes": (int, 3, _at_least(2)),
    "gaussian.dim": (int, 2, _at_least(1)),
    "gaussian.n": (int, 3000, _at_least(1)),
    "gaussian.separation": (float, 4.0, _ANY),
    "gaussian.sigma": (float, 1.0, _at_least(0)),
    "gaussian.test_n": (int, 1000, _at_least(0)),
    "gaussian.seed": (int, 0, _at_least(0)),
    "generation.kind": (str, "uniform", _one_of("uniform", "case1", "case2", "case3", "none")),
    "generation.q": (float, 0.3, _FRACTION),
    "generation.q1": (float, 0.5, _FRACTION),
    "generation.q2": (float, 0.3, _FRACTION),
    "generation.q3": (float, 0.1, _FRACTION),
    "generation.reject_full": (_parse_bool, False, _ANY),
    "generation.seed": (int, 0, _at_least(0)),
    "model.arch": (str, "linear", _one_of("linear", "mlp")),
    "model.hidden": (int, 64, _at_least(1)),
    "loss.psi": (str, "sigmoid", _one_of(*_TRAINABLE_PSI)),
    "loss.beta": (float, 1.0, _at_least(0)),
    "loss.alpha": (float, 1.0, _at_least(0)),
    "trainer.learning_rate": (float, 0.05, _must("be > 0", lambda v: v > 0)),
    "trainer.epochs": (int, 30, _at_least(0)),
    "trainer.batch_size": (int, 256, _at_least(1)),
    "trainer.momentum": (float, 0.9, _FRACTION),
    "trainer.weight_decay": (float, 0.0, _at_least(0)),
    "trainer.lr_halving_period": (int, 50, _at_least(1)),
    "trainer.val_fraction": (float, 0.1, _FRACTION),
    "trainer.per_batch_weight_update": (_parse_bool, False, _ANY),
    "seeds": (_list_of(int), (0,), _seed_list),
    "output.dir": (str, "out", _ANY),
}


def _checked(values: dict) -> dict:
    """`values` if it holds only schema keys, each passing its check."""
    unknown = sorted(set(values) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, (_, _, check) in _SCHEMA.items():
        problem = check(values[key])
        if problem is not None:
            raise ConfigError(f"{key}: {problem}")
    return values


def _flag(flag: str, value, check):
    """`value` of a command-line flag if it passes `check`; else an error
    naming the flag."""
    problem = check(value)
    if problem is not None:
        raise ConfigError(f"{flag} {problem}")
    return value


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
    """Typed, fully defaulted, checked view of a config mapping."""

    def __init__(self, raw: dict[str, str]):
        values = dict(raw)  # unknown keys stay for the check pass to name
        for key, (cast, default, _) in _SCHEMA.items():
            try:
                values[key] = cast(raw[key]) if key in raw else default
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        self.values = _checked(values)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls(parse_config_text(fh.read()))

    def __getitem__(self, key: str):
        return self.values[key]

    def override(self, **pairs) -> "ExperimentConfig":
        """A copy with typed values replaced, through the same check pass."""
        cfg = object.__new__(ExperimentConfig)
        cfg.values = _checked({**self.values, **pairs})
        return cfg

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
        task = ("gaussian.classes", "gaussian.dim", "gaussian.separation", "gaussian.sigma")
        classes, dim, separation, sigma = (cfg[key] for key in task)
        try:
            # An overflowing draw fails the features' finiteness check.
            with np.errstate(over="ignore", invalid="ignore"):
                full = make_gaussian_task(classes, dim, n + test_n, separation, sigma,
                                          cfg["gaussian.seed"] + seed_shift)
        except ValueError as exc:
            named = ", ".join(f"{key}={cfg[key]!r}" for key in task)
            raise ConfigError(f"{named}: {exc}") from None
        train_ds = take(full, slice(n))
        test_ds = take(full, slice(n, None)) if test_n > 0 else None
    elif kind == "idx":
        required = ["dataset.images", "dataset.labels"]
        if cfg["dataset.test_images"] or cfg["dataset.test_labels"]:
            required += ["dataset.test_images", "dataset.test_labels"]
        for key in required:
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
        # A copy, not a view, so the rows past the limit can be freed.
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


def _execute_run(cfg: ExperimentConfig, alpha: float, beta: float, seed: int,
                 stage: str, label: str, fingerprint: str,
                 source: tuple[Dataset, Dataset | None] | None) -> dict:
    """One deterministic training run into `<stage>/<label>`: writes its
    metrics CSV and checkpoint and returns its manifest record, file names
    relative to the stage.

    `source` is the command's shared (train, test) pair, or None to load
    the source for this seed.
    """
    started = time.perf_counter()
    train_ds, test_ds = _prepare_run(cfg, seed, source)
    trainer = {key.removeprefix("trainer."): value for key, value in cfg.values.items()
               if key.startswith("trainer.")}
    result = train(
        train_ds,
        LWConfig(beta=beta, alpha=alpha, psi=get_loss(cfg["loss.psi"])),
        TrainerConfig(seed=seed, **trainer),
        arch=cfg["model.arch"],
        hidden=cfg["model.hidden"],
    )
    test_acc = accuracy(result.params, test_ds) if test_ds is not None else None
    os.makedirs(os.path.join(stage, label), exist_ok=True)
    metrics = os.path.join(label, f"metrics_seed{seed}.csv")
    checkpoint = os.path.join(label, f"checkpoint_seed{seed}.bin")
    _write_metrics_csv(os.path.join(stage, metrics), fingerprint, result.metrics, test_acc)
    save_checkpoint(result.params, os.path.join(stage, checkpoint))
    return {
        "seed": seed,
        "alpha": alpha,
        "beta": beta,
        "test_accuracy": test_acc,
        "final_risk": result.metrics[-1].risk if result.metrics else None,
        "first_batch_indices": [int(i) for i in result.first_batch_indices],
        "wall_clock_seconds": time.perf_counter() - started,
        "metrics": metrics,
        "checkpoint": checkpoint,
    }


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
    design). The manifest body is `manifest_body(stage, fp, runs)`, given
    each run's record; a diverged run or broken pairing publishes nothing
    and exits 1.
    """
    workers = _worker_count()
    fp = cfg.fingerprint(extra=fp_extra)
    # CSV and IDX sources do not depend on the seed: read them once for all
    # runs. Gaussian data is drawn per seed inside each run.
    source = None if cfg["dataset.kind"] == "gaussian" else _load_source(cfg, seed_shift=0)
    with _run_directory(cfg, fp, command) as (stage, publish):
        specs = [(cfg, alpha, beta, seed, stage, label, fp, source)
                 for label, alpha, beta in variants for seed in cfg["seeds"]]
        try:
            if workers > 1 and len(specs) > 1:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=workers) as pool:
                    runs = list(pool.map(_execute_run, *zip(*specs)))
            else:
                runs = [_execute_run(*spec) for spec in specs]
        except TrainingDiverged as exc:
            print(f"error: {command} {fp} diverged: {exc}", file=sys.stderr)
            return 1
        reference: dict[int, list[int]] = {}
        for run in runs:
            first = run["first_batch_indices"]
            if reference.setdefault(run["seed"], first) != first:
                print(f"error: {command} {fp} broke pairing at seed {run['seed']} "
                      f"(alpha={run['alpha']}, beta={run['beta']})", file=sys.stderr)
                return 1
        publish(manifest_body(stage, fp, runs))
    return 0


def cmd_train(cfg: ExperimentConfig, quiet: bool = False) -> int:
    """Train once per seed; metrics CSV and checkpoint per run, one manifest."""

    def manifest_body(stage: str, fp: str, runs: list[dict]) -> dict:
        for run in runs:
            acc = run["test_accuracy"]
            shown = "n/a" if acc is None else f"{acc:.4f}"
            _say(quiet, f"train {fp} seed {run['seed']}: test_accuracy={shown} "
                        f"({run['wall_clock_seconds']:.2f}s)")
        return {"runs": runs}

    variant = ("", cfg["loss.alpha"], cfg["loss.beta"])
    return _train_variants(cfg, "train", [variant], manifest_body)


def _sweep_variants(betas, ablation: bool):
    """(label, alpha, beta) per variant; two betas that share a label or a
    value (0 and -0) would share a directory and a summary row."""
    if ablation:
        return [(f"alpha{a:g}_beta{b:g}", a, b) for a, b in ABLATION_VARIANTS]
    if not betas:
        raise ConfigError("--beta must name at least one beta")
    betas = [_flag("--beta", b, _SCHEMA["loss.beta"][2]) for b in betas]
    variants = [(f"beta{b:g}", 1.0, b) for b in betas]
    for i, (label, _, beta) in enumerate(variants):
        for other_label, _, other in variants[:i]:
            if label == other_label or beta == other:
                raise ConfigError(
                    f"--beta {other!r} and {beta!r} name the same sweep variant "
                    f"{other_label!r}"
                )
    return variants


def cmd_sweep(
    cfg: ExperimentConfig,
    betas=None,
    ablation: bool = False,
    quiet: bool = False,
) -> int:
    """Paired runs across loss variants with a mean/std summary table."""
    betas = tuple(betas) if betas is not None else _DEFAULT_SWEEP_BETAS
    variants = _sweep_variants(betas, ablation)
    test_key = _TEST_SET_KEY[cfg["dataset.kind"]]
    if not cfg[test_key]:
        raise ConfigError(f"sweep needs a test set, but {test_key} = {cfg[test_key]!r}")

    def manifest_body(stage: str, fp: str, runs: list[dict]) -> dict:
        by_variant: dict[tuple[float, float], list[dict]] = {}
        for run in runs:
            by_variant.setdefault((run["alpha"], run["beta"]), []).append(run)
        with open(os.path.join(stage, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# fingerprint={fp}\n")
            fh.write("variant,alpha,beta,mean_test_accuracy,std_test_accuracy,seeds\n")
            for label, alpha, beta in variants:
                accs = [run["test_accuracy"] for run in by_variant[(alpha, beta)]]
                mean = float(np.mean(accs))
                std = float(np.std(accs))
                fh.write(f"{label},{alpha!r},{beta!r},{mean!r},{std!r},{len(accs)}\n")
                _say(quiet, f"sweep {fp} {label}: {mean:.4f} +- {std:.4f}")
        return {
            "variants": [
                {"label": label, "alpha": alpha, "beta": beta,
                 "runs": sorted(by_variant[(alpha, beta)], key=lambda run: run["seed"])}
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
    least one K, each in 1..MAX_ENUMERATION_CLASSES, --seed must be >= 0,
    and --trials must be >= 0 (0 is allowed and warns that the
    certification is vacuous).
    """
    if not k_values:
        raise ConfigError("--k-list must name at least one K")
    if not 1 <= min(k_values) <= max(k_values) <= consistency.MAX_ENUMERATION_CLASSES:
        raise ConfigError(
            f"--k-list values must lie in 1..{consistency.MAX_ENUMERATION_CLASSES}, "
            f"got {','.join(str(k) for k in k_values)}"
        )
    _flag("--trials", trials, _at_least(0))
    _flag("--seed", seed, _SCHEMA["generation.seed"][2])
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
    quiet: bool = False,
) -> int:
    """Score a checkpoint on a labeled CSV; print accuracy, write confusion.

    The class count is the checkpoint's output width, so a CSV whose rows
    lack the top classes still scores.
    """
    params = load_checkpoint(checkpoint_path)
    widths = params.widths
    dataset = load_partial_csv(csv_path, num_classes=widths[-1])
    if dataset.true_labels is None:
        raise ConfigError("evaluation needs a true_label column")
    if widths[0] != dataset.num_features:
        raise ConfigError(
            f"checkpoint expects d={widths[0]}; dataset has d={dataset.num_features}"
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
        overrides["seeds"] = (_flag("--seed", args.seed, _SCHEMA["generation.seed"][2]),)
    if getattr(args, "out", None):
        overrides["output.dir"] = args.out
    return cfg.override(**overrides) if overrides else cfg


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
    variants = p_sweep.add_mutually_exclusive_group()
    variants.add_argument(
        "--beta",
        action="extend",
        type=_list_of(float),
        help="betas to sweep, finite and >= 0; repeat the flag or pass a comma-separated list",
    )
    variants.add_argument(
        "--ablation",
        action="store_true",
        help="run the (alpha,beta) in {(1,0),(0,1),(1,1)} comparison instead",
    )
    p_verify = sub.add_parser("verify", help="run the numerical certification suite")
    add_common(p_verify, needs_config=False)
    p_verify.add_argument("--k-list", type=_list_of(int), default=(2, 3, 4, 5, 6, 7, 8))
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

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(_load_cli_config(args), quiet=args.quiet)
        if args.command == "train":
            return cmd_train(_load_cli_config(args), quiet=args.quiet)
        if args.command == "sweep":
            return cmd_sweep(_load_cli_config(args), betas=args.beta,
                             ablation=args.ablation, quiet=args.quiet)
        if args.command == "verify":
            return cmd_verify(k_values=args.k_list, trials=args.trials, seed=args.seed,
                              inject_beta_error=args.inject_beta_error, quiet=args.quiet)
        return cmd_eval(args.checkpoint, args.csv, confusion_path=args.confusion,
                        quiet=args.quiet)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
