"""Experiment harness: generate corpora, train, evaluate, sweep, verify.

Configs are plain ``key = value`` text with ``#`` comments and dotted keys
(``trainer.epochs = 30``). Every key is validated against a fixed schema and
unknown keys are hard errors. A run's identity is the fingerprint: the
SHA-256 of the normalized effective config (defaults filled in, output
directory excluded, seeds included), truncated to 12 hex digits. All
artifacts land under ``<output.dir>/<fingerprint>/`` and every metrics file
carries the fingerprint. The byte contract: the same fingerprint, run with
the same NumPy/BLAS build, the same NumPy SIMD dispatch, the same BLAS
kernel and the same BLAS thread count, gives byte-identical metrics. The
dispatch is part of it because NumPy's AVX512 loops for float64 ``exp``
and ``log`` differ from its AVX2 loops, which give libm's results, in the
last bit of some values; NumPy picks its loops by CPU unless
``NPY_DISABLE_CPU_FEATURES`` names targets to skip. The kernel and the
thread count are part of it because BLAS may order a product's sums
differently per kernel and split a long product differently per thread
count. OpenBLAS picks its kernel by CPU unless ``OPENBLAS_CORETYPE`` names
one; its Haswell and SkylakeX kernels give different checkpoints even with
4 features, and with 784 features the first layer's scores differ in the
last bits between 1 and 2 threads. Wall-clock timings go to the manifest,
never into metrics CSVs.

A run directory appears whole or not at all: it is built in a hidden stage
``<output.dir>/.<fingerprint>.*``, finished with ``manifest.json`` and then
renamed into place. A failure removes the stage, so a failed rerun keeps
the previous directory. Bad input exits 2; a diverged run exits 1.

Sweeps pair runs across loss settings: for a given seed the corpus, the
candidate sets, the parameter init, and the shuffle order are identical for
every (alpha, beta) variant; the logged first-batch indices record it.
``train`` is a one-variant sweep. Seeds run in order in one process, and a
seed's data is prepared once for all its variants. Parallel runs are one
process per seed (``--seed N``) or config, each with its BLAS thread count set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
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
    "generation.kind": (str, "uniform", _one_of("uniform", "case1", "case2", "case3")),
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
    "output.dir": (str, "out", _must("not be empty", bool)),
}


def _checked(values: dict) -> dict:
    """`values` if it holds only schema keys, each passing its check, and
    sets dataset.num_classes only for a CSV source."""
    unknown = sorted(set(values) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, (_, _, check) in _SCHEMA.items():
        problem = check(values[key])
        if problem is not None:
            raise ConfigError(f"{key}: {problem}")
    if values["dataset.num_classes"] and values["dataset.kind"] != "csv":
        raise ConfigError(f"dataset.num_classes: applies to dataset.kind=csv only, "
                          f"got dataset.kind={values['dataset.kind']}")
    return values


def _flag(flag: str, value, check):
    """`value` of a command-line flag if it passes `check`; else an error
    naming the flag."""
    problem = check(value)
    if problem is not None:
        raise ConfigError(f"{flag} {problem}")
    return value


def parse_config_text(text: str, path: str) -> dict[str, str]:
    """Raw key -> value strings from `key = value` lines of the config file
    `path`; '#' starts a comment.

    Errors name `path:line`. A line holding an undecodable byte, which
    reads as a lone surrogate under ``errors="surrogateescape"``, is an
    error: values go into the fingerprint and the manifest as text.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"{path}:{lineno}"
        bad = next((c for c in line if "\udc80" <= c <= "\udcff"), None)
        if bad is not None:
            raise ConfigError(f"{where}: byte {ord(bad) - 0xdc00:#04x} is not UTF-8")
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in raw:
            raise ConfigError(f"{where}: duplicate key {key!r}")
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
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            return cls(parse_config_text(fh.read(), path))

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


def _naming(cfg: ExperimentConfig, keys, exc: Exception) -> ConfigError:
    """`exc` as an error that names the config keys behind it, with their values."""
    named = ", ".join(f"{key}={cfg[key]!r}" for key in keys)
    return ConfigError(f"{named}: {exc}")


def _generation_model(cfg: ExperimentConfig, num_classes: int):
    """The candidate-set model over `num_classes` classes; one the keys
    cannot build is an error naming them."""
    kind = cfg["generation.kind"]
    rates = (["generation.q"] if kind == "uniform"
             else ["generation.q1", "generation.q2", "generation.q3"])
    try:
        if kind == "uniform":
            return labelgen.make_uniform(num_classes, cfg["generation.q"],
                                         reject_full=cfg["generation.reject_full"])
        return labelgen.make_case(num_classes, int(kind.removeprefix("case")),
                                  *(cfg[key] for key in rates),
                                  reject_full=cfg["generation.reject_full"])
    except ValueError as exc:
        raise _naming(cfg, ["generation.kind", *rates], exc) from None


def _load_source(cfg: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset | None]:
    """Supervised (or already-partial) train and optional test datasets. A
    Gaussian source is drawn for `seed`; a file source does not depend on it."""
    kind = cfg["dataset.kind"]
    if kind == "gaussian":
        n, test_n = cfg["gaussian.n"], cfg["gaussian.test_n"]
        task = ("gaussian.classes", "gaussian.dim", "gaussian.separation", "gaussian.sigma")
        classes, dim, separation, sigma = (cfg[key] for key in task)
        try:
            # An overflowing draw fails the features' finiteness check.
            with np.errstate(over="ignore", invalid="ignore"):
                full = make_gaussian_task(classes, dim, n + test_n, separation, sigma,
                                          cfg["gaussian.seed"] + seed)
        except ValueError as exc:
            raise _naming(cfg, task, exc) from None
        except MemoryError as exc:
            raise _naming(cfg, ("gaussian.n", "gaussian.test_n", "gaussian.dim"), exc) from None
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
                raise ConfigError(f"{cfg['dataset.test_csv']}: the test set has no true "
                                  "labels to score against")
    if test_ds is not None and test_ds.num_features != train_ds.num_features:
        raise ConfigError(f"{_test_set_name(cfg)}: the test set has "
                          f"{test_ds.num_features} features, the training set "
                          f"{train_ds.num_features}")
    limit = cfg["dataset.limit"]
    if limit > 0 and len(train_ds) > limit:
        # A copy, not a view, so the rows past the limit can be freed.
        train_ds = take(train_ds, np.arange(limit))
    return train_ds, test_ds


def _test_set_name(cfg: ExperimentConfig) -> str:
    """The test set's file, or what draws a Gaussian one."""
    key = _TEST_SET_KEY[cfg["dataset.kind"]]
    if key == "gaussian.test_n":
        return f"the Gaussian test set ({key} = {cfg[key]})"
    return cfg[key]


def _partial_train_set(cfg: ExperimentConfig, train_ds: Dataset, seed: int) -> Dataset:
    """`train_ds` if it carries candidate sets, else `train_ds` with sets
    drawn from stream `seed` of generation.seed. Sources without candidate
    sets (Gaussian, IDX) always carry true labels."""
    if train_ds.partial_masks is not None:
        return train_ds
    masks = _generation_model(cfg, train_ds.num_classes).sample_sets(
        train_ds.true_labels, make_rng(cfg["generation.seed"], stream=seed))
    return with_candidates(train_ds, masks)


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
                 train_ds: Dataset, test_ds: Dataset | None) -> dict:
    """One deterministic training run on the seed's prepared (train, test)
    pair into `<stage>/<label>`: writes its metrics CSV and checkpoint and
    returns its manifest record, file names relative to the stage.
    """
    started = time.perf_counter()
    trainer = {key.removeprefix("trainer."): value for key, value in cfg.values.items()
               if key.startswith("trainer.")}
    result = train(train_ds, LWConfig(beta=beta, alpha=alpha, psi=get_loss(cfg["loss.psi"])),
                   TrainerConfig(seed=seed, **trainer),
                   arch=cfg["model.arch"], hidden=cfg["model.hidden"])
    try:
        test_acc = accuracy(result.params, test_ds) if test_ds is not None else None
    except ValueError as exc:  # a test row whose scores are not finite
        raise ConfigError(f"{_test_set_name(cfg)}: {exc}") from None
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


def _environment() -> dict:
    """What a run's bytes depend on besides its config: the Python, NumPy and
    BLAS builds, the SIMD targets NumPy's float64 `exp` and `log` run, the
    BLAS kernel, thread and NumPy dispatch variables as set, and the CPU
    count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # NumPy < 1.26 has no dict mode
        blas = {}
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # NumPy < 2.0
        dispatch = None
    else:
        loops = opt_func_info(func_name="^(exp|log)$", signature="float64")
        dispatch = {name: loops[name]["dd"]["current"] for name in ("exp", "log")}
    pins = {var: os.environ.get(var)
            for var in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "NPY_DISABLE_CPU_FEATURES")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "numpy_dispatch": dispatch, **pins, "cpu_count": os.cpu_count()}


@contextmanager
def _run_directory(cfg: ExperimentConfig, fp: str, command: str):
    """Yield (stage, publish): the one writer of <output.dir>/<fp>.

    Artifacts go into `stage`, a hidden `.<fp>.*` directory in output.dir.
    `publish(body)` writes manifest.json last, with the fingerprint, command,
    config and environment added to `body`, then renames the stage to
    <output.dir>/<fp>, replacing an earlier run's directory. Leaving the
    block unpublished removes the stage, and each directory this call made
    for output.dir that is left empty.
    """
    out_dir = cfg["output.dir"]
    made = []  # output.dir and its missing ancestors, innermost first
    missing = os.path.abspath(out_dir)
    while not os.path.exists(missing):
        made.append(missing)
        missing = os.path.dirname(missing)
    os.makedirs(out_dir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=f".{fp}.", dir=out_dir)
    # mkdtemp makes the stage private (0700); give it the mode os.mkdir would.
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(stage, 0o777 & ~umask)

    def publish(body: dict) -> None:
        manifest = {**body, "fingerprint": fp, "command": command, "config": cfg.values,
                    "environment": _environment()}
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
        with suppress(OSError):  # rmdir removes only an empty directory
            for path in made:
                os.rmdir(path)


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def cmd_generate(cfg: ExperimentConfig, quiet: bool = False) -> int:
    """Sample one partial-label corpus and write it with a manifest."""
    if cfg["dataset.kind"] == "csv":
        raise ConfigError("dataset.kind=csv is already a partial corpus")
    fp = cfg.fingerprint(extra={"command": "generate"})
    train_ds, test_ds = _load_source(cfg, 0)
    corpus = _partial_train_set(cfg, train_ds, 0)
    files = {"corpus": (corpus, "corpus.csv")}
    if test_ds is not None:
        test_masks = np.zeros((len(test_ds), test_ds.num_classes), dtype=bool)
        test_masks[np.arange(len(test_ds)), test_ds.true_labels] = True
        files["test"] = (with_candidates(test_ds, test_masks), "test.csv")
    run_dir = os.path.join(cfg["output.dir"], fp)
    sizes = corpus.partial_masks.sum(axis=1)
    q = np.ascontiguousarray(_generation_model(cfg, corpus.num_classes).q, dtype="<f8")
    histogram = {int(s): int(c) for s, c in zip(*np.unique(sizes, return_counts=True))}
    with _run_directory(cfg, fp, "generate") as (stage, publish):
        for dataset, name in files.values():
            save_partial_csv(dataset, os.path.join(stage, name))
        publish({
            "generation_seed": cfg["generation.seed"],
            "q_matrix_sha256": hashlib.sha256(q.tobytes()).hexdigest(),
            "set_size_histogram": histogram,
            "mean_set_size": float(sizes.mean()),
            "paths": {key: os.path.join(run_dir, name) for key, (_, name) in files.items()},
        })
    _say(quiet, f"generate {fp}: {len(corpus)} rows, mean set size {sizes.mean():.3f}")
    _say(quiet, f"  corpus: {os.path.join(run_dir, 'corpus.csv')}")
    return 0


def _train_variants(cfg: ExperimentConfig, command: str, variants: list,
                    manifest_body, fp_extra: dict | None = None) -> int:
    """The run loop of `train` and `sweep`: each seed in turn prepares its
    data once, then trains every (label, alpha, beta) variant on it into
    subdirectory `label`. The variants share the prepared data and the
    trainer settings, so a seed's first batch is the same for all of them
    (the paired design). The manifest body is `manifest_body(stage, fp, runs)`,
    given each run's record; a diverged run publishes nothing and exits 1.
    """
    fp = cfg.fingerprint(extra=fp_extra)
    # CSV and IDX sources do not depend on the seed: read them once for all
    # seeds. A Gaussian source is drawn for each seed.
    files = None if cfg["dataset.kind"] == "gaussian" else _load_source(cfg, 0)
    with _run_directory(cfg, fp, command) as (stage, publish):
        runs = []
        try:
            for seed in cfg["seeds"]:
                train_ds, test_ds = files or _load_source(cfg, seed)
                train_ds = _partial_train_set(cfg, train_ds, seed)
                if cfg["dataset.standardize"]:
                    train_ds, test_ds = (standardize(train_ds) + (None,) if test_ds is None
                                         else standardize(train_ds, test_ds))
                runs += [_execute_run(cfg, alpha, beta, seed, stage, label, fp,
                                      train_ds, test_ds)
                         for label, alpha, beta in variants]
        except TrainingDiverged as exc:
            print(f"error: {command} {fp} diverged: {exc}", file=sys.stderr)
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


def cmd_verify(k_values, trials: int, seed: int, inject_beta_error: bool, quiet: bool) -> int:
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
    mutated = None
    if inject_beta_error:
        from .losses import derived_supervised_loss

        def mutated(y, g, w, q_row, cfg):
            wrong = LWConfig(beta=cfg.beta + 0.1, alpha=cfg.alpha, psi=cfg.psi)
            return derived_supervised_loss(y, g, w, q_row, wrong)

    checks = [] if trials == 0 else [
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
            consistency.certify_subset_normalization(seed=seed),
            LEMMA1_TOL,
        ),
        (
            "uniform_recovery",
            consistency.certify_uniform_recovery(),
            UNIFORM_RECOVERY_TOL,
        ),
        (
            "coefficient_ordering",
            consistency.certify_coefficient_ordering(seed=seed),
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
        raise ConfigError(f"{csv_path}: evaluation needs a true_label column")
    if widths[0] != dataset.num_features:
        raise ConfigError(f"{csv_path}: the dataset has d={dataset.num_features}, but "
                          f"checkpoint {checkpoint_path} expects d={widths[0]}")
    try:
        preds = predict(params, dataset.features)
    except ValueError as exc:
        raise ConfigError(f"{csv_path}: {exc}") from None
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
    if getattr(args, "out", None) is not None:
        overrides["output.dir"] = _flag("--out", args.out, _SCHEMA["output.dir"][2])
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
            p.add_argument("--out", help="override output.dir")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    add_common(sub.add_parser("generate", help="sample a partial-label corpus"))
    p_train = sub.add_parser("train", help="train one run per seed")
    p_sweep = sub.add_parser("sweep", help="paired runs across loss settings")
    for p in (p_train, p_sweep):
        add_common(p)
        p.add_argument("--seed", type=int, help="replace the seeds list")
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
    except MemoryError as exc:  # input too large for memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
