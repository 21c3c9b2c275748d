"""Dataset containers, file formats, and the synthetic Gaussian task.

Formats:

- IDX image/label pairs (big-endian magics 0x00000803 / 0x00000801); pixel
  bytes are scaled to [0, 1] and images flattened to rows * cols features.
- Partial-label CSV with header ``f0,...,f{d-1},candidates[,true_label]``
  (d >= 1), where the candidates cell holds zero-based class indices joined
  by ``|``. Fields are unquoted. Records end in ``\r\n``; ``\n`` is also
  accepted on read, and blank lines are skipped. Floats are written as
  ``%.17g`` (17 significant digits) so a save/load round trip reproduces
  every value bit for bit. Errors in a record name ``path:line``, counting
  physical lines from 1 at the header.

Class indices are zero-based everywhere, in files and in memory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .rng import make_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional true labels and candidate-set masks.

    Every instance's true label, when present alongside masks, must sit
    inside its candidate set; that containment is the defining contract of
    the data model and is enforced at construction.
    """

    features: np.ndarray
    num_classes: int
    true_labels: np.ndarray | None = None
    partial_masks: np.ndarray | None = None

    def __post_init__(self):
        x = self.features
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("features must be finite")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.true_labels is not None:
            y = self.true_labels
            if y.shape != (x.shape[0],):
                raise ValueError(f"true_labels shape {y.shape} does not match n")
            if ((y < 0) | (y >= self.num_classes)).any():
                raise ValueError("labels out of range")
        if self.partial_masks is not None:
            m = self.partial_masks
            if m.shape != (x.shape[0], self.num_classes):
                raise ValueError(f"partial_masks shape {m.shape} does not match")
            if not m.any(axis=1).all():
                raise ValueError("every candidate set must be nonempty")
            if self.true_labels is not None:
                if not m[np.arange(x.shape[0]), self.true_labels].all():
                    raise ValueError("true label outside its candidate set")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def with_candidates(dataset: Dataset, masks) -> Dataset:
    """Return a copy of the dataset carrying the given candidate masks."""
    return Dataset(
        features=dataset.features,
        num_classes=dataset.num_classes,
        true_labels=dataset.true_labels,
        partial_masks=np.asarray(masks, dtype=bool),
    )


def take(dataset: Dataset, indices) -> Dataset:
    """Row subset of a dataset (labels and masks follow along)."""
    idx = np.asarray(indices)
    return Dataset(
        features=dataset.features[idx],
        num_classes=dataset.num_classes,
        true_labels=None if dataset.true_labels is None else dataset.true_labels[idx],
        partial_masks=(
            None if dataset.partial_masks is None else dataset.partial_masks[idx]
        ),
    )


def split_indices(n: int, val_fraction: float, seed: int,
                  stream: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle range(n) with (seed, stream); hold out the last `val_fraction`."""
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    perm = make_rng(seed, stream).permutation(n)
    cut = n - int(val_fraction * n)
    return perm[:cut], perm[cut:]


def split(dataset: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Shuffle rows and hold out the last `val_fraction` as the second part."""
    train_idx, val_idx = split_indices(len(dataset), val_fraction, seed)
    return take(dataset, train_idx), take(dataset, val_idx)


def standardize(train: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """Z-score features using the first dataset's per-feature moments."""
    mu = train.features.mean(axis=0)
    sd = train.features.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    out = []
    for ds in (train, *others):
        out.append(
            Dataset(
                features=(ds.features - mu) / sd,
                num_classes=ds.num_classes,
                true_labels=ds.true_labels,
                partial_masks=ds.partial_masks,
            )
        )
    return tuple(out)


def _read_idx(path: str, magic: int, header_dims: int) -> tuple[np.ndarray, tuple]:
    with open(path, "rb") as fh:
        head = fh.read(4 * (1 + header_dims))
        if len(head) < 4 * (1 + header_dims):
            raise ValueError(f"{path}: truncated IDX header")
        got = struct.unpack(">i", head[:4])[0]
        if got != magic:
            raise ValueError(f"{path}: bad IDX magic {got:#010x}, want {magic:#010x}")
        dims = struct.unpack(f">{header_dims}i", head[4:])
        body = fh.read()
    expected = int(np.prod(dims))
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8), dims


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair into flat [0, 1]-scaled features."""
    raw, (n, rows, cols) = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels, (n_labels,) = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if n != n_labels:
        raise ValueError(
            f"image/label count mismatch: {n} images vs {n_labels} labels"
        )
    features = raw.astype(np.float64).reshape(n, rows * cols) / 255.0
    y = labels.astype(np.int64)
    return Dataset(features=features, num_classes=int(y.max()) + 1, true_labels=y)


def save_partial_csv(dataset: Dataset, path: str) -> None:
    """Write features, candidate sets, and (if present) true labels as CSV."""
    if dataset.partial_masks is None:
        raise ValueError("dataset has no candidate masks to save")
    d = dataset.num_features
    header = [f"f{j}" for j in range(d)] + ["candidates"]
    labels = dataset.true_labels
    if labels is not None:
        header.append("true_label")
        labels = labels.astype(np.int64).tolist()
    # "%.17g" formats every finite float64 exactly as format(v, ".17g").
    features_format = "%.17g," * d
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i, (row, mask) in enumerate(zip(dataset.features, dataset.partial_masks)):
            line = features_format % tuple(row.tolist())
            line += "|".join(map(str, np.flatnonzero(mask).tolist()))
            if labels is not None:
                line += f",{labels[i]}"
            fh.write(line + "\r\n")


def _parse_int(text: str, what: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: bad {what} {text!r}") from None


def load_partial_csv(path: str, num_classes: int | None = None) -> Dataset:
    """Read a partial-label CSV; class count is inferred unless given.

    One streaming pass checks each record's column count and parses its
    candidates and label; the feature cells of all records are then parsed
    by a single ``np.loadtxt`` call.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty file")
        header = first.rstrip("\n").split(",")
        if "candidates" not in header:
            raise ValueError(f"{path}: header lacks a 'candidates' column")
        d = header.index("candidates")
        has_label = "true_label" in header
        expected = [f"f{j}" for j in range(d)] + ["candidates"]
        if has_label:
            expected.append("true_label")
        if d == 0 or header != expected:
            raise ValueError(
                f"{path}: header must be f0,...,f{{d-1}},candidates[,true_label]"
            )
        tail = 2 if has_label else 1
        prefixes, linenos, labels, cand_rows, cand_cols = [], [], [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            cells = line.rsplit(",", tail)
            if len(cells) <= tail or cells[0].count(",") != d - 1:
                raise ValueError(
                    f"{where}: expected {d + tail} columns, got {line.count(',') + 1}"
                )
            if not cells[0]:
                raise ValueError(f"{where}: non-numeric feature")
            cell = cells[1].strip()
            if not cell:
                raise ValueError(f"{where}: empty candidate cell")
            cands = {_parse_int(tok, "candidate", where) for tok in cell.split("|")}
            if min(cands) < 0:
                raise ValueError(f"{where}: negative class index")
            if has_label:
                y = _parse_int(cells[2], "true_label", where)
                if y not in cands:
                    raise ValueError(
                        f"{where}: true label {y} outside candidates {sorted(cands)}"
                    )
                labels.append(y)
            cand_rows.extend([len(prefixes)] * len(cands))
            cand_cols.extend(cands)
            prefixes.append(cells[0])
            linenos.append(lineno)
    if not prefixes:
        raise ValueError(f"{path}: no data rows")
    features = _parse_features(prefixes, linenos, path)
    largest = max(cand_cols)
    inferred = largest + 1
    if num_classes is None:
        num_classes = max(inferred, 2)
    elif num_classes < inferred:
        raise ValueError(
            f"{path}: num_classes={num_classes} but saw class index {largest}"
        )
    masks = np.zeros((len(features), num_classes), dtype=bool)
    masks[cand_rows, cand_cols] = True
    return Dataset(
        features=features,
        num_classes=num_classes,
        true_labels=np.asarray(labels, dtype=np.int64) if has_label else None,
        partial_masks=masks,
    )


def _parse_features(prefixes: list[str], linenos: list[int], path: str) -> np.ndarray:
    """Feature matrix from comma-joined rows; errors cite the file line."""

    def parse(rows):
        return np.loadtxt(rows, delimiter=",", dtype=np.float64, comments=None, ndmin=2)

    try:
        features = parse(prefixes)
    except ValueError:
        # Re-parse row by row to find the first bad one.
        for prefix, lineno in zip(prefixes, linenos):
            try:
                parse([prefix])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature") from None
        raise
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise ValueError(f"{path}:{lineno}: non-finite feature")
    return features


def simplex_vertices(num_classes: int, dim: int) -> np.ndarray:
    """K unit-circumradius regular simplex vertices embedded in `dim` dims.

    Built by centering the standard basis simplex in R^K and reflecting the
    all-ones direction onto the last axis, which then carries no mass and is
    dropped. Needs dim >= K - 1.
    """
    if dim < num_classes - 1:
        raise ValueError(
            f"cannot place {num_classes} equidistant means in {dim} dimensions"
        )
    k = num_classes
    centered = np.eye(k) - 1.0 / k
    vertices = centered / np.sqrt(1.0 - 1.0 / k)
    u = np.full(k, 1.0 / np.sqrt(k)) - np.eye(k)[k - 1]
    norm_sq = float(u @ u)
    if norm_sq > 0.0:
        vertices = vertices - np.outer(vertices @ u, 2.0 * u / norm_sq)
    out = np.zeros((k, dim))
    out[:, : k - 1] = vertices[:, : k - 1]
    return out


def make_gaussian_task(
    num_classes: int,
    dim: int,
    n: int,
    class_separation: float,
    noise_sigma: float,
    seed: int,
) -> Dataset:
    """Equal-prior Gaussian blobs at simplex corners scaled by the separation.

    Means sit at distance `class_separation` from the origin, pairwise
    equidistant; isotropic noise with standard deviation `noise_sigma`.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be >= 0")
    means = class_separation * simplex_vertices(num_classes, dim)
    rng = make_rng(seed)
    y = rng.integers(0, num_classes, size=n)
    x = means[y] + noise_sigma * rng.standard_normal((n, dim))
    return Dataset(features=x, num_classes=num_classes, true_labels=y)
