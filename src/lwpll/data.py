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
  physical lines from 1 at the header. The loader streams records into one
  parse and keeps no file text, so it peaks at about the feature matrix
  plus one record: a 10,000-row, d = 784 file of 158 MB loads with a
  tracemalloc peak of 72 MB for its 63 MB matrix.

Class indices are zero-based everywhere, in files and in memory.
"""

from __future__ import annotations

import functools
import itertools
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
    """Row subset of a dataset (labels and masks follow along).

    A slice gives views of the arrays; index arrays give copies.
    """
    return Dataset(
        features=dataset.features[indices],
        num_classes=dataset.num_classes,
        true_labels=(
            None if dataset.true_labels is None else dataset.true_labels[indices]
        ),
        partial_masks=(
            None if dataset.partial_masks is None else dataset.partial_masks[indices]
        ),
    )


def split_indices(n: int, val_fraction: float, seed: int,
                  stream: int) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle range(n) with (seed, stream); hold out the last `val_fraction`,
    a fraction in [0, 1)."""
    perm = make_rng(seed, stream).permutation(n)
    cut = n - int(val_fraction * n)
    return perm[:cut], perm[cut:]


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
    """Write features, candidate sets, and (if present) true labels as CSV.

    Feature values are formatted in blocks of at most ``MAX_BLOCK_VALUES``,
    and each block's records are written before the next block is formatted.
    """
    if dataset.partial_masks is None:
        raise ValueError("dataset has no candidate masks to save")
    d = dataset.num_features
    if d == 0:
        raise ValueError("dataset has no feature columns to save")
    header = [f"f{j}" for j in range(d)] + ["candidates"]
    if dataset.true_labels is not None:
        header.append("true_label")
    values = np.ascontiguousarray(dataset.features, dtype=np.float64).reshape(-1)
    tails = _record_tails(dataset)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, values.size, MAX_BLOCK_VALUES):
            text, widths = _format_fields(values[start : start + MAX_BLOCK_VALUES])
            text = memoryview(text)
            # A record's features end after every d-th field; a record cut
            # by the block's end is finished by the next block.
            pos = 0
            for end in np.cumsum(widths)[d - 1 - start % d :: d].tolist():
                fh.write(text[pos:end])
                fh.write(next(tails))
                pos = end
            fh.write(text[pos:])


def _record_tails(dataset: Dataset):
    """Yield each record's ``candidates[,true_label]`` cells and line end."""
    labels = dataset.true_labels
    if labels is not None:
        labels = labels.astype(np.int64).tolist()
    for i, mask in enumerate(dataset.partial_masks):
        tail = "|".join(map(str, np.flatnonzero(mask).tolist()))
        if labels is not None:
            tail += f",{labels[i]}"
        yield (tail + "\r\n").encode()


# The feature formatter. A finite float64 x with 1e-6 <= |x| < 1e16 has a
# decimal exponent E in [-6, 15]; its 17 significant digits are the integer
# D = round(|x| * 10**(16 - E)), which lies in [1e16, 1e17). Dekker's exact
# product gives that rounding without big integers. "%.17g" writes D in
# fixed notation for E >= -4 and as d.ddde-0E below, and cuts trailing zeros
# after the point, and the point when they were all zeros. So each value's
# characters are its sign, its digits with the cut ones blanked, a point or
# none, gathered by a layout that depends on E alone. Zeros take the layout
# "0"; other values (|x| < 1e-6, subnormals among them, or |x| >= 1e16) are
# formatted one at a time.
MAX_BLOCK_VALUES = 1 << 14

# Byte columns of a value's source row, which the layouts gather from: the
# sign, the 17 digits (leading digit first), the point, then constant
# characters. A 0 byte (a positive sign, a cut digit or point, padding) is
# dropped from the output.
_SIGN, _DIGITS, _DOT, _ZERO, _EXP, _MINUS, _FIVE, _SIX, _COMMA, _PAD = (
    2, 3, 20, 21, 22, 23, 24, 25, 26, 27,
)
_FIELD_BYTES = 25  # the longest "%.17g," field: "-1.7976931348623157e+308,"
_MIN_EXP, _MAX_EXP = -6, 15


def _layout(exponent: int) -> tuple[list[int], int]:
    """Source columns of "%.17g" for a nonzero value with this exponent.

    Also returns how many of the digits come before the point.
    """
    digits = [_DIGITS + j for j in range(17)]
    if exponent < -4:
        suffix = [_EXP, _MINUS, _ZERO, _FIVE if exponent == -5 else _SIX]
        return digits[:1] + [_DOT] + digits[1:] + suffix, 1
    if exponent < 0:
        return [_ZERO, _DOT] + [_ZERO] * (-exponent - 1) + digits, 0
    whole = exponent + 1
    return digits[:whole] + [_DOT] + digits[whole:], whole


def _veltkamp(a):
    """Split doubles into high and low halves of at most 26 bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _scaled(magnitude, exponent, pow10):
    """magnitude * 10**(16 - exponent) as an exact sum hi + lo (Dekker)."""
    b = pow10[16 - exponent]
    hi = magnitude * b
    a_hi, a_lo = _veltkamp(magnitude)
    b_hi, b_lo = _veltkamp(b)
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


@functools.cache
def _format_tables():
    """Lookup tables of `_format_fields`, built on first use."""
    c = np.arange(10_000)
    chunk_digits = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    chunk_chars = (chunk_digits + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
    trailing_zeros = sum((c % 10**j == 0).astype(np.int8) for j in range(1, 5))
    # Of the 16 digits after the leading one (digit 0), digit_masks[keep]
    # keeps digit j only where j < keep.
    kept = np.arange(1, 17) < np.arange(18)[:, None]
    digit_masks = (kept * np.uint8(255)).view(np.uint32)
    # 10**0..10**22 are exact doubles; np.power would not promise that.
    pow10 = np.array([float(10**j) for j in range(23)])
    # Layout 0 is the empty one of values formatted one at a time, layout 1
    # is zero, and layout E - _MIN_EXP + 2 is decimal exponent E.
    shapes = [_layout(e) for e in range(_MIN_EXP, _MAX_EXP + 1)]
    layouts = [[], [_ZERO]] + [layout for layout, _ in shapes]
    whole = np.array([0, 0] + [whole for _, whole in shapes])
    columns = np.full((len(layouts), _FIELD_BYTES), _PAD)
    widths = np.zeros(len(layouts), dtype=np.int64)
    for i, layout in enumerate(layouts[1:], start=1):
        columns[i, : len(layout) + 2] = [_SIGN, *layout, _COMMA]
        # The characters that are never cut: all but the digits and point.
        widths[i] = 1 + sum(col not in range(_DIGITS, _DOT + 1) for col in layout)
    tables = (chunk_chars, trailing_zeros, digit_masks, pow10, columns, widths, whole)
    for table in tables:
        table.flags.writeable = False
    return tables


def _format_fields(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value as ``"%.17g," % v``, concatenated, and each field's length.

    The bytes equal Python's "%.17g" for every finite float64.
    """
    layout, lengths, source = _decompose(values)
    fields = _apply_layouts(layout, source)
    others = np.flatnonzero(layout == 0)
    if others.size:
        texts = [b"%.17g," % v for v in values[others].tolist()]
        padded = np.array(texts, dtype=f"S{_FIELD_BYTES}")
        fields[others] = padded.view(np.uint8).reshape(-1, _FIELD_BYTES)
        lengths[others] = [len(text) for text in texts]
    return fields[fields != 0], lengths


def _decompose(values):
    """Each value's layout, field length and source row (see the layouts)."""
    chunk_chars, trailing_zeros, digit_masks, pow10, _, widths, whole_digits = (
        _format_tables()
    )
    negative = np.signbit(values)
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-6) & (magnitude < 1e16)
    # Values off the arithmetic path compute on 1.0, so nothing overflows.
    magnitude[~fast] = 1.0
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    np.clip(exponent, _MIN_EXP, _MAX_EXP, out=exponent)
    hi, lo = _scaled(magnitude, exponent, pow10)
    # log10 may land one off next to a power of ten: where the exact product
    # lies outside [1e16, 1e17), move E by one and scale those values again.
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
    shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(shift)
    if moved.size:
        exponent[moved] += shift[moved]
        below = moved[exponent[moved] < _MIN_EXP]
        fast[below] = False
        magnitude[below], exponent[below] = 1.0, 0
        hi[moved], lo[moved] = _scaled(magnitude[moved], exponent[moved], pow10)
    # hi is an even integer here, so rounding lo half to even rounds hi + lo
    # half to even. The sum stays below 1e17: no double in [1e-6, 1e16)
    # rounds up to the next power of ten at 17 digits.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    lead, rest = np.divmod(digits, 10**16)
    high, low = np.divmod(rest, 10**8)
    chunks = np.empty((values.size, 4), dtype=np.int32)
    np.divmod(high, 10**4, out=(chunks[:, 0], chunks[:, 1]))
    np.divmod(low, 10**4, out=(chunks[:, 2], chunks[:, 3]))
    tz = trailing_zeros.take(chunks)  # 4 for an all-zero chunk
    cut = tz[:, 3] + (tz[:, 3] == 4) * (
        tz[:, 2] + (tz[:, 2] == 4) * (tz[:, 1] + (tz[:, 1] == 4) * tz[:, 0])
    )
    layout = np.where(fast, exponent - _MIN_EXP + 2, values == 0).astype(np.uint8)
    # The digits before the point stay; of those after it, the trailing
    # zeros and, with no digit left, the point go.
    whole = whole_digits[layout]
    keep = np.maximum(17 - cut, whole)
    dot = keep > whole
    lengths = widths[layout] + negative + fast * (keep + dot)

    source = np.empty((values.size, 7), dtype=np.uint32)
    source[:, 1:5] = chunk_chars.take(chunks) & digit_masks.take(keep, axis=0)
    source_bytes = source.view(np.uint8)
    source_bytes[:, _SIGN] = negative.view(np.uint8) * np.uint8(ord("-"))
    source_bytes[:, _DIGITS] = lead + ord("0")
    source_bytes[:, _DOT] = dot.view(np.uint8) * np.uint8(ord("."))
    constants = np.frombuffer(b"0e-56,\0", dtype=np.uint8)  # _ZERO.._PAD
    source_bytes[:, _ZERO : _PAD + 1] = constants
    return layout, lengths, source


def _apply_layouts(layout, source):
    """Apply each layout to its values' source rows as one column gather."""
    columns = _format_tables()[4]  # each layout's source columns
    order = np.argsort(layout, kind="stable")
    rows = source.take(order, axis=0).view(np.uint8)
    fields = np.empty((layout.size, _FIELD_BYTES), dtype=np.uint8)
    start = 0
    for i, count in enumerate(np.bincount(layout).tolist()):
        if count:
            group = slice(start, start + count)
            fields[group] = rows[group, columns[i]]
            start += count
    inverse = np.empty_like(order)
    inverse[order] = np.arange(layout.size)
    return fields.take(inverse, axis=0)


def _parse_int(text: str, what: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: bad {what} {text!r}") from None


def load_partial_csv(path: str, num_classes: int | None = None) -> Dataset:
    """Read a partial-label CSV; class count is inferred unless given.

    One streaming pass reads the file: each record is checked as it is read
    (column count, candidates, label inside its set), and only its feature
    cells go on, straight into a single ``np.loadtxt`` call. No record's text
    outlives its parse, so the load peaks at about the feature matrix plus
    one record. A record that fails its checks ends the stream; its error is
    raised once the records before it have parsed. If the parse fails, or a
    value is not finite, the file is read again row by row to name the first
    bad line, so `path` must name a file that can be read twice.
    """
    labels, cand_rows, cand_cols = [], [], []
    failed = []  # a record check's error, held until the rows before it parse

    def feature_cells(records):
        try:
            for row, (_, text, cands, label) in enumerate(records):
                labels.append(label)
                cand_rows.extend([row] * len(cands))
                cand_cols.extend(cands)
                yield text
        except ValueError as err:
            failed.append(err)

    with open(path, encoding="utf-8") as fh:
        d, has_label = _read_header(fh, path)
        cells = feature_cells(_records(fh, path, d, has_label))
        # A file with no records never reaches loadtxt, which would warn.
        first = next(cells, None)
        if first is None:
            if failed:
                raise failed[0]
            raise ValueError(f"{path}: no data rows")
        try:
            features = _parse_rows(itertools.chain([first], cells))
        except ValueError:
            _raise_first_bad_line(path)
            raise ValueError(f"{path}: non-numeric feature") from None
    if not np.isfinite(features).all():
        _raise_first_bad_line(path)
        raise ValueError(f"{path}: non-finite feature")
    if failed:
        raise failed[0]
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


def _read_header(fh, path: str) -> tuple[int, bool]:
    """The feature count and whether a true-label column follows."""
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
    return d, has_label


def _records(fh, path: str, d: int, has_label: bool):
    """Yield each record's line number, feature text, candidates and label.

    The label is None without a true-label column. A record that fails a
    check raises ValueError naming ``path:line``.
    """
    tail = 2 if has_label else 1
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
        y = None
        if has_label:
            y = _parse_int(cells[2], "true_label", where)
            if y not in cands:
                raise ValueError(
                    f"{where}: true label {y} outside candidates {sorted(cands)}"
                )
        yield lineno, cells[0], cands, y


def _parse_rows(rows) -> np.ndarray:
    """Feature matrix from an iterable of comma-joined feature cells."""
    return np.loadtxt(rows, delimiter=",", dtype=np.float64, comments=None, ndmin=2)


def _raise_first_bad_line(path: str) -> None:
    """Read the file again row by row; raise for its first bad record.

    A record fails its own checks, or its features do not parse or are not
    finite. Returns if every record is good.
    """
    with open(path, encoding="utf-8") as fh:
        d, has_label = _read_header(fh, path)
        for lineno, text, _, _ in _records(fh, path, d, has_label):
            try:
                row = _parse_rows([text])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature") from None
            if not np.isfinite(row).all():
                raise ValueError(f"{path}:{lineno}: non-finite feature")


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
    # means[y] + noise_sigma * z, operation for operation, without a second
    # n x dim array: the draw is scaled in place and the class means are
    # added in blocks of at most MAX_BLOCK_VALUES values.
    x = rng.standard_normal((n, dim))
    x *= noise_sigma
    rows = max(1, MAX_BLOCK_VALUES // dim)
    for start in range(0, n, rows):
        x[start : start + rows] += means[y[start : start + rows]]
    return Dataset(features=x, num_classes=num_classes, true_labels=y)
