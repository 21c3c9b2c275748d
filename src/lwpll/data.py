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
  physical lines from 1 at the header; a byte that is not UTF-8 makes its
  cell bad and is reported so, like any other bad cell. The parse streams
  records and keeps no file text, so it peaks at about the feature matrix
  plus one record: a 10,000-row, d = 784 file of 158 MB parses with a
  tracemalloc peak of 72 MB for its 63 MB matrix.
- Binary frame, for the CSV sidecar and the checkpoint: a 4-byte magic,
  u32 version, the format's header, the SHA-256 of the payload, then the
  payload, arrays whose shapes the header gives; little-endian throughout.
  The reader checks the magic and version, then the file's size against
  the header before it allocates anything, then hashes the arrays as it
  reads them in; ValueError names a file that fails a check.
- Binary sidecar ``<csv path>.lwb``, written beside each CSV by
  `save_partial_csv`: magic b"LWPB", version 1; header u64 n, u64 d, u64 K,
  u8 has_label and the SHA-256 of the CSV's bytes; payload the features
  (float64, n x d), masks (u8, n x K) and, if has_label is 1, labels
  (int64). The loader uses it in place of the parse only if the frame
  passes its checks, its arrays make a valid `Dataset` of n >= 1 rows with
  mask bytes 0 or 1, and the CSV hashes to the stamp. Otherwise the CSV is
  parsed as if there were no sidecar, so deleting one only costs load time.
- Checkpoint (`model.save_checkpoint`): magic b"LWNN", version 2; header u32
  layer count, then per layer u32 out and u32 in; payload one u8 activation
  code per layer, then each layer's weights (float64, out x in) and biases.
  Version 1 had no digest and is rejected with its version named.

Class indices are zero-based everywhere, in files and in memory.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .rng import make_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# The binary frame, and the sidecar of a partial-label CSV (see "Formats").
_VERSION = struct.Struct("<I")
_DIGEST = struct.Struct("32s")
_SIDECAR_SUFFIX = ".lwb"
_SIDECAR_MAGIC = b"LWPB"
_SIDECAR_VERSION = 1
_SIDECAR_HEAD = struct.Struct("<QQQB32s")


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
    return replace(dataset, partial_masks=np.asarray(masks, dtype=bool))


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
    return tuple(replace(ds, features=(ds.features - mu) / sd) for ds in (train, *others))


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
        raise ValueError(f"image/label count mismatch: {images_path} has {n} images, "
                         f"{labels_path} has {n_labels} labels")
    num_classes = int(labels.max()) + 1 if n else 0
    if num_classes < 2:
        raise ValueError(f"{labels_path}: need at least 2 classes, got {num_classes}")
    features = raw.astype(np.float64).reshape(n, rows * cols) / 255.0
    return Dataset(features=features, num_classes=num_classes,
                   true_labels=labels.astype(np.int64))


def save_partial_csv(dataset: Dataset, path: str) -> None:
    """Write features, candidate sets, and (if present) true labels as CSV.

    Feature values are formatted in blocks of at most ``MAX_BLOCK_VALUES``;
    each block's records are joined, then written and hashed for the stamp
    with one call each, before the next block is formatted. The binary
    sidecar ``<path>.lwb`` (see "Formats") is written after the CSV.
    """
    if dataset.partial_masks is None:
        raise ValueError("dataset has no candidate masks to save")
    d = dataset.num_features
    if d == 0:
        raise ValueError("dataset has no feature columns to save")
    if len(dataset) == 0:
        raise ValueError("dataset has no rows to save")
    has_label = dataset.true_labels is not None
    header = [f"f{j}" for j in range(d)] + ["candidates"] + ["true_label"] * has_label
    values = np.ascontiguousarray(dataset.features, dtype=np.float64).reshape(-1)
    tails = _record_tails(dataset)
    stamp = hashlib.sha256()
    with open(path, "wb") as fh:
        for start in range(0, values.size, MAX_BLOCK_VALUES):
            parts = [] if start else [(",".join(header) + "\r\n").encode()]
            text, widths = _format_fields(values[start : start + MAX_BLOCK_VALUES])
            text = memoryview(text)
            # A record's features end after every d-th field; a record cut
            # by the block's end is finished by the next block.
            pos = 0
            for end in np.cumsum(widths)[d - 1 - start % d :: d].tolist():
                parts += (text[pos:end], next(tails))
                pos = end
            parts.append(text[pos:])
            chunk = b"".join(parts)
            fh.write(chunk)
            stamp.update(chunk)
            del chunk  # not held while the next block is formatted
    masks = np.ascontiguousarray(dataset.partial_masks, dtype=bool)
    arrays = [values.astype("<f8", copy=False), masks.view(np.uint8)]
    if has_label:
        arrays.append(np.ascontiguousarray(dataset.true_labels, dtype="<i8"))
    header = _SIDECAR_HEAD.pack(len(masks), d, masks.shape[1], has_label, stamp.digest())
    _write_frame(f"{path}{_SIDECAR_SUFFIX}", _SIDECAR_MAGIC, _SIDECAR_VERSION, header, arrays)


def _bytes_of(array: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, without a copy."""
    return memoryview(array.reshape(-1).view(np.uint8))


def _write_frame(path: str, magic: bytes, version: int, header: bytes, arrays) -> None:
    """Write a frame (see "Formats"): `header`, then the C-contiguous,
    little-endian `arrays` as the payload."""
    payload = [_bytes_of(array) for array in arrays]
    digest = hashlib.sha256()
    for view in payload:
        digest.update(view)
    with open(path, "wb") as fh:
        fh.write(magic + _VERSION.pack(version) + header + digest.digest())
        fh.writelines(payload)


def _read_frame(path: str, magic: bytes, version: int, what: str, read_header):
    """The header values and payload arrays of the frame in `path`, or
    ValueError naming `path` (a `what`) and the first check that fails.
    `read_header(take)` unpacks the format's header from `take(a_struct)` and
    returns its values and each payload array's (shape, dtype)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(fields: struct.Struct) -> tuple:
            if fh.tell() + fields.size > size:
                raise ValueError(f"{path}: truncated {what}")
            return fields.unpack(fh.read(fields.size))

        if fh.read(len(magic)) != magic:
            raise ValueError(f"{path}: not a {what} (bad magic)")
        (found,) = take(_VERSION)
        if found != version:
            raise ValueError(f"{path}: unsupported {what} version {found}")
        header, layout = read_header(take)
        (digest,) = take(_DIGEST)
        extra = size - fh.tell() - sum(np.dtype(dtype).itemsize * math.prod(shape)
                                       for shape, dtype in layout)
        if extra:
            raise ValueError(f"{path}: truncated {what}" if extra < 0
                             else f"{path}: {extra} trailing bytes")
        arrays = [np.empty(shape, dtype) for shape, dtype in layout]
        check = hashlib.sha256()
        for view in map(_bytes_of, arrays):  # bytes a short read leaves fail the digest
            fh.readinto(view)
            check.update(view)
    if check.digest() != digest:
        raise ValueError(f"{path}: {what} payload does not match its digest")
    return header, arrays


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
# after the point, and the point when they were all zeros. D's leading digit
# and two 8-digit halves, each made digit bytes in one uint64 word, go into a
# source row with the sign, a point and constants; cut digits are 0 bytes,
# found from the halves' highest nonzero byte. A layout that depends on E
# alone copies each field out of its row. Zeros take the layout "0"; other
# values (|x| < 1e-6, subnormals among them, or |x| >= 1e16) are formatted
# one at a time.
MAX_BLOCK_VALUES = 1 << 14

# Byte columns of the source row, four uint64 words: "e-056", padding, the
# sign and the leading digit; digits 1-8; digits 9-16; a comma, "0", the
# point, "000". A 0 byte (a positive sign, a cut digit or point, padding) is
# dropped from the output. In this order a layout is a few runs of columns.
_EXP, _MINUS, _ZERO, _FIVE, _SIX, _SIGN, _DIGITS, _COMMA, _BELOW_ONE, _DOT = (
    0, 1, 2, 3, 4, 6, 7, 24, 25, 26,
)
_FIELD_BYTES = 25  # the longest "%.17g," field: "-1.7976931348623157e+308,"
_MIN_EXP, _MAX_EXP = -6, 15
# The first and last words, with the sign and point 0 and the leading digit "0".
_FIRST_WORD = int.from_bytes(b"e-056\x00\x000", "little")
_LAST_WORD = int.from_bytes(b",0\x00000\x00\x00", "little")


def _layout(exponent: int) -> list[int]:
    """Source columns of "%.17g," for a nonzero value with this exponent."""
    digits = list(range(_DIGITS, _DIGITS + 17))
    if exponent < -4:
        suffix = [_EXP, _MINUS, _ZERO, _FIVE if exponent == -5 else _SIX]
        body = digits[:1] + [_DOT] + digits[1:] + suffix
    elif exponent < 0:
        body = list(range(_BELOW_ONE, _BELOW_ONE + 1 - exponent)) + digits
    else:
        body = digits[: exponent + 1] + [_DOT] + digits[exponent + 1 :]
    return [_SIGN, *body, _COMMA]


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
    # 10**0..10**22 are exact doubles; np.power would not promise that.
    pow10 = np.array([float(10**j) for j in range(23)])
    # Layout 0 is the empty one of values formatted one at a time, layout 1
    # is zero, and layout E - _MIN_EXP + 2 is decimal exponent E.
    layouts = [[], [_SIGN, _ZERO, _COMMA], *map(_layout, range(_MIN_EXP, _MAX_EXP + 1))]
    # Per layout: the characters all its values have (not the sign, digits or
    # point), and its runs of consecutive columns as (offset, column, length).
    digits, widths, runs = range(_DIGITS, _DIGITS + 17), [], []
    for layout in layouts:
        widths.append(sum(col not in (_SIGN, _DOT, *digits) for col in layout))
        starts = [j for j, col in enumerate(layout) if col - 1 not in layout[j - 1 : j]]
        ends = starts[1:] + [len(layout)]
        runs.append([(j, layout[j], end - j) for j, end in zip(starts, ends)])
    widths = np.array(widths, dtype=np.uint8)
    # zeros[h, keep] is "0" in the bytes of half h that hold one of the first
    # `keep` significant digits, and 0 in the others.
    zeros = np.array([[int.from_bytes(b"0" * min(max(keep - first, 0), 8), "little")
                       for keep in range(18)] for first in (1, 9)], dtype=np.uint64)
    for table in (pow10, widths, zeros):
        table.flags.writeable = False
    return pow10, runs, widths, zeros


def _format_fields(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value as ``"%.17g," % v``, concatenated, and each field's length.

    The bytes equal Python's "%.17g" for every finite float64.
    """
    layout, lengths, source = _decompose(values)
    # Sort the values by layout (stable), copy each layout's runs, then unsort.
    order = np.argsort(layout, kind="stable")
    rows = source.take(order, axis=0).view(np.uint8)
    fields = np.zeros((layout.size, _FIELD_BYTES), dtype=np.uint8)
    start = 0
    for runs, count in zip(_format_tables()[1], np.bincount(layout).tolist()):
        group = slice(start, start + count)
        for at, first, size in runs:
            fields[group, at : at + size] = rows[group, first : first + size]
        start += count
    inverse = np.empty_like(order)
    inverse[order] = np.arange(layout.size)
    fields = fields.take(inverse, axis=0)
    others = np.flatnonzero(layout == 0)
    if others.size:
        texts = [b"%.17g," % v for v in values[others].tolist()]
        padded = np.array(texts, dtype=f"S{_FIELD_BYTES}")
        fields[others] = padded.view(np.uint8).reshape(-1, _FIELD_BYTES)
        lengths[others] = [len(text) for text in texts]
    return fields[fields != 0], lengths


def _decompose(values):
    """Each value's layout, field length and source row (see the layouts)."""
    pow10, _, widths, zeros = _format_tables()
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
    digits = (hi.astype(np.int64) + np.rint(lo).astype(np.int64)).view(np.uint64)
    lead = digits // 10**16
    digits -= lead * 10**16
    halves = np.empty((2, values.size), dtype=np.uint64)
    np.floor_divide(digits, 10**8, out=halves[0])
    np.subtract(digits, halves[0] * 10**8, out=halves[1])
    # SWAR: each step splits every lane x of a word into q = x // divisor,
    # from a multiply and shift exact below the bound noted, in its low half
    # and x - q * divisor in its high half; the 8 digits end as bytes 0-9.
    quotient = np.empty_like(halves)
    for multiplier, shift, mask, divisor, width in (
        (109951163, 40, 0x3FFF, 10_000, 32),  # below 10**8
        (5243, 19, 0x0000007F0000007F, 100, 16),  # below 43699
        (103, 10, 0x000F000F000F000F, 10, 8),  # below 179
    ):
        np.multiply(halves, multiplier, out=quotient)
        quotient >>= shift
        quotient &= mask
        quotient *= (divisor << width) - 1
        halves <<= width
        halves -= quotient
    # The last nonzero digit is in the highest nonzero byte of the 16-byte
    # number halves[0] + halves[1] * 2**64, whose bit length frexp gives. No
    # byte exceeds 9, so no float here rounds up into the next byte.
    top = halves.astype(np.float64)
    significant = (np.frexp(top[1] * 2.0**64 + top[0])[1] + 15) >> 3
    layout = np.where(fast, exponent + (2 - _MIN_EXP), values == 0).astype(np.uint8)
    # The digits before the point (E + 1, or one in d.ddde-0E) stay; of those
    # after it, the trailing zeros and, with no digit left, the point go.
    whole = np.maximum(exponent + 1, exponent < -4)
    keep = np.maximum(significant, whole)
    dot = keep > whole
    lengths = widths.take(layout) + negative + fast * (keep + dot)
    source = np.empty((values.size, 4), dtype=np.uint64)
    source[:, 0] = lead << 56 | negative * np.uint64(ord("-") << 48) | _FIRST_WORD
    for column, (half, kept_zeros) in enumerate(zip(halves, zeros), start=1):
        np.bitwise_or(half, kept_zeros.take(keep), out=source[:, column])
    source[:, 3] = dot * np.uint64(ord(".") << 16) | _LAST_WORD
    return layout, lengths, source


def _parse_int(text: str, what: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: bad {what} {text!r}") from None


def load_partial_csv(path: str, num_classes: int | None = None) -> Dataset:
    """Read a partial-label CSV; class count is inferred unless given.

    The sidecar that `save_partial_csv` wrote beside the file stands in for
    the parse when it passes its checks (see "Formats").

    The parse reads the file in one streaming pass: each record is checked
    as it is read (column count, candidates, label inside its set), and
    only its feature cells go on, straight into a single ``np.loadtxt``
    call. No record's text outlives its parse, so the load peaks at about
    the feature matrix plus one record. A record that fails its checks ends
    the stream; its error is raised once the records before it have parsed.
    If the parse fails, or a value is not finite, the file is read again row
    by row to name the first bad line, so `path` must name a file that can
    be read twice.
    """
    sidecar = _read_sidecar(path)
    try:
        dataset, largest = _dataset(path, *(sidecar or _parse_csv(path)), num_classes)
    except ValueError:
        if sidecar is None:
            raise
        # The sidecar's arrays passed its digests but make no valid dataset.
        dataset, largest = _dataset(path, *_parse_csv(path), num_classes)
    if num_classes is not None and num_classes <= largest:
        raise ValueError(f"{path}: num_classes={num_classes} but saw class index {largest}")
    return dataset


def _dataset(path: str, features, cand_rows, cand_cols, labels, num_classes):
    """The `Dataset` of loaded arrays, with masks `num_classes` wide (2 if None)
    or wider if a candidate needs it, and the largest candidate index."""
    largest = int(np.max(cand_cols))
    width = max(largest + 1, 2 if num_classes is None else num_classes)
    try:
        masks = np.zeros((len(features), width), dtype=bool)
    except MemoryError:
        raise MemoryError(f"{path}: {len(features)} x {width} candidate masks "
                          "do not fit in memory") from None
    masks[cand_rows, cand_cols] = True
    return Dataset(features, width, labels, masks), largest


def _read_sidecar(path: str):
    """The features, (row, class) candidate pairs and labels (None without a
    true-label column) in the sidecar of `path`, or None unless it passes
    its checks. The payload is read only into the arrays it returns."""

    def layout(take):
        n, d, k, has_label, stamp = take(_SIDECAR_HEAD)
        return (has_label, stamp), [((n, d), "<f8"), ((n, k), "u1"), ((n * has_label,), "<i8")]

    try:
        (has_label, stamp), (features, masks, labels) = _read_frame(
            f"{path}{_SIDECAR_SUFFIX}", _SIDECAR_MAGIC, _SIDECAR_VERSION, "sidecar", layout)
        with open(path, "rb") as fh:
            if (masks > 1).any() or hashlib.file_digest(fh, "sha256").digest() != stamp:
                return None
    except (OSError, ValueError):
        return None
    return features, *np.nonzero(masks), labels if has_label else None


def _parse_csv(path: str):
    """What `_read_sidecar` returns, parsed from the text of `path`."""
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

    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
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
    return features, cand_rows, cand_cols, np.array(labels, np.int64) if has_label else None


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
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
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
