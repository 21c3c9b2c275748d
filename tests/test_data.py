"""Dataset containers, file formats, and the synthetic Gaussian task."""

import hashlib
import struct
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lwpll import (
    Dataset,
    load_idx,
    load_partial_csv,
    make_gaussian_task,
    make_rng,
    make_uniform,
    save_partial_csv,
    standardize,
    take,
    with_candidates,
)
from lwpll import data
from lwpll.data import MAX_BLOCK_VALUES, _format_fields, simplex_vertices, split_indices


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2):
    n = len(labels)
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + bytes(pixels))
    lab.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    return str(img), str(lab)


def random_dataset(rng, n=40, d=3, k=4, with_labels=True):
    features = rng.normal(size=(n, d))
    labels = rng.integers(0, k, size=n)
    masks = make_uniform(k, 0.4).sample_sets(labels, rng)
    return Dataset(
        features=features,
        num_classes=k,
        true_labels=labels if with_labels else None,
        partial_masks=masks,
    )


# container validation


def test_dataset_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        Dataset(features=np.array([[np.inf, 0.0]]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(features=x, num_classes=1)
    with pytest.raises(ValueError):
        Dataset(features=x, num_classes=3, true_labels=np.array([0, 1, 3, 0]))
    with pytest.raises(ValueError):
        Dataset(features=x, num_classes=3, partial_masks=np.zeros((4, 3), dtype=bool))
    masks = np.ones((4, 3), dtype=bool)
    masks[0] = [True, False, False]
    with pytest.raises(ValueError):
        Dataset(
            features=x,
            num_classes=3,
            true_labels=np.array([1, 0, 0, 0]),
            partial_masks=masks,
        )


@pytest.mark.parametrize("labels", [[0.0, 2.5], [0.0, 2.0], [True, False]],
                         ids=["fractional", "whole_floats", "bool"])
def test_dataset_rejects_labels_that_are_not_integers(labels):
    labels = np.array(labels)
    for masks in (None, np.ones((2, 3), dtype=bool)):
        with pytest.raises(ValueError) as info:
            Dataset(features=np.zeros((2, 4)), num_classes=3, true_labels=labels,
                    partial_masks=masks)
        assert str(info.value) == f"true_labels must be integers, got {labels.dtype}"


def test_take_and_with_candidates():
    rng = make_rng(301)
    ds = random_dataset(rng)
    sub = take(ds, np.array([3, 1]))
    assert np.array_equal(sub.features, ds.features[[3, 1]])
    assert np.array_equal(sub.true_labels, ds.true_labels[[3, 1]])
    assert np.array_equal(sub.partial_masks, ds.partial_masks[[3, 1]])
    bare = Dataset(features=ds.features, num_classes=4, true_labels=ds.true_labels)
    redecorated = with_candidates(bare, ds.partial_masks)
    assert np.array_equal(redecorated.partial_masks, ds.partial_masks)


# IDX format


def test_load_idx_scales_bytes():
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as tmp:
        img, lab = write_idx_pair(
            pathlib.Path(tmp), [0, 255, 128, 64, 255, 0, 0, 32], [1, 0]
        )
        ds = load_idx(img, lab)
    assert ds.features.shape == (2, 4)
    assert np.array_equal(ds.features[0], [0.0, 1.0, 128 / 255, 64 / 255])
    assert np.array_equal(ds.true_labels, [1, 0])
    assert ds.num_classes == 2


def test_load_idx_bad_magic(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0] * 8, [0, 1])
    broken = tmp_path / "broken.idx"
    blob = Path(img).read_bytes()
    broken.write_bytes(b"\x00\x00\x08\x05" + blob[4:])
    with pytest.raises(ValueError):
        load_idx(str(broken), lab)


def test_load_idx_truncated(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0] * 8, [0, 1])
    clipped = tmp_path / "clipped.idx"
    clipped.write_bytes(Path(img).read_bytes()[:-3])
    with pytest.raises(ValueError):
        load_idx(str(clipped), lab)


def test_load_idx_reads_dims_unsigned_and_checks_the_size_before_reading(tmp_path):
    _, lab = write_idx_pair(tmp_path, [0] * 8, [0, 1])
    # A dim of 0xFFFFFFFF is 4294967295, not -1.
    huge = tmp_path / "huge.idx"
    huge.write_bytes(struct.pack(">IIII", 0x803, 2, 0xFFFFFFFF, 1) + bytes(8))
    with pytest.raises(ValueError) as info:
        load_idx(str(huge), lab)
    assert str(info.value) == f"{huge}: expected 8589934590 payload bytes, got 8"
    # A 16 MB body behind a header that implies 2 bytes is never read in.
    long = tmp_path / "long.idx"
    with open(long, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, 2, 1, 1))
        fh.truncate(16 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            load_idx(str(long), lab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{long}: expected 2 payload bytes, got {(16 << 20) - 16}"
    assert peak < 64 << 10


def test_load_idx_count_mismatch(tmp_path):
    img, _ = write_idx_pair(tmp_path, [0] * 8, [0, 1])
    lone = tmp_path / "lone.idx"
    lone.write_bytes(struct.pack(">II", 0x801, 1) + bytes([0]))
    with pytest.raises(ValueError) as info:
        load_idx(img, str(lone))
    assert str(info.value) == (f"image/label count mismatch: {img} has 2 images, "
                               f"{lone} has 1 labels")


@pytest.mark.parametrize("labels, classes", [([], 0), ([0, 0], 1)], ids=["empty", "one_class"])
def test_load_idx_with_fewer_than_two_classes_names_the_labels_file(tmp_path, labels, classes):
    img, lab = write_idx_pair(tmp_path, [0] * 4 * len(labels), labels)
    with pytest.raises(ValueError) as info:
        load_idx(img, lab)
    assert str(info.value) == f"{lab}: need at least 2 classes, got {classes}"


# partial-label CSV


def dataset_bytes(ds):
    """Everything a dataset holds: class count, and each array's dtype,
    shape and bytes (None for a missing array)."""
    arrays = (ds.features, ds.true_labels, ds.partial_masks)
    return ds.num_classes, [None if a is None else (a.dtype.str, a.shape, a.tobytes())
                            for a in arrays]


def load_both_ways(path, load=load_partial_csv, **kwargs):
    """Load `path` from its sidecar, then again by parsing after deleting the
    sidecar; the two datasets must be byte-identical. Returns both."""
    sidecar = Path(f"{path}.lwb")
    assert sidecar.is_file()
    with mock.patch.object(data, "_parse_csv", side_effect=AssertionError("parsed")):
        from_sidecar = load(str(path), **kwargs)
    sidecar.unlink()
    parsed = load(str(path), **kwargs)
    assert dataset_bytes(from_sidecar) == dataset_bytes(parsed)
    return from_sidecar, parsed


def test_csv_single_row_grammar(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("f0,f1,candidates,true_label\n0.5,1.25,0|2,0\n")
    ds = load_partial_csv(str(path))
    assert np.array_equal(ds.features, [[0.5, 1.25]])
    assert np.array_equal(ds.partial_masks, [[True, False, True]])
    assert np.array_equal(ds.true_labels, [0])


def test_csv_round_trip(tmp_path):
    rng = make_rng(307)
    ds = random_dataset(rng, n=1000, d=5, k=6)
    path = tmp_path / "corpus.csv"
    save_partial_csv(ds, str(path))
    for back in load_both_ways(path):
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.partial_masks, ds.partial_masks)
        assert np.array_equal(back.true_labels, ds.true_labels)
        assert back.num_classes == ds.num_classes


def test_csv_round_trip_without_labels(tmp_path):
    rng = make_rng(311)
    ds = random_dataset(rng, with_labels=False)
    path = tmp_path / "unlabeled.csv"
    save_partial_csv(ds, str(path))
    for back in load_both_ways(path, num_classes=4):
        assert back.true_labels is None
        assert np.array_equal(back.partial_masks, ds.partial_masks)


def test_csv_duplicate_candidates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("f0,candidates\n1.0,1|1\n")
    ds = load_partial_csv(str(path))
    assert np.array_equal(ds.partial_masks, [[False, True]])


def test_csv_errors_cite_line_numbers(tmp_path):
    cases = [
        ("f0,candidates\nabc,0\n", "feature"),
        ("f0,candidates\n1.0,\n", "candidate"),
        ("f0,candidates,true_label\n1.0,1,0\n", "candidates"),
        ("f0,candidates\n1.0,-1\n", "class"),
    ]
    for text, needle in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_partial_csv(str(path))
        assert ":2:" in str(info.value)
    path.write_text("f0,wrong_header\n1.0,0\n")
    with pytest.raises(ValueError):
        load_partial_csv(str(path))


def test_csv_malformed_rows_cite_line_numbers(tmp_path):
    cases = [
        ("f0,f1,candidates\n1.0,0\n", "columns"),  # short row
        ("f0,f1,candidates\n1.0,2.0,3.0,0\n", "columns"),  # too many columns
        ("f0,candidates\n1.0,0|x\n", "candidate"),
        ("f0,candidates,true_label\n1.0,0|1,one\n", "true_label"),
        ("f0,candidates,true_label\n1.0,0|1,\n", "true_label"),  # missing label
        ("f0,candidates,true_label\n1.0,0|1\n", "columns"),
        ("f0,candidates\n,0\n", "feature"),
        ("f0,f1,candidates\n1.0,abc,0\n", "feature"),
        ("f0,candidates\nnan,0\n", "finite"),
    ]
    for text, needle in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_partial_csv(str(path))
        assert str(info.value).startswith(f"{path}:2: "), text
        assert needle in str(info.value), text


def test_csv_undecodable_bytes_are_bad_cells_with_line_numbers(tmp_path):
    cases = [
        (b"f0,f1,candidates,true_label\n1,2,0|1,0\n1,\xff2,1,1\n", ":3: non-numeric feature"),
        (b"f0,f1,candidates,true_label\n1,2,0|1,0\n1,2,\xff1,1\n",
         ":3: bad candidate '\\udcff1'"),
        (b"f0,f1,candidates,true_label\n1,2,0|1,0\n1,2,1,\xfe\n", ":3: bad true_label"),
    ]
    for blob, message in cases:
        path = tmp_path / "bad.csv"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as info:
            load_partial_csv(str(path))
        assert str(info.value).startswith(f"{path}{message}"), blob


def test_csv_with_a_utf8_bom_reads_as_without_it(tmp_path):
    # Spreadsheet programs save "CSV UTF-8" with a byte-order mark.
    text = "f0,f1,candidates,true_label\n1,2,0|1,0\n3.5,-4,1|2,2\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    a, b = load_partial_csv(str(plain)), load_partial_csv(str(marked))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.partial_masks, b.partial_masks)
    assert np.array_equal(a.true_labels, b.true_labels)
    marked.write_bytes(b"\xef\xbb\xbf" + text.replace("3.5", "x").encode())
    with pytest.raises(ValueError, match=r":3: non-numeric feature"):
        load_partial_csv(str(marked))


def test_csv_candidate_masks_too_large_for_memory_name_the_file(tmp_path):
    # 2 x (10**15 + 1) bytes exceed any host's memory and the 128 TiB address
    # space of 4-level x86-64 paging, so the allocation fails everywhere.
    path = tmp_path / "huge_class.csv"
    path.write_text(f"f0,candidates\n1.0,0\n2.0,0|{10**15}\n")
    with pytest.raises(MemoryError) as info:
        load_partial_csv(str(path))
    assert str(info.value).startswith(f"{path}: 2 x {10**15 + 1} candidate masks")


def test_csv_line_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "gappy.csv"
    path.write_text("f0,candidates\r\n\r\n1.0,0\r\n\n2.0,1\n\nabc,0\n")
    with pytest.raises(ValueError) as info:
        load_partial_csv(str(path))
    assert str(info.value).startswith(f"{path}:7: ")
    path.write_text("f0,candidates\r\n\r\n1.0,0\r\n\n2.0,1\n\n")
    ds = load_partial_csv(str(path))
    assert np.array_equal(ds.features, [[1.0], [2.0]])
    assert np.array_equal(ds.partial_masks, [[True, False], [False, True]])


def test_csv_golden_bytes(tmp_path):
    features = np.array([[-0.0, 5e-324], [1e300, 0.1]])
    masks = np.array([[True, False, True], [False, True, False]])
    path = tmp_path / "golden.csv"
    save_partial_csv(
        Dataset(features, 3, true_labels=np.array([0, 1]), partial_masks=masks), str(path)
    )
    assert path.read_bytes() == (
        b"f0,f1,candidates,true_label\r\n"
        b"-0,4.9406564584124654e-324,0|2,0\r\n"
        b"1.0000000000000001e+300,0.10000000000000001,1,1\r\n"
    )
    save_partial_csv(Dataset(features, 3, partial_masks=masks), str(path))
    assert path.read_bytes() == (
        b"f0,f1,candidates\r\n"
        b"-0,4.9406564584124654e-324,0|2\r\n"
        b"1.0000000000000001e+300,0.10000000000000001,1\r\n"
    )


@st.composite
def partial_datasets(draw):
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(2, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    features = draw(hnp.arrays(np.float64, (n, d), elements=finite))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    masks = draw(hnp.arrays(np.bool_, (n, k)))
    masks[np.arange(n), labels] = True
    with_labels = draw(st.booleans())
    return Dataset(
        features, k, true_labels=labels if with_labels else None, partial_masks=masks
    )


@settings(max_examples=60, deadline=None)
@given(partial_datasets())
def test_csv_round_trip_property(ds):
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "prop.csv")
        save_partial_csv(ds, path)
        loads = load_both_ways(path, num_classes=ds.num_classes)
    for back in loads:
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.partial_masks, ds.partial_masks)
        if ds.true_labels is None:
            assert back.true_labels is None
        else:
            assert np.array_equal(back.true_labels, ds.true_labels)


def test_csv_num_classes_override(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("f0,candidates\n1.0,0\n2.0,1\n")
    assert load_partial_csv(str(path)).num_classes == 2
    assert load_partial_csv(str(path), num_classes=5).num_classes == 5
    with pytest.raises(ValueError):
        load_partial_csv(str(path), num_classes=1)


def test_csv_error_names_the_first_bad_line_in_file_order(tmp_path):
    path = tmp_path / "bad.csv"
    cases = [
        ("1.0,0\nabc,0\n2.0,1\n3.0,\n", ":3: non-numeric feature"),
        ("1.0,0\n3.0,\n2.0,1\nabc,0\n", ":3: empty candidate cell"),
        ("1.0,0\ninf,0\n2.0,1\nabc,0\n", ":3: non-finite feature"),
        ("1.0,0\n2.0,1\n3.0,0\n,0\n", ":5: non-numeric feature"),
    ]
    for rows, message in cases:
        path.write_text("f0,candidates\n" + rows)
        with pytest.raises(ValueError) as info:
            load_partial_csv(str(path))
        assert str(info.value) == f"{path}{message}", rows


def test_csv_record_error_is_raised_without_a_second_read(tmp_path, monkeypatch):
    # The rows before a failed record parse cleanly, so its own error stands.
    def second_read(path):
        raise AssertionError("read the file again")

    monkeypatch.setattr(data, "_raise_first_bad_line", second_read)
    path = tmp_path / "bad.csv"
    for rows, message in (("3.0,\n", ":2: empty candidate cell"),
                          ("1.0,0\n2.0,1\n3.0,\nabc,0\n", ":4: empty candidate cell")):
        path.write_text("f0,candidates\n" + rows)
        with pytest.raises(ValueError) as info:
            load_partial_csv(str(path))
        assert str(info.value) == f"{path}{message}", rows


def test_csv_error_names_the_file_when_the_second_read_finds_nothing(
    tmp_path, monkeypatch
):
    # The file may change between the two reads.
    monkeypatch.setattr(data, "_raise_first_bad_line", lambda path: None)
    path = tmp_path / "bad.csv"
    for rows, message in (("1.0,0\nabc,0\n", "non-numeric feature"),
                          ("1.0,0\ninf,0\n", "non-finite feature")):
        path.write_text("f0,candidates\n" + rows)
        with pytest.raises(ValueError) as info:
            load_partial_csv(str(path))
        assert str(info.value) == f"{path}: {message}", rows


def test_csv_without_records_fails_without_a_warning(tmp_path):
    path = tmp_path / "header_only.csv"
    for text in ("f0,f1,candidates,true_label\r\n", "f0,candidates\n\n\r\n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                load_partial_csv(str(path))
        assert str(info.value) == f"{path}: no data rows"


def traced_peak(fn):
    """fn's result and the peak of Python-tracked memory while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_csv_load_peaks_near_the_feature_matrix(tmp_path):
    # The sidecar is read straight into the returned arrays; the parse
    # streams records into one np.loadtxt call and keeps no file text.
    rng = make_rng(331)
    path = tmp_path / "corpus.csv"
    save_partial_csv(random_dataset(rng, n=2000, d=64, k=10), str(path))
    peaks = []

    def traced_load(csv_path):
        ds, peak = traced_peak(lambda: load_partial_csv(csv_path))
        peaks.append(peak)
        return ds

    loads = load_both_ways(path, traced_load)
    for ds, peak in zip(loads, peaks):
        assert ds.features.shape == (2000, 64)
        assert peak <= 2 * ds.features.nbytes


# the binary sidecar: used only when it passes its checks

SIDECAR_HEAD = 97  # magic, version, n, d, K, has_label, two SHA-256 digests
ROWS_AT, PAYLOAD_DIGEST_AT = 8, 65


def edit_first_digit(blob):
    """Change the first feature digit of the first record."""
    at = blob.index(b"\r\n") + 2
    while not chr(blob[at]).isdigit():
        at += 1
    blob[at] = ord("0") + (blob[at] - ord("0") + 1) % 10


def append_row(blob):
    blob.extend(b"0.5,0.25,0.125,0|1,1\r\n")


def spoil_first_record(blob):
    """Make the first record's first feature non-numeric."""
    blob[blob.index(b"\r\n") + 2] = ord("x")


def drop_last_byte(blob):
    del blob[-1]


def cut_inside_header(blob):
    del blob[40:]


def bad_magic(blob):
    blob[:4] = b"LWPX"


def flip_payload_byte(blob):
    blob[SIDECAR_HEAD + 5] ^= 1


def mask_byte_two(blob):
    """Set the first mask byte to 2 under a payload digest that matches."""
    n, d = struct.unpack_from("<QQ", blob, ROWS_AT)
    blob[SIDECAR_HEAD + 8 * n * d] = 2
    blob[PAYLOAD_DIGEST_AT:SIDECAR_HEAD] = hashlib.sha256(blob[SIDECAR_HEAD:]).digest()


def claim_2_40_rows(blob):
    struct.pack_into("<Q", blob, ROWS_AT, 1 << 40)


# Payloads that pass both digests but are no valid dataset: each edit
# re-stamps the payload digest, and the CSV is left as written.
CLASSES_AT = 24


def restamped(change):
    def apply(blob):
        n, d, k = struct.unpack_from("<QQQ", blob, ROWS_AT)
        change(blob, SIDECAR_HEAD + 8 * n * d, n, k)  # where the masks start
        blob[PAYLOAD_DIGEST_AT:SIDECAR_HEAD] = hashlib.sha256(blob[SIDECAR_HEAD:]).digest()
    return apply


def nan_feature(blob, masks_at, n, k):
    struct.pack_into("<d", blob, SIDECAR_HEAD, float("nan"))


def empty_candidate_set(blob, masks_at, n, k):
    blob[masks_at : masks_at + k] = bytes(k)


def label_outside_its_set(blob, masks_at, n, k):
    """Move the first row's true label out of its set, which stays nonempty."""
    (label,) = struct.unpack_from("<q", blob, masks_at + n * k)
    blob[masks_at + label] = 0
    blob[masks_at + (label + 1) % k] = 1


def zero_classes(blob, masks_at, n, k):
    struct.pack_into("<Q", blob, CLASSES_AT, 0)
    del blob[masks_at : masks_at + n * k]


def edit(which, change):
    """Apply `change` to a bytearray of the CSV's or the sidecar's bytes."""
    def apply(csv, sidecar):
        path = csv if which == "csv" else sidecar
        blob = bytearray(path.read_bytes())
        change(blob)
        path.write_bytes(bytes(blob))
    return apply


def keep(csv, sidecar):
    pass


def make_unreadable(csv, sidecar):
    sidecar.unlink()
    sidecar.mkdir()


# case: (change to the CSV or its sidecar, load keywords, whether the sidecar
# stays trusted). Every case must return or raise what the parse alone does.
SIDECAR_CASES = {
    "intact": (keep, {}, True),
    "wider_num_classes": (keep, {"num_classes": 7}, True),
    "num_classes_below_the_data": (keep, {"num_classes": 3}, True),
    "without_labels": (keep, {}, True),
    "csv_digit_edited": (edit("csv", edit_first_digit), {}, False),
    "csv_row_appended": (edit("csv", append_row), {}, False),
    "csv_record_made_bad": (edit("csv", spoil_first_record), {}, False),
    "sidecar_truncated": (edit("sidecar", drop_last_byte), {}, False),
    "sidecar_header_truncated": (edit("sidecar", cut_inside_header), {}, False),
    "sidecar_bad_magic": (edit("sidecar", bad_magic), {}, False),
    "sidecar_payload_byte_flipped": (edit("sidecar", flip_payload_byte), {}, False),
    "sidecar_mask_byte_two": (edit("sidecar", mask_byte_two), {}, False),
    "sidecar_claims_2_40_rows": (edit("sidecar", claim_2_40_rows), {}, False),
    "sidecar_unreadable": (make_unreadable, {}, False),
    "sidecar_nan_feature": (edit("sidecar", restamped(nan_feature)), {}, False),
    "sidecar_empty_candidate_set": (edit("sidecar", restamped(empty_candidate_set)), {}, False),
    "sidecar_label_outside_its_set": (edit("sidecar", restamped(label_outside_its_set)), {},
                                      False),
    "sidecar_zero_classes": (edit("sidecar", restamped(zero_classes)), {}, False),
}


def load_outcome(path, **kwargs):
    """The loaded dataset's bytes, or the text of the ValueError it raised."""
    try:
        return dataset_bytes(load_partial_csv(str(path), **kwargs))
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("case", sorted(SIDECAR_CASES))
def test_sidecar_is_used_only_when_it_passes_its_checks(tmp_path, monkeypatch, case):
    change, kwargs, trusted = SIDECAR_CASES[case]
    ds = random_dataset(make_rng(347), n=60, d=3, k=5,
                        with_labels=case != "without_labels")
    assert ds.partial_masks[:, -1].any()  # the data reach class 4
    path = tmp_path / "corpus.csv"
    save_partial_csv(ds, str(path))
    sidecar = Path(f"{path}.lwb")
    change(path, sidecar)
    opened, parses = [], []

    def tracked_open(*args, **kw):
        opened.append(open(*args, **kw))
        return opened[-1]

    def counted_parse(csv_path):
        parses.append(csv_path)
        return parse(csv_path)

    parse = data._parse_csv
    monkeypatch.setattr(data, "open", tracked_open, raising=False)
    monkeypatch.setattr(data, "_parse_csv", counted_parse)
    got, peak = traced_peak(lambda: load_outcome(path, **kwargs))
    assert opened and all(fh.closed for fh in opened)
    assert len(parses) == (0 if trusted else 1)
    assert peak < 1 << 20  # the claimed 2**40 rows are never allocated
    if sidecar.is_dir():
        sidecar.rmdir()
    else:
        sidecar.unlink()
    assert got == load_outcome(path, **kwargs)
    if case == "num_classes_below_the_data":
        assert got == f"{path}: num_classes=3 but saw class index 4"
    if case == "csv_record_made_bad":
        assert got == f"{path}:2: non-numeric feature"


@pytest.mark.parametrize("with_sidecar", [True, False])
def test_a_load_validates_its_dataset_once(tmp_path, monkeypatch, with_sidecar):
    path = tmp_path / "corpus.csv"
    save_partial_csv(random_dataset(make_rng(349)), str(path))
    if not with_sidecar:
        Path(f"{path}.lwb").unlink()
    checks = []
    check = Dataset.__post_init__
    monkeypatch.setattr(Dataset, "__post_init__", lambda ds: checks.append(check(ds)))
    load_partial_csv(str(path), num_classes=6)
    assert len(checks) == 1


# feature formatting: the block formatter against Python's "%.17g"


def reference_save_partial_csv(dataset, path):
    """The per-row "%.17g" writer whose bytes `save_partial_csv` must match."""
    d = dataset.num_features
    header = [f"f{j}" for j in range(d)] + ["candidates"]
    labels = dataset.true_labels
    if labels is not None:
        header.append("true_label")
        labels = labels.astype(np.int64).tolist()
    features_format = "%.17g," * d
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i, (row, mask) in enumerate(zip(dataset.features, dataset.partial_masks)):
            line = features_format % tuple(row.tolist())
            line += "|".join(map(str, np.flatnonzero(mask).tolist()))
            if labels is not None:
                line += f",{labels[i]}"
            fh.write(line + "\r\n")


def assert_formats_as_percent_17g(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    for start in range(0, values.size, MAX_BLOCK_VALUES):
        block = values[start : start + MAX_BLOCK_VALUES].tolist()
        text, widths = _format_fields(np.array(block))
        want = ("%.17g," * len(block) % tuple(block)).encode()
        if text.tobytes() != want:
            pairs = zip(block, text.tobytes().split(b","), want.split(b","))
            first = next((v for v, g, w in pairs if g != w), None)
            pytest.fail(f"first mismatch at {first!r}")
        commas = np.flatnonzero(np.frombuffer(want, dtype=np.uint8) == ord(","))
        assert np.array_equal(np.cumsum(widths), commas + 1)


def largest_double_below(power):
    x = float(power)
    return x if Fraction(x) < power else float(np.nextafter(x, 0.0))


def test_formatter_matches_percent_17g_on_random_bit_patterns():
    rng = make_rng(401)
    bits = rng.integers(0, 2**64, size=1 << 20, dtype=np.uint64)
    # Half keep any exponent; half get one from about 2**-24 to 2**58, around
    # the arithmetic path's [1e-6, 1e16), so that path sees most of them.
    half = bits.size // 2
    exponents = rng.integers(1023 - 24, 1023 + 58, size=half, dtype=np.uint64)
    bits[half:] = (bits[half:] & np.uint64(0x800FFFFFFFFFFFFF)) | (exponents << np.uint64(52))
    values = bits.view(np.float64)
    assert_formats_as_percent_17g(values[np.isfinite(values)])


def test_formatter_boundaries():
    edges = [0.0, 5e-324, sys.float_info.min, sys.float_info.max, 1e-4, 1e-5]
    # The arithmetic path covers 1e-6 <= |x| < 1e16; 1e-6 itself lies just
    # below 10**-6, so it is its own boundary.
    edges += [1e-6, np.nextafter(1e-6, 0.0), 1e16, np.nextafter(1e16, 0.0)]
    # Exact 17-digit ties, which round half to even.
    edges += [1e14 + 0.125, 1e14 + 0.375, 1e15 + 0.25, 1e15 + 0.75]
    # Next to each power of ten, where log10 and the rounding can move the
    # exponent. The largest double below a power is the only one whose 17
    # digits can round up to it; that happens (e.g. 1e-14, 1e98) only outside
    # the arithmetic path, which does not handle it.
    for m in range(-320, 309):
        below = largest_double_below(Fraction(10) ** m)
        edges += [below, float(np.nextafter(below, np.inf)), float(np.nextafter(below, 0.0))]
    edges = np.array(edges)
    assert_formats_as_percent_17g(np.concatenate([edges, -edges]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_formatter_property(values):
    assert_formats_as_percent_17g(values)


def seventeen_digits(x):
    """x's decimal exponent, and how many of the 17 significant digits that
    "%.17g" rounds it to are trailing zeros."""
    mantissa, exponent = ("%.16e" % x).split("e")
    digits = mantissa.lstrip("-").replace(".", "")
    return int(exponent), len(digits) - len(digits.rstrip("0"))


def test_formatter_cuts_every_count_of_trailing_zeros_on_every_path():
    # The cut is read off the highest nonzero digit byte of the two 8-digit
    # halves after the leading digit, so it turns on which byte of which
    # half holds the last nonzero digit; random bit patterns almost never
    # end in more than two zeros. For each exponent of the arithmetic path
    # (-6..15) and just off it, and each count j of trailing zeros, take the
    # double nearest a random 17-digit number ending in j zeros until one
    # rounds back to such digits.
    rng = make_rng(419)
    found = {}
    for e in range(-8, 18):
        for j in range(17):
            for _ in range(200):
                d = int(rng.integers(10 ** (16 - j), 10 ** (17 - j)))
                d += d % 10 == 0
                x = float(Fraction(d * 10**j) * Fraction(10) ** (e - 16))
                if seventeen_digits(x) == (e, j):
                    found[e, j] = x
                    break
    # No double from 1e-7 to 1e-4 rounds to a single digit and 16 zeros.
    missing = {(e, j) for e in range(-8, 18) for j in range(17)} - found.keys()
    assert missing == {(-7, 16), (-6, 16), (-5, 16)}
    values = np.array(sorted(found.values()))
    assert_formats_as_percent_17g(np.concatenate([values, -values, [0.0, -0.0]]))


def test_csv_save_peaks_at_a_few_blocks_whatever_the_row_count(tmp_path):
    # Each block is formatted, written and hashed before the next, and the
    # sidecar is written from views of the input, so the peak above the
    # input stays at a few block-sized temporaries as n grows.
    peaks = []
    for n in (1000, 4000):
        ds = random_dataset(make_rng(337), n=n, d=784, k=10)
        _, peak = traced_peak(lambda: save_partial_csv(ds, str(tmp_path / f"{n}.csv")))
        peaks.append(peak)
    assert max(peaks) < 5 * 2**20
    assert peaks[1] < peaks[0] + 2**16


def test_csv_bytes_match_the_reference_writer_across_blocks(tmp_path):
    rng = make_rng(409)
    # 25 x 784 values span two blocks, the second starting inside a record;
    # zeros, tiny and huge values take every formatting path.
    wide = random_dataset(rng, n=25, d=784, k=10)
    features = wide.features * 10.0 ** rng.integers(-8, 18, size=wide.features.shape)
    features[rng.random(features.shape) < 0.3] = 0.0
    features[0, :4] = [-0.0, 5e-324, -1e300, np.nextafter(1e16, 0.0)]
    wide = Dataset(features, 10, true_labels=wide.true_labels,
                   partial_masks=wide.partial_masks)
    # d = 1 with more records than a block holds values.
    narrow = random_dataset(rng, n=MAX_BLOCK_VALUES + 100, d=1, k=3, with_labels=False)
    for ds in (wide, narrow):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_partial_csv(ds, str(got))
        reference_save_partial_csv(ds, str(want))
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("shape", [(2, 0), (0, 3)], ids=["no_features", "no_rows"])
def test_csv_save_rejects_a_dataset_without_features(tmp_path, shape):
    # Neither file is opened: a 0-row CSV has no header line and cannot load.
    masks = np.ones((shape[0], 2), dtype=bool)
    path = tmp_path / "empty.csv"
    with pytest.raises(ValueError, match="no (feature columns|rows) to save"):
        save_partial_csv(Dataset(np.zeros(shape), 2, partial_masks=masks), str(path))
    assert not path.exists()
    assert not (tmp_path / "empty.csv.lwb").exists()


# synthetic Gaussians


def test_simplex_vertices_geometry():
    for k in (2, 3, 5):
        v = simplex_vertices(k, k - 1)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        for i in range(k):
            for j in range(i + 1, k):
                assert abs(v[i] @ v[j] - (-1.0 / (k - 1))) < 1e-12
    padded = simplex_vertices(3, 6)
    assert padded.shape == (3, 6)
    assert np.allclose(np.linalg.norm(padded, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        simplex_vertices(4, 2)


def test_gaussian_task_zero_noise_is_separable():
    ds = make_gaussian_task(3, 2, 90, class_separation=4.0, noise_sigma=0.0, seed=1)
    means = 4.0 * simplex_vertices(3, 2)
    dists = np.linalg.norm(ds.features[:, None, :] - means[None], axis=2)
    assert np.array_equal(np.argmin(dists, axis=1), ds.true_labels)


def test_gaussian_task_statistics():
    ds = make_gaussian_task(4, 3, 8000, class_separation=3.0, noise_sigma=0.7, seed=9)
    assert ds.features.shape == (8000, 3)
    counts = np.bincount(ds.true_labels, minlength=4)
    assert counts.min() > 1800  # near-equal priors
    for y in range(4):
        cloud = ds.features[ds.true_labels == y]
        center = 3.0 * simplex_vertices(4, 3)[y]
        assert np.linalg.norm(cloud.mean(axis=0) - center) < 0.1
        assert abs(cloud.std(axis=0).mean() - 0.7) < 0.05


def test_gaussian_task_deterministic():
    a = make_gaussian_task(3, 2, 50, class_separation=2.0, noise_sigma=0.5, seed=3)
    b = make_gaussian_task(3, 2, 50, class_separation=2.0, noise_sigma=0.5, seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.true_labels, b.true_labels)
    c = make_gaussian_task(3, 2, 50, class_separation=2.0, noise_sigma=0.5, seed=4)
    assert not np.array_equal(a.features, c.features)


def test_gaussian_task_bytes_equal_the_literal_draw():
    # Signed zeros: with separation 0, means[y] holds -0.0 where a vertex
    # coordinate is negative, and sigma 0 scales the draw to +-0.0.
    for k, dim, n in ((3, 2, 90), (10, 64, 700), (2, 2 * MAX_BLOCK_VALUES, 3)):
        for separation in (0.0, 3.0):
            for sigma in (0.0, 1.0):
                ds = make_gaussian_task(k, dim, n, separation, sigma, seed=17)
                rng = make_rng(17)
                y = rng.integers(0, k, size=n)
                z = rng.standard_normal((n, dim))
                means = separation * simplex_vertices(k, dim)
                assert ds.features.tobytes() == (means[y] + sigma * z).tobytes()
                assert ds.true_labels.tobytes() == y.tobytes()
    zeros = make_gaussian_task(10, 64, 700, 0.0, 0.0, seed=17).features
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()


@pytest.mark.parametrize("k", [10, 2])
def test_gaussian_task_peaks_near_its_output(k):
    ds, peak = traced_peak(lambda: make_gaussian_task(k, 64, 2000, 3.0, 1.0, seed=5))
    assert peak <= 1.25 * ds.features.nbytes


def test_gaussian_task_rejects_small_dim():
    with pytest.raises(ValueError):
        make_gaussian_task(4, 2, 10, class_separation=1.0, noise_sigma=0.1, seed=0)


# splitting and standardization


def test_split_sizes_and_partition():
    tr, val = split_indices(100, 0.1, seed=5, stream=2)
    assert len(tr) == 90
    assert len(val) == 10
    assert np.array_equal(np.sort(np.concatenate([tr, val])), np.arange(100))


def test_split_zero_fraction():
    tr, val = split_indices(30, 0.0, seed=1, stream=2)
    assert len(val) == 0
    assert np.array_equal(np.sort(tr), np.arange(30))


def test_split_deterministic():
    a_tr, a_val = split_indices(60, 0.25, seed=9, stream=2)
    b_tr, b_val = split_indices(60, 0.25, seed=9, stream=2)
    assert np.array_equal(a_tr, b_tr)
    assert np.array_equal(a_val, b_val)
    c_tr, _ = split_indices(60, 0.25, seed=9, stream=3)
    assert not np.array_equal(a_tr, c_tr)


def test_standardize_moments():
    rng = make_rng(337)
    train = random_dataset(rng, n=400, d=4)
    test = random_dataset(rng, n=100, d=4)
    strain, stest = standardize(train, test)
    assert np.abs(strain.features.mean(axis=0)).max() < 1e-12
    assert np.abs(strain.features.std(axis=0) - 1.0).max() < 1e-12
    mu = train.features.mean(axis=0)
    sd = train.features.std(axis=0)
    assert np.allclose(stest.features, (test.features - mu) / sd)


def test_standardize_constant_column():
    x = np.ones((10, 2))
    x[:, 1] = np.arange(10)
    ds = Dataset(features=x, num_classes=2)
    (out,) = standardize(ds)
    assert np.array_equal(out.features[:, 0], np.zeros(10))
    assert np.isfinite(out.features).all()
