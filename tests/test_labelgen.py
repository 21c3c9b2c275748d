"""Candidate-set generation models: probabilities, sampling, appendix cases."""

import numpy as np
import pytest

import lwpll.labelgen as labelgen
from lwpll import GenerationModel, make_case, make_rng, make_uniform
from lwpll.consistency import enumerate_subsets


def pack_bits(masks):
    """Encode boolean rows as integers for frequency counting."""
    masks = np.asarray(masks, dtype=bool)
    return masks @ (1 << np.arange(masks.shape[1]))


# construction


def test_make_uniform_matrix():
    m = make_uniform(4, 0.3)
    expected = np.full((4, 4), 0.3)
    np.fill_diagonal(expected, 1.0)
    assert np.array_equal(m.q, expected)
    assert not m.reject_full


def test_make_uniform_rejects_bad_q():
    with pytest.raises(ValueError):
        make_uniform(3, 1.0)
    with pytest.raises(ValueError):
        make_uniform(3, -0.1)


def test_model_validation():
    with pytest.raises(ValueError):
        GenerationModel(np.ones((2, 3)))
    with pytest.raises(ValueError):
        GenerationModel([[0.9, 0.1], [0.1, 1.0]])
    with pytest.raises(ValueError):
        GenerationModel([[1.0, 1.0], [0.1, 1.0]])
    with pytest.raises(ValueError):
        GenerationModel([[1.0, -0.2], [0.1, 1.0]])
    with pytest.raises(ValueError):
        GenerationModel([[1.0]], reject_full=True)


def test_q_matrix_is_read_only():
    m = make_uniform(3, 0.2)
    with pytest.raises(ValueError):
        m.q[0, 1] = 0.9


def test_case1_rows():
    m = make_case(10, 1, q1=0.5)
    row0 = np.zeros(10)
    row0[0], row0[1] = 1.0, 0.5
    row9 = np.zeros(10)
    row9[9], row9[0] = 1.0, 0.5
    assert np.array_equal(m.q[0], row0)
    assert np.array_equal(m.q[9], row9)


def test_case2_rows_have_two_entries():
    m = make_case(10, 2, q1=0.3)
    off = m.q.copy()
    np.fill_diagonal(off, 0.0)
    assert ((off == 0.3).sum(axis=1) == 2).all()
    assert ((off == 0.0).sum(axis=1) == 8).all()  # 7 off-diagonal plus the cleared diagonal


def test_case3_row_zero():
    m = make_case(10, 3, q1=0.5, q2=0.3, q3=0.1)
    expected = np.array([1.0, 0.5, 0.3, 0.1, 0.0, 0.0, 0.0, 0.1, 0.3, 0.5])
    assert np.array_equal(m.q[0], expected)


def test_case3_requires_decreasing_rates():
    with pytest.raises(ValueError):
        make_case(10, 3, q1=0.3, q2=0.3, q3=0.1)
    with pytest.raises(ValueError):
        make_case(6, 3, q1=0.5, q2=0.3, q3=0.1)
    with pytest.raises(ValueError):
        make_case(10, 9, q1=0.5)


# probabilities


def test_subset_probabilities_direct_product():
    m = GenerationModel([[1.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert m.subset_probabilities(0, [[True, False, False]]).tolist() == [0.25]


def test_subset_probabilities_uniform_half():
    for k in (2, 4, 6):
        m = make_uniform(k, 0.5)
        rng = make_rng(k)
        mask = rng.random(k) < 0.5
        mask[1] = True
        assert m.subset_probabilities(1, mask[None, :]).tolist() == [0.5 ** (k - 1)]


def test_subset_probabilities_zero_without_label():
    m = make_uniform(3, 0.4)
    assert m.subset_probabilities(2, [[True, True, False]]).tolist() == [0.0]


def test_probabilities_sum_to_one():
    rng = make_rng(101)
    for k in range(2, 11):
        q = rng.random((k, k)) * 0.95
        np.fill_diagonal(q, 1.0)
        m = GenerationModel(q)
        subsets = enumerate_subsets(k)
        for y in range(k):
            total = m.subset_probabilities(y, subsets).sum()
            assert abs(total - 1.0) < 1e-12


def test_reject_full_renormalizes():
    m = make_uniform(3, 0.5, reject_full=True)
    full = np.ones(3, dtype=bool)
    assert m.subset_probabilities(0, full[None, :]).tolist() == [0.0]
    subsets = enumerate_subsets(3, containing=0)
    p = m.subset_probabilities(0, subsets)
    assert abs(p.sum() - 1.0) < 1e-12
    # each remaining set keeps its relative mass: (1/4) / (3/4) = 1/3
    kept = p[~subsets.all(axis=1)]
    assert np.allclose(kept, 1.0 / 3.0, rtol=0.0, atol=1e-15)


def test_subset_probabilities_matches_scalar():
    rng = make_rng(103)
    q = rng.random((5, 5)) * 0.9
    np.fill_diagonal(q, 1.0)
    for reject in (False, True):
        m = GenerationModel(q, reject_full=reject)
        subsets = enumerate_subsets(5)
        p = m.subset_probabilities(2, subsets)
        for row, expected in zip(subsets, p):
            assert m.subset_probabilities(2, row[None, :])[0] == expected


def test_diagonal_must_be_exactly_one():
    for bad in (1.0 + 2.0**-52, 1.0 - 2.0**-53, np.nan, np.inf):
        q = np.full((3, 3), 0.2)
        np.fill_diagonal(q, 1.0)
        q[1, 1] = bad
        with pytest.raises(ValueError, match="diagonal"):
            GenerationModel(q)


def test_subset_probabilities_accepts_one_label_per_row():
    rng = make_rng(107)
    for k in (1, 2, 5, 8):
        q = rng.random((k, k)) * 0.9
        q[rng.random((k, k)) < 0.2] = 0.0
        np.fill_diagonal(q, 1.0)
        for reject in (False, True) if k > 1 else (False,):
            m = GenerationModel(q, reject_full=reject)
            subsets = enumerate_subsets(k)
            labels = rng.integers(k, size=subsets.shape[0])
            p = m.subset_probabilities(labels, subsets)
            for row, y, got in zip(subsets, labels, p):
                assert got == m.subset_probabilities(int(y), row[None, :])[0]
    m = make_uniform(3, 0.4)
    with pytest.raises(ValueError):
        m.subset_probabilities(np.array([0, 3]), enumerate_subsets(3)[:2])
    with pytest.raises(ValueError):
        m.subset_probabilities(np.array([0, 1, 2]), enumerate_subsets(3)[:2])
    with pytest.raises(ValueError):
        m.subset_probabilities(np.array([0.0, 1.0]), enumerate_subsets(3)[:2])


# sampling


def test_sample_zero_contamination_gives_singletons():
    m = make_uniform(3, 0.0)
    rng = make_rng(7)
    for _ in range(100):
        mask = m.sample_sets(np.array([1]), rng)
        assert np.array_equal(mask, [[False, True, False]])


def test_sample_always_contains_label():
    m = make_uniform(6, 0.7)
    rng = make_rng(9)
    labels = rng.integers(0, 6, size=500)
    masks = m.sample_sets(labels, rng)
    assert masks[np.arange(500), labels].all()


def test_sample_rejects_bad_label():
    m = make_uniform(3, 0.2)
    rng = make_rng(1)
    with pytest.raises(ValueError):
        m.sample_sets(np.array([3]), rng)
    with pytest.raises(ValueError):
        m.sample_sets(np.array([0, 5]), rng)


def test_sample_set_frequencies_uniform_half():
    # all 8 sets containing y should be equally likely
    m = make_uniform(4, 0.5)
    rng = make_rng(13)
    n = 100_000
    masks = m.sample_sets(np.zeros(n, dtype=int), rng)
    codes = pack_bits(masks)
    valid = pack_bits(enumerate_subsets(4, containing=0))
    counts = np.array([(codes == c).sum() for c in valid])
    assert counts.sum() == n
    p = 1.0 / 8.0
    sigma = np.sqrt(n * p * (1 - p))
    assert (np.abs(counts - n * p) <= 3 * sigma).all()


def test_sample_inclusion_frequency():
    m = make_uniform(4, 0.3)
    rng = make_rng(15)
    n = 100_000
    masks = m.sample_sets(np.full(n, 2), rng)
    sigma = np.sqrt(n * 0.3 * 0.7)
    for z in (0, 1, 3):
        count = masks[:, z].sum()
        assert abs(count - n * 0.3) <= 3 * sigma


def test_sample_case3_inclusion_frequencies():
    m = make_case(10, 3, q1=0.5, q2=0.3, q3=0.1)
    rng = make_rng(19)
    n = 40_000
    y = 4
    masks = m.sample_sets(np.full(n, y), rng)
    freq = masks.mean(axis=0)
    for z in range(10):
        q = m.q[y, z]
        sigma = np.sqrt(max(q * (1 - q), 1e-12) / n)
        assert abs(freq[z] - q) <= 4 * sigma + 1e-9


def test_reject_full_never_emits_full_set():
    m = make_uniform(3, 0.5, reject_full=True)
    rng = make_rng(23)
    n = 60_000
    masks = m.sample_sets(np.ones(n, dtype=int), rng)
    assert not masks.all(axis=1).any()
    codes = pack_bits(masks)
    valid = enumerate_subsets(3, containing=1)
    valid = valid[~valid.all(axis=1)]
    counts = np.array([(codes == c).sum() for c in pack_bits(valid)])
    assert counts.sum() == n
    p = 1.0 / 3.0
    sigma = np.sqrt(n * p * (1 - p))
    assert (np.abs(counts - n * p) <= 3 * sigma).all()


def test_sampling_is_deterministic():
    m = make_uniform(5, 0.4, reject_full=True)
    labels = np.arange(200) % 5
    a = m.sample_sets(labels, make_rng(77, stream=3))
    b = m.sample_sets(labels, make_rng(77, stream=3))
    assert np.array_equal(a, b)
    c = m.sample_sets(labels, make_rng(77, stream=4))
    assert not np.array_equal(a, c)


def test_retry_cap_surfaces_degenerate_models(monkeypatch):
    m = make_uniform(3, 0.9, reject_full=True)
    monkeypatch.setattr(labelgen, "RETRY_CAP", 0)
    with pytest.raises(RuntimeError):
        m.sample_sets(np.array([0]), make_rng(1))
    with pytest.raises(RuntimeError):
        m.sample_sets(np.zeros(200, dtype=int), make_rng(1))


# NaN entries and stacks of models


def test_nan_off_diagonal_rate_is_rejected():
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        GenerationModel([[1.0, np.nan], [0.2, 1.0]])
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        GenerationModel([[[1.0, 0.1], [0.2, 1.0]], [[1.0, 0.1], [np.nan, 1.0]]])


def test_stacked_model_validates_every_matrix():
    good = np.array([[1.0, 0.3], [0.4, 1.0]])
    for bad, message in (
        ([[0.9, 0.3], [0.4, 1.0]], "exactly 1"),
        ([[1.0, 1.0], [0.4, 1.0]], r"\[0, 1\)"),
        ([[1.0, -0.1], [0.4, 1.0]], r"\[0, 1\)"),
    ):
        with pytest.raises(ValueError, match=message):
            GenerationModel(np.stack([good, good, bad]))
    with pytest.raises(ValueError, match="square"):
        GenerationModel(np.ones((2, 2, 3)))
    with pytest.raises(ValueError, match="square"):
        GenerationModel(np.ones((1, 2, 2, 2)))


def test_stacked_subset_probabilities_equal_each_model():
    rng = make_rng(241)
    for k in range(1, 9):
        for reject in (False, True) if k > 1 else (False,):
            q = rng.random((5, k, k)) * 0.98
            q[rng.random((5, k, k)) < 0.2] = 0.0
            q[:, np.arange(k), np.arange(k)] = 1.0
            stack = GenerationModel(q, reject_full=reject)
            subsets = enumerate_subsets(k)
            labels = rng.integers(k, size=subsets.shape[0])
            for y in (labels, int(labels[0])):
                probs = stack.subset_probabilities(y, subsets)
                assert probs.shape == (5, subsets.shape[0])
                for i in range(5):
                    single = GenerationModel(q[i], reject_full=reject)
                    assert np.array_equal(probs[i], single.subset_probabilities(y, subsets))


def test_stacked_model_cannot_sample():
    stack = GenerationModel(np.stack([make_uniform(3, 0.2).q] * 2))
    rng = make_rng(0)
    with pytest.raises(ValueError, match="stack"):
        stack.sample_sets(np.array([0]), rng)
    with pytest.raises(ValueError, match="stack"):
        stack.sample_sets(np.array([0, 1]), rng)


# the column-at-a-time product against the literal factor reduction


def literal_subset_probabilities(model, labels, masks):
    """The set probabilities as one multiply reduction over (..., m, K)."""
    k = model.num_classes
    labels = np.broadcast_to(labels, masks.shape[:1])
    rows = model.q[..., labels, :]
    p = np.where(masks, rows, 1.0 - rows).prod(axis=-1)
    p[..., ~masks[np.arange(masks.shape[0]), labels]] = 0.0
    if model.reject_full:
        p[..., masks.all(axis=1)] = 0.0
        off = model.q[..., ~np.eye(k, dtype=bool)].reshape(model.q.shape[:-1] + (k - 1,))
        p /= 1.0 - off.prod(axis=-1)[..., labels]
    return p


def test_subset_probabilities_are_bit_identical_to_the_literal_product():
    rng = make_rng(241)
    for k in range(1, 17):
        masks = rng.random((600, k)) < rng.random((600, 1))
        masks[0], masks[1] = False, True  # the empty and the full set
        labels = rng.integers(k, size=600)
        masks[2::3, :][np.arange(200), labels[2::3]] = True
        for shape in ((k, k), (3, k, k)):
            q = rng.random(shape) * 0.98
            q[rng.random(shape) < 0.15] = 0.0
            q[..., np.arange(k), np.arange(k)] = 1.0
            for reject in (False, True) if k > 1 else (False,):
                model = GenerationModel(q, reject_full=reject)
                for y in (labels, labels.astype(np.uint8), k - 1):
                    got = model.subset_probabilities(y, masks)
                    expected = literal_subset_probabilities(model, y, masks)
                    assert got.shape == expected.shape == shape[:-2] + (600,)
                    assert got.tobytes() == expected.tobytes()
