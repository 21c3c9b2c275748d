"""Per-instance weight initialization and restricted-softmax updates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lwpll import init_weights, make_rng, update_weights


def random_masks(rng, n, k, allow_full=True):
    masks = rng.random((n, k)) < 0.5
    empty = ~masks.any(axis=1)
    masks[empty, rng.integers(0, k, size=int(empty.sum()))] = True
    if not allow_full:
        full = masks.all(axis=1)
        masks[full, 0] = False
    return masks


def test_init_values():
    masks = np.zeros((1, 10), dtype=bool)
    masks[0, [2, 5, 7]] = True
    w = init_weights(masks)
    assert np.allclose(w[0, masks[0]], 1.0 / 3.0, rtol=0.0, atol=0.0)
    assert np.allclose(w[0, ~masks[0]], 1.0 / 7.0, rtol=0.0, atol=1e-16)


def test_init_singleton_two_classes():
    assert np.array_equal(init_weights(np.array([[True, False]])), [[1.0, 1.0]])


def test_init_full_set_zeroes_complement():
    w = init_weights(np.ones((1, 4), dtype=bool))
    assert np.array_equal(w, [[0.25, 0.25, 0.25, 0.25]])


def test_init_rejects_empty_sets():
    with pytest.raises(ValueError):
        init_weights(np.zeros((2, 3), dtype=bool))


def test_update_equal_scores():
    masks = np.array([[True, True, False]])
    new = update_weights(masks, np.zeros((1, 3)))
    assert np.allclose(new, [[0.5, 0.5, 1.0]], rtol=0.0, atol=1e-16)


def test_update_restricted_softmax_values():
    masks = np.array([[True, True, False]])
    new = update_weights(masks, np.array([[1.0, 0.0, -1.0]]))
    assert abs(new[0, 0] - 0.7310585786300049) < 1e-15
    assert abs(new[0, 1] - 0.2689414213699951) < 1e-15
    assert new[0, 2] == 1.0


def test_update_shift_invariance():
    rng = make_rng(61)
    masks = random_masks(rng, 50, 6)
    g = rng.normal(0.0, 3.0, size=(50, 6))
    base = update_weights(masks, g)
    for c in (0.5, -7.3, 40.0):
        shifted = update_weights(masks, g + c)
        assert np.abs(shifted - base).max() <= 1e-12


def test_update_survives_huge_scores():
    masks = np.array([[True, False, True], [True, True, True]])
    g = np.array([[1e4, -1e4, 9.9e3], [1e4, 1e4, -1e4]])
    new = update_weights(masks, g)
    assert np.isfinite(new).all()
    inside = np.where(masks, new, 0.0).sum(axis=1)
    assert np.allclose(inside, 1.0, rtol=0.0, atol=1e-12)


def test_partition_sums_after_update():
    rng = make_rng(67)
    masks = random_masks(rng, 200, 5)
    new = update_weights(masks, rng.normal(size=(200, 5)))
    assert (new >= 0).all()
    inside = np.where(masks, new, 0.0).sum(axis=1)
    outside = np.where(masks, 0.0, new).sum(axis=1)
    assert np.abs(inside - 1.0).max() <= 1e-12
    full = masks.all(axis=1)
    assert np.abs(outside[~full] - 1.0).max() <= 1e-12
    assert np.array_equal(outside[full], np.zeros(full.sum()))


@st.composite
def masks_and_scores(draw):
    n, k = draw(st.integers(1, 8)), draw(st.integers(2, 7))
    masks = draw(hnp.arrays(np.bool_, (n, k)))
    masks[np.arange(n), draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))] = True
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return masks, draw(hnp.arrays(np.float64, (n, k), elements=finite))


@settings(max_examples=100, deadline=None)
@given(masks_and_scores())
# Score gaps wider than the float range on each side.
@example((np.array([[True, True, False, False]]), np.array([[-1.7e308, 1.7e308, 1e308, -1e308]])))
def test_each_side_stays_a_distribution_property(case):
    masks, scores = case
    full = masks.all(axis=1)
    for w in (init_weights(masks), update_weights(masks, scores)):
        assert w.shape == masks.shape
        assert (w >= 0.0).all()
        inside = np.where(masks, w, 0.0).sum(axis=1)
        outside = np.where(masks, 0.0, w).sum(axis=1)
        assert np.abs(inside - 1.0).max() <= 1e-12
        assert np.abs(outside[~full] - 1.0).max(initial=0.0) <= 1e-12
        assert (outside[full] == 0.0).all()


def test_update_preserves_score_order():
    rng = make_rng(71)
    masks = random_masks(rng, 100, 6)
    g = rng.normal(size=(100, 6))
    new = update_weights(masks, g)
    for i in range(100):
        for side in (masks[i], ~masks[i]):
            idx = np.where(side)[0]
            order = idx[np.argsort(g[i, idx])]
            assert (np.diff(new[i, order]) >= 0).all()
            strict = np.diff(g[i, order]) > 0
            assert (np.diff(new[i, order])[strict] > 0).all()


def test_update_keeps_masks_and_shape():
    rng = make_rng(73)
    masks = random_masks(rng, 20, 4)
    before = masks.copy()
    new = update_weights(masks, rng.normal(size=(20, 4)))
    assert new.shape == init_weights(masks).shape == masks.shape
    assert np.array_equal(masks, before)


def test_state_validation():
    with pytest.raises(ValueError, match="does not match"):
        update_weights(np.ones((3, 3), dtype=bool), np.ones((2, 3)))
    with pytest.raises(ValueError, match="must be finite"):
        update_weights(np.array([[True, False]]), np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("masks, message", [
    (np.ones(3, dtype=bool), "masks must be a 2-D boolean array"),
    (np.array([[True, False], [False, False]]), "every candidate set must be nonempty"),
], ids=["one_dimensional", "empty_set"])
def test_init_and_update_check_the_masks_alike(masks, message):
    for make in (init_weights, lambda m: update_weights(m, np.zeros(np.shape(m)))):
        with pytest.raises(ValueError, match=message):
            make(masks)


@settings(max_examples=200, deadline=None)
@given(masks_and_scores())
def test_start_weights_are_the_refresh_at_equal_scores_property(case):
    # Bit for bit the closed form 1/|S_i| inside, 1/(K - |S_i|) outside.
    masks, _ = case
    inside = masks.sum(axis=1, keepdims=True)
    outside = masks.shape[1] - inside
    uniform = np.where(masks, 1.0 / inside, np.divide(
        1.0, outside, out=np.zeros(inside.shape), where=outside > 0))
    for w in (init_weights(masks), update_weights(masks, np.zeros(masks.shape))):
        assert w.tobytes() == uniform.tobytes()


def two_softmax_weights(masks, scores):
    """The refresh as two side-restricted softmaxes, summed: the reference
    that the one-pass refresh must match byte for byte."""
    def side_softmax(side):
        peak = np.where(side, scores, -np.inf).max(axis=1, keepdims=True)
        peak = np.where(np.isfinite(peak), peak, 0.0)
        with np.errstate(over="ignore"):
            e = np.where(side, np.exp(np.where(side, scores, peak) - peak), 0.0)
        tot = e.sum(axis=1, keepdims=True)
        return np.divide(e, tot, out=np.zeros_like(e), where=tot > 0)
    return side_softmax(masks) + side_softmax(~masks)


@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_one_pass_refresh_matches_two_softmaxes_bytewise(k):
    rng = make_rng(79 + k)
    masks = random_masks(rng, 300, k)
    masks[0] = True  # a full set
    masks[1] = np.arange(k) == k - 1  # a single candidate
    scale = np.repeat([1.0, 1e3, 1e100, 1e300], 75)[:, None]
    scores = rng.normal(size=(300, k)) * scale
    scores[2] = [0.0, -0.0] * (k // 2) + [0.0] * (k % 2)  # signed zeros
    scores[3] = np.where(masks[3], -0.0, 0.0)
    scores[4, :2] = [1.7e308, -1.7e308]  # a gap beyond the float range
    assert update_weights(masks, scores).tobytes() == two_softmax_weights(masks, scores).tobytes()
