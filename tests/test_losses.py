"""Binary losses, the weighted partial loss, and its gradients.

SciPy is the reference for the NumPy sigmoid and log-sum-exp the losses use.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import logsumexp
from test_golden import PINNED_ENV, UNPINNABLE

from lwpll import (
    CROSS_ENTROPY,
    RAMP,
    SIGMOID,
    ZERO_ONE_STEP,
    LWConfig,
    UnsupportedLossError,
    derived_supervised_loss,
    lw_loss_batch,
    lw_loss_gradient_batch,
    make_rng,
)
from lwpll.losses import BINARY_LOSSES, _expit, _logsumexp, get_loss

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def random_instance(rng, k, psi=SIGMOID, keep_away_from_kinks=False):
    """One random (scores, mask, weights) triple with a nonempty candidate set."""
    while True:
        g = rng.normal(0.0, 2.0, size=k)
        if keep_away_from_kinks and np.abs(np.abs(g) - 1.0).min() <= 1e-3:
            continue
        break
    mask = rng.random(k) < 0.5
    if not mask.any():
        mask[rng.integers(k)] = True
    w = rng.random(k)
    return g, mask, w


# binary loss shapes


def test_sigmoid_values():
    assert SIGMOID.value(0.0) == 0.5
    assert abs(SIGMOID.value(1.0) - 0.26894142136999512) < 1e-16
    assert SIGMOID.derivative(0.0) == -0.25


def test_expit_saturates_exactly_without_warnings():
    # pyproject.toml turns numpy's overflow RuntimeWarning into an error.
    z = np.array([800.0, -800.0, np.inf, -np.inf])
    assert _expit(z).tolist() == [1.0, 0.0, 1.0, 0.0]
    assert (_expit(-800.0), _expit(800.0)) == (0.0, 1.0)
    assert SIGMOID.value(z).tolist() == [0.0, 1.0, 0.0, 1.0]
    assert SIGMOID.derivative(z).tolist() == [0.0, 0.0, 0.0, 0.0]


# Every float64 exp under NumPy's X86_V3 loops is libm's, as in SciPy's expit.
EXPIT_PROBE = """
import numpy as np
from scipy.special import expit
from lwpll.losses import _expit
x = np.random.default_rng(5).normal(0.0, 20.0, 300_000)
x = np.concatenate([x, [0.0, -0.0, 36.7, -36.7, 709.0, -709.0, 710.0, -710.0, 745.2, -745.2]])
print(_expit(x).tobytes() == expit(x).tobytes())
"""


@pytest.mark.skipif(UNPINNABLE is not None, reason=str(UNPINNABLE))
def test_expit_equals_scipy_bytewise_under_the_pinned_dispatch():
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", EXPIT_PROBE],
        env={**os.environ, **PINNED_ENV, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def test_logsumexp_equals_scipy_bytewise_with_tied_maxima():
    # SciPy's logsumexp runs NumPy's exp and log, so this holds under any dispatch.
    rng = make_rng(29)
    for k in (2, 3, 10, 64):
        for scale in (1e-3, 3.0, 300.0):
            a = rng.normal(0.0, scale, size=(3000, k))
            a[::3, 0] = a[::3, 1] = a[::3].max(axis=1)  # two or more tied maxima
            a[1::3] = np.round(a[1::3])  # integer scores: ties anywhere
            a[2::9] = a[2::9, :1]  # every entry tied
            assert ((a == a.max(axis=1, keepdims=True)).sum(axis=1) == k).any()
            ref = logsumexp(a, axis=1, keepdims=True)
            assert _logsumexp(a).tobytes() == ref.tobytes()


def test_ramp_values():
    assert RAMP.value(0.0) == 0.5
    assert RAMP.value(3.0) == 0.0
    assert RAMP.value(-3.0) == 1.0
    assert RAMP.value(0.5) == 0.25
    assert RAMP.derivative(0.5) == -0.5
    assert RAMP.derivative(2.0) == 0.0
    assert RAMP.derivative(1.0) == 0.0  # subgradient choice at the kink


def test_step_values():
    assert ZERO_ONE_STEP.value(-1.0) == 1.0
    assert ZERO_ONE_STEP.value(0.0) == 0.5
    assert ZERO_ONE_STEP.value(2.0) == 0.0
    with pytest.raises(UnsupportedLossError):
        ZERO_ONE_STEP.derivative(0.3)


def test_symmetry_on_grid():
    z = np.arange(-10.0, 10.0 + 1e-3, 1e-3)
    for psi in (SIGMOID, RAMP):
        gap = np.abs(psi.value(z) + psi.value(-z) - 1.0)
        assert gap.max() <= 1e-12


def test_monotone_nonincreasing():
    rng = make_rng(11)
    z = np.sort(rng.normal(0.0, 3.0, size=500))
    for psi in (SIGMOID, RAMP, ZERO_ONE_STEP):
        v = psi.value(z)
        assert (np.diff(v) <= 0).all()


def test_loss_registry():
    assert set(BINARY_LOSSES) == {"sigmoid", "ramp", "zero_one_step"}
    assert get_loss("sigmoid") is SIGMOID
    assert get_loss("cross_entropy") is CROSS_ENTROPY
    with pytest.raises(UnsupportedLossError):
        get_loss("hinge")


# lw_loss values


def test_lw_loss_at_zero_scores():
    # all psi(0) = 0.5, so the value is alpha*(0.5+0.5)*0.5 + beta*1*0.5
    g = np.zeros(3)
    mask = np.array([True, True, False])
    w = np.array([0.5, 0.5, 1.0])
    cfg = LWConfig(beta=2.0, alpha=1.0, psi=SIGMOID)
    assert lw_loss_batch(g, mask, w, cfg) == 1.5


def test_lw_loss_full_set_drops_beta_term():
    rng = make_rng(3)
    g = rng.normal(size=3)
    mask = np.ones(3, dtype=bool)
    w = rng.random(3)
    base = lw_loss_batch(g, mask, w, LWConfig(beta=0.0, psi=SIGMOID))
    for beta in (1.0, 7.3, 100.0):
        assert lw_loss_batch(g, mask, w, LWConfig(beta=beta, psi=SIGMOID)) == base
    assert base == np.sum(w * SIGMOID.value(g))


def test_lw_loss_hand_oracle():
    g = np.array([1.0, -0.5, 0.25, 2.0])
    mask = np.array([False, True, False, True])
    w = np.array([0.3, 0.7, 1.0, 0.4])
    v = lw_loss_batch(g, mask, w, LWConfig(beta=1.0, psi=SIGMOID))
    assert abs(v - 1.2648967751249448) < 1e-15


def test_lw_loss_frozen_oracles():
    # independently evaluated at 50-digit precision and frozen
    g = np.array([0.8, -0.3, 1.2, -1.1])
    mask = np.array([False, True, False, True])
    w = np.array([0.1, 0.6, 0.2, 0.45])
    cases = [
        (SIGMOID, 0.76711091657969302),
        (RAMP, 0.965),
        (CROSS_ENTROPY, 2.095961691649745),
    ]
    for psi, expected in cases:
        v = lw_loss_batch(g, mask, w, LWConfig(beta=1.3, alpha=0.7, psi=psi))
        assert abs(v - expected) < 1e-14


def test_lw_loss_batch_matches_scalar():
    rng = make_rng(5)
    cfg = LWConfig(beta=0.7, alpha=1.2, psi=RAMP)
    rows = [random_instance(rng, 5) for _ in range(64)]
    g = np.array([r[0] for r in rows])
    masks = np.array([r[1] for r in rows])
    w = np.array([r[2] for r in rows])
    batch = lw_loss_batch(g, masks, w, cfg)
    for i in range(64):
        assert batch[i] == lw_loss_batch(g[i], masks[i], w[i], cfg)


def test_lw_loss_input_validation():
    cfg = LWConfig(beta=1.0, psi=SIGMOID)
    good_g = np.zeros(3)
    good_m = np.array([True, False, False])
    good_w = np.ones(3)
    with pytest.raises(ValueError):
        lw_loss_batch(np.array([0.0, np.inf, 0.0]), good_m, good_w, cfg)
    with pytest.raises(ValueError):
        lw_loss_batch(good_g, np.zeros(3, dtype=bool), good_w, cfg)
    with pytest.raises(ValueError):
        lw_loss_batch(good_g, good_m, -good_w, cfg)
    with pytest.raises(ValueError):
        lw_loss_batch(np.zeros(4), good_m, good_w, cfg)


def test_lwconfig_validation():
    with pytest.raises(ValueError):
        LWConfig(beta=-0.1)
    with pytest.raises(ValueError):
        LWConfig(beta=1.0, alpha=-1.0)
    for field in ("beta", "alpha"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                LWConfig(**{"beta": 1.0, field: value})


def test_lwconfig_rejects_bad_per_row_values():
    for field in ("beta", "alpha"):
        for bad in ([1.0, float("nan")], [0.5, -0.25, 1.0], [2.0, float("inf")]):
            with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
                LWConfig(**{"beta": 1.0, field: np.array(bad)})
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            LWConfig(**{"beta": 1.0, field: np.ones((2, 2))})
    given = np.array([0.5, 2.0])
    cfg = LWConfig(beta=given, alpha=[1.0, 0.0])
    given[0] = -1.0
    assert cfg.beta.tolist() == [0.5, 2.0] and cfg.alpha.dtype == float
    with pytest.raises(ValueError):
        cfg.beta[0] = -1.0


# per-row beta and alpha


def per_row_batch(rng, n, k):
    """Random (n, K) scores, masks and weights and n-value beta and alpha,
    zeros among them."""
    g = rng.normal(0.0, 3.0, size=(n, k))
    mask = rng.random((n, k)) < 0.5
    mask[np.arange(n), rng.integers(k, size=n)] = True
    w = rng.random((n, k))
    beta = np.where(rng.random(n) < 0.2, 0.0, rng.random(n) * 8.0)
    alpha = np.where(rng.random(n) < 0.2, 0.0, rng.random(n) * 2.0)
    return g, mask, w, beta, alpha


def test_per_row_leverage_equals_row_by_row_calls_bytewise():
    rng = make_rng(257)
    for trial in range(200):
        psi = (SIGMOID, RAMP, ZERO_ONE_STEP, CROSS_ENTROPY)[trial % 4]
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        g, mask, w, beta, alpha = per_row_batch(rng, n, k)
        cfg = LWConfig(beta=beta, alpha=alpha, psi=psi)
        each = [LWConfig(beta=float(beta[i]), alpha=float(alpha[i]), psi=psi) for i in range(n)]
        losses = lw_loss_batch(g, mask, w, cfg)
        assert losses.tobytes() == np.array(
            [lw_loss_batch(g[i], mask[i], w[i], each[i]) for i in range(n)]
        ).tobytes()
        if psi is ZERO_ONE_STEP:
            with pytest.raises(UnsupportedLossError):
                lw_loss_gradient_batch(g, mask, w, cfg)
        else:
            both, grad = lw_loss_gradient_batch(g, mask, w, cfg)
            rows = [lw_loss_gradient_batch(g[i], mask[i], w[i], each[i]) for i in range(n)]
            assert both.tobytes() == losses.tobytes()
            assert grad.tobytes() == np.array([r[1] for r in rows]).tobytes()
        labels = rng.integers(k, size=n)
        q = rng.random((n, k)) * 0.98
        q[np.arange(n), labels] = 1.0
        if psi is CROSS_ENTROPY:
            with pytest.raises(UnsupportedLossError):
                derived_supervised_loss(labels, g, w, q, cfg)
            continue
        derived = derived_supervised_loss(labels, g, w, q, cfg)
        assert derived.tobytes() == np.array([
            derived_supervised_loss(int(labels[i]), g[i], w[i], q[i], each[i])
            for i in range(n)
        ]).tobytes()


def test_per_row_leverage_needs_one_value_per_row():
    g, mask, w = np.zeros((3, 2)), np.ones((3, 2), dtype=bool), np.ones((3, 2))
    for field in ("beta", "alpha"):
        for count in (2, 4):
            cfg = LWConfig(**{"beta": 1.0, field: np.ones(count), "psi": SIGMOID})
            with pytest.raises(ValueError, match=f"^{field} has {count} values for 3 rows"):
                lw_loss_batch(g, mask, w, cfg)
            with pytest.raises(ValueError, match=f"^{field} has {count} values for 3 rows"):
                derived_supervised_loss(np.zeros(3, dtype=int), g, w, np.ones((3, 2)) / 2
                                        + np.eye(2)[[0, 0, 0]] / 2, cfg)
            with pytest.raises(ValueError, match=f"^{field} has {count} values for 1 rows"):
                lw_loss_batch(g[0], mask[0], w[0], cfg)


# gradients


def test_gradient_at_zero():
    g = np.zeros(2)
    mask = np.array([True, False])
    w = np.ones(2)
    _, grad = lw_loss_gradient_batch(g, mask, w, LWConfig(beta=1.0, psi=SIGMOID))
    assert np.allclose(grad, [-0.25, 0.25], rtol=0.0, atol=1e-16)


def test_gradient_rejects_step_loss():
    g = np.zeros(2)
    mask = np.array([True, False])
    w = np.ones(2)
    with pytest.raises(UnsupportedLossError):
        lw_loss_gradient_batch(g, mask, w, LWConfig(beta=1.0, psi=ZERO_ONE_STEP))


def test_gradient_matches_finite_differences():
    rng = make_rng(17)
    step = 1e-5
    worst = 0.0
    for trial in range(1000):
        psi = (SIGMOID, RAMP, CROSS_ENTROPY)[trial % 3]
        k = int(rng.integers(2, 7))
        g, mask, w = random_instance(rng, k, keep_away_from_kinks=psi is RAMP)
        cfg = LWConfig(
            beta=float(rng.random() * 3.0),
            alpha=float(rng.random() * 2.0),
            psi=psi,
        )
        _, grad = lw_loss_gradient_batch(g, mask, w, cfg)
        fd = np.empty(k)
        for z in range(k):
            hi, lo = g.copy(), g.copy()
            hi[z] += step
            lo[z] -= step
            fd[z] = (lw_loss_batch(hi, mask, w, cfg) - lw_loss_batch(lo, mask, w, cfg)) / (2 * step)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0)
        worst = max(worst, rel)
    assert worst < 1e-6


def test_gradient_batch_matches_scalar():
    rng = make_rng(21)
    cfg = LWConfig(beta=1.5, alpha=0.8, psi=CROSS_ENTROPY)
    rows = [random_instance(rng, 4) for _ in range(32)]
    g = np.array([r[0] for r in rows])
    masks = np.array([r[1] for r in rows])
    w = np.array([r[2] for r in rows])
    _, batch = lw_loss_gradient_batch(g, masks, w, cfg)
    for i in range(32):
        _, row = lw_loss_gradient_batch(g[i], masks[i], w[i], cfg)
        assert np.array_equal(batch[i], row)


def separate_loss_and_gradient(g, m, w, cfg):
    """The loss and its gradient as two separate passes, each evaluating psi
    (or the softmax) on its own and psi' on both sides."""
    if cfg.psi is CROSS_ENTROPY:
        log_p = g - logsumexp(g, axis=1, keepdims=True)
        p = np.exp(log_p)
        pos, neg = -log_p, -np.log(np.maximum(1.0 - p, 1e-12))
    else:
        pos, neg = cfg.psi.value(g), cfg.psi.value(-g)
    losses = (np.where(m, cfg.alpha * pos, cfg.beta * neg) * w).sum(axis=1)
    if cfg.psi is CROSS_ENTROPY:
        p = np.exp(g - logsumexp(g, axis=1, keepdims=True))
        a = np.where(m, cfg.alpha * w, 0.0)
        b = np.where(m, 0.0, cfg.beta * w * p / np.maximum(1.0 - p, 1e-12))
        tot = (a - b).sum(axis=1, keepdims=True)
        return losses, -a + b + p * tot
    return losses, np.where(
        m,
        cfg.alpha * w * cfg.psi.derivative(g),
        -cfg.beta * w * cfg.psi.derivative(-g),
    )


def test_one_kernel_matches_separate_passes_bytewise():
    # Scores mix normal draws with signed zeros, the ramp kinks at +-1 and
    # their neighbours; some rows are full candidate sets, some weights 0.
    edges = np.array([0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 2.0)])
    rng = make_rng(223)
    for trial in range(3000):
        psi = (SIGMOID, RAMP, CROSS_ENTROPY)[trial % 3]
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        g = rng.normal(0.0, 3.0, size=(n, k))
        g = np.where(rng.random((n, k)) < 0.4, rng.choice(edges, size=(n, k)), g)
        mask = rng.random((n, k)) < 0.5
        mask[rng.random(n) < 0.3] = True
        mask[np.arange(n), rng.integers(k, size=n)] = True
        w = np.where(rng.random((n, k)) < 0.2, 0.0, rng.random((n, k)))
        cfg = LWConfig(beta=float(rng.choice([0.0, rng.random() * 3.0])),
                       alpha=float(rng.choice([0.0, 1.0, rng.random() * 2.0])), psi=psi)
        losses, grad = lw_loss_gradient_batch(g, mask, w, cfg)
        want_losses, want_grad = separate_loss_and_gradient(g, mask, w, cfg)
        assert losses.tobytes() == want_losses.tobytes()
        assert losses.tobytes() == lw_loss_batch(g, mask, w, cfg).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        one_loss, one_grad = lw_loss_gradient_batch(g[0], mask[0], w[0], cfg)
        assert np.ndim(one_loss) == 0 and one_grad.shape == (k,)
        assert one_loss.tobytes() == want_losses[0].tobytes()
        assert one_grad.tobytes() == want_grad[0].tobytes()


# special-case reductions: settings of (beta, w) that recover the older
# candidate-set losses


def test_average_over_candidates_at_zero():
    g = np.zeros(3)
    mask = np.array([True, True, False])
    w = np.array([0.5, 0.5, 0.0])
    assert lw_loss_batch(g, mask, w, LWConfig(beta=0.0, psi=SIGMOID)) == 0.5


def test_min_over_candidates_value():
    g = np.array([1.0, -1.0, 0.0])
    mask = np.array([True, True, False])
    w = np.array([1.0, 0.0, 0.0])  # all weight on the top candidate
    v = lw_loss_batch(g, mask, w, LWConfig(beta=0.0, psi=SIGMOID))
    assert abs(v - 0.26894142136999512) < 1e-16


def test_reduction_to_average():
    rng = make_rng(31)
    for _ in range(100):
        g, mask, _ = random_instance(rng, 6)
        w = np.where(mask, 1.0 / mask.sum(), 0.0)
        lw = lw_loss_batch(g, mask, w, LWConfig(beta=0.0, psi=SIGMOID))
        avg = SIGMOID.value(g[mask]).mean()
        assert abs(lw - avg) <= 5e-15 * (1.0 + abs(avg))


def test_reduction_to_min():
    rng = make_rng(37)
    for _ in range(100):
        g, mask, _ = random_instance(rng, 6)
        cand = np.where(mask)[0]
        best = cand[np.argmax(g[cand])]
        w = np.zeros(6)
        w[best] = 1.0
        lw = lw_loss_batch(g, mask, w, LWConfig(beta=0.0, psi=SIGMOID))
        assert lw == SIGMOID.value(g[mask]).min()


def test_reduction_to_max_candidate_plus_negatives():
    rng = make_rng(41)
    for _ in range(100):
        g, mask, _ = random_instance(rng, 6)
        cand = np.where(mask)[0]
        best = cand[np.argmax(g[cand])]
        w = np.where(mask, 0.0, 1.0)
        w[best] = 1.0
        lw = lw_loss_batch(g, mask, w, LWConfig(beta=1.0, psi=SIGMOID))
        special = SIGMOID.value(g[mask].max()) + SIGMOID.value(-g[~mask]).sum()
        assert abs(lw - special) <= 5e-15 * (1.0 + abs(special))


# the derived per-label loss


def test_derived_loss_frozen_oracle():
    q = np.array([1.0, 0.3, 0.7])
    w = np.array([0.5, 0.25, 0.25])
    g = np.array([0.4, -0.2, 0.1])
    v = derived_supervised_loss(0, g, w, q, LWConfig(beta=0.9, alpha=1.1, psi=SIGMOID))
    assert abs(v - 0.46386183870484806) < 1e-15


def test_derived_loss_matches_two_class_enumeration():
    # K=2: the candidate set is {y} or {0,1}; average the partial loss directly
    rng = make_rng(43)
    for _ in range(200):
        g = rng.normal(0.0, 2.0, size=2)
        w = rng.random(2)
        q01 = float(rng.random() * 0.98)
        cfg = LWConfig(beta=float(rng.random() * 3.0), alpha=float(rng.random() * 2.0), psi=SIGMOID)
        only = lw_loss_batch(g, np.array([True, False]), w, cfg)
        both = lw_loss_batch(g, np.array([True, True]), w, cfg)
        expected = (1.0 - q01) * only + q01 * both
        got = derived_supervised_loss(0, g, w, np.array([1.0, q01]), cfg)
        assert abs(got - expected) < 1e-12


def test_derived_loss_beta_zero_keeps_only_candidate_side():
    rng = make_rng(47)
    for _ in range(50):
        k = 5
        g = rng.normal(size=k)
        w = rng.random(k)
        q = rng.random(k) * 0.9
        q[2] = 1.0
        cfg = LWConfig(beta=0.0, psi=RAMP)
        v = derived_supervised_loss(2, g, w, q, cfg)
        psi = RAMP.value(g)
        expected = w[2] * psi[2] + sum(
            w[z] * q[z] * psi[z] for z in range(k) if z != 2
        )
        assert abs(v - expected) < 1e-14


def test_derived_loss_unit_beta_half_inclusion_collapse():
    # at q=1/2 and beta=1 the off-label terms lose their score dependence
    rng = make_rng(53)
    for _ in range(50):
        k = 4
        g = rng.normal(size=k)
        w = rng.random(k)
        q = np.full(k, 0.5)
        q[1] = 1.0
        cfg = LWConfig(beta=1.0, psi=SIGMOID)
        v = derived_supervised_loss(1, g, w, q, cfg)
        expected = w[1] * SIGMOID.value(g[1]) + 0.5 * (w.sum() - w[1])
        assert abs(v - expected) < 1e-14


def test_derived_loss_one_versus_all_form():
    # beta=2 with w = 1/q and q=1/2 off the label folds into an OVA loss
    rng = make_rng(59)
    for _ in range(50):
        k = 5
        g = rng.normal(size=k)
        q = np.full(k, 0.5)
        q[0] = 1.0
        w = 1.0 / q
        cfg = LWConfig(beta=2.0, psi=SIGMOID)
        v = derived_supervised_loss(0, g, w, q, cfg)
        psi = SIGMOID.value
        expected = psi(g[0]) + sum(psi(-g[z]) for z in range(1, k)) + (k - 1)
        assert abs(v - expected) < 5e-14


def test_derived_loss_validation():
    g = np.zeros(3)
    w = np.ones(3)
    cfg = LWConfig(beta=1.0, psi=SIGMOID)
    with pytest.raises(ValueError):
        derived_supervised_loss(0, g, w, np.array([0.9, 0.5, 0.5]), cfg)
    with pytest.raises(ValueError):
        derived_supervised_loss(0, g, w, np.array([1.0, 1.0, 0.5]), cfg)
    with pytest.raises(UnsupportedLossError):
        derived_supervised_loss(0, g, w, np.array([1.0, 0.5, 0.5]), LWConfig(beta=1.0, psi=CROSS_ENTROPY))


# NaN inputs and per-row scores in the closed form


def test_derived_loss_rejects_nan_off_label_rate():
    cfg = LWConfig(beta=1.0, psi=SIGMOID)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        derived_supervised_loss(0, np.zeros(3), np.ones(3), [1.0, np.nan, 0.2], cfg)


def test_derived_loss_checks_weights():
    cfg = LWConfig(beta=1.0, psi=SIGMOID)
    q = np.array([1.0, 0.3, 0.2])
    for bad in (-0.5, np.nan):
        w = np.array([1.0, bad, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            derived_supervised_loss(0, np.zeros(3), w, q, cfg)
        with pytest.raises(ValueError, match="nonnegative"):
            derived_supervised_loss(
                np.array([0, 0]), np.zeros((2, 3)), np.stack([np.ones(3), w]),
                np.stack([q, q]), cfg,
            )


def test_lw_loss_batch_rejects_nan_weights():
    cfg = LWConfig(beta=1.0, psi=SIGMOID)
    with pytest.raises(ValueError, match="nonnegative"):
        lw_loss_batch(
            np.zeros((2, 3)), np.ones((2, 3), dtype=bool),
            np.array([[1.0, 1.0, 1.0], [1.0, np.nan, 1.0]]), cfg,
        )


def test_derived_loss_takes_one_score_and_weight_row_per_label():
    rng = make_rng(251)
    for k in range(1, 11):
        n = 7
        labels = rng.integers(k, size=n)
        g = rng.normal(0.0, 2.0, size=(n, k))
        w = rng.random((n, k))
        q = rng.random((n, k)) * 0.98
        q[np.arange(n), labels] = 1.0
        for psi in BINARY_LOSSES.values():
            cfg = LWConfig(beta=float(rng.random() * 4), alpha=0.7, psi=psi)
            batch = derived_supervised_loss(labels, g, w, q, cfg)
            assert batch.tolist() == [
                derived_supervised_loss(int(labels[i]), g[i], w[i], q[i], cfg)
                for i in range(n)
            ]
    cfg = LWConfig(beta=1.0, psi=SIGMOID)
    with pytest.raises(ValueError, match="shape"):
        derived_supervised_loss(np.array([0, 1]), np.zeros((3, 2)), np.ones((3, 2)),
                                np.eye(2), cfg)
    with pytest.raises(ValueError, match="shape"):
        derived_supervised_loss(0, np.zeros((1, 2)), np.ones((1, 2)), [1.0, 0.5], cfg)
