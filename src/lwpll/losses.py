"""Binary losses and the leveraged weighted loss family for candidate-set labels.

The multi-class loss on an instance with candidate set ``S`` combines a
non-increasing binary loss ``psi`` applied per class:

    alpha * sum_{z in S} w_z psi(g_z)  +  beta * sum_{z not in S} w_z psi(-g_z)

where ``g`` is the score vector, ``w`` a nonnegative per-class weight vector,
``alpha`` scales the candidate side and ``beta`` leverages the non-candidate
side. Sigmoid and ramp losses are symmetric (psi(z) + psi(-z) = 1); the step
loss is symmetric too but has no usable derivative and is meant for
enumeration-style checks only. A cross-entropy instantiation replaces the
per-class binary losses with -log softmax terms and is handled separately
because softmax couples the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Floor applied to probabilities before taking logs in cross-entropy mode.
_LOG_FLOOR = 1e-12


def _expit(x):
    """The logistic sigmoid 1 / (1 + e^-x). Below x = -709, e^-x overflows
    to inf, which gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(np.negative(x)))


def _logsumexp(a):
    """log sum_k e^(a_k) over the last axis of a finite (..., K) array, as (..., 1).

    The m entries tied at the row max are taken out of the sum: the result
    is log1p(s) + log(m) + max, where s is the sum of e^(a - max) over the
    other entries, divided by m.
    """
    a_max = a.max(axis=-1, keepdims=True)
    tied = a == a_max
    m = tied.sum(axis=-1, keepdims=True, dtype=float)
    rest = np.exp(a - a_max)
    rest[tied] = 0.0
    return np.log1p(rest.sum(axis=-1, keepdims=True) / m) + np.log(m) + a_max


class UnsupportedLossError(ValueError):
    """Raised when an operation needs a derivative or form the loss lacks."""


class SigmoidLoss:
    """psi(z) = 1 / (1 + e^z), smooth and symmetric."""

    name = "sigmoid"

    @staticmethod
    def value(z):
        return _expit(np.negative(z))

    @staticmethod
    def derivative(z):
        # psi'(z) = -sigma(z) sigma(-z), bounded in [-1/4, 0)
        return -_expit(z) * _expit(np.negative(z))


class RampLoss:
    """psi(z) = clip((1 - z) / 2, 0, 1), piecewise linear and symmetric."""

    name = "ramp"

    @staticmethod
    def value(z):
        return np.clip((1.0 - np.asarray(z, dtype=float)) / 2.0, 0.0, 1.0)

    @staticmethod
    def derivative(z):
        # Subgradient 0 at the kinks z = +-1.
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) < 1.0, -0.5, 0.0)


class ZeroOneStepLoss:
    """psi(z) = 1 for z < 0, 1/2 at z = 0, 0 for z > 0.

    Non-differentiable; valid in value-level enumeration checks, rejected by
    every gradient path.
    """

    name = "zero_one_step"

    @staticmethod
    def value(z):
        z = np.asarray(z, dtype=float)
        return np.where(z < 0.0, 1.0, np.where(z > 0.0, 0.0, 0.5))

    @staticmethod
    def derivative(z):
        raise UnsupportedLossError("the step loss has no derivative")


class CrossEntropyMode:
    """Marker selecting -log softmax terms instead of a per-class binary loss."""

    name = "cross_entropy"


SIGMOID = SigmoidLoss()
RAMP = RampLoss()
ZERO_ONE_STEP = ZeroOneStepLoss()
CROSS_ENTROPY = CrossEntropyMode()

BINARY_LOSSES = {loss.name: loss for loss in (SIGMOID, RAMP, ZERO_ONE_STEP)}

BinaryLoss = SigmoidLoss | RampLoss | ZeroOneStepLoss


def get_loss(name: str) -> BinaryLoss | CrossEntropyMode:
    """Look up a loss by name ('sigmoid', 'ramp', 'zero_one_step', 'cross_entropy')."""
    if name == CROSS_ENTROPY.name:
        return CROSS_ENTROPY
    try:
        return BINARY_LOSSES[name]
    except KeyError:
        raise UnsupportedLossError(f"unknown loss {name!r}") from None


@dataclass(frozen=True)
class LWConfig:
    """Selects one member of the leveraged weighted loss family.

    beta leverages losses on non-candidate labels, alpha scales losses on
    candidate labels (1 except in ablations), psi is the per-class binary
    loss or the cross-entropy marker. beta and alpha are floats, or 1-D
    arrays with one value per batch row (kept as read-only copies); every
    value must be finite and >= 0.
    """

    beta: float | np.ndarray
    alpha: float | np.ndarray = 1.0
    psi: BinaryLoss | CrossEntropyMode = field(default_factory=lambda: SIGMOID)

    def __post_init__(self):
        for name in ("beta", "alpha"):
            value = getattr(self, name)
            if np.ndim(value):
                value = np.array(value, dtype=float)
                value.setflags(write=False)
                object.__setattr__(self, name, value)
            if np.ndim(value) > 1 or not np.all(np.isfinite(value) & (value >= 0.0)):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _per_row(cfg: LWConfig, n: int, ndim: int = 2):
    """(alpha, beta) for n rows: a float as given, an array as (n, 1) or (n, 1, 1)."""
    for name, value in (("alpha", cfg.alpha), ("beta", cfg.beta)):
        if np.shape(value) not in ((), (n,)):
            raise ValueError(f"{name} has {len(value)} values for {n} rows")
    column = (n,) + (1,) * (ndim - 1)
    return [v.reshape(column) if np.ndim(v) else v for v in (cfg.alpha, cfg.beta)]


def _as_batch(scores, candidates, weights):
    """Validate (n, K) inputs, or (n, 1, K) scores and weights with (R, K)
    candidates; a length-K instance is one row. Returns (g, m, w, squeeze)."""
    g = np.asarray(scores, dtype=float)
    m = np.asarray(candidates, dtype=bool)
    w = np.asarray(weights, dtype=float)
    squeeze = g.ndim == 1
    if squeeze:
        g, m, w = g[None, :], m[None, :], w[None, :]
    if not (g.shape == w.shape and m.ndim == 2 and g.shape[-1:] == m.shape[1:]
            and g.shape[:-1] in ((len(m),), (len(g), 1))):
        raise ValueError(
            f"shape mismatch: scores {g.shape}, candidates {m.shape}, weights {w.shape}"
        )
    if not np.isfinite(g).all():
        raise ValueError("scores must be finite")
    if not m.any(axis=1).all():
        raise ValueError("candidate set must be nonempty")
    if not (w >= 0.0).all():
        raise ValueError("weights must be nonnegative")
    return g, m, w, squeeze


def _lw_rows(scores, candidates, weights, cfg: LWConfig, with_gradient: bool):
    """The one loss kernel: (losses, gradient or None) of one validated batch.
    A symmetric psi has an even derivative, psi'(-g) = psi'(g) bit for bit
    (sigmoid's is a commutative product, ramp's reads |g|), so both sides of
    the gradient share one psi'(g). The step loss fails in `derivative`."""
    g, m, w, squeeze = _as_batch(scores, candidates, weights)
    alpha, beta = _per_row(cfg, g.shape[0], g.ndim)
    grad = None
    if isinstance(cfg.psi, CrossEntropyMode):
        log_p = g - _logsumexp(g)
        pos = -log_p
        p = np.exp(log_p)
        rest = np.maximum(1.0 - p, _LOG_FLOOR)
        neg = -np.log(rest)
        if with_gradient:
            a = np.where(m, alpha * w, 0.0)
            b = np.where(m, 0.0, beta * w * p / rest)
            grad = -a + b + p * (a - b).sum(axis=-1, keepdims=True)
    else:
        pos = cfg.psi.value(g)
        neg = cfg.psi.value(-g)
        if with_gradient:
            slope = cfg.psi.derivative(g)
            grad = np.where(m, alpha * w * slope, -beta * w * slope)
    losses = (np.where(m, alpha * pos, beta * neg) * w).sum(axis=-1)
    return (losses[0], grad if grad is None else grad[0]) if squeeze else (losses, grad)


def lw_loss_batch(scores, candidates, weights, cfg: LWConfig) -> np.ndarray:
    """Leveraged weighted loss of each row; arrays are (n, K). Returns (n,),
    or one scalar for a length-K instance. (n, 1, K) scores and weights with
    (R, K) candidates give the (n, R) losses of n instances against R sets,
    psi evaluated once per instance, bit for bit the 2-D call that repeats
    each instance's row (and its beta and alpha) for every set."""
    return _lw_rows(scores, candidates, weights, cfg, with_gradient=False)[0]


def lw_loss_gradient_batch(scores, candidates, weights, cfg: LWConfig):
    """(losses, d loss / d scores): (n,) losses equal to `lw_loss_batch`'s bit
    for bit and the (n, K) gradient, or one scalar and one length-K vector for
    a length-K instance. The step loss raises `UnsupportedLossError`."""
    return _lw_rows(scores, candidates, weights, cfg, with_gradient=True)


def derived_supervised_loss(
    true_label, scores, weights, q_row, cfg: LWConfig
) -> float | np.ndarray:
    """Supervised loss whose risk the candidate-set loss matches.

    This is the conditional expectation of `lw_loss_batch` over candidate sets
    drawn for true label y, where wrong class z joins the set independently
    with probability q_z (and q[y] = 1, q[z] < 1 otherwise). Each z != y
    lands on the candidate side with probability q_z and on the complement
    side with probability 1 - q_z, giving the closed form

        alpha * w_y psi(g_y)
          + sum_{z != y} w_z [alpha * q_z psi(g_z)
                              + beta * (1 - q_z) psi(-g_z)].

    One label with length-K scores, weights and q_row gives a float. A
    vector of n labels with an (n, K) q_row (row i for label i) gives the n
    losses; scores and weights are then either shared length-K vectors or
    (n, K) arrays, one row per label, and cfg's beta and alpha may hold one
    value per label. Every row is validated and summed exactly as a single
    call would.

    Cross-entropy mode is rejected: its coordinates are softmax-coupled and
    no closed per-class form applies.
    """
    if isinstance(cfg.psi, CrossEntropyMode):
        raise UnsupportedLossError(
            "cross-entropy mode has no per-class supervised counterpart"
        )
    g = np.asarray(scores, dtype=float)
    w = np.asarray(weights, dtype=float)
    q = np.asarray(q_row, dtype=float)
    y = np.asarray(true_label)
    single = y.ndim == 0
    if single:
        y, q = np.array([int(y)]), q[None]
    if y.ndim != 1 or y.dtype.kind not in "iu":
        raise ValueError(
            f"true labels must be an integer vector, got {y.dtype} {y.shape}"
        )
    per_row = g.ndim == 2 and not single
    if q.ndim != 2 or len(q) != len(y) or not (
        g.shape == w.shape == (q.shape if per_row else q.shape[1:])
    ):
        raise ValueError(
            f"shape mismatch: scores {g.shape}, weights {w.shape}, "
            f"q_row {q.shape[1:] if single else q.shape}"
        )
    n, k = q.shape
    out_of_range = (y < 0) | (y >= k)
    if out_of_range.any():
        raise ValueError(
            f"true_label {y[out_of_range][0]} out of range for {k} classes"
        )
    rows = np.arange(n)
    own = q[rows, y]
    if (own != 1.0).any():
        bad = own[own != 1.0][0]
        raise ValueError(f"q_row[true_label] must be exactly 1, got {bad}")
    others = np.arange(k) != y[:, None]
    # The range checks are written so that NaN fails them.
    if (~((q >= 0.0) & (q < 1.0)) & others).any():
        raise ValueError("off-label inclusion probabilities must lie in [0, 1)")
    if not (w >= 0.0).all():
        raise ValueError("weights must be nonnegative")
    if not np.isfinite(g).all():
        raise ValueError("scores must be finite")
    alpha, beta = _per_row(cfg, n)
    g = np.broadcast_to(g, q.shape)
    w = np.broadcast_to(w, q.shape)
    pos = cfg.psi.value(g)
    neg = cfg.psi.value(-g)
    cross = w * (alpha * q * pos + beta * (1.0 - q) * neg)
    # Each row's off-label terms, contiguous, sum in the single-label order.
    off_label = cross[others].reshape(n, k - 1).sum(axis=1)
    out = (alpha * w)[rows, y] * pos[rows, y] + off_label
    return float(out[0]) if single else out
