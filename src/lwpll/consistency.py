"""Numerical certification of the risk identities behind the loss family.

The headline check enumerates every candidate set (2^K terms, K capped at
16) to compute the partial risk of a score vector exactly, and compares it
against the closed-form supervised risk it must equal under the generation
model. The two sides share no code: the enumerator works from `lw_loss_batch`
and set probabilities, the closed form from `derived_supervised_loss`, so
agreement to 1e-10 over randomized instances is evidence rather than
tautology. Companion checks certify the set-probability normalization, the
uniform-rejection special value 1/(2^(K-1) - 1), and the coefficient-ordering
property behind classifier consistency.

The risk check works in batches of instances. Instances that share a
(K, psi) pair are stacked, each with its q matrix in one `GenerationModel`
and its beta and alpha in one `LWConfig`, so one set-probability, one
`lw_loss_batch` and one `derived_supervised_loss` call cover every
(beta, alpha) grid point of the pair. The loss of a candidate set does not
depend on the true label, so it is evaluated once per nonempty set (2^K - 1
rows per instance) and shared by every label in the set. A batch holds at
most MAX_BATCH_ROWS (label, set) rows, and at least one instance, so its
memory is bounded whatever the instance count; across batches the check
keeps only one float gap per instance. The `derived_loss` hook
receives the same batched arguments as the closed form and goes through the
same accumulation. The risk instances are drawn exactly as one-at-a-time
checking would draw them, and every reported figure is bit-identical to it:
the per-row arithmetic and reduction order are unchanged, and `math.fsum` is
exact. The coefficient-ordering instances are drawn and checked one K at a
time, with one bulk Generator call per quantity.

Every check reports as its worst case the first case in check order with
the largest gap (`_report`). A NaN gap ranks above every number
(`severity`), so a check that produces one reports it and fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .labelgen import GenerationModel, make_uniform
from .losses import (
    BINARY_LOSSES,
    LWConfig,
    derived_supervised_loss,
    lw_loss_batch,
)
from .rng import make_rng

MAX_ENUMERATION_CLASSES = 16

# Bound on the (label, set) rows of one certification batch, K 2^(K-1) per
# instance; from K = 10 on a batch holds one instance, so a batch's memory
# does not grow with the instance count.
MAX_BATCH_ROWS = 2**13


class CheckNotApplicable(ValueError):
    """A check's preconditions do not hold; the instance proves nothing."""


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a certification sweep.

    max_discrepancy: largest absolute deviation seen (0 when all exact).
    instances: how many independent instances were checked.
    worst_case: human-readable descriptor of the worst instance.
    """

    max_discrepancy: float
    instances: int
    worst_case: str

    def __post_init__(self):
        if self.max_discrepancy < 0.0:
            raise ValueError("discrepancy must be nonnegative")

    def within(self, tolerance: float) -> bool:
        return self.max_discrepancy < tolerance


def severity(gap: float) -> tuple[bool, float]:
    """Sort key for a discrepancy that ranks NaN above every number.

    NaN compares false with everything, so a plain `gap > worst` would let a
    check that produced NaN pass unseen; under this key it is the worst case.
    """
    nan = math.isnan(gap)
    return (nan, 0.0 if nan else gap)


def _report(cases, instances: int, placeholder: str) -> ConsistencyReport:
    """Report the first of the (gap, describe) cases, given in check order,
    with the largest gap under `severity`; only its `describe()` is called.
    No cases give gap 0 and the worst case `placeholder`."""
    gap, describe = max(
        cases, key=lambda case: severity(case[0]), default=(0.0, lambda: placeholder)
    )
    return ConsistencyReport(gap, instances, describe())


def validate_posterior(p) -> np.ndarray:
    """Check a class-posterior vector, or one per row: nonnegative, each
    summing to 1 within 1e-12."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2):
        raise ValueError("posterior must be a vector or a stack of vectors")
    # Written so that NaN fails the check.
    if not ((p >= 0.0).all() and (np.abs(p.sum(axis=-1) - 1.0) <= 1e-12).all()):
        raise ValueError("posterior entries must be >= 0 and sum to 1")
    return p


@lru_cache(maxsize=None)
def _all_subsets(num_classes: int) -> np.ndarray:
    """(2^K, K) boolean matrix of all subsets of {0..K-1}; rows immutable."""
    codes = np.arange(2**num_classes, dtype=np.uint32)
    masks = (codes[:, None] >> np.arange(num_classes)) & 1
    out = masks.astype(bool)
    out.setflags(write=False)
    return out


def enumerate_subsets(num_classes: int, containing: int | None = None) -> np.ndarray:
    """All subsets as boolean rows, optionally only those containing a label."""
    if num_classes > MAX_ENUMERATION_CLASSES:
        raise ValueError(
            f"enumeration capped at {MAX_ENUMERATION_CLASSES} classes, "
            f"got {num_classes}"
        )
    subsets = _all_subsets(num_classes)
    if containing is None:
        return subsets
    return subsets[subsets[:, int(containing)]]


@lru_cache(maxsize=None)
def _label_set_rows(num_classes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2^K - 1 nonempty sets, then one (label, set) row per label y and
    set containing y: the rows' labels and the index of each row's set."""
    sets = enumerate_subsets(num_classes)[1:]
    labels = np.repeat(np.arange(num_classes), 2 ** (num_classes - 1))
    members = np.concatenate(
        [np.flatnonzero(sets[:, y]) for y in range(num_classes)]
    )
    for array in (sets, labels, members):
        array.setflags(write=False)
    return sets, labels, members


def _instances(scores, posterior, model: GenerationModel, weights):
    """Validate one instance, or one per model of a stack.

    Returns the posteriors, scores and weights as (n, K) arrays, and whether
    a single instance was given.
    """
    p = validate_posterior(posterior)
    g = np.asarray(scores, dtype=float)
    w = np.asarray(weights, dtype=float)
    shape = model.q.shape[:-1]
    if p.shape != shape:
        raise ValueError(
            f"posterior shape {p.shape} does not match the model's {shape}"
        )
    if not g.shape == w.shape == shape:
        raise ValueError(
            f"scores {g.shape} and weights {w.shape} must have the shape {shape}"
        )
    k = model.num_classes
    return p.reshape(-1, k), g.reshape(-1, k), w.reshape(-1, k), p.ndim == 1


def _repeat_leverage(cfg: LWConfig, repeats) -> LWConfig:
    """cfg with each per-instance beta and alpha repeated for its instance's rows."""
    beta, alpha = (v if np.ndim(v) == 0 else np.repeat(v, repeats) for v in (cfg.beta, cfg.alpha))
    return LWConfig(beta=beta, alpha=alpha, psi=cfg.psi)


def partial_risk_bruteforce(
    scores, posterior, model: GenerationModel, weights, cfg: LWConfig
) -> float | np.ndarray:
    """Exact partial risk by enumerating every candidate set per true label.

    Computes sum_y p_y sum_{S with y in S} P(S | y) * lw_loss_batch(g, S, w, cfg),
    accumulating the terms with exact float summation; labels with p_y = 0
    contribute nothing. The loss of S does not depend on y, so it is
    evaluated once per nonempty set and shared by every label in S.

    One instance (length-K scores, posterior, weights) gives a float. A
    stack of n models with (n, K) arrays gives the n risks, with one
    set-probability and one loss evaluation for the whole stack; beta and
    alpha may then hold one value per instance.
    """
    p, g, w, single = _instances(scores, posterior, model, weights)
    sets, labels, members = _label_set_rows(model.num_classes)
    n = p.shape[0]
    losses = lw_loss_batch(
        np.repeat(g, sets.shape[0], axis=0),
        np.tile(sets, (n, 1)),
        np.repeat(w, sets.shape[0], axis=0),
        _repeat_leverage(cfg, sets.shape[0]),
    ).reshape(n, sets.shape[0])[:, members]
    probs = model.subset_probabilities(labels, sets[members])
    mass = p[:, labels]
    terms = np.where(mass != 0.0, mass * probs * losses, 0.0)
    risks = [math.fsum(row) for row in terms.tolist()]
    return risks[0] if single else np.array(risks)


def supervised_risk_direct(
    scores,
    posterior,
    model: GenerationModel,
    weights,
    cfg: LWConfig,
    derived_loss=None,
) -> float | np.ndarray:
    """Closed-form supervised risk: sum_y p_y * derived_supervised_loss(y).

    Takes one instance or a stack, as `partial_risk_bruteforce` does, and
    makes one closed-form call for every (instance, label) pair with
    p_y != 0; each instance's terms are added in label order.
    `derived_loss` replaces the closed form (to prove a check can fail); it
    is called with the same batched arguments: a label vector and one row
    of scores, weights and q per label, and a per-instance beta or alpha
    repeated for each of its instance's labels.

    Rejection models are refused: dropping the full set rescales every set
    probability by 1/(1 - M_y) and the per-class closed form no longer
    describes the partial risk.
    """
    if model.reject_full:
        raise CheckNotApplicable(
            "the closed-form supervised risk assumes no full-set rejection"
        )
    p, g, w, single = _instances(scores, posterior, model, weights)
    if derived_loss is None:
        derived_loss = derived_supervised_loss
    q = model.q.reshape((-1,) + model.q.shape[-2:])
    inst, labels = np.nonzero(p)
    terms = np.zeros_like(p)
    terms[inst, labels] = p[inst, labels] * derived_loss(
        labels, g[inst], w[inst], q[inst, labels],
        _repeat_leverage(cfg, np.count_nonzero(p, axis=1)),
    )
    total = np.zeros(p.shape[0])
    for column in terms.T:
        total += column
    return float(total[0]) if single else total


def lemma1_check(model: GenerationModel, true_label: int) -> ConsistencyReport:
    """How far the set probabilities for one true label are from summing to 1."""
    k = model.num_classes
    y = int(true_label)
    subsets = enumerate_subsets(k, containing=y)
    total = math.fsum(model.subset_probabilities(y, subsets).tolist())
    return ConsistencyReport(
        max_discrepancy=abs(total - 1.0),
        instances=subsets.shape[0],
        worst_case=f"K={k}, y={y}, sum={total!r}",
    )


def theorem2_coefficient_check(posterior, weights, q_row, beta) -> bool | np.ndarray:
    """Does the inner-risk coefficient c_y = w_y q_y (beta p_y - (beta - 1))
    peak at the certain true label?

    Applies only to the deterministic scenario: posterior one-hot at some
    y* with w maximal and positive there, q[y*] = 1, every other inclusion
    probability below 1, and beta > 0. Anything else raises
    CheckNotApplicable rather than passing judgement.

    Length-K vectors and one beta give a bool. (n, K) arrays with n betas
    (or one) check n instances in one pass and give n bools; every row must
    meet the preconditions. One instance is the one-row case of that pass.
    """
    p = validate_posterior(posterior)
    w = np.asarray(weights, dtype=float)
    q = np.asarray(q_row, dtype=float)
    single = p.ndim == 1
    if single:
        p, w, q = p[None], w[None], q[None]
    if not (p.shape == w.shape == q.shape) or p.ndim != 2:
        raise ValueError("posterior, weights, q_row must share one length")
    b = np.broadcast_to(np.asarray(beta, dtype=float), p.shape[:1])[:, None]
    one_hot = p == 1.0
    if (one_hot.sum(axis=1) != 1).any():
        raise CheckNotApplicable("posterior must be one-hot")
    y_star = one_hot.argmax(axis=1)
    rows = np.arange(p.shape[0])
    # The range checks are written so that NaN fails them.
    if not (
        (w >= 0.0).all()
        and (w[rows, y_star] > 0.0).all()
        and (w.argmax(axis=1) == y_star).all()
    ):
        raise CheckNotApplicable("weights must be maximal and positive at y*")
    if (q[rows, y_star] != 1.0).any() or (~((q >= 0.0) & (q < 1.0)) & ~one_hot).any():
        raise CheckNotApplicable("need q[y*] = 1 and q_z in [0, 1) elsewhere")
    if not (b > 0.0).all():
        raise CheckNotApplicable("beta must be positive")
    c = w * q * (b * p - (b - 1.0))
    peaked = c.argmax(axis=1) == y_star
    return bool(peaked[0]) if single else peaked


def _random_model(draws: np.ndarray) -> GenerationModel:
    """A random model, or a stack, from uniform draws of shape (..., K, K);
    the draws are overwritten."""
    draws *= 0.98
    k = draws.shape[-1]
    draws[..., np.arange(k), np.arange(k)] = 1.0
    return GenerationModel(draws)


def certify_risk_equivalence(
    instances: int = 1000,
    seed: int = 0,
    k_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    betas: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 7.3),
    alphas: tuple[float, ...] = (0.5, 1.0),
    derived_loss=None,
) -> ConsistencyReport:
    """Randomized equality check: enumerated partial risk vs closed form.

    Instance i draws random scores, posterior, weights and model, and walks
    the (K, psi, beta, alpha) grid round-robin; the cycle lengths 7, 3, 5, 2
    are pairwise coprime, so 210 instances already cover the full grid.
    Instances i and i + period, period the least common multiple of the K
    and psi cycle lengths (21), share a (K, psi) pair; each such group is
    checked in batches of at most max(1, MAX_BATCH_ROWS // (K 2^(K-1)))
    instances, each with its own beta and alpha, with one
    `partial_risk_bruteforce` and one `supervised_risk_direct` call per
    batch. `derived_loss` substitutes the closed-form half (used to prove
    the check can fail); the default is the production form.
    """
    rng = make_rng(seed)
    psis = tuple(BINARY_LOSSES.values())
    period = math.lcm(len(k_values), len(psis))
    groups = {}
    gaps = np.zeros(max(instances, 0))
    for i in range(instances):
        j = i % period
        if j not in groups:
            k = k_values[j % len(k_values)]
            n = min(len(range(j, instances, period)), max(1, MAX_BATCH_ROWS // (k << (k - 1))))
            buffers = [np.empty(n, dtype=np.intp)] + [np.empty((n, k)) for _ in range(3)]
            groups[j] = (k, np.ones(k), *buffers, np.empty((n, k, k)))
        k, ones, index, g, p, w, q = groups[j]
        row = (i // period) % len(index)
        index[row] = i
        g[row] = rng.normal(0.0, 2.0, size=k)
        p[row] = rng.dirichlet(ones)
        rng.random(out=w[row])
        rng.random(out=q[row])
        # Check the batch once it is full or its group has no more draws.
        if row + 1 < len(index) and i + period < instances:
            continue
        n = row + 1
        model = _random_model(q[:n])
        cfg = LWConfig(
            beta=np.take(betas, index[:n] % len(betas)),
            alpha=np.take(alphas, index[:n] % len(alphas)),
            psi=psis[j % len(psis)],
        )
        lhs = partial_risk_bruteforce(g[:n], p[:n], model, w[:n], cfg)
        rhs = supervised_risk_direct(g[:n], p[:n], model, w[:n], cfg, derived_loss)
        gaps[index[:n]] = np.abs(lhs - rhs)

    def describe(i, gap):
        return (
            f"instance {i}: K={k_values[i % len(k_values)]}, "
            f"psi={psis[i % len(psis)].name}, beta={betas[i % len(betas)]}, "
            f"alpha={alphas[i % len(alphas)]}, |lhs-rhs|={gap:.3e}"
        )

    # The batches finish out of draw order; the cases go in instance order.
    cases = ((gap, partial(describe, i, gap)) for i, gap in enumerate(gaps.tolist()))
    return _report(cases, instances, "no instances checked")


def certify_subset_normalization(
    models: int = 100,
    seed: int = 0,
    k_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10),
) -> ConsistencyReport:
    """Set probabilities sum to 1 for each true label, over random models."""
    rng = make_rng(seed)

    def case(i):
        k = k_values[i % len(k_values)]
        report = lemma1_check(_random_model(rng.random((k, k))), int(rng.integers(k)))
        return report.max_discrepancy, lambda: f"model {i}: {report.worst_case}"

    return _report(map(case, range(models)), models, "no models checked")


def certify_uniform_recovery(
    k_values: tuple[int, ...] = (3, 4, 5, 6, 7, 8),
) -> ConsistencyReport:
    """Uniform q = 1/2 with rejection: every proper set has probability
    1/(2^(K-1) - 1)."""
    cases = []
    checked = 0
    for k in k_values:
        model = make_uniform(k, 0.5, reject_full=True)
        expected = 1.0 / (2 ** (k - 1) - 1)
        for y in range(k):
            subsets = enumerate_subsets(k, containing=y)
            probs = model.subset_probabilities(y, subsets[~subsets.all(axis=1)])
            checked += probs.shape[0]
            gap = float(np.abs(probs - expected).max())
            cases.append((gap, partial("K={}, y={}, target={!r}".format, k, y, expected)))
    return _report(cases, checked, "no subsets checked")


def certify_coefficient_ordering(
    instances: int = 10**4,
    seed: int = 0,
    k_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10),
) -> ConsistencyReport:
    """Randomized coefficient-ordering property under its preconditions.

    Instance i has K = k_values[i % len(k_values)]. The instances of one K
    are drawn together, their labels, weights, rates and betas in turn, and
    checked in one pass, one K after another. Failures count as discrepancy
    1; a clean run reports 0, and the worst case names the first failure.
    """
    rng = make_rng(seed)
    period = len(k_values)
    failures = []
    for j, k in enumerate(k_values[: max(instances, 0)]):
        n = len(range(j, instances, period))
        rows = np.arange(n)
        y_star = rng.integers(k, size=n)
        w = rng.random((n, k)) + 1e-9
        top = w.argmax(axis=1)
        w[rows, y_star], w[rows, top] = w[rows, top], w[rows, y_star]
        q = rng.random((n, k)) * 0.98
        q[rows, y_star] = 1.0
        p = np.zeros_like(q)
        p[rows, y_star] = 1.0
        beta = 10.0 * (1.0 - rng.random(n))
        for r in np.flatnonzero(~theorem2_coefficient_check(p, w, q, beta)).tolist():
            failures.append((j + period * r, k, int(y_star[r]), float(beta[r])))
    describe = "instance {}: K={}, y*={}, beta={!r}".format
    cases = [(1.0, partial(describe, *failure)) for failure in sorted(failures)]
    return _report(cases, instances, "all instances ordered correctly")
