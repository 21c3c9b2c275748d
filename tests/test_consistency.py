"""Enumeration-based certification of the risk identities."""

import math

import numpy as np
import pytest

import lwpll.consistency
from lwpll import (
    RAMP,
    SIGMOID,
    ZERO_ONE_STEP,
    CheckNotApplicable,
    GenerationModel,
    LWConfig,
    certify_coefficient_ordering,
    certify_risk_equivalence,
    certify_subset_normalization,
    certify_uniform_recovery,
    derived_supervised_loss,
    lemma1_check,
    lw_loss_batch,
    make_rng,
    make_uniform,
    partial_risk_bruteforce,
    supervised_risk_direct,
    theorem2_coefficient_check,
)
from lwpll.consistency import enumerate_subsets, validate_posterior


def random_model(rng, k, top=0.95):
    q = rng.random((k, k)) * top
    np.fill_diagonal(q, 1.0)
    return GenerationModel(q)


# subset enumeration


def test_enumerate_subsets_counts():
    for k in (1, 2, 5):
        assert enumerate_subsets(k).shape == (2**k, k)
        assert enumerate_subsets(k, containing=0).shape == (2 ** (k - 1), k)
    rows = enumerate_subsets(3, containing=2)
    assert rows[:, 2].all()
    with pytest.raises(ValueError):
        enumerate_subsets(17)


def test_validate_posterior():
    assert np.array_equal(validate_posterior([0.25, 0.75]), [0.25, 0.75])
    with pytest.raises(ValueError):
        validate_posterior([0.5, 0.6])
    with pytest.raises(ValueError):
        validate_posterior([-0.1, 1.1])


# brute-force partial risk


def test_partial_risk_single_class():
    model = GenerationModel([[1.0]])
    g = np.array([0.5])
    w = np.array([2.0])
    cfg = LWConfig(beta=1.0, psi=SIGMOID)
    risk = partial_risk_bruteforce(g, [1.0], model, w, cfg)
    assert risk == derived_supervised_loss(0, g, w, np.array([1.0]), cfg)


def test_partial_risk_uniform_half_is_plain_average():
    model = make_uniform(3, 0.5)
    g = np.zeros(3)
    w = np.full(3, 1.0 / 3.0)
    cfg = LWConfig(beta=1.0, psi=SIGMOID)
    risk = partial_risk_bruteforce(g, [1.0, 0.0, 0.0], model, w, cfg)
    sets = enumerate_subsets(3, containing=0)
    expected = sum(lw_loss_batch(g, s, w, cfg) for s in sets) / 4.0
    assert abs(risk - expected) < 1e-15


def test_partial_risk_mixes_posterior():
    rng = make_rng(201)
    model = random_model(rng, 4)
    g = rng.normal(size=4)
    w = rng.random(4)
    cfg = LWConfig(beta=0.7, alpha=1.3, psi=RAMP)
    p = rng.dirichlet(np.ones(4))
    per_label = [
        partial_risk_bruteforce(g, np.eye(4)[y], model, w, cfg) for y in range(4)
    ]
    mixed = partial_risk_bruteforce(g, p, model, w, cfg)
    assert abs(mixed - float(np.dot(p, per_label))) < 1e-12


def test_supervised_risk_one_hot_reduces_to_single_term():
    rng = make_rng(203)
    model = random_model(rng, 5)
    g = rng.normal(size=5)
    w = rng.random(5)
    cfg = LWConfig(beta=2.0, psi=SIGMOID)
    risk = supervised_risk_direct(g, np.eye(5)[3], model, w, cfg)
    assert risk == derived_supervised_loss(3, g, w, model.q[3], cfg)


def test_supervised_risk_refuses_rejection_models():
    model = make_uniform(3, 0.5, reject_full=True)
    with pytest.raises(CheckNotApplicable):
        supervised_risk_direct(np.zeros(3), [1.0, 0.0, 0.0], model, np.ones(3), LWConfig(beta=1.0, psi=SIGMOID))


def test_risk_equality_random_spot_checks():
    rng = make_rng(207)
    for _ in range(25):
        k = int(rng.integers(2, 7))
        model = random_model(rng, k)
        g = rng.normal(0.0, 2.0, size=k)
        w = rng.random(k)
        p = rng.dirichlet(np.ones(k))
        psi = (SIGMOID, RAMP, ZERO_ONE_STEP)[int(rng.integers(3))]
        cfg = LWConfig(beta=float(rng.random() * 4), alpha=float(rng.random() * 2), psi=psi)
        a = partial_risk_bruteforce(g, p, model, w, cfg)
        b = supervised_risk_direct(g, p, model, w, cfg)
        assert abs(a - b) < 1e-12


def test_code_paths_are_independent(monkeypatch):
    # the enumerator must not lean on the closed form it certifies
    model = make_uniform(3, 0.4)
    g = np.array([0.2, -0.1, 0.5])
    w = np.ones(3)
    cfg = LWConfig(beta=1.0, psi=SIGMOID)

    def boom(*args, **kwargs):
        raise AssertionError("enumerator called the closed form")

    monkeypatch.setattr(lwpll.consistency, "derived_supervised_loss", boom)
    partial_risk_bruteforce(g, [1.0, 0.0, 0.0], model, w, cfg)
    with pytest.raises(AssertionError):
        supervised_risk_direct(g, [1.0, 0.0, 0.0], model, w, cfg)


# lemma1_check


def test_lemma1_exact_at_half():
    report = lemma1_check(make_uniform(4, 0.5), 0)
    assert report.max_discrepancy == 0.0
    assert report.instances == 8


def test_lemma1_random_models():
    rng = make_rng(211)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        report = lemma1_check(random_model(rng, k), int(rng.integers(k)))
        worst = max(worst, report.max_discrepancy)
    assert worst < 1e-12


def test_lemma1_with_zero_rate():
    q = np.array([[1.0, 0.0, 0.6], [0.2, 1.0, 0.2], [0.3, 0.3, 1.0]])
    report = lemma1_check(GenerationModel(q), 0)
    assert report.max_discrepancy < 1e-15


# theorem2_coefficient_check


def test_theorem2_beta_one_trivial():
    assert theorem2_coefficient_check([0.0, 1.0, 0.0], [0.2, 0.9, 0.3], [0.4, 1.0, 0.6], 1.0)


def test_theorem2_beta_two_negative_side():
    assert theorem2_coefficient_check([1.0, 0.0], [0.8, 0.1], [1.0, 0.5], 2.0)


def test_theorem2_preconditions():
    with pytest.raises(CheckNotApplicable):
        theorem2_coefficient_check([0.5, 0.5], [0.9, 0.1], [1.0, 0.5], 1.0)
    with pytest.raises(CheckNotApplicable):
        theorem2_coefficient_check([1.0, 0.0], [0.1, 0.9], [1.0, 0.5], 1.0)
    with pytest.raises(CheckNotApplicable):
        theorem2_coefficient_check([1.0, 0.0], [0.9, 0.1], [0.9, 0.5], 1.0)
    with pytest.raises(CheckNotApplicable):
        theorem2_coefficient_check([1.0, 0.0], [0.9, 0.1], [1.0, 1.0], 1.0)
    with pytest.raises(CheckNotApplicable):
        theorem2_coefficient_check([1.0, 0.0], [0.9, 0.1], [1.0, 0.5], 0.0)


# the unit-leverage collapse: at beta = 1 and every off-label q_z = 1/2, a
# symmetric psi's supervised loss depends on the true-label score alone


def collapse_gap(a, b, y, model, w, beta=1.0):
    """|difference| of the supervised losses of score vectors a and b."""
    cfg = LWConfig(beta=beta, psi=SIGMOID)
    la = derived_supervised_loss(y, a, w, model.q[y], cfg)
    lb = derived_supervised_loss(y, b, w, model.q[y], cfg)
    return abs(la - lb)


def test_collapse_ignores_off_label_scores():
    model = make_uniform(3, 0.5)
    w = np.array([0.2, 0.3, 0.5])
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([1.0, 5.0, -5.0])
    assert collapse_gap(a, b, 0, model, w) <= 1e-12


def test_collapse_random_perturbations():
    rng = make_rng(223)
    model = make_uniform(4, 0.5)
    for _ in range(100):
        y = int(rng.integers(4))
        a = rng.normal(size=4)
        b = a.copy()
        others = [z for z in range(4) if z != y]
        b[others] = rng.normal(0.0, 3.0, size=3)
        w = rng.random(4)
        assert collapse_gap(a, b, y, model, w) <= 1e-12


def test_collapse_beta_two_control():
    # the same perturbation must move the beta=2 loss, or the check is vacuous
    model = make_uniform(3, 0.5)
    w = np.array([0.2, 0.3, 0.5])
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([1.0, 5.0, -5.0])
    assert collapse_gap(a, b, 0, model, w, beta=2.0) > 1e-3


# randomized certification suites (small sizes here; full sizes in acceptance)


def test_certify_risk_equivalence_smoke():
    report = certify_risk_equivalence(instances=50, seed=1)
    assert report.within(1e-10)
    assert report.instances == 50


def test_certify_risk_equivalence_catches_mutants():
    def warped(y, g, w, q_row, cfg):
        bent = LWConfig(beta=cfg.beta + 0.1, alpha=cfg.alpha, psi=cfg.psi)
        return derived_supervised_loss(y, g, w, q_row, bent)

    report = certify_risk_equivalence(instances=210, seed=1, derived_loss=warped)
    assert not report.within(1e-10)


def test_certify_subset_normalization_smoke():
    report = certify_subset_normalization(models=20, seed=2, k_values=(2, 3, 4, 5))
    assert report.within(1e-12)


def test_certify_uniform_recovery_matches_closed_form():
    report = certify_uniform_recovery(k_values=(3, 4))
    assert report.within(1e-12)
    model = make_uniform(4, 0.5, reject_full=True)
    sets = enumerate_subsets(4, containing=1)
    proper = sets[~sets.all(axis=1)]
    p = model.subset_probabilities(1, proper)
    assert np.allclose(p, 1.0 / 7.0, rtol=0.0, atol=1e-15)


def test_certify_coefficient_ordering_smoke():
    report = certify_coefficient_ordering(instances=500, seed=3)
    assert report.max_discrepancy == 0.0
    assert report.instances == 500


# batched certifier against one-label-at-a-time references
#
# The references below are the per-label loops the certifier used to run.
# The batched code keeps every row's arithmetic and reduction order, so the
# results must be equal, not merely close.


def reference_subset_probabilities(model, y, subsets):
    row = model.q[y]
    factors = np.where(subsets, row, 1.0 - row)
    factors[:, y] = 1.0
    p = factors.prod(axis=1)
    p[~subsets[:, y]] = 0.0
    if model.reject_full:
        p[subsets.all(axis=1)] = 0.0
        off = np.arange(model.num_classes) != y
        p /= 1.0 - float(np.prod(model.q[y, off]))
    return p


def reference_derived_supervised_loss(y, g, w, q_row, cfg):
    pos = cfg.psi.value(g)
    neg = cfg.psi.value(-g)
    cross = w * (cfg.alpha * q_row * pos + cfg.beta * (1.0 - q_row) * neg)
    others = np.arange(g.shape[0]) != y
    return float(cfg.alpha * w[y] * pos[y] + cross[others].sum())


def reference_partial_risk(g, p, model, w, cfg):
    k = model.num_classes
    terms = []
    for y in range(k):
        if p[y] == 0.0:
            continue
        subsets = enumerate_subsets(k, containing=y)
        probs = reference_subset_probabilities(model, y, subsets)
        losses = lw_loss_batch(
            np.broadcast_to(g, subsets.shape), subsets,
            np.broadcast_to(w, subsets.shape), cfg,
        )
        terms.extend((p[y] * probs * losses).tolist())
    return math.fsum(terms)


def reference_supervised_risk(g, p, model, w, cfg):
    total = 0.0
    for y in range(model.num_classes):
        if p[y] == 0.0:
            continue
        total += p[y] * reference_derived_supervised_loss(y, g, w, model.q[y], cfg)
    return total


def reference_coefficient_check(p, w, q, beta):
    y_star = int(np.flatnonzero(p == 1.0)[0])
    c = w * q * (beta * p - (beta - 1.0))
    return int(np.argmax(c)) == y_star


def reference_coefficient_ordering(instances, seed, k_values, check):
    """Draw the instances of each K together, as the certifier does, then
    check instance i (row i // period of group i % period) on its own."""
    rng = make_rng(seed)
    period = len(k_values)
    groups = []
    for j, k in enumerate(k_values[: max(instances, 0)]):
        n = len(range(j, instances, period))
        labels = rng.integers(k, size=n)
        weights = rng.random((n, k))
        rates = rng.random((n, k))
        groups.append((k, labels, weights, rates, rng.random(n)))
    failures = 0
    worst = "all instances ordered correctly"
    for i in range(instances):
        k, labels, weights, rates, u = groups[i % period]
        r = i // period
        y_star = int(labels[r])
        w = weights[r] + 1e-9
        top = int(np.argmax(w))
        w[y_star], w[top] = w[top], w[y_star]
        q = rates[r] * 0.98
        q[y_star] = 1.0
        p = np.zeros(k)
        p[y_star] = 1.0
        beta = float(10.0 * (1.0 - u[r]))
        if not check(p, w, q, beta):
            failures += 1
            if failures == 1:
                worst = f"instance {i}: K={k}, y*={y_star}, beta={beta!r}"
    return float(failures > 0), instances, worst


def seeded_instances(seed, per_k=4, k_values=range(1, 13)):
    """Random instances with rejection models and zeroed posterior entries."""
    rng = make_rng(seed)
    psis = (SIGMOID, RAMP, ZERO_ONE_STEP)
    for k in k_values:
        for t in range(per_k):
            q = rng.random((k, k)) * 0.98
            q[rng.random((k, k)) < 0.15] = 0.0
            np.fill_diagonal(q, 1.0)
            model = GenerationModel(q, reject_full=k > 1 and t % 2 == 1)
            p = rng.dirichlet(np.ones(k))
            if k > 1 and t >= 2:
                p[rng.permutation(k)[: (k + 1) // 2]] = 0.0
                p = np.eye(k)[int(np.argmax(p))] if p.sum() == 0.0 else p / p.sum()
                if abs(p.sum() - 1.0) > 1e-12:
                    p = np.eye(k)[int(np.argmax(p))]
            g = rng.normal(0.0, 2.0, size=k)
            w = rng.random(k)
            cfg = LWConfig(
                beta=float(rng.random() * 8), alpha=float(rng.random() * 2),
                psi=psis[(k + t) % 3],
            )
            yield g, p, model, w, cfg


def test_batched_risks_equal_per_label_references():
    zeroed = 0
    for g, p, model, w, cfg in seeded_instances(227):
        zeroed += int((p == 0.0).any())
        assert partial_risk_bruteforce(g, p, model, w, cfg) == reference_partial_risk(
            g, p, model, w, cfg
        )
        if not model.reject_full:
            assert supervised_risk_direct(g, p, model, w, cfg) == (
                reference_supervised_risk(g, p, model, w, cfg)
            )
    assert zeroed >= 10


def test_batched_closed_form_and_set_probabilities_equal_references():
    for g, p, model, w, cfg in seeded_instances(229, per_k=2):
        k = model.num_classes
        subsets = enumerate_subsets(k)
        for y in range(k):
            assert np.array_equal(
                model.subset_probabilities(y, subsets),
                reference_subset_probabilities(model, y, subsets),
            )
        labels = np.arange(k)
        per_label = derived_supervised_loss(labels, g, w, model.q[labels], cfg)
        assert per_label.tolist() == [
            reference_derived_supervised_loss(y, g, w, model.q[y], cfg) for y in range(k)
        ]
        assert [derived_supervised_loss(y, g, w, model.q[y], cfg) for y in range(k)] == (
            per_label.tolist()
        )


def test_batched_closed_form_validates_every_row():
    model = make_uniform(3, 0.4)
    g, w, cfg = np.zeros(3), np.ones(3), LWConfig(beta=1.0, psi=SIGMOID)
    labels = np.array([0, 1, 2])
    with pytest.raises(ValueError, match="out of range"):
        derived_supervised_loss(np.array([0, 3]), g, w, model.q[[0, 0]], cfg)
    with pytest.raises(ValueError, match="exactly 1"):
        derived_supervised_loss(labels, g, w, model.q[[0, 1, 1]], cfg)
    bad_rate = model.q.copy()
    bad_rate[2, 0] = 1.0
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        derived_supervised_loss(labels, g, w, bad_rate, cfg)
    with pytest.raises(ValueError, match="shape"):
        derived_supervised_loss(labels, g, w, model.q[:2], cfg)


def test_batched_coefficient_check_equals_reference():
    rng = make_rng(233)
    for k in range(1, 13):
        n = 50
        y_star = rng.integers(k, size=n)
        rows = np.arange(n)
        w = rng.random((n, k)) + 1e-9
        top = w.argmax(axis=1)
        w[rows, y_star], w[rows, top] = w[rows, top], w[rows, y_star]
        q = rng.random((n, k)) * 0.98
        q[rows, y_star] = 1.0
        p = np.zeros((n, k))
        p[rows, y_star] = 1.0
        beta = 10.0 * (1.0 - rng.random(n))
        batch = theorem2_coefficient_check(p, w, q, beta)
        for r in range(n):
            expected = reference_coefficient_check(p[r], w[r], q[r], float(beta[r]))
            assert batch[r] == expected
            assert theorem2_coefficient_check(p[r], w[r], q[r], float(beta[r])) is expected


def test_batched_coefficient_check_enforces_preconditions_on_every_row():
    p = np.tile([1.0, 0.0, 0.0], (3, 1))
    w = np.tile([0.9, 0.1, 0.2], (3, 1))
    q = np.tile([1.0, 0.5, 0.5], (3, 1))
    beta = np.ones(3)
    assert theorem2_coefficient_check(p, w, q, beta).tolist() == [True] * 3
    # each case breaks exactly one precondition, in the last row only
    cases = (
        ("p", [0.5, 0.5, 0.0]),
        ("w", [0.9, -0.1, 0.2]),
        ("w", [0.0, 0.0, 0.0]),
        ("w", [0.5, 0.9, 0.1]),
        ("q", [0.9, 0.5, 0.5]),
        ("q", [1.0, 1.0, 0.5]),
        ("q", [1.0, -0.1, 0.5]),
        ("beta", 0.0),
        ("beta", np.nan),
    )
    for name, bad in cases:
        arrays = {"p": p.copy(), "w": w.copy(), "q": q.copy(), "beta": beta.copy()}
        arrays[name][2] = bad
        with pytest.raises(CheckNotApplicable):
            theorem2_coefficient_check(arrays["p"], arrays["w"], arrays["q"], arrays["beta"])
        with pytest.raises(CheckNotApplicable):
            theorem2_coefficient_check(
                arrays["p"][2], arrays["w"][2], arrays["q"][2], float(arrays["beta"][2])
            )


def test_certify_coefficient_ordering_equals_reference(monkeypatch):
    for seed, instances, k_values in ((0, 2000, (2, 3, 4, 5, 6, 7, 8, 9, 10)),
                                      (5, 41, (1, 12, 4, 4)), (6, 3, (2, 3, 4, 5))):
        report = certify_coefficient_ordering(instances, seed, k_values)
        expected = reference_coefficient_ordering(
            instances, seed, k_values, reference_coefficient_check
        )
        assert (report.max_discrepancy, report.instances, report.worst_case) == expected

    # the batches hold exactly the reference draws, row i // 3 of group i % 3
    real = lwpll.consistency.theorem2_coefficient_check
    batches = []

    def spy(p, w, q, beta):
        batches.append((p.copy(), w.copy(), q.copy(), np.array(beta)))
        return real(p, w, q, beta)

    monkeypatch.setattr(lwpll.consistency, "theorem2_coefficient_check", spy)
    certify_coefficient_ordering(500, 7, (2, 3, 9))
    drawn = []
    reference_coefficient_ordering(
        500, 7, (2, 3, 9), lambda *args: drawn.append(args) or True
    )
    assert [b[0].shape for b in batches] == [(167, 2), (167, 3), (166, 9)]
    for i, (p, w, q, beta) in enumerate(drawn):
        group = batches[i % 3]
        assert np.array_equal(group[0][i // 3], p)
        assert np.array_equal(group[1][i // 3], w)
        assert np.array_equal(group[2][i // 3], q)
        assert group[3][i // 3] == beta

    # a check that fails whenever beta > 5 must be reported at its first failure
    def flipped(p, w, q, beta):
        return real(p, w, q, beta) ^ (np.asarray(beta) > 5.0)

    monkeypatch.setattr(lwpll.consistency, "theorem2_coefficient_check", flipped)
    report = certify_coefficient_ordering(500, 7, (2, 3, 9))
    expected = reference_coefficient_ordering(500, 7, (2, 3, 9), flipped)
    assert expected[0] == 1.0
    assert (report.max_discrepancy, report.instances, report.worst_case) == expected


def test_verify_json_line_is_pinned(capsys):
    from lwpll.cli import main

    assert main(["verify", "--trials", "1000", "--seed", "201", "--quiet"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        '{"instances": 12855, "max_discrepancy": 3.552713678800501e-15, "pass": true}'
    )


# NaN entries in the certifier's own checks


def test_validate_posterior_rejects_nan():
    with pytest.raises(ValueError, match="sum to 1"):
        validate_posterior([np.nan, 0.5])
    with pytest.raises(ValueError, match="sum to 1"):
        validate_posterior([[0.5, 0.5], [np.nan, 1.0]])


def test_coefficient_check_rejects_nan_rates_and_weights():
    with pytest.raises(CheckNotApplicable):
        theorem2_coefficient_check([1.0, 0.0], [0.9, 0.1], [1.0, np.nan], 1.0)
    with pytest.raises(CheckNotApplicable):
        theorem2_coefficient_check([1.0, 0.0], [0.9, np.nan], [1.0, 0.5], 1.0)
    with pytest.raises(CheckNotApplicable):
        theorem2_coefficient_check([1.0, 0.0], [np.nan, 0.1], [1.0, 0.5], 1.0)


# the certifier in batches of instances, against one instance at a time


def reference_certify_risk_equivalence(
    instances, seed, k_values=(2, 3, 4, 5, 6, 7, 8),
    betas=(0.0, 0.5, 1.0, 2.0, 7.3), alphas=(0.5, 1.0),
):
    """The certifier as it ran before batching: one instance, one label at a time."""
    rng = make_rng(seed)
    psis = (SIGMOID, RAMP, ZERO_ONE_STEP)
    worst = (0.0, "no instances checked")
    for i in range(instances):
        k = k_values[i % len(k_values)]
        psi = psis[i % 3]
        cfg = LWConfig(beta=betas[i % len(betas)], alpha=alphas[i % len(alphas)], psi=psi)
        g = rng.normal(0.0, 2.0, size=k)
        p = rng.dirichlet(np.ones(k))
        w = rng.random(k)
        q = rng.random((k, k)) * 0.98
        np.fill_diagonal(q, 1.0)
        model = GenerationModel(q)
        lhs = reference_partial_risk(g, p, model, w, cfg)
        rhs = reference_supervised_risk(g, p, model, w, cfg)
        gap = abs(lhs - rhs)
        if i == 0 or gap > worst[0]:
            worst = (
                gap,
                f"instance {i}: K={k}, psi={psi.name}, beta={cfg.beta}, "
                f"alpha={cfg.alpha}, |lhs-rhs|={gap:.3e}",
            )
    return worst[0], instances, worst[1]


def test_batched_certifier_equals_one_instance_at_a_time():
    cases = [
        (seed, instances, k_values)
        for seed in (0, 1, 201)
        for instances, k_values in ((40, (1,)), (420, (2, 3, 4, 5, 6, 7, 8)), (30, (9, 10)))
    ]
    cases.append((201, 1000, (2, 3, 4, 5, 6, 7, 8)))
    for seed, instances, k_values in cases:
        report = certify_risk_equivalence(instances, seed, k_values)
        expected = reference_certify_risk_equivalence(instances, seed, k_values)
        assert (report.max_discrepancy, report.instances, report.worst_case) == expected
    grid = dict(betas=(0.25, 3.0, 1.0), alphas=(0.1, 1.0, 2.5, 4.0))
    for seed in (0, 201):
        report = certify_risk_equivalence(300, seed, (2, 5, 7), **grid)
        expected = reference_certify_risk_equivalence(300, seed, (2, 5, 7), **grid)
        assert (report.max_discrepancy, report.instances, report.worst_case) == expected


def spy_on_batches(monkeypatch):
    """Record the rows of every loss and set-probability call of the certifier."""
    real_loss = lwpll.consistency.lw_loss_batch
    real_probs = GenerationModel.subset_probabilities
    calls = {"loss": [], "probs": []}

    def loss(scores, candidates, weights, cfg):
        calls["loss"].append(np.shape(scores))
        return real_loss(scores, candidates, weights, cfg)

    def probs(self, y, subsets):
        out = real_probs(self, y, subsets)
        calls["probs"].append(out.shape)
        return out

    monkeypatch.setattr(lwpll.consistency, "lw_loss_batch", loss)
    monkeypatch.setattr(GenerationModel, "subset_probabilities", probs)
    return calls


def expected_batches(instances, k_values, psis=3):
    """Batch count of a certifier run: instance i is in (K, psi) group
    i mod lcm(len(k_values), psis), and each group is checked in runs of at
    most MAX_BATCH_ROWS // (K 2^(K-1)) instances, and at least one."""
    cap = lwpll.consistency.MAX_BATCH_ROWS
    groups = math.lcm(len(k_values), psis)
    total = 0
    for j in range(min(groups, instances)):
        k = k_values[j % len(k_values)]
        per_batch = max(1, cap // (k * 2 ** (k - 1)))
        total += -(-len(range(j, instances, groups)) // per_batch)
    return total


def test_certifier_batches_share_one_loss_per_nonempty_set(monkeypatch):
    calls = spy_on_batches(monkeypatch)
    certify_risk_equivalence(1000, 201)
    # 21 (K, psi) groups of 47 or 48 instances: one batch each for K <= 5;
    # the row cap holds 42, 18 and 8 instances of K = 6, 7 and 8, so those
    # groups take 2, 3 and 6 batches; 2^K - 1 loss rows per instance
    batches = expected_batches(1000, (2, 3, 4, 5, 6, 7, 8))
    assert len(calls["loss"]) == len(calls["probs"]) == batches == 12 + 3 * (2 + 3 + 6)
    per_instance = [rows // (2**k - 1) for rows, k in calls["loss"]]
    assert [rows % (2**k - 1) for rows, k in calls["loss"]] == [0] * batches
    assert sum(per_instance) == 1000
    for (n, rows), (loss_rows, k) in zip(calls["probs"], calls["loss"]):
        assert loss_rows == n * (2**k - 1)
        assert rows == k * 2 ** (k - 1)


def test_certifier_batches_respect_the_row_cap(monkeypatch):
    cap = lwpll.consistency.MAX_BATCH_ROWS
    calls = spy_on_batches(monkeypatch)
    # three groups of 34, 33 and 33 instances at K = 8 (1024 rows each)
    certify_risk_equivalence(100, 3, (8,), betas=(1.0,), alphas=(1.0,))
    sizes = [n for n, _ in calls["probs"]]
    assert sizes == [8] * 12 + [1, 1, 2]
    assert all(n * rows <= cap for n, rows in calls["probs"])
    assert sum(sizes) == 100
    # from K = 10 on two instances exceed the cap: one instance per batch
    assert 2 * 10 * 2**9 > cap
    calls["loss"].clear()
    calls["probs"].clear()
    certify_risk_equivalence(6, 0, (12,))
    assert calls["loss"] == [(4095, 12)] * 6
    assert calls["probs"] == [(1, 12 * 2**11)] * 6


def test_mutant_receives_batched_arguments_and_fails():
    seen = []

    def warped(y, g, w, q_row, cfg):
        seen.append((np.shape(y), np.shape(g), np.shape(w), np.shape(q_row),
                     np.shape(cfg.beta), np.shape(cfg.alpha)))
        bent = LWConfig(beta=cfg.beta + 0.1, alpha=cfg.alpha, psi=cfg.psi)
        return derived_supervised_loss(y, g, w, q_row, bent)

    report = certify_risk_equivalence(420, 2, derived_loss=warped)
    assert not report.within(1e-10)
    # 21 (K, psi) groups of 20 instances: one batch each for K <= 6; the row
    # cap holds 18 and 8 instances of K = 7 and 8, so those take 2 and 3
    assert len(seen) == expected_batches(420, (2, 3, 4, 5, 6, 7, 8)) == 15 + 3 * (2 + 3)
    for (rows,), g, w, q, beta, alpha in seen:
        assert g == w == q == (rows, q[1])
        assert beta == alpha == (rows,)
        assert rows >= 2


def test_stacked_risks_equal_each_instance():
    rng = make_rng(239)
    for k in range(1, 9):
        for reject in (False, True) if k > 1 else (False,):
            n = 4
            q = rng.random((n, k, k)) * 0.98
            q[rng.random((n, k, k)) < 0.15] = 0.0
            q[:, np.arange(k), np.arange(k)] = 1.0
            stack = GenerationModel(q, reject_full=reject)
            p = rng.dirichlet(np.ones(k), size=n)
            if k > 2:
                p[0, :2] = 0.0
                p[0] /= p[0].sum()
            g = rng.normal(0.0, 2.0, size=(n, k))
            w = rng.random((n, k))
            cfg = LWConfig(beta=1.7, alpha=0.6, psi=(SIGMOID, RAMP, ZERO_ONE_STEP)[k % 3])
            models = [GenerationModel(q[i], reject_full=reject) for i in range(n)]
            lhs = partial_risk_bruteforce(g, p, stack, w, cfg)
            assert lhs.tolist() == [
                reference_partial_risk(g[i], p[i], models[i], w[i], cfg) for i in range(n)
            ]
            if not reject:
                rhs = supervised_risk_direct(g, p, stack, w, cfg)
                assert rhs.tolist() == [
                    reference_supervised_risk(g[i], p[i], models[i], w[i], cfg)
                    for i in range(n)
                ]
    with pytest.raises(ValueError, match="shape"):
        partial_risk_bruteforce(
            np.zeros((2, 3)), np.full((2, 3), 1 / 3), stack, np.ones((2, 3)), cfg
        )


def test_stacked_risks_take_one_beta_and_alpha_per_instance():
    rng = make_rng(263)
    for k in range(1, 9):
        for reject in (False, True) if k > 1 else (False,):
            n = 5
            q = rng.random((n, k, k)) * 0.98
            q[:, np.arange(k), np.arange(k)] = 1.0
            stack = GenerationModel(q, reject_full=reject)
            p = rng.dirichlet(np.ones(k), size=n)
            if k > 2:
                p[1, :2] = 0.0
                p[1] /= p[1].sum()
            g = rng.normal(0.0, 2.0, size=(n, k))
            w = rng.random((n, k))
            beta = np.where(rng.random(n) < 0.3, 0.0, rng.random(n) * 8.0)
            alpha = rng.random(n) * 2.0
            psi = (SIGMOID, RAMP, ZERO_ONE_STEP)[k % 3]
            cfg = LWConfig(beta=beta, alpha=alpha, psi=psi)
            each = [
                (GenerationModel(q[i], reject_full=reject),
                 LWConfig(beta=float(beta[i]), alpha=float(alpha[i]), psi=psi))
                for i in range(n)
            ]
            assert partial_risk_bruteforce(g, p, stack, w, cfg).tolist() == [
                partial_risk_bruteforce(g[i], p[i], model, w[i], one)
                for i, (model, one) in enumerate(each)
            ]
            if not reject:
                assert supervised_risk_direct(g, p, stack, w, cfg).tolist() == [
                    supervised_risk_direct(g[i], p[i], model, w[i], one)
                    for i, (model, one) in enumerate(each)
                ]
    for wrong in (np.ones(n - 1), np.ones(n + 1)):
        with pytest.raises(ValueError):
            partial_risk_bruteforce(g, p, stack, w, LWConfig(beta=wrong, psi=psi))
        with pytest.raises(ValueError):
            supervised_risk_direct(g, p, GenerationModel(q), w, LWConfig(beta=wrong, psi=psi))


VERIFY_SEED_0 = """\
risk_equivalence: max_discrepancy=1.776e-15 tolerance=1e-10 instances=1000 pass
  worst: instance 214: K=6, psi=ramp, beta=7.3, alpha=0.5, |lhs-rhs|=1.776e-15
subset_normalization: max_discrepancy=2.220e-16 tolerance=1e-12 instances=100 pass
  worst: model 5: K=7, y=4, sum=1.0000000000000002
uniform_recovery: max_discrepancy=0.000e+00 tolerance=1e-12 instances=1755 pass
  worst: K=3, y=0, target=0.3333333333333333
coefficient_ordering: max_discrepancy=0.000e+00 tolerance=1 instances=10000 pass
  worst: all instances ordered correctly
{"instances": 12855, "max_discrepancy": 1.7763568394002505e-15, "pass": true}
"""


VERIFY_SEED_7 = """\
risk_equivalence: max_discrepancy=1.776e-15 tolerance=1e-10 instances=1000 pass
  worst: instance 94: K=5, psi=ramp, beta=7.3, alpha=0.5, |lhs-rhs|=1.776e-15
subset_normalization: max_discrepancy=2.220e-16 tolerance=1e-12 instances=100 pass
  worst: model 13: K=6, y=5, sum=0.9999999999999998
uniform_recovery: max_discrepancy=0.000e+00 tolerance=1e-12 instances=1755 pass
  worst: K=3, y=0, target=0.3333333333333333
coefficient_ordering: max_discrepancy=0.000e+00 tolerance=1 instances=10000 pass
  worst: all instances ordered correctly
{"instances": 12855, "max_discrepancy": 1.7763568394002505e-15, "pass": true}
"""


VERIFY_SEED_201 = """\
risk_equivalence: max_discrepancy=3.553e-15 tolerance=1e-10 instances=1000 pass
  worst: instance 664: K=8, psi=ramp, beta=7.3, alpha=0.5, |lhs-rhs|=3.553e-15
subset_normalization: max_discrepancy=2.220e-16 tolerance=1e-12 instances=100 pass
  worst: model 14: K=7, y=1, sum=1.0000000000000002
uniform_recovery: max_discrepancy=0.000e+00 tolerance=1e-12 instances=1755 pass
  worst: K=3, y=0, target=0.3333333333333333
coefficient_ordering: max_discrepancy=0.000e+00 tolerance=1 instances=10000 pass
  worst: all instances ordered correctly
{"instances": 12855, "max_discrepancy": 3.552713678800501e-15, "pass": true}
"""


def test_verify_full_output_is_pinned(capsys):
    from lwpll.cli import main

    for seed, expected in ((0, VERIFY_SEED_0), (7, VERIFY_SEED_7), (201, VERIFY_SEED_201)):
        assert main(["verify", "--trials", "1000", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == expected


# a NaN discrepancy is the worst case, never a pass


def test_risk_equivalence_reports_a_nan_gap():
    def nan_loss(*args):
        return derived_supervised_loss(*args) * np.nan

    report = certify_risk_equivalence(20, 0, derived_loss=nan_loss)
    assert math.isnan(report.max_discrepancy)
    assert not report.within(1e-10)
    assert report.worst_case.startswith("instance 0: K=2,")

    # NaN only for K = 5: the first such instance in draw order is 3, even
    # though its batch is checked after batches holding later instances
    def nan_at_k5(y, g, w, q_row, cfg):
        out = derived_supervised_loss(y, g, w, q_row, cfg)
        return out * np.nan if g.shape[1] == 5 else out

    report = certify_risk_equivalence(1000, 201, derived_loss=nan_at_k5)
    assert math.isnan(report.max_discrepancy)
    assert report.worst_case.startswith("instance 3: K=5,")
    assert report.worst_case.endswith("|lhs-rhs|=nan")


def nan_probabilities_at(monkeypatch, k):
    """Make subset_probabilities return NaN for every K-class model."""
    real = GenerationModel.subset_probabilities

    def probs(self, y, subsets):
        out = real(self, y, subsets)
        return out * np.nan if self.num_classes == k else out

    monkeypatch.setattr(GenerationModel, "subset_probabilities", probs)


def test_subset_normalization_reports_a_nan_gap(monkeypatch):
    nan_probabilities_at(monkeypatch, 4)
    report = certify_subset_normalization(models=20, seed=2, k_values=(2, 3, 4, 5))
    assert math.isnan(report.max_discrepancy)
    assert not report.within(1e-12)
    assert report.worst_case.startswith("model 2: K=4,")


def test_uniform_recovery_reports_a_nan_gap(monkeypatch):
    nan_probabilities_at(monkeypatch, 5)
    report = certify_uniform_recovery(k_values=(3, 4, 5, 6))
    assert math.isnan(report.max_discrepancy)
    assert not report.within(1e-12)
    assert report.worst_case.startswith("K=5, y=0,")


# all gaps exactly 0: the worst case is the first instance checked


def test_zero_gaps_name_the_first_instance_checked():
    # K = 1 has one candidate set, so both risks agree exactly; instance 0's
    # batch (0, 3, ..., 99) is checked after the batches holding 1 and 2
    report = certify_risk_equivalence(100, 0, (1,))
    assert report.max_discrepancy == 0.0
    assert report.worst_case.startswith("instance 0: K=1, psi=sigmoid,")
    report = certify_subset_normalization(models=20, seed=0, k_values=(2,))
    assert report.max_discrepancy == 0.0
    assert report.worst_case.startswith("model 0: K=2,")
    report = certify_uniform_recovery(k_values=(3, 4))
    assert report.max_discrepancy == 0.0
    assert report.worst_case == "K=3, y=0, target=0.3333333333333333"


def test_placeholder_only_when_nothing_was_checked():
    assert certify_risk_equivalence(0, 0).worst_case == "no instances checked"
    assert certify_subset_normalization(models=0).worst_case == "no models checked"
    assert certify_uniform_recovery(k_values=()).worst_case == "no subsets checked"


def test_verify_fails_and_prints_a_nan_discrepancy(monkeypatch, capsys):
    from lwpll.cli import main

    def nan_loss(*args):
        return derived_supervised_loss(*args) * np.nan

    monkeypatch.setattr(lwpll.consistency, "derived_supervised_loss", nan_loss)
    assert main(["verify", "--trials", "20", "--seed", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("risk_equivalence: max_discrepancy=nan ")
    assert out[0].endswith(" FAIL")
    assert out[-1] == '{"instances": 11875, "max_discrepancy": NaN, "pass": false}'


# coefficient-ordering draws, one K group at a time


def assert_draws_equal_reference(monkeypatch, instances, seed, k_values):
    """The certifier's report and every drawn instance equal the reference's."""
    batches = []

    def spy(p, w, q, beta):
        batches.append((p.copy(), w.copy(), q.copy(), np.array(beta)))
        return theorem2_coefficient_check(p, w, q, beta)

    monkeypatch.setattr(lwpll.consistency, "theorem2_coefficient_check", spy)
    report = certify_coefficient_ordering(instances, seed, k_values)
    drawn = []

    def check(*args):
        drawn.append(args)
        return reference_coefficient_check(*args)

    expected = reference_coefficient_ordering(instances, seed, k_values, check)
    assert (report.max_discrepancy, report.instances, report.worst_case) == expected
    period = len(k_values)
    assert [b[0].shape[0] for b in batches] == [
        len(range(j, instances, period)) for j in range(min(instances, period))
    ]
    assert len(drawn) == max(instances, 0)
    for i, (p, w, q, beta) in enumerate(drawn):
        group = batches[i % period]
        assert np.array_equal(group[0][i // period], p)
        assert group[1][i // period].tobytes() == w.tobytes()
        assert group[2][i // period].tobytes() == q.tobytes()
        assert group[3][i // period] == beta


def test_raw_draws_with_single_class_groups(monkeypatch):
    # a single-class group's labels are all 0
    assert_draws_equal_reference(monkeypatch, 500, 13, (1, 3, 1, 2, 1))
    assert_draws_equal_reference(monkeypatch, 40, 14, (1,))
    assert_draws_equal_reference(monkeypatch, 123, 15, (2, 1, 5))


def test_raw_draws_with_fewer_instances_than_groups(monkeypatch):
    for instances in (0, 1, 5):
        assert_draws_equal_reference(monkeypatch, instances, 16, tuple(range(2, 11)))
