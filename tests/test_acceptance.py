"""Acceptance gate: ten pinned criteria, one test (and one verdict line) each.

Run with `pytest -v` so every criterion reports its own pass/fail line; add
`-s` to also see the measured margins.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from lwpll import (
    CROSS_ENTROPY,
    RAMP,
    SIGMOID,
    Dataset,
    LWConfig,
    TrainerConfig,
    accuracy,
    backward,
    certify_coefficient_ordering,
    certify_risk_equivalence,
    certify_subset_normalization,
    certify_uniform_recovery,
    derived_supervised_loss,
    forward,
    init_network,
    load_idx,
    lw_loss_batch,
    lw_loss_gradient_batch,
    make_gaussian_task,
    make_rng,
    make_uniform,
    take,
    train,
    update_weights,
    with_candidates,
)
from lwpll.cli import main

MNIST_DIR = Path(__file__).resolve().parent.parent / "data" / "mnist"

SWEEP_CONFIG = """
gaussian.classes = 3
gaussian.dim = 2
gaussian.n = 3000
gaussian.test_n = 1000
gaussian.separation = 4.0
gaussian.sigma = 1.0
generation.q = 0.3
loss.psi = sigmoid
model.arch = linear
trainer.learning_rate = 0.05
trainer.epochs = 30
seeds = 0,1,2,3,4
"""


def verdict(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_sweep(tmp_path, extra_args):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "out"
    cfg.write_text(SWEEP_CONFIG + f"output.dir = {out}\n")
    started = time.perf_counter()
    rc = main(["sweep", "--config", str(cfg), "--quiet"] + extra_args)
    elapsed = time.perf_counter() - started
    assert rc == 0
    manifest = json.loads(next(out.iterdir()).joinpath("manifest.json").read_text())
    accs = {}
    for variant in manifest["variants"]:
        per_seed = {run["seed"]: run["test_accuracy"] for run in variant["runs"]}
        accs[(variant["alpha"], variant["beta"])] = per_seed
    return accs, elapsed


@pytest.fixture(scope="module")
def beta_sweep(tmp_path_factory):
    return run_sweep(tmp_path_factory.mktemp("beta_sweep"), ["--beta", "0,1,2"])


@pytest.fixture(scope="module")
def ablation_sweep(tmp_path_factory):
    return run_sweep(tmp_path_factory.mktemp("ablation_sweep"), ["--ablation"])


def test_criterion_01_risk_equivalence_certification():
    started = time.perf_counter()
    report = certify_risk_equivalence(instances=1000, seed=0)
    elapsed = time.perf_counter() - started

    def warped(y, g, w, q_row, cfg):
        bent = LWConfig(beta=cfg.beta + 0.1, alpha=cfg.alpha, psi=cfg.psi)
        return derived_supervised_loss(y, g, w, q_row, bent)

    mutated = certify_risk_equivalence(instances=210, seed=0, derived_loss=warped)
    ok = report.within(1e-10) and elapsed < 10.0 and not mutated.within(1e-10)
    verdict(
        1,
        ok,
        f"max discrepancy {report.max_discrepancy:.3e} over {report.instances} "
        f"instances in {elapsed:.2f}s; mutated run discrepancy "
        f"{mutated.max_discrepancy:.3e}",
    )


def test_criterion_02_subset_probability_normalization():
    started = time.perf_counter()
    report = certify_subset_normalization(models=100)
    elapsed = time.perf_counter() - started
    ok = report.within(1e-12) and elapsed < 1.0
    verdict(
        2,
        ok,
        f"max |sum-1| = {report.max_discrepancy:.3e} over {report.instances} "
        f"label rows in {elapsed:.2f}s",
    )


def test_criterion_03_uniform_rejection_recovery():
    report = certify_uniform_recovery(k_values=(3, 4, 5, 6, 7, 8))
    ok = report.within(1e-12)
    verdict(
        3,
        ok,
        f"max deviation from 1/(2^(K-1)-1) = {report.max_discrepancy:.3e} "
        f"over {report.instances} subsets",
    )


def test_criterion_04_end_to_end_gradient_check():
    rng = make_rng(404)
    step = 1e-5
    worst = 0.0
    psis = (SIGMOID, RAMP, CROSS_ENTROPY)
    for trial in range(1000):
        psi = psis[trial % 3]
        cfg = LWConfig(
            beta=float(rng.random() * 3.0),
            alpha=float(0.25 + rng.random() * 1.5),
            psi=psi,
        )
        while True:
            params = init_network([4, 6, 3], rng)
            x = rng.normal(size=(1, 4))
            pre = params.layers[0].W @ x[0] + params.layers[0].b
            scores = forward(params, x[0])
            if np.abs(pre).min() <= 1e-3:
                continue  # keep clear of the relu kink under the fd step
            if psi is RAMP and np.abs(np.abs(scores) - 1.0).min() <= 1e-3:
                continue
            break
        mask = rng.random(3) < 0.5
        if not mask.any():
            mask[int(rng.integers(3))] = True
        w = rng.random(3)
        _, up = lw_loss_gradient_batch(scores, mask, w, cfg)
        grads = backward(params, x, up[None, :])
        analytic = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
        fd = np.empty_like(analytic)
        pos = 0
        for layer in params.layers:
            for arr in (layer.W, layer.b):
                flat = arr.ravel()
                for j in range(flat.size):
                    keep = flat[j]
                    flat[j] = keep + step
                    hi = lw_loss_batch(forward(params, x[0]), mask, w, cfg)
                    flat[j] = keep - step
                    lo = lw_loss_batch(forward(params, x[0]), mask, w, cfg)
                    flat[j] = keep
                    fd[pos] = (hi - lo) / (2 * step)
                    pos += 1
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1.0)
        worst = max(worst, rel)
    ok = worst < 1e-5
    verdict(4, ok, f"worst relative gradient error {worst:.3e} over 1000 instances")


def test_criterion_05_weight_update_invariants():
    full = make_gaussian_task(3, 2, 500, class_separation=4.0, noise_sigma=1.0, seed=5)
    masks = make_uniform(3, 0.3).sample_sets(full.true_labels, make_rng(5, stream=9))
    ds = with_candidates(full, masks)
    worst = 0.0
    epochs_seen = []

    def snoop(row, params, weights, masks):
        nonlocal worst
        inside = np.where(masks, weights, 0.0).sum(axis=1)
        outside = np.where(masks, 0.0, weights).sum(axis=1)
        complete = masks.all(axis=1)
        worst = max(worst, np.abs(inside - 1.0).max())
        if (~complete).any():
            worst = max(worst, np.abs(outside[~complete] - 1.0).max())
        if complete.any() and outside[complete].any():
            worst = max(worst, 1.0)
        epochs_seen.append(row.epoch)

    train(
        ds,
        LWConfig(beta=1.0, psi=SIGMOID),
        TrainerConfig(learning_rate=0.05, epochs=5, seed=5),
        epoch_callback=snoop,
    )
    rng = make_rng(505)
    shift_gap = 0.0
    g = rng.normal(size=masks.shape)
    base = update_weights(masks, g)
    for c in (1.0, -3.7, 25.0):
        shifted = update_weights(masks, g + c)
        shift_gap = max(shift_gap, np.abs(shifted - base).max())
    ok = epochs_seen == [1, 2, 3, 4, 5] and worst <= 1e-12 and shift_gap <= 1e-12
    verdict(
        5,
        ok,
        f"worst partition-sum deviation {worst:.3e} across 5 epochs; "
        f"shift-invariance gap {shift_gap:.3e}",
    )


def test_criterion_06_coefficient_ordering():
    started = time.perf_counter()
    report = certify_coefficient_ordering(instances=10_000)
    elapsed = time.perf_counter() - started
    ok = report.max_discrepancy == 0.0 and elapsed < 1.0
    verdict(
        6,
        ok,
        f"{report.instances} instances, {int(report.max_discrepancy)} ordering "
        f"failures in {elapsed:.2f}s",
    )


def test_criterion_07_beta_ordering(beta_sweep):
    accs, elapsed = beta_sweep
    beta0 = accs[(1.0, 0.0)]
    beta1 = accs[(1.0, 1.0)]
    beta2 = accs[(1.0, 2.0)]
    mean0 = np.mean(list(beta0.values()))
    mean1 = np.mean(list(beta1.values()))
    mean2 = np.mean(list(beta2.values()))
    wins1 = sum(beta1[s] >= beta0[s] for s in beta0)
    wins2 = sum(beta2[s] >= beta0[s] for s in beta0)
    ok = (
        mean1 >= mean0
        and mean2 >= mean0
        and wins1 >= 4
        and wins2 >= 4
        and elapsed < 120.0
    )
    verdict(
        7,
        ok,
        f"mean acc beta0={mean0:.4f} beta1={mean1:.4f} beta2={mean2:.4f}; "
        f"seedwise wins {wins1}/5 and {wins2}/5; 15 runs in {elapsed:.1f}s",
    )


def test_criterion_08_ablation_ordering(ablation_sweep):
    accs, elapsed = ablation_sweep
    partial_only = np.mean(list(accs[(1.0, 0.0)].values()))
    negative_only = np.mean(list(accs[(0.0, 1.0)].values()))
    both = np.mean(list(accs[(1.0, 1.0)].values()))
    ok = both >= max(partial_only, negative_only) and elapsed < 120.0
    verdict(
        8,
        ok,
        f"mean acc both={both:.4f} vs partial-only={partial_only:.4f}, "
        f"negative-only={negative_only:.4f}; 15 runs in {elapsed:.1f}s",
    )


def test_criterion_09_mnist_smoke():
    needed = {
        "train_images": MNIST_DIR / "train-images-idx3-ubyte",
        "train_labels": MNIST_DIR / "train-labels-idx1-ubyte",
        "test_images": MNIST_DIR / "t10k-images-idx3-ubyte",
        "test_labels": MNIST_DIR / "t10k-labels-idx1-ubyte",
    }
    if not all(p.exists() for p in needed.values()):
        pytest.skip(
            f"optional criterion: MNIST IDX files not present under {MNIST_DIR}"
        )
    started = time.perf_counter()
    trainset = load_idx(str(needed["train_images"]), str(needed["train_labels"]))
    testset = load_idx(str(needed["test_images"]), str(needed["test_labels"]))
    subset = take(trainset, np.arange(10_000))
    masks = make_uniform(10, 0.1).sample_sets(subset.true_labels, make_rng(0, stream=9))
    result = train(
        with_candidates(subset, masks),
        LWConfig(beta=1.0, psi=CROSS_ENTROPY),
        TrainerConfig(learning_rate=0.05, epochs=30, seed=0),
        arch="mlp",
        hidden=64,
    )
    acc = accuracy(result.params, testset)
    elapsed = time.perf_counter() - started
    ok = acc >= 0.90 and elapsed <= 600.0
    verdict(9, ok, f"test accuracy {acc:.4f} in {elapsed:.0f}s")


def test_criterion_10_byte_identical_metrics(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        SWEEP_CONFIG.replace("gaussian.n = 3000", "gaussian.n = 400")
        .replace("gaussian.test_n = 1000", "gaussian.test_n = 100")
        .replace("trainer.epochs = 30", "trainer.epochs = 3")
        .replace("seeds = 0,1,2,3,4", "seeds = 0,1")
        + f"output.dir = {tmp_path / 'a'}\n"
    )
    assert main(["train", "--config", str(cfg), "--quiet"]) == 0
    first = {
        p.name: p.read_bytes()
        for p in next((tmp_path / "a").iterdir()).glob("metrics_*.csv")
    }
    # repeat into the same directory, then into a fresh one
    assert main(["train", "--config", str(cfg), "--quiet"]) == 0
    assert main(["train", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "b")]) == 0
    second = {
        p.name: p.read_bytes()
        for p in next((tmp_path / "a").iterdir()).glob("metrics_*.csv")
    }
    third = {
        p.name: p.read_bytes()
        for p in next((tmp_path / "b").iterdir()).glob("metrics_*.csv")
    }
    ok = first and first == second == third
    verdict(
        10,
        ok,
        f"{len(first)} metrics files byte-identical across three invocations",
    )
