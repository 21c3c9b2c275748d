"""Score networks, the trainer, and checkpoint serialization."""

import copy
import dataclasses
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lwpll.losses
import lwpll.model
from lwpll import (
    CROSS_ENTROPY,
    RAMP,
    SIGMOID,
    Dataset,
    Layer,
    LWConfig,
    NetworkParams,
    TrainerConfig,
    TrainingDiverged,
    accuracy,
    backward,
    forward,
    init_network,
    learning_rate_at,
    load_checkpoint,
    lw_loss_batch,
    lw_loss_gradient_batch,
    make_gaussian_task,
    make_rng,
    make_uniform,
    network_widths,
    partition_sums,
    predict,
    save_checkpoint,
    save_partial_csv,
    take,
    train,
    with_candidates,
)


def toy_dataset(n=60, k=3, seed=0, q=0.3):
    full = make_gaussian_task(k, 2, n, class_separation=5.0, noise_sigma=0.8, seed=seed)
    masks = make_uniform(k, q).sample_sets(full.true_labels, make_rng(seed, stream=9))
    return with_candidates(full, masks)


# forward / backward


def test_forward_zero_params():
    params = NetworkParams([Layer(W=np.zeros((3, 4)), b=np.zeros(3), activation="identity")])
    assert np.array_equal(forward(params, np.ones(4)), np.zeros(3))


def test_forward_identity_layer():
    params = NetworkParams([Layer(W=np.eye(3), b=np.zeros(3), activation="identity")])
    x = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(forward(params, x), x)


def test_forward_two_layer_hand_product():
    w1 = np.array([[1.0, 2.0], [0.0, -1.0]])
    b1 = np.array([0.5, 0.0])
    w2 = np.array([[1.0, 1.0], [2.0, 0.0]])
    b2 = np.array([0.0, -1.0])
    params = NetworkParams(
        [Layer(W=w1, b=b1, activation="relu"), Layer(W=w2, b=b2, activation="identity")]
    )
    x = np.array([1.0, 1.0])
    h = np.maximum(w1 @ x + b1, 0.0)
    expected = w2 @ h + b2
    assert np.array_equal(forward(params, x), expected)
    # hand values: h = (3.5, 0), out = (3.5, 6.0)
    assert np.array_equal(forward(params, x), [3.5, 6.0])


def test_forward_rejects_width_mismatch():
    params = NetworkParams([Layer(W=np.zeros((2, 3)), b=np.zeros(2), activation="identity")])
    with pytest.raises(ValueError):
        forward(params, np.zeros(4))


def test_backward_zero_upstream():
    rng = make_rng(83)
    params = init_network([4, 5, 3], rng)
    grads = backward(params, rng.normal(size=(6, 4)), np.zeros((6, 3)))
    for gw, gb in grads:
        assert not gw.any()
        assert not gb.any()


def test_backward_linear_outer_product():
    params = NetworkParams([Layer(W=np.zeros((2, 3)), b=np.zeros(2), activation="identity")])
    x = np.array([[1.0, -2.0, 0.5]])
    up = np.array([[0.3, -0.7]])
    (gw, gb), = backward(params, x, up)
    assert np.array_equal(gw, np.outer(up[0], x[0]))
    assert np.array_equal(gb, up[0])


def test_backward_matches_finite_differences():
    # end-to-end: d(loss)/d(theta) through a 5-5-3 network
    rng = make_rng(89)
    cfg = LWConfig(beta=1.3, alpha=0.9, psi=SIGMOID)
    step = 1e-5
    for _ in range(20):
        params = init_network([5, 5, 3], rng)
        x = rng.normal(size=(1, 5))
        mask = np.array([[True, False, True]])
        w = rng.random((1, 3))

        def loss_at(p):
            return lw_loss_batch(forward(p, x[0]), mask[0], w[0], cfg)

        _, up = lw_loss_gradient_batch(forward(params, x[0]), mask[0], w[0], cfg)
        grads = backward(params, x, up[None, :])
        worst = 0.0
        for li, (gw, gb) in enumerate(grads):
            for arr, ga in ((params.layers[li].W, gw), (params.layers[li].b, gb)):
                flat = arr.ravel()
                fd = np.empty(flat.size)
                for j in range(flat.size):
                    keep = flat[j]
                    flat[j] = keep + step
                    hi = loss_at(params)
                    flat[j] = keep - step
                    lo = loss_at(params)
                    flat[j] = keep
                    fd[j] = (hi - lo) / (2 * step)
                denom = max(np.linalg.norm(fd), 1.0)
                worst = max(worst, np.linalg.norm(ga.ravel() - fd) / denom)
        assert worst < 1e-5


def test_backward_rejects_upstream_that_does_not_match_the_scores():
    rng = make_rng(97)
    params = init_network([4, 5, 3], rng)
    # one feature vector against two rows of upstream
    with pytest.raises(ValueError, match="upstream shape"):
        backward(params, rng.normal(size=4), np.ones((2, 3)))
    with pytest.raises(ValueError, match="upstream shape"):
        backward(params, rng.normal(size=(2, 4)), np.ones((3, 3)))
    linear = init_network([4, 2], rng)
    with pytest.raises(ValueError, match="upstream shape"):
        backward(linear, rng.normal(size=(1, 4)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="does not match input width"):
        backward(linear, rng.normal(size=(1, 3)), np.ones((1, 2)))
    # one vector with one upstream vector is the one-row batch
    x, up = rng.normal(size=4), rng.normal(size=3)
    for (gw, gb), (bw, bb) in zip(backward(params, x, up), backward(params, x[None], up[None])):
        assert gw.tobytes() == bw.tobytes() and gb.tobytes() == bb.tobytes()


# prediction


def test_predict_argmax_and_ties():
    params = NetworkParams([Layer(W=np.eye(3), b=np.zeros(3), activation="identity")])
    assert predict(params, np.array([0.1, 0.9, 0.3]))[0] == 1
    assert predict(params, np.array([0.5, 0.5, 0.1]))[0] == 0


def test_predict_and_accuracy_reject_rows_whose_scores_are_not_finite():
    # Row 2 overflows to inf, row 3 is NaN; argmax would count both.
    params = NetworkParams([Layer(W=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]),
                                  b=np.zeros(3), activation="identity")])
    features = np.array([[1.0, 2.0], [1e308, -1e308], [np.nan, 0.0]])
    for rows, first in ((features, 2), (features[[0, 2]], 2), (features[2], 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"scores for row {first} \(counting from 1\) "
                                                 "are not finite"):
                predict(params, rows)
    ds = Dataset(features=features[:2], num_classes=3, true_labels=np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match="row 2"):
        accuracy(params, ds)


def test_accuracy_equals_one_minus_zero_one_risk():
    ds = toy_dataset(n=90, seed=4)
    rng = make_rng(97)
    params = init_network([2, 3], rng)
    preds = predict(params, ds.features)
    manual = float((preds == ds.true_labels).mean())
    assert accuracy(params, ds) == manual


# configuration and schedule


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(learning_rate=0.0, epochs=1)
    with pytest.raises(ValueError):
        TrainerConfig(learning_rate=0.1, epochs=1, momentum=1.0)
    with pytest.raises(ValueError):
        TrainerConfig(learning_rate=0.1, epochs=-1)
    with pytest.raises(ValueError):
        TrainerConfig(learning_rate=0.1, epochs=1, weight_decay=-0.5)
    with pytest.raises(ValueError, match="weight_decay"):
        TrainerConfig(learning_rate=0.1, epochs=1, weight_decay=float("nan"))


@pytest.mark.parametrize("field, value", [
    ("batch_size", 2.5), ("epochs", 1.5), ("lr_halving_period", 2.0), ("seed", 0.5),
    ("learning_rate", float("inf")), ("weight_decay", float("inf")),
])
def test_trainer_config_rejects_what_train_cannot_use(field, value):
    with pytest.raises(ValueError, match=f"^{field} must "):
        TrainerConfig(**{"learning_rate": 0.1, "epochs": 1, field: value})


def test_trainer_config_takes_numpy_integer_counts():
    tcfg = TrainerConfig(learning_rate=0.1, epochs=np.int64(1), batch_size=np.int32(4),
                         lr_halving_period=np.uint8(2), seed=np.int64(3))
    assert tcfg.batch_size == 4


def test_learning_rate_halving():
    tcfg = TrainerConfig(learning_rate=0.4, epochs=1, lr_halving_period=50)
    assert learning_rate_at(tcfg, 1) == 0.4
    assert learning_rate_at(tcfg, 50) == 0.4
    assert learning_rate_at(tcfg, 51) == 0.2
    assert learning_rate_at(tcfg, 101) == 0.1
    short = TrainerConfig(learning_rate=1.0, epochs=1, lr_halving_period=2)
    assert [learning_rate_at(short, e) for e in (1, 2, 3, 4, 5)] == [1.0, 1.0, 0.5, 0.5, 0.25]


def test_network_widths():
    assert network_widths("linear", 7, 4) == [7, 4]
    assert network_widths("mlp", 7, 4, hidden=16) == [7, 16, 16, 16, 16, 4]
    with pytest.raises(ValueError):
        network_widths("transformer", 7, 4)


# training behaviour


def test_train_zero_epochs_returns_initial_params():
    ds = toy_dataset()
    result = train(ds, LWConfig(beta=1.0, psi=SIGMOID), TrainerConfig(learning_rate=0.1, epochs=0))
    assert result.metrics == []
    fresh = init_network(network_widths("linear", 2, 3), make_rng(0, stream=1))
    for got, exp in zip(result.params.layers, fresh.layers):
        assert np.array_equal(got.W, exp.W)
        assert np.array_equal(got.b, exp.b)


def test_train_deterministic_replay():
    ds = toy_dataset(n=120, seed=2)
    lw = LWConfig(beta=1.0, psi=SIGMOID)
    tcfg = TrainerConfig(learning_rate=0.05, epochs=4, batch_size=32, seed=5)
    a = train(ds, lw, tcfg)
    b = train(ds, lw, tcfg)
    assert a.metrics == b.metrics
    for la, lb in zip(a.params.layers, b.params.layers):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.b, lb.b)
    assert np.array_equal(a.first_batch_indices, b.first_batch_indices)
    c = train(ds, lw, TrainerConfig(learning_rate=0.05, epochs=4, batch_size=32, seed=6))
    assert not np.array_equal(a.first_batch_indices, c.first_batch_indices)


def test_train_small_lr_moves_params_proportionally():
    ds = toy_dataset(n=64, seed=3)
    lw = LWConfig(beta=1.0, psi=SIGMOID)
    lr = 1e-6
    tcfg = TrainerConfig(learning_rate=lr, epochs=1, batch_size=64, momentum=0.0, seed=1,
                         val_fraction=0.0)
    result = train(ds, lw, tcfg)
    fresh = init_network(network_widths("linear", 2, 3), make_rng(1, stream=1))
    deltas = [
        np.abs(got.W - exp.W).max()
        for got, exp in zip(result.params.layers, fresh.layers)
    ]
    biggest = max(deltas)
    assert 0.0 < biggest <= 10.0 * lr


@pytest.mark.parametrize("arch", ["linear", "mlp"])
def test_weight_decay_shrinks_weight_matrices_never_biases(monkeypatch, arch):
    # One epoch of one batch is one step from the start, momentum aside: decay
    # adds lr * decay * W to each weight matrix's step and nothing to a bias's.
    # The start's biases are made nonzero, so that decay on them would show.
    widths = network_widths(arch, 2, 3, hidden=4)
    start = init_network(widths, make_rng(1, stream=1))
    for layer in start.layers:
        layer.b = np.linspace(-0.5, 0.5, layer.b.size)
    monkeypatch.setattr(lwpll.model, "init_network", lambda widths, rng: copy.deepcopy(start))
    ds = toy_dataset(n=64, seed=3)
    lr, decay = 0.1, 0.5
    stepped = {}
    for wd in (0.0, decay):
        tcfg = TrainerConfig(learning_rate=lr, epochs=1, batch_size=64, seed=1,
                             val_fraction=0.0, weight_decay=wd)
        stepped[wd] = train(ds, LWConfig(beta=1.0, psi=SIGMOID), tcfg, arch=arch, hidden=4)
    for plain, decayed, first in zip(stepped[0.0].params.layers,
                                     stepped[decay].params.layers, start.layers):
        assert np.array_equal(decayed.b, plain.b)
        np.testing.assert_allclose(decayed.W - plain.W, -lr * decay * first.W,
                                   rtol=1e-9, atol=1e-15)


def test_train_risk_decreases_early():
    # majority criterion over seeds; the task is separable so descent is easy
    wins = 0
    for seed in range(5):
        full = make_gaussian_task(3, 2, 3000, class_separation=4.0, noise_sigma=1.0, seed=seed)
        masks = make_uniform(3, 0.3).sample_sets(full.true_labels, make_rng(seed, stream=9))
        result = train(
            with_candidates(full, masks),
            LWConfig(beta=1.0, psi=SIGMOID),
            TrainerConfig(learning_rate=0.05, epochs=5, seed=seed),
        )
        risks = [m.risk for m in result.metrics]
        if all(risks[i + 1] <= risks[i] + 1e-9 for i in range(4)):
            wins += 1
    assert wins >= 4


def test_train_reaches_high_accuracy_on_separable_task():
    full = make_gaussian_task(3, 2, 3600, class_separation=4.0, noise_sigma=1.0, seed=0)
    trainset = take(full, np.arange(3000))
    testset = take(full, np.arange(3000, 3600))
    masks = make_uniform(3, 0.3).sample_sets(trainset.true_labels, make_rng(0, stream=5))
    ds = with_candidates(trainset, masks)
    result = train(
        ds,
        LWConfig(beta=1.0, psi=SIGMOID),
        TrainerConfig(learning_rate=0.05, epochs=30, seed=0),
    )
    assert accuracy(result.params, testset) >= 0.95


def test_train_weight_partitions_stay_normalized():
    ds = toy_dataset(n=150, seed=8, q=0.4)
    seen = []

    def snoop(row, params, weights, masks):
        inside, outside = partition_sums(weights, masks)
        seen.append((inside.copy(), outside.copy(), masks.all(axis=1)))

    train(
        ds,
        LWConfig(beta=2.0, psi=SIGMOID),
        TrainerConfig(learning_rate=0.05, epochs=3, seed=2),
        epoch_callback=snoop,
    )
    assert len(seen) == 3
    for inside, outside, full in seen:
        assert np.abs(inside - 1.0).max() <= 1e-12
        assert np.abs(outside[~full] - 1.0).max() <= 1e-12


def test_train_per_batch_weight_update_runs():
    ds = toy_dataset(n=100, seed=9)
    lw = LWConfig(beta=1.0, psi=SIGMOID)
    tcfg = TrainerConfig(learning_rate=0.05, epochs=2, batch_size=32, seed=3)
    per_batch = dataclasses.replace(tcfg, per_batch_weight_update=True)
    a = train(ds, lw, per_batch)
    b = train(ds, lw, tcfg)
    assert np.isfinite(a.weights).all()
    # the cadence genuinely changes the trajectory
    assert any(
        not np.array_equal(la.W, lb.W)
        for la, lb in zip(a.params.layers, b.params.layers)
    )


def test_train_validation_split_sizes():
    ds = toy_dataset(n=100, seed=10)
    result = train(
        ds,
        LWConfig(beta=1.0, psi=SIGMOID),
        TrainerConfig(learning_rate=0.05, epochs=1, seed=0, val_fraction=0.1),
    )
    assert len(result.val_indices) == 10
    assert len(result.train_indices) == 90
    combined = np.sort(np.concatenate([result.train_indices, result.val_indices]))
    assert np.array_equal(combined, np.arange(100))
    none = train(
        ds,
        LWConfig(beta=1.0, psi=SIGMOID),
        TrainerConfig(learning_rate=0.05, epochs=1, seed=0, val_fraction=0.0),
    )
    assert len(none.val_indices) == 0
    assert np.isnan(none.metrics[0].val_accuracy)


def test_train_requires_masks():
    full = make_gaussian_task(3, 2, 30, class_separation=4.0, noise_sigma=1.0, seed=0)
    with pytest.raises(ValueError):
        train(full, LWConfig(beta=1.0, psi=SIGMOID), TrainerConfig(learning_rate=0.1, epochs=1))


def test_train_divergence_raises_with_location():
    x = np.full((40, 3), 1e200)
    y = np.arange(40) % 3
    masks = np.zeros((40, 3), dtype=bool)
    masks[np.arange(40), y] = True
    ds = Dataset(features=x, num_classes=3, true_labels=y, partial_masks=masks)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            train(
                ds,
                LWConfig(beta=1.0, psi=CROSS_ENTROPY),
                TrainerConfig(learning_rate=0.5, epochs=5, batch_size=16, seed=0),
            )
    err = info.value
    assert err.epoch >= 1
    assert err.batch >= 1
    assert err.lr == 0.5


def test_train_mlp_smoke():
    ds = toy_dataset(n=200, seed=11)
    result = train(
        ds,
        LWConfig(beta=1.0, psi=CROSS_ENTROPY),
        TrainerConfig(learning_rate=0.05, epochs=3, seed=0),
        arch="mlp",
        hidden=8,
    )
    widths = [layer.W.shape for layer in result.params.layers]
    assert widths == [(8, 2), (8, 8), (8, 8), (8, 8), (3, 8)]
    assert all(np.isfinite(m.risk) for m in result.metrics)


# checkpoints


def test_checkpoint_round_trip(tmp_path):
    rng = make_rng(151)
    params = init_network([4, 6, 3], rng)
    path = tmp_path / "net.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert len(loaded.layers) == len(params.layers)
    for got, exp in zip(loaded.layers, params.layers):
        assert np.array_equal(got.W, exp.W)
        assert np.array_equal(got.b, exp.b)
        assert got.activation == exp.activation


# Edge values on top of hypothesis's own finite float draws: signed zeros,
# the smallest and a mid subnormal, the largest finite magnitudes. Loading
# rejects non-finite parameters (see the rejection tests below).
CHECKPOINT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def networks(draw):
    arch = draw(st.sampled_from(["linear", "mlp"]))
    # Two classes at least: loading rejects a one-output network.
    widths = network_widths(arch, draw(st.integers(1, 6)), draw(st.integers(2, 5)),
                            hidden=draw(st.integers(1, 5)))
    last = len(widths) - 2
    return NetworkParams([
        Layer(
            W=draw(hnp.arrays(np.float64, (fan_out, fan_in), elements=CHECKPOINT_FLOATS)),
            b=draw(hnp.arrays(np.float64, fan_out, elements=CHECKPOINT_FLOATS)),
            activation="identity" if i == last else "relu",
        )
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:]))
    ])


@settings(max_examples=80, deadline=None)
@given(networks())
def test_checkpoint_round_trip_is_bit_exact(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/net.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
    assert [l.activation for l in loaded.layers] == [l.activation for l in params.layers]
    for got, exp in zip(loaded.layers, params.layers, strict=True):
        assert got.W.shape == exp.W.shape and got.b.shape == exp.b.shape
        assert got.W.tobytes() == exp.W.tobytes()
        assert got.b.tobytes() == exp.b.tobytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "net.bin"
    path.write_bytes(b"XXXX" + bytes(64))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation_and_trailing(tmp_path):
    rng = make_rng(157)
    params = init_network([3, 2], rng)
    path = tmp_path / "net.bin"
    save_checkpoint(params, path)
    blob = path.read_bytes()
    short = tmp_path / "short.bin"
    short.write_bytes(blob[:-5])
    with pytest.raises(ValueError):
        load_checkpoint(short)
    long = tmp_path / "long.bin"
    long.write_bytes(blob + b"\x00\x00")
    with pytest.raises(ValueError):
        load_checkpoint(long)


def test_checkpoint_rejects_truncated_header_and_layer_table(tmp_path):
    rng = make_rng(163)
    blob_path = tmp_path / "net.bin"
    save_checkpoint(init_network([3, 4, 2], rng), blob_path)
    blob = blob_path.read_bytes()
    # Cut inside the 12-byte header, the 8-byte layer records, then the digest.
    for cut in (5, 11, 12, 15, 20, 29):
        path = tmp_path / f"cut{cut}.bin"
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(path)


def test_checkpoint_load_rejects_a_large_other_file_before_reading_it(tmp_path):
    # A 16 MB corpus CSV: the magic is checked before the rest is read.
    rng = make_rng(167)
    labels = rng.integers(0, 10, size=1100)
    masks = np.zeros((1100, 10), dtype=bool)
    masks[np.arange(1100), labels] = True
    path = tmp_path / "corpus.csv"
    save_partial_csv(Dataset(features=rng.standard_normal((1100, 784)), num_classes=10,
                             true_labels=labels, partial_masks=masks), str(path))
    assert path.stat().st_size >= 16_000_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: not a checkpoint (bad magic)"
    assert peak < 64 << 10


def linear_layer(out_w, in_w, fill=0.5):
    return Layer(W=np.full((out_w, in_w), fill), b=np.zeros(out_w), activation="identity")


def test_checkpoint_rejects_zero_layers(tmp_path):
    path = tmp_path / "zero.bin"
    save_checkpoint(NetworkParams([]), path)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: checkpoint has no layers"


def test_checkpoint_rejects_a_layer_of_width_zero(tmp_path):
    for shape in ((0, 3), (3, 0)):
        path = tmp_path / "narrow.bin"
        save_checkpoint(NetworkParams([linear_layer(*shape)]), path)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: layer 0 has width 0 ({shape[0]}x{shape[1]})"


def test_checkpoint_rejects_mismatched_layer_widths(tmp_path):
    path = tmp_path / "mismatch.bin"
    save_checkpoint(NetworkParams([linear_layer(4, 3), linear_layer(2, 5)]), path)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: layer 1 takes 5 inputs but layer 0 gives 4"


def test_checkpoint_rejects_a_network_with_one_output(tmp_path):
    for layers in ([linear_layer(1, 3)], [linear_layer(4, 3), linear_layer(1, 4)]):
        path = tmp_path / "one.bin"
        save_checkpoint(NetworkParams(layers), path)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: last layer has 1 output; a classifier needs at least 2"


def test_checkpoint_rejects_non_finite_parameters(tmp_path):
    path = tmp_path / "nan.bin"
    for bad in (np.nan, np.inf, -np.inf):
        layers = [linear_layer(4, 3), linear_layer(2, 4)]
        layers[1].b[1] = bad
        save_checkpoint(NetworkParams(layers), path)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: layer 1 has non-finite parameters"
        save_checkpoint(NetworkParams([linear_layer(2, 3, fill=bad)]), path)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: layer 0 has non-finite parameters"


@pytest.mark.parametrize("per_batch", [False, True])
def test_train_divergence_after_the_last_step_raises_with_location(per_batch):
    # One batch, one epoch: the step itself is finite, but the scores the
    # weight refresh reads afterwards overflow.
    x = np.full((8, 3), 1e200)
    y = np.arange(8) % 3
    masks = np.zeros((8, 3), dtype=bool)
    masks[np.arange(8), y] = True
    ds = Dataset(features=x, num_classes=3, true_labels=y, partial_masks=masks)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as info:
            train(
                ds,
                LWConfig(beta=1.0, psi=CROSS_ENTROPY),
                TrainerConfig(learning_rate=0.5, epochs=1, batch_size=16, seed=0,
                              per_batch_weight_update=per_batch),
            )
    err = info.value
    assert (err.epoch, err.batch, err.lr) == (1, 1, 0.5)


def test_train_divergence_in_the_validation_scores_raises():
    # The first validation row scores inf, though no training row does.
    ds = toy_dataset()
    lw = LWConfig(beta=1.0, psi=SIGMOID)
    tcfg = TrainerConfig(learning_rate=0.05, epochs=2, batch_size=16, seed=0)
    features = ds.features.copy()
    features[train(ds, lw, tcfg).val_indices[0]] = [1e308, -1e308]
    with pytest.raises(TrainingDiverged) as info:
        train(dataclasses.replace(ds, features=features), lw, tcfg)
    err = info.value
    assert (err.epoch, err.batch, err.lr) == (1, 4, 0.05)


@pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5, float("nan")])
def test_train_rejects_val_fraction_outside_unit_interval(fraction):
    with pytest.raises(ValueError, match="val_fraction"):
        TrainerConfig(learning_rate=0.05, epochs=1, seed=0, val_fraction=fraction)


# one forward pass per training batch


def test_train_runs_one_forward_pass_per_batch(monkeypatch):
    calls = []
    real = lwpll.model._forward_cached

    def spy(params, x):
        calls.append(x.shape[0])
        return real(params, x)

    monkeypatch.setattr(lwpll.model, "_forward_cached", spy)
    ds = toy_dataset(n=100, seed=4)
    tcfg = TrainerConfig(learning_rate=0.05, epochs=3, batch_size=16, seed=1)
    for arch in ("linear", "mlp"):
        calls.clear()
        result = train(ds, LWConfig(beta=1.0, psi=SIGMOID), tcfg, arch=arch, hidden=4)
        n_train, n_val = len(result.train_indices), len(result.val_indices)
        batches = [16] * (n_train // 16) + [n_train % 16]
        # per epoch: each batch once, the train split's scores, the validation accuracy
        assert calls == (batches + [n_train, n_val]) * tcfg.epochs


@pytest.mark.parametrize("per_batch", [False, True])
def test_train_makes_one_loss_call_per_batch(monkeypatch, per_batch):
    kernel_calls, value_calls = [], []
    real_kernel, real_value = lwpll.model.lw_loss_gradient_batch, lwpll.losses.lw_loss_batch

    def kernel_spy(scores, *args):
        kernel_calls.append(scores.shape[0])
        return real_kernel(scores, *args)

    def value_spy(scores, *args):
        value_calls.append(scores.shape[0])
        return real_value(scores, *args)

    monkeypatch.setattr(lwpll.model, "lw_loss_gradient_batch", kernel_spy)
    monkeypatch.setattr(lwpll.model, "lw_loss_batch", value_spy, raising=False)
    monkeypatch.setattr(lwpll.losses, "lw_loss_batch", value_spy)
    ds = toy_dataset(n=100, seed=4)
    tcfg = TrainerConfig(learning_rate=0.05, epochs=3, batch_size=16, seed=1,
                         per_batch_weight_update=per_batch)
    for psi in (SIGMOID, RAMP, CROSS_ENTROPY):
        kernel_calls.clear()
        result = train(ds, LWConfig(beta=1.0, psi=psi), tcfg)
        n_train = len(result.train_indices)
        assert kernel_calls == ([16] * (n_train // 16) + [n_train % 16]) * tcfg.epochs
    assert value_calls == []


def pre_activation_backward(params, x, upstream):
    """The backward pass as it was when it kept z_1..z_L and masked ReLU with z > 0."""
    acts, pres = [x], []
    for layer in params.layers:
        z = acts[-1] @ layer.W.T + layer.b
        pres.append(z)
        acts.append(np.maximum(z, 0.0) if layer.activation == "relu" else z)
    grads = [None] * len(params.layers)
    delta = upstream
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        if layer.activation == "relu":
            delta = np.where(pres[i] > 0.0, delta, 0.0)
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = delta @ layer.W
    return grads


# Signed zeros and NaN besides bounded draws: zero rows of features against
# zero biases put exact 0.0 and -0.0 into the ReLU inputs.
PASS_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan]),
    st.floats(-4.0, 4.0),
)


@st.composite
def backward_cases(draw):
    arch = draw(st.sampled_from(["linear", "mlp"]))
    d, k, n = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    widths = network_widths(arch, d, k, hidden=draw(st.integers(1, 4)))
    params = init_network(widths, make_rng(draw(st.integers(0, 2**32 - 1))))
    for layer in params.layers:
        layer.b = draw(hnp.arrays(np.float64, layer.b.shape, elements=PASS_FLOATS))
    x = draw(hnp.arrays(np.float64, (n, d), elements=PASS_FLOATS))
    x[draw(hnp.arrays(bool, n))] = draw(st.sampled_from([0.0, -0.0]))
    upstream = draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-4.0, 4.0)))
    return params, x, upstream


@settings(max_examples=150, deadline=None)
@given(backward_cases())
def test_backward_equals_the_pre_activation_backward(case):
    params, x, upstream = case
    got = backward(params, x, upstream)
    expected = pre_activation_backward(params, x, upstream)
    for (gw, gb), (ew, eb) in zip(got, expected, strict=True):
        assert gw.shape == ew.shape and gb.shape == eb.shape
        assert gw.tobytes() == ew.tobytes() and gb.tobytes() == eb.tobytes()
