"""Score networks and the mini-batch trainer for candidate-set supervision.

Networks are plain affine stacks (linear model, or an MLP with ReLU hidden
layers) with hand-written forward and backward passes; the trainer scores
each batch once and back-propagates through the activations of that pass.
Training minimizes the empirical leveraged weighted risk with SGD plus
heavy-ball momentum, halves the learning rate on a fixed epoch period, and
refreshes the per-instance class weights once per epoch after the parameter
steps (or after every batch, as `TrainerConfig` chooses). All randomness
(init, validation split, shuffling) derives from the trainer seed, so runs
replay bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import Dataset, split_indices, take
from .losses import LWConfig, lw_loss_batch, lw_loss_gradient_batch
from .rng import make_rng
from .weights import WeightState, init_weights, update_weights

_CHECKPOINT_MAGIC = b"LWNN"
_CHECKPOINT_VERSION = 1
_ACTIVATION_CODES = {"identity": 0, "relu": 1}
_ACTIVATION_NAMES = {code: name for name, code in _ACTIVATION_CODES.items()}

# Stream ids carved out of the trainer seed.
_STREAM_SHUFFLE = 0
_STREAM_INIT = 1
_STREAM_SPLIT = 2


class TrainingDiverged(RuntimeError):
    """Loss or scores became non-finite; carries epoch, batch, and learning rate."""

    def __init__(self, epoch: int, batch: int, lr: float):
        self.epoch = epoch
        self.batch = batch
        self.lr = lr
        super().__init__(
            f"non-finite loss or scores at epoch {epoch}, batch {batch}, lr {lr:g}"
        )

    def __reduce__(self):
        # Rebuild from the fields, so the error crosses a process boundary.
        return type(self), (self.epoch, self.batch, self.lr)


def _finite(values, epoch: int, batch: int, lr: float):
    """`values` unchanged, or TrainingDiverged if any entry is non-finite."""
    if not np.isfinite(values).all():
        raise TrainingDiverged(epoch=epoch, batch=batch, lr=lr)
    return values


@dataclass
class Layer:
    """One affine map with an elementwise activation ('identity' or 'relu')."""

    W: np.ndarray
    b: np.ndarray
    activation: str

    def __post_init__(self):
        if self.activation not in _ACTIVATION_CODES:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError(
                f"layer shape mismatch: W {self.W.shape}, b {self.b.shape}"
            )


@dataclass
class NetworkParams:
    """Ordered layers; the last layer's output dimension is the class count."""

    layers: list[Layer]

    @property
    def widths(self) -> list[int]:
        return [self.layers[0].W.shape[1]] + [l.W.shape[0] for l in self.layers]


def init_network(widths: list[int], rng: np.random.Generator) -> NetworkParams:
    """He-scaled Gaussian weights, zero biases; ReLU on all but the last layer."""
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"widths must be at least [in, out] positive, got {widths}")
    layers = []
    last = len(widths) - 2
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        act = "identity" if i == last else "relu"
        scale = np.sqrt((1.0 if act == "identity" else 2.0) / fan_in)
        layers.append(
            Layer(
                W=scale * rng.standard_normal((fan_out, fan_in)),
                b=np.zeros(fan_out),
                activation=act,
            )
        )
    return NetworkParams(layers)


def network_widths(arch: str, num_features: int, num_classes: int, hidden: int = 64) -> list[int]:
    """Layer widths for 'linear' (d-K) or 'mlp' (d-h-h-h-h-K)."""
    if arch == "linear":
        return [num_features, num_classes]
    if arch == "mlp":
        if hidden < 1:
            raise ValueError("hidden width must be positive")
        return [num_features] + [hidden] * 4 + [num_classes]
    raise ValueError(f"unknown architecture {arch!r}")


def _feature_batch(params: NetworkParams, features) -> tuple[np.ndarray, bool]:
    """Features as an (n, d) float batch, and whether they were one d-vector."""
    x = np.asarray(features, dtype=float)
    single = x.ndim == 1
    x = x[None, :] if single else x
    width = params.layers[0].W.shape[1]
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"features shape {x.shape} does not match input width {width}")
    return x, single


def _forward_cached(params: NetworkParams, x: np.ndarray) -> list[np.ndarray]:
    """Activations a_0..a_L of a batch: a_0 = x, a_L the scores."""
    acts = [x]
    for layer in params.layers:
        z = acts[-1] @ layer.W.T + layer.b
        acts.append(np.maximum(z, 0.0) if layer.activation == "relu" else z)
    return acts


def _backprop(params: NetworkParams, acts: list[np.ndarray], delta: np.ndarray):
    """(dW, db) per layer from `_forward_cached`'s activations and d loss / d
    scores. A ReLU layer masks with a_{i+1} > 0, which is z > 0 bit for bit."""
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        if layer.activation == "relu":
            delta = np.where(acts[i + 1] > 0.0, delta, 0.0)
        grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
        if i > 0:
            delta = delta @ layer.W
    return grads


def forward(params: NetworkParams, features) -> np.ndarray:
    """Scores g(x); accepts one d-vector or an (n, d) batch."""
    x, single = _feature_batch(params, features)
    scores = _forward_cached(params, x)[-1]
    return scores[0] if single else scores


def backward(params: NetworkParams, features, upstream) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parameter gradients given d loss / d scores, summed over the batch.

    ReLU uses subgradient 0 exactly at 0. Returns one (dW, db) pair per
    layer, in layer order.
    """
    x, _ = _feature_batch(params, features)
    g = np.atleast_2d(np.asarray(upstream, dtype=float))
    if g.shape != (x.shape[0], params.layers[-1].W.shape[0]):
        raise ValueError(f"upstream shape {g.shape} does not match {x.shape[0]} rows of scores")
    return _backprop(params, _forward_cached(params, x), g)


def predict(params: NetworkParams, features) -> np.ndarray:
    """Argmax class per row; ties go to the lowest class index."""
    return np.argmax(np.atleast_2d(forward(params, features)), axis=1)


def accuracy(params: NetworkParams, dataset: Dataset) -> float:
    """Fraction of instances whose predicted class equals the true label."""
    if dataset.true_labels is None:
        raise ValueError("dataset has no true labels")
    return float(np.mean(predict(params, dataset.features) == dataset.true_labels))


@dataclass(frozen=True)
class TrainerConfig:
    """Optimizer, schedule, validation and weight-refresh settings.

    The learning rate at epoch t (1-based) is
    learning_rate * 0.5 ** ((t - 1) // lr_halving_period). The last
    `val_fraction` of a seed-shuffled copy of the data is held out for the
    validation accuracy; `per_batch_weight_update` refreshes the weights
    after every batch instead of once per epoch.
    """

    learning_rate: float
    epochs: int
    batch_size: int = 256
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_halving_period: int = 50
    seed: int = 0
    val_fraction: float = 0.1
    per_batch_weight_update: bool = False

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not self.weight_decay >= 0.0:
            raise ValueError("weight_decay must be >= 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        if self.batch_size < 1 or self.epochs < 0 or self.lr_halving_period < 1:
            raise ValueError("batch_size, epochs, lr_halving_period out of range")


def learning_rate_at(tcfg: TrainerConfig, epoch: int) -> float:
    """Scheduled rate for a 1-based epoch index."""
    return tcfg.learning_rate * 0.5 ** ((epoch - 1) // tcfg.lr_halving_period)


@dataclass(frozen=True)
class EpochMetrics:
    """One metrics row: risk is the mean visit-time loss over the epoch."""

    epoch: int
    lr: float
    risk: float
    train_accuracy: float
    val_accuracy: float


@dataclass
class TrainResult:
    params: NetworkParams
    metrics: list[EpochMetrics]
    weight_state: WeightState
    first_batch_indices: np.ndarray
    train_indices: np.ndarray
    val_indices: np.ndarray


def train(
    dataset: Dataset,
    lw: LWConfig,
    tcfg: TrainerConfig,
    *,
    arch: str = "linear",
    hidden: int = 64,
    epoch_callback=None,
) -> TrainResult:
    """Minimize the empirical leveraged weighted risk over the dataset.

    The network ('linear' or 'mlp' of width `hidden`) starts from the
    seed's init. The last `tcfg.val_fraction` of a seed-shuffled copy is
    held out for the validation accuracy column and never trained on. Per
    epoch: shuffled mini-batches, a heavy-ball SGD step per batch (weight
    decay on weight matrices only, never biases), then one weight refresh
    from the updated scores; `tcfg.per_batch_weight_update` moves that
    refresh inside the batch loop, touching only the visited rows. Accuracy
    columns are NaN when true labels are absent (or, for validation, when
    the split is empty).

    Raises TrainingDiverged the moment a batch loss or any scores are
    non-finite, including the scores a weight refresh reads after the last
    step of an epoch.
    """
    if dataset.partial_masks is None:
        raise ValueError("training needs candidate masks")
    widths = network_widths(arch, dataset.num_features, dataset.num_classes, hidden)
    params = init_network(widths, make_rng(tcfg.seed, _STREAM_INIT))
    train_idx, val_idx = split_indices(len(dataset), tcfg.val_fraction, tcfg.seed,
                                       _STREAM_SPLIT)
    train_ds, val_ds = take(dataset, train_idx), take(dataset, val_idx)
    n_train = len(train_ds)
    if n_train == 0:
        raise ValueError("empty training split")
    features, _ = _feature_batch(params, train_ds.features)

    state = init_weights(train_ds.partial_masks)
    velocity = [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in params.layers]
    shuffle_rng = make_rng(tcfg.seed, _STREAM_SHUFFLE)
    metrics: list[EpochMetrics] = []
    first_batch = np.asarray([], dtype=np.int64)

    # Overflow to inf/NaN is caught by the finiteness checks and raised as
    # TrainingDiverged, so numpy's own warnings would only duplicate it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, tcfg.epochs + 1):
            lr = learning_rate_at(tcfg, epoch)
            order = shuffle_rng.permutation(n_train)
            if epoch == 1:
                first_batch = train_idx[order[: tcfg.batch_size]].copy()
            loss_sum = 0.0
            for batch_no, start in enumerate(range(0, n_train, tcfg.batch_size), start=1):
                rows = order[start : start + tcfg.batch_size]
                x = features[rows]
                masks = train_ds.partial_masks[rows]
                w = state.w[rows]
                acts = _forward_cached(params, x)
                scores = _finite(acts[-1], epoch, batch_no, lr)
                losses = lw_loss_batch(scores, masks, w, lw)
                loss_sum += _finite(float(losses.sum()), epoch, batch_no, lr)
                upstream = lw_loss_gradient_batch(scores, masks, w, lw) / rows.shape[0]
                grads = _backprop(params, acts, upstream)
                for layer, (vw, vb), (gw, gb) in zip(params.layers, velocity, grads):
                    vw *= tcfg.momentum
                    vw += gw + tcfg.weight_decay * layer.W
                    vb *= tcfg.momentum
                    vb += gb
                    layer.W -= lr * vw
                    layer.b -= lr * vb
                if tcfg.per_batch_weight_update:
                    sub = WeightState(w=state.w[rows], masks=masks)
                    refreshed = _finite(forward(params, x), epoch, batch_no, lr)
                    state.w[rows] = update_weights(sub, refreshed).w

            train_scores = _finite(forward(params, features), epoch, batch_no, lr)
            if not tcfg.per_batch_weight_update:
                state = update_weights(state, train_scores)
            train_acc = float("nan")
            if train_ds.true_labels is not None:
                train_acc = float(np.mean(np.argmax(train_scores, axis=1) == train_ds.true_labels))
            val_acc = float("nan")
            if len(val_ds) > 0 and val_ds.true_labels is not None:
                val_acc = accuracy(params, val_ds)
            row = EpochMetrics(
                epoch=epoch,
                lr=lr,
                risk=loss_sum / n_train,
                train_accuracy=train_acc,
                val_accuracy=val_acc,
            )
            metrics.append(row)
            if epoch_callback is not None:
                epoch_callback(row, params, state)

    return TrainResult(
        params=params,
        metrics=metrics,
        weight_state=state,
        first_batch_indices=first_batch,
        train_indices=train_idx,
        val_indices=val_idx,
    )


def save_checkpoint(params: NetworkParams, path: str) -> None:
    """Flat binary: magic, version, layer table, then float64 LE parameters.

    Layout: b"LWNN", u32 version, u32 layer count, per layer (u32 out,
    u32 in, u8 activation code), then per layer the weight matrix row-major
    and the bias vector, all little-endian float64.
    """
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", _CHECKPOINT_VERSION, len(params.layers)))
        for layer in params.layers:
            fh.write(
                struct.pack(
                    "<IIB",
                    layer.W.shape[0],
                    layer.W.shape[1],
                    _ACTIVATION_CODES[layer.activation],
                )
            )
        for layer in params.layers:
            fh.write(np.ascontiguousarray(layer.W, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.b, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> NetworkParams:
    """Inverse of `save_checkpoint`, validating magic, version, and size.

    Also rejects a network that cannot score: no layers, a layer of width 0,
    a layer whose input width is not the previous layer's output width, or
    a non-finite weight or bias.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    if len(blob) < 12:
        raise ValueError(f"{path}: truncated checkpoint")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if count == 0:
        raise ValueError(f"{path}: checkpoint has no layers")
    offset = 12
    shapes = []
    for i in range(count):
        if offset + 9 > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        out_w, in_w, code = struct.unpack_from("<IIB", blob, offset)
        offset += 9
        if code not in _ACTIVATION_NAMES:
            raise ValueError(f"{path}: unknown activation code {code}")
        if out_w == 0 or in_w == 0:
            raise ValueError(f"{path}: layer {i} has width 0 ({out_w}x{in_w})")
        if shapes and in_w != shapes[-1][0]:
            raise ValueError(
                f"{path}: layer {i} takes {in_w} inputs but layer {i - 1} "
                f"gives {shapes[-1][0]}"
            )
        shapes.append((out_w, in_w, _ACTIVATION_NAMES[code]))
    layers = []
    for out_w, in_w, act in shapes:
        n_w, n_b = out_w * in_w, out_w
        need = 8 * (n_w + n_b)
        if offset + need > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        W = np.frombuffer(blob, dtype="<f8", count=n_w, offset=offset).reshape(
            out_w, in_w
        )
        offset += 8 * n_w
        b = np.frombuffer(blob, dtype="<f8", count=n_b, offset=offset)
        offset += 8 * n_b
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError(f"{path}: layer {len(layers)} has non-finite parameters")
        layers.append(Layer(W=W.copy(), b=b.copy(), activation=act))
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return NetworkParams(layers)
