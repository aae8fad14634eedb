"""Interruption classifier: learnable layer-weighted sum over embedding
layers, attention pooling of the frame axis, and a feed-forward head,
trained with mini-batch SGD on cross-entropy.

All math is plain numpy with exact analytic gradients; the
finite-difference suite in the tests checks every parameter group.
Embedding features are float32: each clip reads itself, from its SIE1
file or from memory, into its row of one preallocated (B, C, L, d, M)
f32 buffer, which train reuses for every step; forward_batch pools one
clip at a time, in row 0 of train's buffer or of its own. The
contractions that read the buffer (the layer mix and its gradient)
upcast in bounded buffers and give float64 results, so no float64 copy
of a batch is made. Everything downstream of the layer mix, and the
parameters, are float64. So memory grows with the batch size, not with
the number of clips.
"""
from __future__ import annotations

import contextlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FeatureProfileError, ModelError, TrainingDivergedError
from .features import EmbeddingFile, LayeredEmbedding
from .vocab import CLASSES

N_CLASSES = len(CLASSES)
HEAD_WIDTHS = (512, 512, 128, 32, 4)
LEAKY_SLOPE = 0.01

CHANNELS_BOTH = "2"
CHANNELS_RIGHT = "right"


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels under (B, K) probs."""
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(picked)))


def _logit_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """cross_entropy of softmax(logits) by logsumexp: finite wherever the
    logits are, while a probability can underflow to 0."""
    top = np.max(logits, axis=1)
    lse = top + np.log(np.sum(np.exp(logits - top[:, None]), axis=1))
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


def _header_int(value, nullable: bool = False):
    """value, if it is a JSON integer (not a bool), or None where allowed."""
    if type(value) is int or value is None and nullable:
        return value
    raise ValueError("size %r is not an integer" % (value,))


@dataclass(frozen=True)
class FeatureSpec:
    """What the model expects to be fed.

    kind: "emb" for layered embeddings, "matrix" for plain (d, M)
    feature matrices. input_dim is the stacked feature dimension d;
    layers is the embedding layer count (None for matrix features).
    """

    kind: str
    input_dim: int
    frames: int | None = None
    profile: str | None = None
    channels: str = CHANNELS_BOTH
    layers: int | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "input_dim": self.input_dim, "frames": self.frames,
                "profile": self.profile, "channels": self.channels, "layers": self.layers}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        """The spec to_dict wrote; a size of another type raises ValueError."""
        return cls(kind=d["kind"], input_dim=_header_int(d["input_dim"]),
                   frames=_header_int(d.get("frames"), nullable=True),
                   profile=d.get("profile"), channels=d.get("channels", CHANNELS_BOTH),
                   layers=_header_int(d.get("layers"), nullable=True))


@dataclass
class InterruptionModel:
    """Feature contract plus every learnable array, keyed by checkpoint
    block name in checkpoint order: layer_logits (emb features only),
    pooler_w, then head_w0, head_b0, head_w1, ... Head matrices are
    (out, in); LeakyReLU sits between head layers, none after the last."""

    feature_spec: FeatureSpec
    params: dict


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0015
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    patience: int = 10

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def feature_spec_of(features, channels: str = CHANNELS_BOTH) -> FeatureSpec:
    """Derive the input contract from one sample."""
    if isinstance(features, (LayeredEmbedding, EmbeddingFile)):
        p = features.profile
        return FeatureSpec("emb", p.stacked_dim, p.frames, p.name, channels, p.layers)
    arr = np.asarray(features)
    if arr.ndim != 2:
        raise FeatureProfileError("matrix features must be 2-D (d, M)")
    return FeatureSpec("matrix", arr.shape[0], arr.shape[1], None, channels)


def _param_shapes(spec: FeatureSpec, head_widths) -> dict:
    """Block name -> shape of every parameter, in checkpoint order;
    rejects a spec and head the model cannot be built for."""
    if not head_widths or head_widths[-1] != N_CLASSES:
        raise ModelError("head must end in %d classes" % N_CLASSES)
    if spec.input_dim < 1 or min(head_widths) < 1:
        raise ModelError("feature dim and head widths must be positive")
    if spec.channels not in (CHANNELS_BOTH, CHANNELS_RIGHT):
        raise ModelError("unknown channels mode %r" % spec.channels)
    if spec.channels == CHANNELS_RIGHT and spec.input_dim % 2:
        raise ModelError("right-channel masking needs an even feature dim")

    shapes = {}
    if spec.kind == "emb":
        if not spec.layers or spec.layers < 1:
            raise ModelError("embedding feature spec needs a layer count")
        shapes["layer_logits"] = (spec.layers,)
    shapes["pooler_w"] = (spec.input_dim,)
    fan_in = spec.input_dim
    for i, width in enumerate(head_widths):
        shapes["head_w%d" % i] = (width, fan_in)
        shapes["head_b%d" % i] = (width,)
        fan_in = width
    return shapes


def build_model(spec: FeatureSpec, rng: np.random.Generator,
                head_widths: tuple = HEAD_WIDTHS) -> InterruptionModel:
    """Fresh model: Glorot-uniform head, zero biases, zero pooler template
    (uniform pooling at start), zero layer logits (uniform layer mix)."""
    params = {}
    for name, shape in _param_shapes(spec, head_widths).items():
        if name.startswith("head_w"):
            bound = np.sqrt(6.0 / sum(shape))  # fan_in + fan_out
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.zeros(shape)
    return InterruptionModel(spec, params)


def attention_pool(H: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Softmax frame weighting of one (d, M) matrix with template w:
    scores w.H, weights Q, pooled U = H.Q^T."""
    H = np.asarray(H, dtype=np.float64)
    if not np.all(np.isfinite(H)):
        raise ModelError("non-finite feature matrix")
    if H.shape[0] != len(w):
        raise FeatureProfileError(
            "template length %d vs feature dim %d" % (len(w), H.shape[0]))
    q = softmax(w @ H)
    return H @ q


def _check_features(model: InterruptionModel, features) -> None:
    spec = model.feature_spec
    got = feature_spec_of(features, spec.channels)
    if got != spec:
        raise FeatureProfileError(
            "model expects %s, got %s" % (spec.to_dict(), got.to_dict()))


def _batch_buffer(model: InterruptionModel, first, n: int):
    """An f32 (n, C, L, d0, M) buffer for _stack to fill with clips like
    first; None for matrix features, which _stack stacks anew."""
    if model.feature_spec.kind != "emb":
        return None
    return np.empty((n,) + first.profile.shape, np.float32)


def _stack(model: InterruptionModel, batch_features, buffer=None) -> np.ndarray:
    """One array for a batch. Embeddings fill the first B rows of buffer
    (from _batch_buffer, with at least B rows; a new one when None), each
    clip by its read_into, and the view of those rows is returned: the
    caller may reuse the buffer for the next batch once it is done with
    this one. Matrix features become a new f64 (B, d, M) stack."""
    if model.feature_spec.kind != "emb":
        return np.stack([np.asarray(f, dtype=np.float64) for f in batch_features])
    if buffer is None:
        buffer = _batch_buffer(model, batch_features[0], len(batch_features))
    stacked = buffer[: len(batch_features)]
    for row, f in zip(stacked, batch_features, strict=True):
        f.read_into(row)
    return stacked


def _batch_h(model: InterruptionModel, stacked: np.ndarray) -> np.ndarray:
    """Layer-mixed, masked H of shape (B, d, M) from a _stack array.
    Embedding channels stack on the feature axis: rows [0, d0) left
    channel, rows [d0, 2*d0) right. einsum upcasts the f32 layers in
    bounded buffers, so no f64 copy of the stack is made."""
    spec = model.feature_spec
    if spec.kind == "emb":
        w = softmax(model.params["layer_logits"])
        H = np.einsum("l,bcldm->bcdm", w, stacked).reshape(len(stacked), spec.input_dim, -1)
    else:
        H = stacked
    if spec.channels == CHANNELS_RIGHT:
        H[:, : spec.input_dim // 2, :] = 0.0
    return H


def _pool(model: InterruptionModel, stacked: np.ndarray):
    """Attention pooling of a stacked batch; returns (H, Q, U). A
    sample's U has the same bits whatever batch it is pooled in."""
    H = _batch_h(model, stacked)
    scores = np.einsum("d,bdm->bm", model.params["pooler_w"], H)
    Q = softmax(scores, axis=1)
    U = np.einsum("bdm,bm->bd", H, Q)
    return H, Q, U


def _head_layers(params: dict, U: np.ndarray):
    """Batched head pass, one layer at a time: yields each layer's input
    activation and its preactivation, the last being the logits. Holds
    only the current layer; the caller keeps what it needs."""
    depth = sum(name.startswith("head_w") for name in params)
    a = U
    for i in range(depth):
        z = a @ params["head_w%d" % i].T + params["head_b%d" % i]
        yield a, z
        if i < depth - 1:
            a = np.where(z > 0, z, LEAKY_SLOPE * z)


def _head_forward(params: dict, U: np.ndarray):
    """Head pass for training; returns (logits, preactivations,
    activations), every layer's kept for the backward pass."""
    acts, zs = [], []
    for a, z in _head_layers(params, U):
        acts.append(a)
        zs.append(z)
    return zs[-1], zs, acts


def _head_logits(params: dict, U: np.ndarray) -> np.ndarray:
    """Head pass for inference: the logits of _head_forward, bit for
    bit, without keeping any layer but the current one."""
    for _, z in _head_layers(params, U):
        pass
    return z


def _forward_pass(model: InterruptionModel, batch_features):
    """Unchunked forward of a whole batch, the reference forward_batch
    must match; returns (H, Q, U, preactivations, activations, probs)."""
    H, Q, U = _pool(model, _stack(model, batch_features))
    logits, zs, acts = _head_forward(model.params, U)
    return H, Q, U, zs, acts, softmax(logits, axis=1)


def forward_batch(model: InterruptionModel, features_list, logits: bool = False,
                  buffer=None) -> np.ndarray:
    """Class probabilities, one row per sample; each row sums to 1. With
    logits=True, the head's logits instead.

    Every sample is checked against the model's feature spec, read into
    row 0 of buffer (train's, or a new one-clip buffer when None) and
    pooled alone. The head then runs once on every pooled vector (BLAS
    gemm may round a one-row batch differently) and keeps only its
    current layer."""
    if not features_list:
        raise ModelError("empty batch")
    for f in features_list:
        _check_features(model, f)
    if buffer is None:
        buffer = _batch_buffer(model, features_list[0], 1)
    U = np.concatenate([_pool(model, _stack(model, [f], buffer))[2] for f in features_list])
    z = _head_logits(model.params, U)
    return z if logits else softmax(z, axis=1)


def _loss_and_grads(model: InterruptionModel, batch_features, labels, buffer=None):
    """Mean cross-entropy and its exact gradients for one mini-batch,
    stacked into buffer as _stack does; the gradients are a dict with
    the keys of model.params, in order."""
    B = len(batch_features)
    labels = np.asarray(labels)
    params = model.params
    grads = dict.fromkeys(params)
    stacked = _stack(model, batch_features, buffer)
    H, Q, U = _pool(model, stacked)
    logits, zs, acts = _head_forward(params, U)
    probs = softmax(logits, axis=1)
    loss = _logit_loss(logits, labels)

    dz = probs.copy()
    dz[np.arange(B), labels] -= 1.0
    dz /= B

    for i in range(len(zs) - 1, -1, -1):
        grads["head_w%d" % i] = dz.T @ acts[i]
        grads["head_b%d" % i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ params["head_w%d" % i]
            dz = da * np.where(zs[i - 1] > 0, 1.0, LEAKY_SLOPE)
    g = dz @ params["head_w0"]  # (B, d) gradient w.r.t. pooled U

    dQ = np.einsum("bdm,bd->bm", H, g)
    dS = Q * (dQ - np.sum(dQ * Q, axis=1, keepdims=True))
    grads["pooler_w"] = np.einsum("bdm,bm->d", H, dS)
    del H  # the stack plus dH is the step's peak; H need not join them

    spec = model.feature_spec
    if spec.kind == "emb":
        dH = g[:, :, None] * Q[:, None, :]
        dH += params["pooler_w"][None, :, None] * dS[:, None, :]
        if spec.channels == CHANNELS_RIGHT:
            dH[:, : spec.input_dim // 2, :] = 0.0
        dH_c = dH.reshape(B, stacked.shape[1], spec.input_dim // stacked.shape[1], -1)
        dw = np.einsum("bcdm,bcldm->l", dH_c, stacked)
        w = softmax(params["layer_logits"])
        grads["layer_logits"] = w * (dw - np.sum(dw * w))

    return loss, grads


def _apply_sgd(model: InterruptionModel, grads: dict, lr: float) -> None:
    for name, g in grads.items():
        model.params[name] = model.params[name] - lr * g


def evaluate_loss(model: InterruptionModel, dataset, buffer=None) -> float:
    """Mean cross-entropy over a labeled dataset, in inference mode;
    buffer is passed on to forward_batch."""
    feats = [f for f, _ in dataset]
    labels = np.asarray([y for _, y in dataset])
    return _logit_loss(forward_batch(model, feats, logits=True, buffer=buffer), labels)


@contextlib.contextmanager
def _diverged_at(where: str):
    """Raise TrainingDivergedError, naming where, on a float overflow,
    division by zero or invalid operation; none happens in a finite run."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingDivergedError("%s at %s" % (exc, where)) from None


@dataclass
class TrainResult:
    model: InterruptionModel
    train_loss: list
    val_loss: list
    stopped_epoch: int


def train(dataset, config: TrainConfig = TrainConfig(), val_dataset=None,
          channels: str = CHANNELS_BOTH,
          head_widths: tuple = HEAD_WIDTHS) -> TrainResult:
    """Mini-batch SGD on mean cross-entropy.

    dataset is a sequence of (features, class_index) pairs with one
    shared feature contract. Per-epoch train loss is the mean of the
    batch losses seen that epoch; when a validation set is given, the
    best-validation parameters are restored at the end (early stopping
    with the configured patience). Deterministic for a fixed seed.
    Every clip must match the first one's feature spec. Every step reads
    its batch into one buffer, and validation each clip into its row 0.
    """
    dataset = list(dataset)
    if not dataset:
        raise ModelError("empty training dataset")
    rng = np.random.default_rng(config.seed)
    model = build_model(feature_spec_of(dataset[0][0], channels), rng, head_widths)
    for f, y in dataset:
        if not 0 <= y < N_CLASSES:
            raise ModelError("label index %r outside the %d-class set" % (y, N_CLASSES))
        _check_features(model, f)

    features, labels = zip(*dataset)
    n = len(dataset)
    buffer = _batch_buffer(model, features[0], min(n, config.batch_size))
    train_curve, val_curve = [], []
    best = (np.inf, None, -1)
    stopped = config.epochs

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, config.batch_size):
            idx = order[lo: lo + config.batch_size]
            batch = [features[i] for i in idx]
            batch_labels = [labels[i] for i in idx]
            where = "epoch %d step %d (lr=%g)" % (epoch, lo // config.batch_size,
                                                  config.learning_rate)
            with _diverged_at(where):
                loss, grads = _loss_and_grads(model, batch, batch_labels, buffer)
                if not np.isfinite(loss):
                    raise TrainingDivergedError("non-finite loss at " + where)
                _apply_sgd(model, grads, config.learning_rate)
            batch_losses.append(loss)
        train_curve.append(float(np.mean(batch_losses)))

        if val_dataset:
            with _diverged_at("validation after epoch %d" % epoch):
                v = evaluate_loss(model, val_dataset, buffer)
            val_curve.append(v)
            if v < best[0]:
                snapshot = {name: a.copy() for name, a in model.params.items()}
                best = (v, snapshot, epoch)
            elif epoch - best[2] >= config.patience:
                stopped = epoch + 1
                break

    if val_dataset and best[1] is not None:
        model.params = best[1]
    return TrainResult(model, train_curve, val_curve, stopped)


_CKPT_MAGIC = b"TOM1"
_CKPT_VERSION = 1


def save_model(model: InterruptionModel, path) -> None:
    """Versioned binary checkpoint: JSON header then little-endian
    float32 parameter blocks in model.params order."""
    params = model.params
    header = {
        "feature_spec": model.feature_spec.to_dict(),
        "head_widths": [a.shape[0] for name, a in params.items()
                        if name.startswith("head_b")],
        "blocks": [[name, list(a.shape)] for name, a in params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for a in params.values():
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_model(path) -> InterruptionModel:
    """Read a checkpoint written by save_model. Raises ModelError unless
    the header parses, its blocks are exactly the ones build_model makes
    for the header's spec and head widths, the file ends right after the
    last block, and every value is finite."""
    with open(path, "rb") as fh:
        if fh.read(4) != _CKPT_MAGIC:
            raise ModelError("%s: not a model checkpoint" % path)
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise ModelError("%s: truncated checkpoint header" % path)
        version, header_len = struct.unpack("<II", prefix)
        if version != _CKPT_VERSION:
            raise ModelError("%s: unsupported checkpoint version %d" % (path, version))
        try:
            header = json.loads(fh.read(header_len).decode())
            spec = FeatureSpec.from_dict(header["feature_spec"])
            head_widths = tuple(_header_int(w) for w in header["head_widths"])
            blocks = [(name, tuple(shape)) for name, shape in header["blocks"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise ModelError("%s: malformed checkpoint header (%r)" % (path, exc)) from None
        data = fh.read()

    expected = _param_shapes(spec, head_widths)
    if blocks != list(expected.items()):
        raise ModelError("%s: blocks %s are not the %s the header's model needs"
                         % (path, blocks, list(expected.items())))
    sizes = [int(np.prod(shape)) for shape in expected.values()]
    if len(data) < 4 * sum(sizes):
        raise ModelError("%s: truncated parameter blocks" % path)
    if len(data) > 4 * sum(sizes):
        raise ModelError("%s: %d trailing bytes after the last parameter block"
                         % (path, len(data) - 4 * sum(sizes)))
    values = np.frombuffer(data, dtype="<f4").astype(np.float64)
    params, offset = {}, 0
    for (name, shape), size in zip(expected.items(), sizes):
        params[name] = values[offset: offset + size].reshape(shape)
        offset += size
        if not np.all(np.isfinite(params[name])):
            raise ModelError("%s: non-finite values in parameter block %r" % (path, name))
    return InterruptionModel(spec, params)
