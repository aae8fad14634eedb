"""Interruption classifier: learnable layer-weighted sum over embedding
layers, attention pooling of the frame axis, and a feed-forward head,
trained with mini-batch SGD on cross-entropy.

All math is plain numpy with exact analytic gradients; the
finite-difference suite in the tests checks every parameter group.
Embedding features are float32. Training and inference read them one
clip at a time, from the clip's SIE1 file or from memory, into one f32
one-clip buffer, and pool each clip alone. The einsum contractions that
read the buffer upcast in bounded buffers and give float64 results, so
no float64 copy of a clip is made: the layer mix, which gives the
clip's (d, M) H, and, in training, the clip's two small factors of the
layer gradient. Everything downstream of the layer mix, and the
parameters, are float64. So a step holds one clip plus the batch's
float64 H, and memory grows with neither the split nor, beyond H, the
batch size. A training run allocates that buffer and the step's arrays
once, and every step and validation pass reuses them. Matrix features
are float64 (d, M) arrays, or MatrixFile handles read when their clip
is pooled. Training and inference share one head pass; training masks
by the sign of each layer's input.
"""
from __future__ import annotations

import contextlib
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import FeatureProfileError, ModelError, TrainingDivergedError
from .features import EmbeddingFile, LayeredEmbedding, MatrixFile
from .textio import json_line, parse_json
from .vocab import CLASSES

N_CLASSES = len(CLASSES)
HEAD_WIDTHS = (512, 512, 128, 32, 4)
LEAKY_SLOPE = 0.01

CHANNELS_BOTH = "2"
CHANNELS_RIGHT = "right"


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=out)


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


def _header_kind(value) -> str:
    """value, if it is a feature kind the model can be built for."""
    if value in ("emb", "matrix"):
        return value
    raise ValueError("unknown feature kind %r" % (value,))


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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        """The spec to_dict wrote; an unknown kind, or a size of another
        type, raises ValueError."""
        return cls(kind=_header_kind(d["kind"]), input_dim=_header_int(d["input_dim"]),
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
        if channels == CHANNELS_RIGHT and p.channels % 2:
            raise FeatureProfileError("right-channel masking needs an even channel count")
        return FeatureSpec("emb", p.stacked_dim, p.frames, p.name, channels, p.layers)
    shape = features.shape if isinstance(features, MatrixFile) else np.shape(features)
    if len(shape) != 2:
        raise FeatureProfileError("matrix features must be 2-D (d, M)")
    return FeatureSpec("matrix", shape[0], shape[1], None, channels)


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


def _clip_buffer(model: InterruptionModel, first):
    """An f32 one-clip buffer for _read to fill with clips like first;
    None for matrix features, which _read copies anew."""
    if model.feature_spec.kind != "emb":
        return None
    return np.empty(first.profile.shape, np.float32)


@dataclass
class _Workspace:
    """The arrays a training run reuses at every step and validation
    pass: the one-clip buffer, then the step's H, Q and U and, for
    embeddings, V and S, with a row for each clip of the largest batch.
    A shorter batch uses their first rows."""

    buffer: np.ndarray | None
    H: np.ndarray
    Q: np.ndarray
    U: np.ndarray
    V: np.ndarray | None = None
    S: np.ndarray | None = None


def _workspace(model: InterruptionModel, first, rows: int) -> _Workspace:
    """A _Workspace for batches of up to rows clips like first."""
    spec = model.feature_spec
    buffer = _clip_buffer(model, first)
    work = _Workspace(buffer, np.empty((rows, spec.input_dim, spec.frames)),
                      np.empty((rows, spec.frames)), np.empty((rows, spec.input_dim)))
    if buffer is not None:
        C, L, d0, M = buffer.shape
        work.V, work.S = np.empty((rows, C, L, d0)), np.empty((rows, C, L, M))
    return work


def _read(model: InterruptionModel, f, buffer) -> np.ndarray:
    """One clip as a batch of one, with the left channel zeroed for a
    right-channel model. An embedding is read into buffer (from
    _clip_buffer) by its read_into, and a view of it is returned, valid
    until the next read. A matrix, an array or a MatrixFile handle,
    becomes a new f64 (1, d, M) array."""
    if model.feature_spec.kind == "emb":
        f.read_into(buffer)
        X = buffer[None]
    else:
        X = (f.read() if isinstance(f, MatrixFile) else np.array(f, np.float64))[None]
    if model.feature_spec.channels == CHANNELS_RIGHT:
        X[:, : X.shape[1] // 2] = 0.0
    return X


def _pool(model: InterruptionModel, stacked: np.ndarray, out=None):
    """Attention pooling of _read arrays, stacked; returns (H, Q, U), H
    the (B, d, M) layer mix. Embedding channels stack on the feature
    axis: rows [0, d0) left, [d0, 2*d0) right. einsum upcasts the f32
    layers in bounded buffers, so no f64 copy of the stack is made. A
    sample's U has the same bits whatever batch it is pooled in, and
    whether out, an (H, Q, U) of contiguous arrays to write the results
    into, is given or not."""
    H, Q, U = (None, None, None) if out is None else out
    if model.feature_spec.kind == "emb":
        w = softmax(model.params["layer_logits"])
        mix_shape = stacked.shape[:2] + stacked.shape[3:]  # (B, C, d0, M)
        H = np.einsum("l,bcldm->bcdm", w, stacked,
                      out=None if H is None else H.reshape(mix_shape))
        H = H.reshape(len(stacked), -1, stacked.shape[-1])
    else:
        if H is not None:
            H[...] = stacked
        H = stacked  # pooled in its own memory order, which sets the sums' order
    Q = softmax(np.einsum("d,bdm->bm", model.params["pooler_w"], H), axis=1, out=Q)
    U = np.einsum("bdm,bm->bd", H, Q, out=U)
    return H, Q, U


def _head(params: dict, U: np.ndarray, inputs: list | None = None) -> np.ndarray:
    """The head's logits for pooled rows U. Each layer adds its bias and
    applies LeakyReLU in place, so only its input and output are held,
    unless inputs is a list: each layer's input is appended to it."""
    depth = sum(name.startswith("head_w") for name in params)
    z = U
    for i in range(depth):
        if inputs is not None:
            inputs.append(z)
        z = z @ params["head_w%d" % i].T
        z += params["head_b%d" % i]
        if i < depth - 1:
            np.multiply(z, LEAKY_SLOPE, out=z, where=z <= 0)
    return z


def _forward_pass(model: InterruptionModel, batch_features):
    """Unchunked forward of a whole batch, the reference forward_batch
    must match; returns (H, Q, U, preactivations, activations, probs)."""
    stacked = np.concatenate([_read(model, f, _clip_buffer(model, f)) for f in batch_features])
    H, Q, U = _pool(model, stacked)
    acts = []
    logits = _head(model.params, U, acts)
    zs = [a @ model.params["head_w%d" % i].T + model.params["head_b%d" % i]
          for i, a in enumerate(acts)]
    return H, Q, U, zs, acts, softmax(logits, axis=1)


def forward_batch(model: InterruptionModel, features_list, logits: bool = False,
                  work: _Workspace | None = None) -> np.ndarray:
    """Class probabilities, one row per sample; each row sums to 1. With
    logits=True, the head's logits instead.

    Every sample is checked against the model's feature spec, read into
    one one-clip buffer and pooled alone, in the first row of work (a
    _workspace, made for the call if not given). The head then runs once
    on every pooled vector (BLAS gemm may round a one-row batch
    differently) and keeps only its current layer."""
    if not features_list:
        raise ModelError("empty batch")
    for f in features_list:
        _check_features(model, f)
    U = np.empty((len(features_list), model.feature_spec.input_dim))
    work = work or _workspace(model, features_list[0], 1)
    H = None if work.buffer is None else work.H[:1]  # a matrix needs no copy here
    for i, f in enumerate(features_list):
        _pool(model, _read(model, f, work.buffer), (H, work.Q[:1], U[i: i + 1]))
    del work, H  # the head runs without the pooling arrays, unless the caller keeps them
    z = _head(model.params, U)
    return z if logits else softmax(z, axis=1)


def _loss_and_grads(model: InterruptionModel, batch_features, labels,
                    work: _Workspace | None = None):
    """Mean cross-entropy and its exact gradients for one mini-batch;
    the gradients are a dict with the keys of model.params, in order.

    Each clip is read and pooled alone, as in forward_batch, into the
    batch's float64 H, Q and U. An embedding clip X_b also gives all the
    layer gradient needs of it: V_b = X_b Q_b of shape (C, L, d0) and
    s_b = pooler_w . X_b of shape (C, L, M). So a step holds one clip,
    not the batch, and never the (B, d, M) gradient w.r.t. H. These
    arrays are the first B rows of work, a _workspace of at least B
    rows, made for the call if not given; the bits are the same either
    way. The one head pass records each layer's input, and LeakyReLU's
    derivative is set by the sign of the next layer's input: no
    preactivation is kept."""
    B = len(batch_features)
    labels = np.asarray(labels)
    params = model.params
    grads = dict.fromkeys(params)
    spec = model.feature_spec
    work = work or _workspace(model, batch_features[0], B)
    H, Q, U = work.H[:B], work.Q[:B], work.U[:B]
    if spec.kind == "emb":
        C, L, d0, M = work.buffer.shape
        V, S = work.V[:B], work.S[:B]
    for b, f in enumerate(batch_features):
        X = _read(model, f, work.buffer)
        _pool(model, X, (H[b: b + 1], Q[b: b + 1], U[b: b + 1]))
        if spec.kind == "emb":
            np.einsum("cldm,m->cld", X[0], Q[b], out=V[b])
            np.einsum("cd,cldm->clm", params["pooler_w"].reshape(C, d0), X[0], out=S[b])
    acts = []
    logits = _head(params, U, acts)
    probs = softmax(logits, axis=1)
    loss = _logit_loss(logits, labels)

    dz = probs.copy()
    dz[np.arange(B), labels] -= 1.0
    dz /= B

    for i in range(len(acts) - 1, -1, -1):
        grads["head_w%d" % i] = dz.T @ acts[i]
        grads["head_b%d" % i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ params["head_w%d" % i]
            dz = da * np.where(acts[i] > 0, 1.0, LEAKY_SLOPE)
    g = dz @ params["head_w0"]  # (B, d) gradient w.r.t. pooled U

    dQ = np.einsum("bdm,bd->bm", H, g)
    dS = Q * (dQ - np.sum(dQ * Q, axis=1, keepdims=True))
    grads["pooler_w"] = np.einsum("bdm,bm->d", H, dS)

    if spec.kind == "emb":
        # dH_b = g_b Q_b^T + pooler_w dS_b^T, so dw_l = sum_b <dH_b, X_bl>
        # is g_b . V_bl plus s_bl . dS_b; a masked channel reads 0 in both
        dw = (np.einsum("bcld,bcd->l", V, g.reshape(B, C, d0))
              + np.einsum("bclm,bm->l", S, dS))
        w = softmax(params["layer_logits"])
        grads["layer_logits"] = w * (dw - np.sum(dw * w))

    return loss, grads


def _apply_sgd(model: InterruptionModel, grads: dict, lr: float) -> None:
    """One SGD step, each parameter updated in place."""
    for name, g in grads.items():
        model.params[name] -= lr * g


def evaluate_loss(model: InterruptionModel, dataset, work: _Workspace | None = None) -> float:
    """Mean cross-entropy over a labeled dataset, in inference mode,
    pooling in work as forward_batch does."""
    feats = [f for f, _ in dataset]
    labels = np.asarray([y for _, y in dataset])
    return _logit_loss(forward_batch(model, feats, logits=True, work=work), labels)


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
    layer_weights: list | None  # softmax(layer_logits) after each epoch; None for matrix


def train(dataset, config: TrainConfig = TrainConfig(), val_dataset=None,
          channels: str = CHANNELS_BOTH,
          head_widths: tuple = HEAD_WIDTHS) -> TrainResult:
    """Mini-batch SGD on mean cross-entropy.

    dataset is a sequence of (features, class_index) pairs with one
    shared feature contract. Per-epoch train loss is the mean of the
    batch losses seen that epoch; when a validation set is given, the
    best-validation parameters are restored at the end (early stopping
    with the configured patience). Deterministic for a fixed seed.
    Every clip must match the first one's feature spec. A step, like
    validation, reads and pools one clip at a time, so batch_size sets
    how many clips an SGD step averages over, not how many are held.
    Steps and validation share one _workspace, allocated here.
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
    work = _workspace(model, features[0], min(n, config.batch_size))
    train_curve, val_curve = [], []
    layer_weights = [] if "layer_logits" in model.params else None
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
                loss, grads = _loss_and_grads(model, batch, batch_labels, work)
                if not np.isfinite(loss):
                    raise TrainingDivergedError("non-finite loss at " + where)
                _apply_sgd(model, grads, config.learning_rate)
            batch_losses.append(loss)
        train_curve.append(float(np.mean(batch_losses)))
        if layer_weights is not None:
            layer_weights.append(softmax(model.params["layer_logits"]).tolist())

        if val_dataset:
            with _diverged_at("validation after epoch %d" % epoch):
                v = evaluate_loss(model, val_dataset, work)
            val_curve.append(v)
            if v < best[0]:
                snapshot = {name: a.copy() for name, a in model.params.items()}
                best = (v, snapshot, epoch)
            elif epoch - best[2] >= config.patience:
                stopped = epoch + 1
                break

    if val_dataset and best[1] is not None:
        model.params = best[1]
    return TrainResult(model, train_curve, val_curve, stopped, layer_weights)


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
    header_bytes = json_line(header).encode()
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
            header = parse_json(fh.read(header_len).decode())
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
