"""Supervised link prediction over concept embeddings.

Two predictors, both trained with plain full-batch gradient descent and
hand-derived gradients so runs are reproducible to the last bit:

- a graph convolutional encoder with a bilinear edge scorer, where the
  forward pass is H_0 = X W_p followed by H_l = relu(A_hat H_{l-1} W_l)
  over the symmetrically normalized adjacency, and pair scores are
  sigmoid(X_hat R X_hat^T);
- a logistic classifier over concatenated pair embeddings [e_a; e_b].

Message passing uses positive training edges only; negative pairs enter
the loss, never the adjacency.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import files
from .textnorm import normalize_name

GCN_FORMAT = "conceptgraph.gcn-checkpoint"
CONCAT_FORMAT = "conceptgraph.concat-checkpoint"
CHECKPOINT_VERSION = 1
INIT_SCALE = 0.05


class LinkPredError(Exception):
    """Base class for link-prediction failures."""


class MissingEmbedding(LinkPredError):
    """A concept named in the training rows has no embedding."""


class DimensionMismatch(LinkPredError):
    """Vectors of different widths were mixed."""


class NonSquare(LinkPredError):
    """Adjacency normalization needs a square matrix."""


class DegenerateLabels(LinkPredError):
    """Training needs both a positive and a negative class."""


class CheckpointFormatError(LinkPredError):
    """A serialized model is malformed or has the wrong version."""


# -- embeddings ---------------------------------------------------------------


class EmbeddingStore:
    """Concept name -> float vector, keyed by normalized name.

    All vectors share one width and must be finite.
    """

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        self._vectors: dict[str, np.ndarray] = {}
        self.dim = 0
        for name, raw in vectors.items():
            vec = np.asarray(raw, dtype=np.float64)
            if vec.ndim != 1 or vec.size == 0:
                raise DimensionMismatch(f"embedding for {name!r} is not a vector")
            if not np.all(np.isfinite(vec)):
                raise LinkPredError(f"embedding for {name!r} has non-finite entries")
            if self.dim == 0:
                self.dim = vec.size
            elif vec.size != self.dim:
                raise DimensionMismatch(
                    f"embedding for {name!r} has width {vec.size}, expected {self.dim}"
                )
            key = normalize_name(name)
            if key in self._vectors:
                raise LinkPredError(f"duplicate embedding for {name!r}")
            self._vectors[key] = vec
        if not self._vectors:
            raise LinkPredError("embedding store is empty")

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, name: str) -> bool:
        return normalize_name(name) in self._vectors

    @property
    def names(self) -> tuple[str, ...]:
        """Normalized names in sorted order; the canonical node order."""
        return tuple(sorted(self._vectors))

    def vector(self, name: str) -> np.ndarray:
        key = normalize_name(name)
        try:
            return self._vectors[key]
        except KeyError:
            raise MissingEmbedding(f"no embedding for {name!r}") from None

    def matrix(self, order: Sequence[str]) -> np.ndarray:
        """Vectors stacked as rows under the given name order."""
        return np.stack([self.vector(name) for name in order])

    def save_jsonl(self, path: str | Path) -> None:
        rows = ({"concept": n, "vector": self._vectors[n].tolist()} for n in self.names)
        files.write_jsonl(path, rows)

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "EmbeddingStore":
        vectors: dict[str, list[float]] = {}
        for lineno, row in files.read_jsonl(path, LinkPredError):
            try:
                vectors[str(row["concept"])] = [float(v) for v in row["vector"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise LinkPredError(f"{path}: line {lineno}: bad row: {exc}") from exc
        return cls(vectors)


# -- numerics -----------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, softplus(s) - y*s form; never overflows."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, logits) - labels * logits))


def normalize_adjacency(a: np.ndarray, add_self_loops: bool = True) -> np.ndarray:
    """D^(-1/2) (A [+ I]) D^(-1/2) with zero-degree rows left at zero."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"adjacency must be square, got shape {a.shape}")
    if add_self_loops:
        a = a + np.eye(a.shape[0])
    degrees = a.sum(axis=1)
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = degrees[nonzero] ** -0.5
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


# -- the GCN ------------------------------------------------------------------


@dataclass
class GcnModel:
    """Projection, convolution layers, and the bilinear scorer R."""

    w_proj: np.ndarray
    w_layers: tuple[np.ndarray, ...]
    r: np.ndarray

    def __post_init__(self) -> None:
        width = self.w_proj.shape[1]
        for i, w in enumerate(self.w_layers):
            if w.shape[0] != width:
                raise DimensionMismatch(
                    f"layer {i} expects input width {w.shape[0]}, chain gives {width}"
                )
            width = w.shape[1]
        if self.r.shape != (width, width):
            raise DimensionMismatch(
                f"scorer must be {width}x{width}, got {self.r.shape}"
            )

    @property
    def output_dim(self) -> int:
        return self.r.shape[0]

    @classmethod
    def init(
        cls,
        in_dim: int,
        proj_width: int,
        layer_widths: Sequence[int],
        seed: int,
    ) -> "GcnModel":
        """Uniform [-0.05, 0.05] weights from a seeded generator."""
        rng = np.random.default_rng(seed)

        def draw(rows: int, cols: int) -> np.ndarray:
            return rng.uniform(-INIT_SCALE, INIT_SCALE, size=(rows, cols))

        widths = [proj_width, *layer_widths]
        layers = tuple(
            draw(widths[i], widths[i + 1]) for i in range(len(layer_widths))
        )
        out = widths[-1]
        return cls(w_proj=draw(in_dim, proj_width), w_layers=layers, r=draw(out, out))

    def save(self, path: str | Path) -> None:
        payload = {
            "format": GCN_FORMAT,
            "version": CHECKPOINT_VERSION,
            "w_proj": self.w_proj.tolist(),
            "w_layers": [w.tolist() for w in self.w_layers],
            "r": self.r.tolist(),
        }
        files.write_text_atomic(path, json.dumps(payload, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "GcnModel":
        payload = files.read_versioned_json(
            path, GCN_FORMAT, CHECKPOINT_VERSION, CheckpointFormatError
        )
        try:
            return cls(
                w_proj=np.asarray(payload["w_proj"], dtype=np.float64),
                w_layers=tuple(
                    np.asarray(w, dtype=np.float64) for w in payload["w_layers"]
                ),
                r=np.asarray(payload["r"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(f"{path}: bad weight arrays: {exc}") from exc


@dataclass
class ForwardState:
    """Activations kept for the backward pass."""

    h0: np.ndarray
    pre_activations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1] if self.activations else self.h0


def gcn_forward(x: np.ndarray, a_norm: np.ndarray, model: GcnModel) -> ForwardState:
    """Linear projection, then relu(A_hat H W) per layer."""
    h = x @ model.w_proj
    pre: list[np.ndarray] = []
    act: list[np.ndarray] = []
    state = h
    for w in model.w_layers:
        z = a_norm @ state @ w
        state = np.maximum(z, 0.0)
        pre.append(z)
        act.append(state)
    return ForwardState(h0=h, pre_activations=tuple(pre), activations=tuple(act))


def score_all_pairs(x_hat: np.ndarray, model: GcnModel) -> np.ndarray:
    """sigmoid(X_hat R X_hat^T): probability for every ordered pair."""
    return sigmoid(x_hat @ model.r @ x_hat.T)


@dataclass
class GcnGrads:
    w_proj: np.ndarray
    w_layers: tuple[np.ndarray, ...]
    r: np.ndarray


def gcn_loss_and_grads(
    x: np.ndarray,
    a_norm: np.ndarray,
    model: GcnModel,
    batch: Sequence[tuple[int, int, int]],
) -> tuple[float, GcnGrads]:
    """Mean BCE over the labeled (i, j, y) entries plus analytic gradients.

    The score gradient (sigmoid(S) - y) / |B| is placed on the labeled
    entries of an otherwise-zero matrix and pushed back through the
    bilinear scorer, each convolution, and the projection.
    """
    if not batch:
        raise DegenerateLabels("empty training batch")
    state = gcn_forward(x, a_norm, model)
    x_hat = state.output
    scores = x_hat @ model.r @ x_hat.T
    rows = np.array([b[0] for b in batch])
    cols = np.array([b[1] for b in batch])
    labels = np.array([b[2] for b in batch], dtype=np.float64)
    logits = scores[rows, cols]
    loss = bce_from_logits(logits, labels)

    g = np.zeros_like(scores)
    np.add.at(g, (rows, cols), (sigmoid(logits) - labels) / len(batch))

    d_r = x_hat.T @ g @ x_hat
    d_h = g @ x_hat @ model.r.T + g.T @ x_hat @ model.r

    d_layers: list[np.ndarray] = []
    for idx in range(len(model.w_layers) - 1, -1, -1):
        d_z = d_h * (state.pre_activations[idx] > 0)
        below = state.activations[idx - 1] if idx > 0 else state.h0
        propagated = a_norm @ below
        d_layers.append(propagated.T @ d_z)
        d_h = a_norm.T @ d_z @ model.w_layers[idx].T
    d_proj = x.T @ d_h
    return loss, GcnGrads(
        w_proj=d_proj, w_layers=tuple(reversed(d_layers)), r=d_r
    )


# -- training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    seed: int = 0
    negative_ratio: float = 1.0
    edge_threshold: float = 0.5
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise LinkPredError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise LinkPredError(f"epochs must be positive, got {self.epochs}")
        if self.negative_ratio < 0:
            raise LinkPredError("negative_ratio must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise LinkPredError(f"momentum must be in [0, 1), got {self.momentum}")


LabeledPair = tuple[str, str, int]


def _assemble_batch(
    store: EmbeddingStore,
    rows: Sequence[LabeledPair],
    node_order: Sequence[str],
    config: TrainConfig,
) -> list[tuple[int, int, int]]:
    """Map labeled name pairs to index triples, sampling negatives from
    the unlabeled ordered pairs when the rows carry none."""
    index = {name: i for i, name in enumerate(node_order)}
    batch: list[tuple[int, int, int]] = []
    for a, b, label in rows:
        if label not in (0, 1):
            raise LinkPredError(f"labels must be 0 or 1, got {label!r}")
        ka, kb = normalize_name(a), normalize_name(b)
        if ka not in index:
            raise MissingEmbedding(f"no embedding for {a!r}")
        if kb not in index:
            raise MissingEmbedding(f"no embedding for {b!r}")
        batch.append((index[ka], index[kb], label))
    positives = [(i, j) for i, j, y in batch if y == 1]
    negatives = [(i, j) for i, j, y in batch if y == 0]
    if not positives:
        raise DegenerateLabels("no positive pairs in the training rows")
    if not negatives and config.negative_ratio > 0:
        taken = set(positives)
        pool = [
            (i, j)
            for i in range(len(node_order))
            for j in range(len(node_order))
            if i != j and (i, j) not in taken
        ]
        wanted = max(1, round(config.negative_ratio * len(positives)))
        if len(pool) < wanted:
            raise DegenerateLabels(
                f"cannot sample {wanted} negatives from {len(pool)} free pairs"
            )
        rng = random.Random(config.seed)
        negatives = rng.sample(pool, wanted)
        batch.extend((i, j, 0) for i, j in negatives)
    if not negatives:
        raise DegenerateLabels("no negative pairs in the training rows")
    return batch


def _message_adjacency(
    rows: Sequence[LabeledPair], node_order: Sequence[str]
) -> np.ndarray:
    index = {name: i for i, name in enumerate(node_order)}
    a = np.zeros((len(node_order), len(node_order)))
    for src, dst, label in rows:
        if label == 1:
            a[index[normalize_name(src)], index[normalize_name(dst)]] = 1.0
    return a


@dataclass
class TrainResult:
    model: GcnModel
    node_order: tuple[str, ...]
    losses: tuple[float, ...]


def train_gcn(
    store: EmbeddingStore,
    rows: Sequence[LabeledPair],
    config: TrainConfig,
    *,
    proj_width: int = 256,
    layer_widths: Sequence[int] = (128,),
) -> TrainResult:
    """Full-batch gradient descent (optional momentum) on BCE.

    Nodes are every embedded concept in normalized-name order; message
    passing sees positive rows only.
    """
    node_order = store.names
    batch = _assemble_batch(store, rows, node_order, config)
    a_norm = normalize_adjacency(_message_adjacency(rows, node_order))
    x = store.matrix(node_order)
    model = GcnModel.init(store.dim, proj_width, layer_widths, config.seed)
    velocity = GcnGrads(
        w_proj=np.zeros_like(model.w_proj),
        w_layers=tuple(np.zeros_like(w) for w in model.w_layers),
        r=np.zeros_like(model.r),
    )
    losses: list[float] = []
    for _ in range(config.epochs):
        loss, grads = gcn_loss_and_grads(x, a_norm, model, batch)
        losses.append(loss)
        velocity.w_proj = config.momentum * velocity.w_proj - config.learning_rate * grads.w_proj
        velocity.w_layers = tuple(
            config.momentum * v - config.learning_rate * g
            for v, g in zip(velocity.w_layers, grads.w_layers, strict=True)
        )
        velocity.r = config.momentum * velocity.r - config.learning_rate * grads.r
        model.w_proj = model.w_proj + velocity.w_proj
        model.w_layers = tuple(
            w + v for w, v in zip(model.w_layers, velocity.w_layers, strict=True)
        )
        model.r = model.r + velocity.r
    return TrainResult(model=model, node_order=node_order, losses=tuple(losses))


def predict_gcn(
    model: GcnModel,
    store: EmbeddingStore,
    message_rows: Sequence[LabeledPair],
    pairs: Sequence[tuple[str, str]],
) -> np.ndarray:
    """Edge probabilities for name pairs under the trained encoder.

    message_rows must be the labeled rows the model was trained with so
    the adjacency matches.
    """
    node_order = store.names
    index = {name: i for i, name in enumerate(node_order)}
    a_norm = normalize_adjacency(_message_adjacency(message_rows, node_order))
    x_hat = gcn_forward(store.matrix(node_order), a_norm, model).output
    probabilities = score_all_pairs(x_hat, model)
    out = np.empty(len(pairs))
    for k, (a, b) in enumerate(pairs):
        ka, kb = normalize_name(a), normalize_name(b)
        if ka not in index:
            raise MissingEmbedding(f"no embedding for {a!r}")
        if kb not in index:
            raise MissingEmbedding(f"no embedding for {b!r}")
        out[k] = probabilities[index[ka], index[kb]]
    return out


# -- concatenation classifier ----------------------------------------------------


@dataclass
class ConcatModel:
    """Logistic regression over [e_a; e_b]."""

    weights: np.ndarray
    bias: float

    def save(self, path: str | Path) -> None:
        payload = {
            "format": CONCAT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "weights": self.weights.tolist(),
            "bias": self.bias,
        }
        files.write_text_atomic(path, json.dumps(payload, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ConcatModel":
        payload = files.read_versioned_json(
            path, CONCAT_FORMAT, CHECKPOINT_VERSION, CheckpointFormatError
        )
        try:
            return cls(
                weights=np.asarray(payload["weights"], dtype=np.float64),
                bias=float(payload["bias"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(f"{path}: bad weights: {exc}") from exc


def _concat_features(
    store: EmbeddingStore, pairs: Sequence[tuple[str, str]]
) -> np.ndarray:
    return np.stack(
        [np.concatenate([store.vector(a), store.vector(b)]) for a, b in pairs]
    )


def train_concat(
    store: EmbeddingStore,
    rows: Sequence[LabeledPair],
    config: TrainConfig,
) -> tuple[ConcatModel, tuple[float, ...]]:
    """Gradient descent from zero weights; returns (model, loss curve)."""
    node_order = store.names
    batch = _assemble_batch(store, rows, node_order, config)
    pairs = [(node_order[i], node_order[j]) for i, j, _ in batch]
    labels = np.array([y for _, _, y in batch], dtype=np.float64)
    features = _concat_features(store, pairs)
    weights = np.zeros(features.shape[1])
    bias = 0.0
    v_w = np.zeros_like(weights)
    v_b = 0.0
    losses: list[float] = []
    for _ in range(config.epochs):
        logits = features @ weights + bias
        losses.append(bce_from_logits(logits, labels))
        residual = (sigmoid(logits) - labels) / len(labels)
        g_w = features.T @ residual
        g_b = float(residual.sum())
        v_w = config.momentum * v_w - config.learning_rate * g_w
        v_b = config.momentum * v_b - config.learning_rate * g_b
        weights = weights + v_w
        bias = bias + v_b
    return ConcatModel(weights=weights, bias=bias), tuple(losses)


def predict_concat(
    model: ConcatModel, store: EmbeddingStore, pairs: Sequence[tuple[str, str]]
) -> np.ndarray:
    features = _concat_features(store, pairs)
    if features.shape[1] != model.weights.size:
        raise DimensionMismatch(
            f"model expects {model.weights.size} features, pairs give "
            f"{features.shape[1]}"
        )
    return sigmoid(features @ model.weights + model.bias)


def labels_from_scores(scores: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Probabilities to 0/1 labels; ties at the threshold go positive."""
    return (np.asarray(scores) >= threshold).astype(np.int64)
