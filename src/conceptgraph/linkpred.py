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

import bisect
import itertools
import math
import random
from collections import abc
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import files
from .textnorm import normalize_name


class _Numpy:
    """Stands in for numpy until the first numeric call, which imports it
    and rebinds np, so importing this module does not load numpy."""

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _Numpy()

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


class TrainingDiverged(LinkPredError):
    """The training loss stopped being a finite number."""


def _finite_loss(loss: float, epoch: int) -> float:
    """loss itself; a NaN or infinite loss at epoch (1-based) raises
    TrainingDiverged, so a diverged model is never returned."""
    if not math.isfinite(loss):
        raise TrainingDiverged(f"training diverged at epoch {epoch}: the loss is {loss}")
    return loss


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


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """D^(-1/2) (A + I) D^(-1/2) with zero-degree rows left at zero."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"adjacency must be square, got shape {a.shape}")
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
        files.write_json(path, payload)

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
    propagated: tuple[np.ndarray, ...]
    pre_activations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1] if self.activations else self.h0


def gcn_forward(x: np.ndarray, a_norm: np.ndarray, model: GcnModel) -> ForwardState:
    """Linear projection, then relu((A_hat H) W) per layer.

    A_hat H is kept for the backward pass. It is the left product that
    `a_norm @ state @ w` evaluates first, so keeping it changes no bit.
    """
    h = x @ model.w_proj
    prop: list[np.ndarray] = []
    pre: list[np.ndarray] = []
    act: list[np.ndarray] = []
    state = h
    for w in model.w_layers:
        p = a_norm @ state
        z = p @ w
        state = np.maximum(z, 0.0)
        prop.append(p)
        pre.append(z)
        act.append(state)
    return ForwardState(
        h0=h, propagated=tuple(prop), pre_activations=tuple(pre), activations=tuple(act)
    )


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
    batch: np.ndarray | Sequence[tuple[int, int, int]],
) -> tuple[float, GcnGrads]:
    """Mean BCE over the labeled (i, j, y) entries plus analytic gradients.

    batch is an (n, 3) integer array or a sequence of (i, j, y) triples.
    The score gradient (sigmoid(S) - y) / |B| is placed on the labeled
    entries of an otherwise-zero matrix and pushed back through the
    bilinear scorer, each convolution, and the projection.
    """
    batch = np.asarray(batch)
    if len(batch) == 0:
        raise DegenerateLabels("empty training batch")
    state = gcn_forward(x, a_norm, model)
    x_hat = state.output
    scores = x_hat @ model.r @ x_hat.T
    rows, cols = batch[:, 0], batch[:, 1]
    labels = batch[:, 2].astype(np.float64)
    logits = scores[rows, cols]
    loss = bce_from_logits(logits, labels)

    g = np.zeros_like(scores)
    np.add.at(g, (rows, cols), (sigmoid(logits) - labels) / len(batch))

    d_r = x_hat.T @ g @ x_hat
    d_h = g @ x_hat @ model.r.T + g.T @ x_hat @ model.r

    d_layers: list[np.ndarray] = []
    for idx in reversed(range(len(model.w_layers))):
        d_z = d_h * (state.pre_activations[idx] > 0)
        d_layers.append(state.propagated[idx].T @ d_z)
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
    momentum: float = 0.0

    def __post_init__(self) -> None:
        # each float check is written so that NaN fails it
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise LinkPredError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.epochs < 1:
            raise LinkPredError(f"epochs must be positive, got {self.epochs}")
        if not self.negative_ratio >= 0:
            raise LinkPredError(f"negative_ratio must be non-negative, got {self.negative_ratio}")
        if not 0.0 <= self.momentum < 1.0:
            raise LinkPredError(f"momentum must be in [0, 1), got {self.momentum}")


LabeledPair = tuple[str, str, int]


def _pair_rows(
    pairs: Sequence[tuple[str, str]], node_order: Sequence[str]
) -> np.ndarray:
    """(n, 2) rows of the pairs' endpoints in node_order, matched by
    normalized name."""
    index = {name: i for i, name in enumerate(node_order)}

    def row(name: str) -> int:
        try:
            return index[normalize_name(name)]
        except KeyError:
            raise MissingEmbedding(f"no embedding for {name!r}") from None

    return np.array([(row(a), row(b)) for a, b in pairs], dtype=np.intp).reshape(-1, 2)


class _FreePairs(abc.Sequence):
    """The ordered pairs (i, j), i != j, of n nodes that are not taken, in
    row-major order, without listing them.

    random.Random.sample draws by length and index alone, so it picks the
    same pairs from this as from the full list.
    """

    def __init__(self, n: int, taken: set[tuple[int, int]]):
        skips: list[list[int]] = [[i] for i in range(n)]
        for i, j in taken:
            if i != j:
                skips[i].append(j)
        self._skips = [sorted(row) for row in skips]
        # self._starts[i] is the index of row i's first free pair
        self._starts = list(
            itertools.accumulate((n - len(row) for row in self._skips), initial=0)
        )

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, k: int) -> tuple[int, int]:
        if not 0 <= k < len(self):
            raise IndexError(k)
        i = bisect.bisect_right(self._starts, k) - 1
        j = k - self._starts[i]
        for skipped in self._skips[i]:
            if skipped > j:
                break
            j += 1
        return i, j


def _assemble_batch(
    rows: Sequence[LabeledPair], node_order: Sequence[str], config: TrainConfig
) -> np.ndarray:
    """Map labeled name pairs to an (n, 3) array of (i, j, y) triples,
    sampling negatives from the unlabeled ordered pairs when the rows
    carry none."""
    labels = [label for _, _, label in rows]
    for label in labels:
        if label not in (0, 1):
            raise LinkPredError(f"labels must be 0 or 1, got {label!r}")
    ends = _pair_rows([(a, b) for a, b, _ in rows], node_order)
    batch = np.column_stack([ends, np.array(labels, dtype=np.intp)])
    if 1 not in labels:
        raise DegenerateLabels("no positive pairs in the training rows")
    if 0 in labels:
        return batch
    if config.negative_ratio == 0:
        raise DegenerateLabels("no negative pairs in the training rows")
    pool = _FreePairs(len(node_order), set(map(tuple, ends.tolist())))
    wanted = config.negative_ratio * len(rows)
    # capped before rounding, since round() overflows on an infinite count
    count = max(1, round(min(wanted, len(pool) + 1)))
    if count > len(pool):
        raise DegenerateLabels(
            f"cannot sample {wanted:g} negatives from {len(pool)} free pairs"
        )
    sampled = random.Random(config.seed).sample(pool, count)
    return np.concatenate([batch, np.array([(i, j, 0) for i, j in sampled], dtype=np.intp)])


def _message_adjacency(
    rows: Sequence[LabeledPair], node_order: Sequence[str]
) -> np.ndarray:
    ends = _pair_rows([(a, b) for a, b, label in rows if label == 1], node_order)
    a = np.zeros((len(node_order), len(node_order)))
    a[ends[:, 0], ends[:, 1]] = 1.0
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
    batch = _assemble_batch(rows, node_order, config)
    a_norm = normalize_adjacency(_message_adjacency(rows, node_order))
    x = store.matrix(node_order)
    model = GcnModel.init(store.dim, proj_width, layer_widths, config.seed)
    weights = (model.w_proj, *model.w_layers, model.r)
    velocities = tuple(np.zeros_like(w) for w in weights)
    losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        loss, grads = gcn_loss_and_grads(x, a_norm, model, batch)
        losses.append(_finite_loss(loss, epoch))
        for w, v, g in zip(
            weights, velocities, (grads.w_proj, *grads.w_layers, grads.r), strict=True
        ):
            v *= config.momentum
            v -= config.learning_rate * g
            w += v
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
    ends = _pair_rows(pairs, node_order)
    a_norm = normalize_adjacency(_message_adjacency(message_rows, node_order))
    x_hat = gcn_forward(store.matrix(node_order), a_norm, model).output
    return score_all_pairs(x_hat, model)[ends[:, 0], ends[:, 1]]


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
        files.write_json(path, payload)

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


def _concat_features(store: EmbeddingStore, ends: np.ndarray) -> np.ndarray:
    """Row k is [e_a; e_b] for the row pair ends[k]: one gather into an
    (n, 2, dim) array, viewed as (n, 2 * dim) without a copy."""
    return store.matrix(store.names)[ends].reshape(len(ends), 2 * store.dim)


def train_concat(
    store: EmbeddingStore,
    rows: Sequence[LabeledPair],
    config: TrainConfig,
) -> tuple[ConcatModel, tuple[float, ...]]:
    """Gradient descent from zero weights; returns (model, loss curve)."""
    batch = _assemble_batch(rows, store.names, config)
    labels = batch[:, 2].astype(np.float64)
    features = _concat_features(store, batch[:, :2])
    weights = np.zeros(features.shape[1])
    bias = 0.0
    v_w = np.zeros_like(weights)
    v_b = 0.0
    losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        logits = features @ weights + bias
        losses.append(_finite_loss(bce_from_logits(logits, labels), epoch))
        residual = (sigmoid(logits) - labels) / len(labels)
        g_w = features.T @ residual
        g_b = float(residual.sum())
        v_w *= config.momentum
        v_w -= config.learning_rate * g_w
        v_b = config.momentum * v_b - config.learning_rate * g_b
        weights += v_w
        bias = bias + v_b
    return ConcatModel(weights=weights, bias=bias), tuple(losses)


def predict_concat(
    model: ConcatModel, store: EmbeddingStore, pairs: Sequence[tuple[str, str]]
) -> np.ndarray:
    features = _concat_features(store, _pair_rows(pairs, store.names))
    if features.shape[1] != model.weights.size:
        raise DimensionMismatch(
            f"model expects {model.weights.size} features, pairs give "
            f"{features.shape[1]}"
        )
    return sigmoid(features @ model.weights + model.bias)


def labels_from_scores(scores: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Probabilities to 0/1 labels; ties at the threshold go positive."""
    return (np.asarray(scores) >= threshold).astype(np.int64)
