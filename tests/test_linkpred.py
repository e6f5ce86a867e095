"""Embeddings, adjacency normalization, the GCN with manual gradients,
and the concatenation classifier.

The forward pass and normalization are checked against explicit-loop
oracles; the analytic gradients are checked against central finite
differences.
"""
from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from conceptgraph import files, linkpred
from conceptgraph.linkpred import (
    CheckpointFormatError,
    ConcatModel,
    DegenerateLabels,
    DimensionMismatch,
    EmbeddingStore,
    GcnModel,
    LinkPredError,
    MissingEmbedding,
    NonSquare,
    TrainConfig,
    TrainingDiverged,
    bce_from_logits,
    gcn_forward,
    gcn_loss_and_grads,
    labels_from_scores,
    normalize_adjacency,
    predict_concat,
    predict_gcn,
    score_all_pairs,
    sigmoid,
    train_concat,
    train_gcn,
)
from conceptgraph.textnorm import normalize_name
from synth import (
    FD_EPSILON,
    SEPARABLE_LR,
    SEPARABLE_MOMENTUM,
    SEPARABLE_WIDTHS,
    gradient_check_instance,
    relative_error,
    separable_task,
)


def binary_f1(preds: np.ndarray, labels: np.ndarray) -> float:
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


# -- embedding store -----------------------------------------------------------


def test_embedding_store_lookup_is_name_normalized():
    store = EmbeddingStore({"Hidden  Markov Model": [1.0, 2.0]})
    assert np.array_equal(store.vector("hidden markov model"), [1.0, 2.0])
    assert "HIDDEN MARKOV MODEL" in store
    assert store.dim == 2 and len(store) == 1


def test_embedding_store_validation_errors():
    with pytest.raises(DimensionMismatch):
        EmbeddingStore({"a": [1.0], "b": [1.0, 2.0]})
    with pytest.raises(LinkPredError, match="non-finite"):
        EmbeddingStore({"a": [1.0, float("nan")]})
    with pytest.raises(LinkPredError, match="duplicate"):
        EmbeddingStore({"A B": [1.0], "a  b": [2.0]})
    with pytest.raises(LinkPredError, match="empty"):
        EmbeddingStore({})
    with pytest.raises(DimensionMismatch):
        EmbeddingStore({"a": []})
    store = EmbeddingStore({"a": [1.0]})
    with pytest.raises(MissingEmbedding):
        store.vector("b")


def test_embedding_store_matrix_follows_given_order():
    store = EmbeddingStore({"b": [2.0, 0.0], "a": [1.0, 0.0]})
    assert store.names == ("a", "b")
    m = store.matrix(["b", "a"])
    assert np.array_equal(m, [[2.0, 0.0], [1.0, 0.0]])


def test_embedding_store_jsonl_round_trip(tmp_path):
    store = EmbeddingStore({"alpha": [0.5, -1.25], "beta gamma": [3.0, 4.0]})
    path = tmp_path / "emb.jsonl"
    rows = ({"concept": n, "vector": store.vector(n).tolist()} for n in store.names)
    files.write_jsonl(path, rows)
    loaded = EmbeddingStore.load_jsonl(path)
    assert loaded.names == store.names
    for name in store.names:
        assert np.array_equal(loaded.vector(name), store.vector(name))
    path.write_text('{"concept": "x"}\n')
    with pytest.raises(LinkPredError, match="bad row"):
        EmbeddingStore.load_jsonl(path)


# -- numerics --------------------------------------------------------------------


def test_sigmoid_matches_reference_and_never_overflows():
    xs = np.array([-800.0, -5.0, -0.5, 0.0, 0.5, 5.0, 800.0])
    out = sigmoid(xs)
    for x, o in zip(xs[1:-1], out[1:-1], strict=True):
        assert o == pytest.approx(1.0 / (1.0 + math.exp(-x)), rel=1e-12)
    assert out[0] == 0.0 and out[-1] == 1.0
    assert np.all((out >= 0) & (out <= 1))


def test_bce_matches_direct_formula_and_is_stable():
    logits = np.array([-2.0, -0.3, 0.1, 1.7])
    labels = np.array([0.0, 1.0, 1.0, 0.0])
    direct = -np.mean(
        labels * np.log(sigmoid(logits)) + (1 - labels) * np.log(1 - sigmoid(logits))
    )
    assert bce_from_logits(logits, labels) == pytest.approx(direct, rel=1e-12)
    extreme = bce_from_logits(np.array([1000.0, -1000.0]), np.array([0.0, 1.0]))
    assert math.isfinite(extreme) and extreme == pytest.approx(1000.0)


def test_normalize_adjacency_matches_elementwise_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = rng.integers(2, 7)
        a = (rng.random((n, n)) < 0.5).astype(float)
        np.fill_diagonal(a, 0.0)
        got = normalize_adjacency(a)
        with_loops = a + np.eye(n)
        degrees = with_loops.sum(axis=1)
        for i in range(n):
            for j in range(n):
                want = with_loops[i, j] / math.sqrt(degrees[i] * degrees[j])
                assert got[i, j] == pytest.approx(want, abs=1e-12)


def test_normalize_adjacency_zero_degree_and_shape_guard():
    # with self-loops every degree is at least 1, so an edgeless graph gives I
    assert np.array_equal(normalize_adjacency(np.zeros((3, 3))), np.eye(3))
    with pytest.raises(NonSquare):
        normalize_adjacency(np.zeros((2, 3)))


def test_symmetric_input_stays_symmetric():
    a = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    out = normalize_adjacency(a)
    assert np.allclose(out, out.T)


# -- model container ----------------------------------------------------------------


def test_gcn_init_shapes_bounds_and_determinism():
    m1 = GcnModel.init(in_dim=8, proj_width=5, layer_widths=(4, 3), seed=7)
    assert m1.w_proj.shape == (8, 5)
    assert [w.shape for w in m1.w_layers] == [(5, 4), (4, 3)]
    assert m1.r.shape == (3, 3)
    for arr in (m1.w_proj, *m1.w_layers, m1.r):
        assert np.all(np.abs(arr) <= 0.05)
    m2 = GcnModel.init(8, 5, (4, 3), seed=7)
    assert np.array_equal(m1.w_proj, m2.w_proj)
    m3 = GcnModel.init(8, 5, (4, 3), seed=8)
    assert not np.array_equal(m1.w_proj, m3.w_proj)


def test_gcn_model_rejects_inconsistent_shapes():
    with pytest.raises(DimensionMismatch):
        GcnModel(
            w_proj=np.zeros((4, 5)),
            w_layers=(np.zeros((6, 3)),),
            r=np.zeros((3, 3)),
        )
    with pytest.raises(DimensionMismatch):
        GcnModel(w_proj=np.zeros((4, 5)), w_layers=(), r=np.zeros((3, 3)))


def test_gcn_checkpoint_round_trip_is_exact(tmp_path):
    model = GcnModel.init(6, 4, (3,), seed=3)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    model.save(p1)
    loaded = GcnModel.load(p1)
    assert np.array_equal(loaded.w_proj, model.w_proj)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(loaded.w_layers, model.w_layers, strict=True)
    )
    assert np.array_equal(loaded.r, model.r)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[]")
    with pytest.raises(CheckpointFormatError, match="format marker"):
        GcnModel.load(path)
    path.write_text('{"format": "conceptgraph.gcn-checkpoint", "version": 9}')
    with pytest.raises(CheckpointFormatError, match="version"):
        GcnModel.load(path)
    path.write_text("{")
    with pytest.raises(CheckpointFormatError, match="JSON"):
        GcnModel.load(path)


# -- forward pass -----------------------------------------------------------------


def loop_forward(x, a_norm, model):
    """Element-wise reference: no matrix products."""
    n = x.shape[0]

    def matmul(p, q):
        rows, inner = p.shape
        cols = q.shape[1]
        out = [[0.0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                out[i][j] = sum(p[i][k] * q[k][j] for k in range(inner))
        return np.array(out)

    h = matmul(x, model.w_proj)
    for w in model.w_layers:
        z = matmul(matmul(a_norm, h), w)
        h = np.where(z > 0, z, 0.0)
    return h


def test_gcn_forward_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=(4, 3))
        a = (rng.random((4, 4)) < 0.5).astype(float)
        np.fill_diagonal(a, 0)
        a_norm = normalize_adjacency(a)
        model = GcnModel.init(3, 3, (2,), seed=int(rng.integers(100)))
        got = gcn_forward(x, a_norm, model).output
        want = loop_forward(x, a_norm, model)
        assert np.allclose(got, want, atol=1e-12)
        assert np.all(got >= 0)


def test_gcn_forward_without_layers_is_projection_only():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = GcnModel(w_proj=np.array([[1.0, 0.0], [0.0, -1.0]]), w_layers=(), r=np.eye(2))
    state = gcn_forward(x, np.eye(2), model)
    assert np.array_equal(state.output, [[1.0, -2.0], [3.0, -4.0]])


def test_score_all_pairs_matches_pairwise_loop():
    rng = np.random.default_rng(6)
    x_hat = rng.normal(size=(5, 3))
    model = GcnModel.init(3, 3, (3,), seed=1)
    got = score_all_pairs(x_hat, model)
    for i in range(5):
        for j in range(5):
            want = sigmoid(np.array([float(x_hat[i] @ model.r @ x_hat[j])]))[0]
            assert got[i, j] == pytest.approx(want, abs=1e-12)


# -- gradients ----------------------------------------------------------------------


def test_loss_is_mean_bce_of_labeled_entries():
    x, a_norm, model, batch = gradient_check_instance()
    loss, _ = gcn_loss_and_grads(x, a_norm, model, batch)
    x_hat = gcn_forward(x, a_norm, model).output
    scores = x_hat @ model.r @ x_hat.T
    logits = np.array([scores[i, j] for i, j, _ in batch])
    labels = np.array([y for _, _, y in batch], dtype=float)
    assert loss == pytest.approx(bce_from_logits(logits, labels), rel=1e-12)


def test_empty_batch_is_rejected():
    x, a_norm, model, _ = gradient_check_instance()
    with pytest.raises(DegenerateLabels):
        gcn_loss_and_grads(x, a_norm, model, [])


def test_analytic_gradients_match_finite_differences():
    x, a_norm, model, batch = gradient_check_instance()
    state = gcn_forward(x, a_norm, model)
    kink_margin = min(float(np.min(np.abs(z))) for z in state.pre_activations)
    assert kink_margin > 10 * FD_EPSILON, "instance too close to a ReLU kink"

    _, grads = gcn_loss_and_grads(x, a_norm, model, batch)
    checked = 0
    for arr, grad in [
        (model.w_proj, grads.w_proj),
        (model.r, grads.r),
        *zip(model.w_layers, grads.w_layers, strict=True),
    ]:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + FD_EPSILON
            up = gcn_loss_and_grads(x, a_norm, model, batch)[0]
            arr[idx] = orig - FD_EPSILON
            down = gcn_loss_and_grads(x, a_norm, model, batch)[0]
            arr[idx] = orig
            numeric = (up - down) / (2 * FD_EPSILON)
            assert relative_error(float(grad[idx]), numeric) <= 1e-4, (
                type(arr),
                idx,
            )
            checked += 1
    assert checked == model.w_proj.size + model.r.size + sum(
        w.size for w in model.w_layers
    )


# -- training --------------------------------------------------------------------------


def test_train_gcn_is_deterministic_per_seed():
    store, rows = separable_task()
    config = TrainConfig(
        learning_rate=SEPARABLE_LR, epochs=30, seed=4, momentum=SEPARABLE_MOMENTUM
    )
    r1 = train_gcn(store, rows, config, **SEPARABLE_WIDTHS)
    r2 = train_gcn(store, rows, config, **SEPARABLE_WIDTHS)
    assert r1.losses == r2.losses
    assert np.array_equal(r1.model.r, r2.model.r)
    other = train_gcn(
        store,
        rows,
        TrainConfig(
            learning_rate=SEPARABLE_LR, epochs=30, seed=5, momentum=SEPARABLE_MOMENTUM
        ),
        **SEPARABLE_WIDTHS,
    )
    assert r1.losses != other.losses


def test_train_gcn_reaches_high_f1_on_separable_task():
    store, rows = separable_task()
    config = TrainConfig(
        learning_rate=SEPARABLE_LR,
        epochs=200,
        seed=0,
        momentum=SEPARABLE_MOMENTUM,
    )
    result = train_gcn(store, rows, config, **SEPARABLE_WIDTHS)
    assert result.losses[-1] < result.losses[0]
    pairs = [(a, b) for a, b, _ in rows]
    labels = np.array([y for _, _, y in rows])
    preds = labels_from_scores(predict_gcn(result.model, store, rows, pairs))
    assert binary_f1(preds, labels) >= 0.95


def test_train_gcn_error_cases():
    store, rows = separable_task()
    config = TrainConfig(learning_rate=0.1, epochs=2)
    with pytest.raises(MissingEmbedding):
        train_gcn(store, [("nope", "tgt 00", 1)], config)
    with pytest.raises(DegenerateLabels, match="no positive"):
        train_gcn(store, [(a, b, 0) for a, b, _ in rows[:4]], config)
    with pytest.raises(LinkPredError, match="labels must be 0 or 1"):
        train_gcn(store, [("src 00", "tgt 00", 2)], config)
    no_negatives = [row for row in rows if row[2] == 1]
    with pytest.raises(DegenerateLabels, match="no negative"):
        train_gcn(
            store,
            no_negatives,
            TrainConfig(learning_rate=0.1, epochs=2, negative_ratio=0.0),
        )


def test_train_gcn_samples_negatives_when_rows_have_none():
    store, rows = separable_task()
    positives = [row for row in rows if row[2] == 1]
    config = TrainConfig(learning_rate=SEPARABLE_LR, epochs=5, seed=9)
    r1 = train_gcn(store, positives, config, **SEPARABLE_WIDTHS)
    r2 = train_gcn(store, positives, config, **SEPARABLE_WIDTHS)
    assert r1.losses == r2.losses
    different_seed = train_gcn(
        store,
        positives,
        TrainConfig(learning_rate=SEPARABLE_LR, epochs=5, seed=10),
        **SEPARABLE_WIDTHS,
    )
    assert r1.losses != different_seed.losses


def test_train_config_validation():
    with pytest.raises(LinkPredError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(LinkPredError):
        TrainConfig(epochs=0)
    with pytest.raises(LinkPredError):
        TrainConfig(negative_ratio=-1.0)
    with pytest.raises(LinkPredError):
        TrainConfig(momentum=1.0)


def test_predict_gcn_bounds_and_unknown_names():
    store, rows = separable_task()
    config = TrainConfig(learning_rate=SEPARABLE_LR, epochs=5, seed=0)
    result = train_gcn(store, rows, config, **SEPARABLE_WIDTHS)
    probs = predict_gcn(result.model, store, rows, [("src 00", "tgt 01")])
    assert probs.shape == (1,)
    assert 0.0 < probs[0] < 1.0
    with pytest.raises(MissingEmbedding):
        predict_gcn(result.model, store, rows, [("src 00", "mystery")])


# -- concatenation classifier --------------------------------------------------------------


def concat_task():
    store = EmbeddingStore({f"c {i}": np.eye(10)[i].tolist() for i in range(10)})
    sources = [f"c {i}" for i in range(5)]
    targets = [f"c {i}" for i in range(5, 10)]
    rows = [(a, b, 1) for a in sources for b in targets][:12]
    rows += [(b, a, 0) for a in sources for b in targets][:12]
    return store, rows


def test_train_concat_learns_separable_pairs():
    store, rows = concat_task()
    model, losses = train_concat(store, rows, TrainConfig(learning_rate=2.0, epochs=200))
    assert losses[-1] < 0.1 < losses[0]
    pairs = [(a, b) for a, b, _ in rows]
    labels = np.array([y for _, _, y in rows])
    preds = labels_from_scores(predict_concat(model, store, pairs))
    assert binary_f1(preds, labels) == 1.0


def test_train_concat_is_deterministic():
    store, rows = concat_task()
    config = TrainConfig(learning_rate=1.0, epochs=40)
    m1, l1 = train_concat(store, rows, config)
    m2, l2 = train_concat(store, rows, config)
    assert l1 == l2
    assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias


def test_concat_checkpoint_round_trip(tmp_path):
    store, rows = concat_task()
    model, _ = train_concat(store, rows, TrainConfig(learning_rate=1.0, epochs=5))
    path = tmp_path / "concat.json"
    model.save(path)
    loaded = ConcatModel.load(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    with pytest.raises(DimensionMismatch):
        predict_concat(
            loaded, EmbeddingStore({"a": [1.0], "b": [0.5]}), [("a", "b")]
        )


def test_labels_from_scores_threshold_and_ties():
    scores = np.array([0.1, 0.5, 0.9])
    assert labels_from_scores(scores).tolist() == [0, 1, 1]
    assert labels_from_scores(scores, threshold=0.95).tolist() == [0, 0, 0]


def test_momentum_changes_the_trajectory():
    store, rows = concat_task()
    _, plain = train_concat(store, rows, TrainConfig(learning_rate=1.0, epochs=20))
    _, heavy = train_concat(
        store, rows, TrainConfig(learning_rate=1.0, epochs=20, momentum=0.9)
    )
    assert plain != heavy


def test_predict_on_no_pairs_returns_an_empty_array():
    store, rows = concat_task()
    model, _ = train_concat(store, rows, TrainConfig(learning_rate=1.0, epochs=2))
    got = predict_concat(model, store, [])
    assert got.shape == (0,) and got.dtype == np.float64
    gcn = train_gcn(store, rows, TrainConfig(epochs=2), proj_width=4, layer_widths=(4,))
    assert predict_gcn(gcn.model, store, rows, []).shape == (0,)


def test_predict_gcn_names_an_unknown_message_row():
    store, rows = concat_task()
    result = train_gcn(store, rows, TrainConfig(epochs=2), proj_width=4, layer_widths=(4,))
    with pytest.raises(MissingEmbedding, match="mystery"):
        predict_gcn(result.model, store, rows + [("c 0", "mystery", 1)], [("c 0", "c 5")])


# -- reference training loops, bit for bit -----------------------------------------------
#
# The references allocate fresh arrays for every update, recompute A_hat H in
# the backward pass and stack one concatenated copy per pair. The module does
# the same float operations in the same order without those copies, so its
# losses and weights must match the references to the bit.


def reference_batch(store, rows, node_order, config):
    index = {name: i for i, name in enumerate(node_order)}
    batch = [(index[normalize_name(a)], index[normalize_name(b)], y) for a, b, y in rows]
    positives = [(i, j) for i, j, y in batch if y == 1]
    if not any(y == 0 for _, _, y in batch) and config.negative_ratio > 0:
        taken = set(positives)
        pool = [
            (i, j)
            for i in range(len(node_order))
            for j in range(len(node_order))
            if i != j and (i, j) not in taken
        ]
        wanted = max(1, round(config.negative_ratio * len(positives)))
        batch.extend((i, j, 0) for i, j in random.Random(config.seed).sample(pool, wanted))
    return batch


def reference_loss_and_grads(x, a_norm, model, batch):
    h = x @ model.w_proj
    pre, act = [], []
    state = h
    for w in model.w_layers:
        z = a_norm @ state @ w
        state = np.maximum(z, 0.0)
        pre.append(z)
        act.append(state)
    x_hat = act[-1] if act else h
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
    d_layers = []
    for idx in range(len(model.w_layers) - 1, -1, -1):
        d_z = d_h * (pre[idx] > 0)
        below = act[idx - 1] if idx > 0 else h
        propagated = a_norm @ below
        d_layers.append(propagated.T @ d_z)
        d_h = a_norm.T @ d_z @ model.w_layers[idx].T
    return loss, (x.T @ d_h, tuple(reversed(d_layers)), d_r)


def reference_train_gcn(store, rows, config, proj_width, layer_widths):
    node_order = store.names
    batch = reference_batch(store, rows, node_order, config)
    index = {name: i for i, name in enumerate(node_order)}
    a = np.zeros((len(node_order), len(node_order)))
    for src, dst, label in rows:
        if label == 1:
            a[index[normalize_name(src)], index[normalize_name(dst)]] = 1.0
    a_norm = normalize_adjacency(a)
    x = store.matrix(node_order)
    model = GcnModel.init(store.dim, proj_width, layer_widths, config.seed)
    v_proj = np.zeros_like(model.w_proj)
    v_layers = tuple(np.zeros_like(w) for w in model.w_layers)
    v_r = np.zeros_like(model.r)
    losses = []
    for _ in range(config.epochs):
        loss, (g_proj, g_layers, g_r) = reference_loss_and_grads(x, a_norm, model, batch)
        losses.append(loss)
        v_proj = config.momentum * v_proj - config.learning_rate * g_proj
        v_layers = tuple(
            config.momentum * v - config.learning_rate * g
            for v, g in zip(v_layers, g_layers, strict=True)
        )
        v_r = config.momentum * v_r - config.learning_rate * g_r
        model.w_proj = model.w_proj + v_proj
        model.w_layers = tuple(w + v for w, v in zip(model.w_layers, v_layers, strict=True))
        model.r = model.r + v_r
    return model, losses


def reference_concat_features(store, pairs):
    return np.stack(
        [np.concatenate([store.vector(a), store.vector(b)]) for a, b in pairs]
    )


def reference_train_concat(store, rows, config):
    node_order = store.names
    batch = reference_batch(store, rows, node_order, config)
    pairs = [(node_order[i], node_order[j]) for i, j, _ in batch]
    labels = np.array([y for _, _, y in batch], dtype=np.float64)
    features = reference_concat_features(store, pairs)
    weights = np.zeros(features.shape[1])
    bias = 0.0
    v_w = np.zeros_like(weights)
    v_b = 0.0
    losses = []
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
    return weights, bias, losses


def random_task(scale: float = 1.0, nodes: int = 24, dim: int = 16, pairs: int = 60):
    rng = np.random.default_rng(3)
    store = EmbeddingStore(
        {f"node {k:02d}": (scale * rng.normal(size=dim)).tolist() for k in range(nodes)}
    )
    names = [f"Node  {k:02d}" for k in range(nodes)]
    ordered = [(a, b) for a in names for b in names if a != b]
    picked = [ordered[k] for k in rng.permutation(len(ordered))[: 2 * pairs]]
    rows = [(a, b, 1) for a, b in picked[:pairs]] + [(a, b, 0) for a, b in picked[pairs:]]
    return store, rows


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("negatives", ["given", "sampled"])
@pytest.mark.parametrize("layer_widths", [(), (8,), (8, 4)])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_train_gcn_matches_the_reference_bit_for_bit(momentum, layer_widths, negatives):
    # Each layer shrinks the signal, so deeper models get larger inputs: the
    # updates then stay large enough against the weights that a change in
    # any float operation reaches the bits compared here.
    store, rows = random_task(scale=3.0 * 30.0 ** len(layer_widths))
    if negatives == "sampled":
        rows = [row for row in rows if row[2] == 1]
    config = TrainConfig(learning_rate=0.01, epochs=40, seed=7, momentum=momentum)
    want_model, want_losses = reference_train_gcn(store, rows, config, 8, layer_widths)
    assert np.all(np.isfinite(want_losses)) and want_losses[-1] != want_losses[0]
    got = train_gcn(store, rows, config, proj_width=8, layer_widths=layer_widths)
    assert bits(got.losses) == bits(want_losses)
    assert got.model.w_proj.tobytes() == want_model.w_proj.tobytes()
    assert got.model.r.tobytes() == want_model.r.tobytes()
    assert len(got.model.w_layers) == len(layer_widths)
    for w, want in zip(got.model.w_layers, want_model.w_layers, strict=True):
        assert w.tobytes() == want.tobytes()


def test_gcn_loss_and_grads_takes_an_index_array_or_triples():
    x, a_norm, model, batch = gradient_check_instance()
    loss, grads = gcn_loss_and_grads(x, a_norm, model, batch)
    want_loss, (g_proj, g_layers, g_r) = reference_loss_and_grads(x, a_norm, model, batch)
    array_loss, array_grads = gcn_loss_and_grads(x, a_norm, model, np.array(batch))
    assert bits(loss) == bits(want_loss) == bits(array_loss)
    for got in (grads, array_grads):
        assert got.w_proj.tobytes() == g_proj.tobytes()
        assert got.r.tobytes() == g_r.tobytes()
        for g, want in zip(got.w_layers, g_layers, strict=True):
            assert g.tobytes() == want.tobytes()
    with pytest.raises(DegenerateLabels):
        gcn_loss_and_grads(x, a_norm, model, np.empty((0, 3), dtype=np.int64))


@pytest.mark.parametrize("negatives", ["given", "sampled"])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_train_concat_matches_the_reference_bit_for_bit(momentum, negatives):
    store, rows = random_task()
    if negatives == "sampled":
        rows = [row for row in rows if row[2] == 1]
    config = TrainConfig(learning_rate=0.5, epochs=25, seed=7, momentum=momentum)
    want_weights, want_bias, want_losses = reference_train_concat(store, rows, config)
    model, losses = train_concat(store, rows, config)
    assert bits(losses) == bits(want_losses)
    assert model.weights.tobytes() == want_weights.tobytes()
    assert bits(model.bias) == bits(want_bias)

    pairs = [(b, a) for a, b, _ in rows]
    want = sigmoid(reference_concat_features(store, pairs) @ model.weights + model.bias)
    assert predict_concat(model, store, pairs).tobytes() == want.tobytes()
    with pytest.raises(MissingEmbedding, match="mystery"):
        predict_concat(model, store, pairs[:3] + [("node 00", "mystery")])


def _peak_bytes(build) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_concat_features_hold_one_copy_of_the_pair_matrix():
    rng = np.random.default_rng(0)
    names = [f"concept {k}" for k in range(50)]
    store = EmbeddingStore({name: rng.normal(size=256).tolist() for name in names})
    pairs = [(names[k % 50], names[(7 * k + 1) % 50]) for k in range(2000)]
    model = ConcatModel(weights=np.zeros(2 * store.dim), bias=0.0)
    feature_bytes = len(pairs) * 2 * store.dim * 8

    old = _peak_bytes(lambda: reference_concat_features(store, pairs))
    assert old > 1.75 * feature_bytes  # the measurement can tell one copy from two
    assert _peak_bytes(lambda: predict_concat(model, store, pairs)) < 1.25 * feature_bytes
    rows = [(a, b, k % 2) for k, (a, b) in enumerate(pairs)]
    config = TrainConfig(epochs=2)
    assert _peak_bytes(lambda: train_concat(store, rows, config)) < 1.25 * feature_bytes


# -- negative sampling without the pool list ---------------------------------------------


def positives_task(nodes: int, positives: int, seed: int = 5):
    rng = random.Random(seed)
    names = [f"node {k:03d}" for k in range(nodes)]
    store = EmbeddingStore({name: [float(k), 1.0] for k, name in enumerate(names)})
    picked = rng.sample([(a, b) for a in names for b in names if a != b], positives)
    return store, [(a, b, 1) for a, b in picked]


@pytest.mark.parametrize("ratio", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_sampled_negatives_match_the_pool_list(ratio, seed):
    store, rows = positives_task(nodes=14, positives=40)
    rows.append((rows[0][0], rows[0][0], 1))  # a self pair is never in the pool
    config = TrainConfig(seed=seed, negative_ratio=ratio)
    got = linkpred._assemble_batch(rows, store.names, config)
    want = reference_batch(store, rows, store.names, config)
    assert got.tolist() == [list(triple) for triple in want]


def test_free_pairs_index_the_pool_list_in_order():
    rng = random.Random(2)
    n = 9
    taken = {(rng.randrange(n), rng.randrange(n)) for _ in range(30)}
    taken |= {(4, j) for j in range(n)}  # one row with no free pair
    want = [(i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in taken]
    pool = linkpred._FreePairs(n, taken)
    assert len(pool) == len(want)
    assert list(pool) == want
    with pytest.raises(IndexError):
        pool[len(want)]
    with pytest.raises(IndexError):
        pool[-1]


def test_negative_sampling_keeps_no_list_of_the_pool():
    # the benchmark's size: 322 concepts, 1,500 positives, 102k free pairs
    store, rows = positives_task(nodes=322, positives=1500)
    config = TrainConfig(seed=1)
    old = _peak_bytes(lambda: reference_batch(store, rows, store.names, config))
    assert old > 4_000_000  # the measurement sees the pool list
    assert _peak_bytes(lambda: linkpred._assemble_batch(rows, store.names, config)) < 1_000_000


@pytest.mark.parametrize("ratio", [math.inf, 1e308, 1e6])
def test_too_many_wanted_negatives_are_degenerate_labels(ratio):
    store, rows = positives_task(nodes=12, positives=40)
    with pytest.raises(DegenerateLabels, match="free pairs"):
        linkpred._assemble_batch(rows, store.names, TrainConfig(negative_ratio=ratio))


@pytest.mark.parametrize(
    "field", ["learning_rate", "negative_ratio", "momentum"]
)
def test_train_config_rejects_nan(field):
    with pytest.raises(LinkPredError):
        TrainConfig(**{field: math.nan})


@pytest.mark.parametrize("rate", [math.inf, -math.inf])
def test_train_config_rejects_an_infinite_learning_rate(rate):
    with pytest.raises(LinkPredError):
        TrainConfig(learning_rate=rate)


# -- divergence ---------------------------------------------------------------------

DIVERGED = r"^training diverged at epoch \d+: the loss is (nan|inf)$"


def one_huge_entry() -> tuple[EmbeddingStore, list]:
    store, rows = separable_task()
    vectors = {name: store.vector(name).tolist() for name in store.names}
    vectors[rows[0][0]][0] = 1e200
    return EmbeddingStore(vectors), rows


@pytest.mark.parametrize("model", ["gcn", "concat"])
def test_a_non_finite_loss_stops_training_and_names_the_epoch(model):
    store, rows = one_huge_entry()
    config = TrainConfig(learning_rate=SEPARABLE_LR, epochs=30, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match=DIVERGED):
        if model == "gcn":
            train_gcn(store, rows, config, **SEPARABLE_WIDTHS)
        else:
            train_concat(store, rows, config)


def test_a_diverging_learning_rate_stops_gcn_training():
    store, rows = separable_task()
    config = TrainConfig(learning_rate=10.0, epochs=30, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match=DIVERGED):
        train_gcn(store, rows, config, **SEPARABLE_WIDTHS)
    assert issubclass(TrainingDiverged, LinkPredError)
