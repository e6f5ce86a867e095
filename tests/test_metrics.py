"""Metric suite: binary reports, similarity F1, mentions.

The similarity metric is checked against a brute-force set-overlap
oracle (exact matching) and an independent pure-Python cosine
loop (hash embeddings).
"""
from __future__ import annotations

import itertools
import math
import random
import warnings
from collections import Counter

import pytest

from conceptgraph import files
from conceptgraph.metrics import (
    EmbedderFailure,
    EmptyList,
    EvalReport,
    ExactMatcher,
    HashEmbedder,
    LengthMismatch,
    MetricsError,
    SimilarityMatcher,
    _max_bipartite_matching,
    binary_report,
    concept_mentions,
    cosine,
    mean_similarity_f1,
    report_payload,
    render_report,
    similarity_f1,
)
from conceptgraph.recovery import Verdict
from conceptgraph.textnorm import normalize_name


# -- oracles -----------------------------------------------------------------


def oracle_set_overlap(pred: list[str], rel: list[str]) -> tuple[float, float, float]:
    """Plain set arithmetic; valid when matches are exact-name only."""
    p = {normalize_name(x) for x in pred}
    r = {normalize_name(x) for x in rel}
    precision = len(p & r) / len(p)
    recall = len(p & r) / len(r)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def oracle_many_to_one(pred, rel, embed, mu):
    """Independent recomputation with pure-Python cosines."""

    def cosine(u, v):
        dot = math.fsum(a * b for a, b in zip(u, v, strict=True))
        nu = math.sqrt(math.fsum(a * a for a in u))
        nv = math.sqrt(math.fsum(b * b for b in v))
        return dot / (nu * nv) if nu and nv else 0.0

    def dedupe(names):
        seen, out = set(), []
        for n in names:
            k = normalize_name(n)
            if k not in seen:
                seen.add(k)
                out.append(n)
        return out

    pred, rel = dedupe(pred), dedupe(rel)
    pv = [embed(p) for p in pred]
    rv = [embed(r) for r in rel]
    precision = sum(
        1 for u in pv if any(cosine(u, v) > mu for v in rv)
    ) / len(pred)
    recall = sum(1 for v in rv if any(cosine(u, v) > mu for u in pv)) / len(rel)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def random_lists(rng: random.Random) -> tuple[list[str], list[str]]:
    words = [f"concept {i}" for i in range(12)]
    pred = [rng.choice(words) for _ in range(rng.randint(1, 6))]
    rel = [rng.choice(words) for _ in range(rng.randint(1, 6))]
    return pred, rel


# -- binary report -----------------------------------------------------------


def test_report_properties_match_direct_formulas():
    report = EvalReport(tp=2, fp=1, tn=0, fn=1)
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(2 / 3)
    assert report.accuracy == pytest.approx(0.5)
    assert report.total == 4


def test_report_zero_conventions_and_validation():
    empty = EvalReport(tp=0, fp=0, tn=0, fn=0)
    assert (empty.accuracy, empty.precision, empty.recall, empty.f1) == (0, 0, 0, 0)
    with pytest.raises(MetricsError):
        EvalReport(tp=-1, fp=0, tn=0, fn=0)
    with pytest.raises(MetricsError):
        EvalReport(tp=1.5, fp=0, tn=0, fn=0)


def test_binary_report_perfect_and_total_miss():
    perfect = binary_report(["Yes", "No", "Yes"], ["Yes", "No", "Yes"])
    assert perfect.accuracy == 1.0 and perfect.f1 == 1.0
    miss = binary_report(["No", "No"], ["Yes", "Yes"])
    assert miss.accuracy == 0.0 and miss.f1 == 0.0
    assert (miss.fn, miss.tn) == (2, 0)


def test_binary_report_accepts_verdicts_and_mixed_case():
    report = binary_report(
        [Verdict.YES, "no", " YES "], [True, False, Verdict.NO]
    )
    assert (report.tp, report.tn, report.fp, report.fn) == (1, 1, 1, 0)


def test_binary_report_counts_match_loop_oracle():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(1, 30)
        pred = [rng.choice(["Yes", "No"]) for _ in range(n)]
        gold = [rng.choice(["Yes", "No"]) for _ in range(n)]
        report = binary_report(pred, gold)
        tp = sum(1 for p, g in zip(pred, gold) if p == "Yes" and g == "Yes")
        fp = sum(1 for p, g in zip(pred, gold) if p == "Yes" and g == "No")
        fn = sum(1 for p, g in zip(pred, gold) if p == "No" and g == "Yes")
        tn = n - tp - fp - fn
        assert (report.tp, report.fp, report.fn, report.tn) == (tp, fp, fn, tn)
        assert report.accuracy == pytest.approx((tp + tn) / n)


def test_binary_report_symmetry_under_label_flip():
    rng = random.Random(13)
    flip = {"Yes": "No", "No": "Yes"}
    for _ in range(10):
        n = rng.randint(1, 20)
        pred = [rng.choice(["Yes", "No"]) for _ in range(n)]
        gold = [rng.choice(["Yes", "No"]) for _ in range(n)]
        a = binary_report(pred, gold)
        b = binary_report([flip[p] for p in pred], [flip[g] for g in gold])
        assert (b.tp, b.fp, b.fn, b.tn) == (a.tn, a.fn, a.fp, a.tp)
        assert b.accuracy == pytest.approx(a.accuracy)


def test_binary_report_rejects_bad_inputs():
    with pytest.raises(LengthMismatch):
        binary_report(["Yes"], ["Yes", "No"])
    with pytest.raises(EmptyList):
        binary_report([], [])
    with pytest.raises(MetricsError, match="unrecognized"):
        binary_report(["maybe"], ["Yes"])


# -- similarity F1 -------------------------------------------------------------


def test_identical_lists_score_one():
    matcher = ExactMatcher()
    assert similarity_f1(["a", "b"], ["a", "b"], matcher) == (1.0, 1.0, 1.0)


def test_orthogonal_lists_score_zero():
    matcher = ExactMatcher()
    assert similarity_f1(["a", "b"], ["c", "d"], matcher) == (0.0, 0.0, 0.0)


def test_partial_overlap_single_prediction():
    matcher = ExactMatcher()
    precision, recall, s_f1 = similarity_f1(["a"], ["a", "b"], matcher)
    assert precision == 1.0 and recall == 0.5
    assert s_f1 == pytest.approx(2 / 3, abs=1e-4)


def test_exact_match_reduces_to_set_overlap():
    rng = random.Random(501)
    for _ in range(50):
        pred, rel = random_lists(rng)
        matcher = ExactMatcher()
        got = similarity_f1(pred, rel, matcher)
        want = oracle_set_overlap(pred, rel)
        assert got == pytest.approx(want)
        assert similarity_f1(pred, rel, matcher, one_to_one=True) == pytest.approx(want)


def test_hash_embedder_matches_pure_python_oracle():
    rng = random.Random(602)
    for mu in (0.2, 0.4, 0.6, 0.8):
        embed = HashEmbedder(seed=3, dim=4)
        matcher = SimilarityMatcher(embed, threshold=mu)
        for _ in range(15):
            pred, rel = random_lists(rng)
            got = similarity_f1(pred, rel, matcher)
            want = oracle_many_to_one(pred, rel, embed, mu)
            assert got == pytest.approx(want)


def test_similarity_f1_monotone_non_increasing_in_threshold():
    rng = random.Random(703)
    embed = HashEmbedder(seed=1, dim=3)
    for _ in range(40):
        pred, rel = random_lists(rng)
        scores = [
            similarity_f1(pred, rel, SimilarityMatcher(embed, threshold=mu))[2]
            for mu in (0.2, 0.4, 0.6, 0.8)
        ]
        assert all(a >= b for a, b in zip(scores, scores[1:], strict=False))


def test_similarity_f1_ignores_duplicates_and_order():
    matcher = ExactMatcher()
    base = similarity_f1(["a", "b"], ["b", "c"], matcher)
    assert similarity_f1(["b", "a", "A", "  b"], ["c", "b", "B"], matcher) == base
    assert similarity_f1(["b", "a"], ["c", "b"], matcher) == base


def test_one_to_one_blocks_double_counting():
    vectors = {"a": [1.0, 0.0], "a1": [1.0, 0.0], "a2": [1.0, 0.0]}
    matcher = SimilarityMatcher(lambda t: vectors[t])
    many = similarity_f1(["a"], ["a1", "a2"], matcher)
    assert many == (1.0, 1.0, 1.0)
    strict = similarity_f1(["a"], ["a1", "a2"], matcher, one_to_one=True)
    assert strict == (1.0, 0.5, pytest.approx(2 / 3))


def test_one_to_one_matching_finds_augmenting_paths():
    # pred p0 matches both r0 and r1; p1 matches only r0. A greedy
    # pairing of p0 with r0 would strand p1; the matcher must reassign.
    vectors = {
        "p0": [1.0, 1.0],
        "p1": [1.0, 0.0],
        "r0": [1.0, 0.0],
        "r1": [0.0, 1.0],
    }
    matcher = SimilarityMatcher(lambda t: vectors[t], threshold=0.5)
    precision, recall, _ = similarity_f1(
        ["p0", "p1"], ["r0", "r1"], matcher, one_to_one=True
    )
    assert precision == 1.0 and recall == 1.0


def test_similarity_f1_rejects_empty_lists():
    matcher = ExactMatcher()
    with pytest.raises(EmptyList):
        similarity_f1([], ["a"], matcher)
    with pytest.raises(EmptyList):
        similarity_f1(["a"], [], matcher)


def test_mean_similarity_f1_averages_lists_and_scores_empty_predictions_zero():
    matcher = ExactMatcher()
    precision, recall, s_f1 = mean_similarity_f1(
        [["a"], [], ["b", "c"]], [["a", "b"], ["x"], ["b", "c"]], matcher
    )
    assert precision == pytest.approx((1.0 + 0.0 + 1.0) / 3)
    assert recall == pytest.approx((0.5 + 0.0 + 1.0) / 3)
    assert s_f1 == pytest.approx((2 / 3 + 0.0 + 1.0) / 3)
    with pytest.raises(EmptyList, match="gold list 2"):
        mean_similarity_f1([["a"], []], [["a"], []], matcher)
    with pytest.raises(EmptyList):
        mean_similarity_f1([], [], matcher)
    with pytest.raises(LengthMismatch):
        mean_similarity_f1([["a"]], [["a"], ["b"]], matcher)


def test_embedder_failures_are_wrapped():
    def broken(text: str):
        raise RuntimeError("no backend")

    with pytest.raises(EmbedderFailure, match="no backend"):
        similarity_f1(["a"], ["b"], SimilarityMatcher(broken))
    with pytest.raises(EmbedderFailure, match="unusable"):
        similarity_f1(["a"], ["b"], SimilarityMatcher(lambda t: []))
    with pytest.raises(EmbedderFailure, match="unusable"):
        similarity_f1(["a"], ["b"], SimilarityMatcher(lambda t: [float("nan")]))


def test_matcher_threshold_validation_and_strictness():
    with pytest.raises(MetricsError):
        SimilarityMatcher(HashEmbedder(), threshold=0.0)
    with pytest.raises(MetricsError):
        SimilarityMatcher(HashEmbedder(), threshold=1.2)
    # matching is strict, so at 1 not even two equal names would match
    with pytest.raises(MetricsError, match=r"\(0, 1\)"):
        SimilarityMatcher(HashEmbedder(), threshold=1.0)
    # cosine exactly equal to the threshold must NOT match
    vectors = {"x": [1.0, 0.0], "y": [0.6, 0.8]}
    assert cosine(vectors["x"], vectors["y"]) == pytest.approx(0.6)
    matcher = SimilarityMatcher(lambda t: vectors[t], threshold=0.6)
    assert similarity_f1(["x"], ["y"], matcher) == (0.0, 0.0, 0.0)


# -- the matrix scorer against loop references ------------------------------


def oracle_cosine_hits(pred, rel, embed, mu):
    """Hit matrix over deduplicated lists, from the oracle's cosine loop."""
    pred, rel = ordered_names(pred), ordered_names(rel)
    return [[pure_cosine(embed(p), embed(r)) > mu for r in rel] for p in pred]


def pure_cosine(u, v):
    dot = math.fsum(a * b for a, b in zip(u, v, strict=True))
    nu = math.sqrt(math.fsum(a * a for a in u))
    nv = math.sqrt(math.fsum(b * b for b in v))
    return dot / (nu * nv) if nu and nv else 0.0


def ordered_names(names):
    seen, out = set(), []
    for n in names:
        if normalize_name(n) not in seen:
            seen.add(normalize_name(n))
            out.append(n)
    return out


def brute_force_matching(hits) -> int:
    """Largest number of hits on distinct rows and columns, by trying every
    assignment of the shorter side to the longer one."""
    rows, cols = len(hits), len(hits[0])
    if rows <= cols:
        return max(
            sum(hits[i][j] for i, j in enumerate(perm))
            for perm in itertools.permutations(range(cols), rows)
        )
    return max(
        sum(hits[i][j] for j, i in enumerate(perm))
        for perm in itertools.permutations(range(rows), cols)
    )


def spelled_lists(rng: random.Random, pool: list[str]) -> tuple[list[str], list[str]]:
    """Random lists whose names repeat in other spellings."""

    def spell(name: str) -> str:
        return rng.choice([name, name.upper(), f"  {name.title()} "])

    pred = [spell(rng.choice(pool)) for _ in range(rng.randint(1, 9))]
    rel = [spell(rng.choice(pool)) for _ in range(rng.randint(1, 9))]
    return pred, rel


@pytest.mark.parametrize("dim", [3, 4, 16])
def test_matrix_scorer_matches_the_cosine_loop_with_hash_embeddings(dim):
    rng = random.Random(900 + dim)
    pool = [f"concept {i}" for i in range(20)]
    embed = HashEmbedder(seed=dim, dim=dim)
    for mu in (0.2, 0.6, 0.9):
        matcher = SimilarityMatcher(embed, threshold=mu)
        for _ in range(40):
            pred, rel = spelled_lists(rng, pool)
            assert similarity_f1(pred, rel, matcher) == oracle_many_to_one(
                pred, rel, embed, mu
            )


def test_a_matcher_refuses_an_embedder_that_changes_width():
    widths = {"a": 2, "b": 2, "c": 3}
    matcher = SimilarityMatcher(lambda text: [1.0] * widths[text])
    assert similarity_f1(["a"], ["b"], matcher) == (1.0, 1.0, 1.0)
    with pytest.raises(EmbedderFailure, match=r"3 values for 'c', after 2"):
        similarity_f1(["a"], ["c"], matcher)
    # the refused vector is not kept, so the next call refuses it again
    with pytest.raises(EmbedderFailure, match="3 values"):
        similarity_f1(["c"], ["a"], matcher)


def test_cosine_equal_to_the_threshold_does_not_match_inside_a_list():
    vectors = {
        "x": [1.0, 0.0],
        "y": [0.6, 0.8],
        "z": [0.0, 1.0],
        "w": [-1.0, 0.0],
    }
    matcher = SimilarityMatcher(lambda t: vectors[t], threshold=0.6)
    # x.y is exactly 0.6 and must miss; z.y is 0.8 and matches
    assert similarity_f1(["x", "z"], ["y", "w"], matcher) == (0.5, 0.5, 0.5)
    assert similarity_f1(["x", "w"], ["y", "w"], matcher) == (0.5, 0.5, 0.5)
    assert similarity_f1(["x"], ["y", "z", "w"], matcher) == (0.0, 0.0, 0.0)


def test_thresholds_at_a_pair_cosine_decide_as_cosine_does():
    # with the threshold set to a pair's own cosine, a matrix product can
    # round either way; the decision must still be exactly cosine's
    rng = random.Random(4242)
    tested = 0
    while tested < 150:
        dim = rng.randint(2, 6)
        u = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        v = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        pair = cosine(u, v)
        if not 0.0 < pair < 1.0:
            continue
        tested += 1
        vectors = {"u": u, "v": v, "far": [-x for x in u]}
        for threshold, hit in ((pair, 0.0), (math.nextafter(pair, 0.0), 1.0)):
            matcher = SimilarityMatcher(lambda t: vectors[t], threshold=threshold)
            got = similarity_f1(["far", "u"], ["v"], matcher)
            assert got == (hit / 2, hit, pytest.approx(2 / 3 * hit))


def test_zero_vector_scores_cosine_zero_without_warnings():
    vectors = {"zero": [0.0, 0.0, 0.0], "a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}
    for mu in (0.6, 1e-12):
        matcher = SimilarityMatcher(lambda t: vectors[t], threshold=mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert similarity_f1(["zero", "a"], ["a", "b"], matcher) == (
                0.5,
                0.5,
                0.5,
            )
            assert similarity_f1(["zero"], ["zero"], matcher) == (0.0, 0.0, 0.0)
            assert similarity_f1(
                ["zero", "a"], ["a", "zero"], matcher, one_to_one=True
            ) == (0.5, 0.5, 0.5)
            assert cosine(vectors["zero"], vectors["a"]) == 0.0


def test_one_to_one_matches_brute_force_assignment():
    rng = random.Random(1234)
    pool = [f"idea {i}" for i in range(10)]
    embed = HashEmbedder(seed=8, dim=3)
    for mu in (0.1, 0.5):
        matcher = SimilarityMatcher(embed, threshold=mu)
        for _ in range(60):
            pred = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            rel = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            hits = oracle_cosine_hits(pred, rel, embed, mu)
            best = brute_force_matching(hits)
            precision, recall, _ = similarity_f1(pred, rel, matcher, one_to_one=True)
            assert precision == best / len(hits)
            assert recall == best / len(hits[0])


def test_bipartite_matching_follows_an_augmenting_path_past_the_recursion_limit():
    # row j holds columns j and j + 1, the last row only column 0: the last
    # row's only augmenting path shifts every earlier row by one column
    size = 1200
    adjacency = [[False] * size for _ in range(size)]
    for j in range(size - 1):
        adjacency[j][j] = adjacency[j][j + 1] = True
    adjacency[size - 1][0] = True
    assert _max_bipartite_matching(adjacency) == size


def test_embedder_sees_the_first_spelling_of_a_name_in_either_list():
    seen = []
    embed = HashEmbedder(dim=4)

    def recording(text):
        seen.append(text)
        return embed(text)

    matcher = SimilarityMatcher(recording)
    similarity_f1(["Graph", "tree"], ["GRAPH", "Tree ", "node"], matcher)
    assert seen == ["Graph", "tree", "node"]
    similarity_f1(["graph"], ["Graph", "node"], matcher)
    assert seen == ["Graph", "tree", "node", "graph"]


@pytest.mark.parametrize(
    "matcher",
    [ExactMatcher(), SimilarityMatcher(lambda text: [1.0, float(len(text))])],
    ids=["exact", "similarity"],
)
def test_similarity_f1_normalizes_each_distinct_string_once(monkeypatch, matcher):
    calls = Counter()

    def counting(name):
        calls[name] += 1
        return normalize_name(name)

    monkeypatch.setattr("conceptgraph.textnorm.normalize_name", counting)
    monkeypatch.setattr("conceptgraph.metrics.normalize_name", counting)
    predicted = ["Viterbi Algorithm", "viterbi  algorithm", "Viterbi Algorithm", "HMM"]
    relevant = ["hmm", "Parsing", "Parsing"]
    similarity_f1(predicted, relevant, matcher)
    assert calls == Counter(set(predicted) | set(relevant))


def test_exact_matching_tells_names_apart_by_a_trailing_nul():
    assert similarity_f1(["a\0"], ["a"], ExactMatcher()) == (0.0, 0.0, 0.0)
    assert similarity_f1(["a\0", "b"], ["a\0"], ExactMatcher()) == (0.5, 1.0, 2 / 3)


def test_mean_similarity_f1_embeds_each_distinct_text_once():
    calls = Counter()
    embed = HashEmbedder(seed=2, dim=8)

    def counting(text):
        calls[text] += 1
        return embed(text)

    rng = random.Random(55)
    pool = [f"Concept {i}" for i in range(30)]
    predicted = [rng.sample(pool, rng.randint(1, 8)) for _ in range(200)]
    gold = [rng.sample(pool, rng.randint(1, 8)) for _ in range(200)]
    matcher = SimilarityMatcher(counting)
    mean_similarity_f1(predicted, gold, matcher)
    mean_similarity_f1(predicted, gold, matcher, one_to_one=True)
    assert similarity_f1(["Concept 0"], ["Concept 0"], matcher) == (1.0, 1.0, 1.0)
    assert set(calls) == set(pool)
    assert set(calls.values()) == {1}


# -- embedders ---------------------------------------------------------------


def test_hash_embedder_is_deterministic_and_unit_norm():
    embed = HashEmbedder(seed=5, dim=16)
    v1 = embed("Neural Networks")
    v2 = embed("neural  networks")
    assert v1 == v2
    assert math.fsum(x * x for x in v1) == pytest.approx(1.0)
    assert len(v1) == 16
    other_seed = HashEmbedder(seed=6, dim=16)("Neural Networks")
    assert other_seed != v1
    with pytest.raises(MetricsError):
        HashEmbedder(dim=0)


# -- mentions ----------------------------------------------------------------


def test_concept_mentions_repeated_and_absent():
    unique, total, counts = concept_mentions(
        "sentiment analysis and sentiment analysis",
        ["sentiment analysis"],
    )
    assert (unique, total) == (1, 2)
    assert counts == {"sentiment analysis": 2}
    assert concept_mentions("nothing here", ["sentiment analysis"]) == (0, 0, {})


def test_concept_mentions_longest_match_wins():
    unique, total, counts = concept_mentions(
        "we study neural machine translation today",
        ["machine translation", "neural machine translation"],
    )
    assert (unique, total) == (1, 1)
    assert counts.get("neural machine translation") == 1
    assert counts.get("machine translation", 0) == 0


def test_concept_mentions_requires_vocabulary():
    with pytest.raises(EmptyList):
        concept_mentions("text", [])


# -- report output ------------------------------------------------------------


def test_report_payload_merges_metadata_and_guards_collisions():
    report = EvalReport(tp=3, fp=1, tn=4, fn=2)
    payload = report_payload(report, {"variant": "zs", "threshold": 0.6})
    assert payload["tp"] == 3 and payload["variant"] == "zs"
    with pytest.raises(MetricsError, match="collides"):
        report_payload(report, {"f1": 0.9})


def test_render_report_aligns_and_formats():
    payload = report_payload(EvalReport(tp=1, fp=0, tn=1, fn=0), {"dataset": "toy"})
    text = render_report(payload)
    lines = text.splitlines()
    assert text.endswith("\n")
    assert len({line.index("  1") for line in lines if "accuracy" in line}) <= 1
    assert any(line.startswith("accuracy") and "1.0000" in line for line in lines)
    assert any(line.startswith("dataset") and line.endswith("toy") for line in lines)
    assert render_report({}) == ""


def test_report_json_is_stable(tmp_path):
    payload = report_payload(EvalReport(tp=1, fp=0, tn=1, fn=0), {"dataset": "toy"})
    files.write_json(tmp_path / "first.json", payload, indent=2)
    files.write_json(tmp_path / "second.json", dict(reversed(list(payload.items()))), indent=2)
    first = (tmp_path / "first.json").read_text(encoding="utf-8")
    assert first == (tmp_path / "second.json").read_text(encoding="utf-8")
    assert first.endswith("\n")
