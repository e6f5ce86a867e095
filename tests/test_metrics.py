"""Metric suite: binary reports, similarity F1, tallies, mentions.

The similarity metric is checked against a brute-force set-overlap
oracle (exact-match embeddings) and an independent pure-Python cosine
loop (hash embeddings).
"""
from __future__ import annotations

import math
import random

import pytest

from conceptgraph.metrics import (
    EmbedderFailure,
    EmptyList,
    EvalReport,
    ExactMatchEmbedder,
    HashEmbedder,
    LengthMismatch,
    MetricsError,
    SimilarityMatcher,
    binary_report,
    concept_mentions,
    confusion_counts,
    mean_similarity_f1,
    padded_cosine,
    report_json,
    report_payload,
    render_report,
    similarity_f1,
)
from conceptgraph.recovery import EdgeJudgment, PromptVariant, Verdict
from conceptgraph.textnorm import normalize_name


def judgment(a: str, b: str, verdict: Verdict) -> EdgeJudgment:
    return EdgeJudgment(
        source=a,
        target=b,
        verdict=verdict,
        variant=PromptVariant("zs"),
        raw_response=verdict.value,
    )


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
        size = max(len(u), len(v))
        u = list(u) + [0.0] * (size - len(u))
        v = list(v) + [0.0] * (size - len(v))
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
    matcher = SimilarityMatcher(ExactMatchEmbedder())
    assert similarity_f1(["a", "b"], ["a", "b"], matcher) == (1.0, 1.0, 1.0)


def test_orthogonal_lists_score_zero():
    matcher = SimilarityMatcher(ExactMatchEmbedder())
    assert similarity_f1(["a", "b"], ["c", "d"], matcher) == (0.0, 0.0, 0.0)


def test_partial_overlap_single_prediction():
    matcher = SimilarityMatcher(ExactMatchEmbedder())
    precision, recall, s_f1 = similarity_f1(["a"], ["a", "b"], matcher)
    assert precision == 1.0 and recall == 0.5
    assert s_f1 == pytest.approx(2 / 3, abs=1e-4)


def test_exact_match_reduces_to_set_overlap():
    rng = random.Random(501)
    for _ in range(50):
        pred, rel = random_lists(rng)
        matcher = SimilarityMatcher(ExactMatchEmbedder())
        got = similarity_f1(pred, rel, matcher)
        want = oracle_set_overlap(pred, rel)
        assert got == pytest.approx(want)


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
    matcher = SimilarityMatcher(ExactMatchEmbedder())
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
    matcher = SimilarityMatcher(ExactMatchEmbedder())
    with pytest.raises(EmptyList):
        similarity_f1([], ["a"], matcher)
    with pytest.raises(EmptyList):
        similarity_f1(["a"], [], matcher)


def test_mean_similarity_f1_averages_lists_and_scores_empty_predictions_zero():
    matcher = SimilarityMatcher(ExactMatchEmbedder())
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
        SimilarityMatcher(ExactMatchEmbedder(), threshold=0.0)
    with pytest.raises(MetricsError):
        SimilarityMatcher(ExactMatchEmbedder(), threshold=1.2)
    # cosine exactly equal to the threshold must NOT match
    vectors = {"x": [1.0, 0.0], "y": [0.6, 0.8]}
    matcher = SimilarityMatcher(lambda t: vectors[t], threshold=0.6)
    assert matcher.cosine("x", "y") == pytest.approx(0.6)
    assert not matcher.matches("x", "y")


# -- embedders ---------------------------------------------------------------


def test_exact_match_embedder_grows_and_pads():
    embed = ExactMatchEmbedder()
    va = embed("alpha")
    vb = embed("beta")
    assert len(va) == 1 and len(vb) == 2
    assert padded_cosine(va, vb) == 0.0
    assert padded_cosine(va, embed("  ALPHA ")) == 1.0


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


def test_padded_cosine_zero_vector_and_symmetry():
    assert padded_cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert padded_cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(
        padded_cosine([2.0, 1.0], [1.0, 2.0])
    )


# -- tallies and mentions ---------------------------------------------------


def test_confusion_counts_partition():
    rng = random.Random(9)
    rows = [
        judgment(f"a{i}", f"b{i}", rng.choice([Verdict.YES, Verdict.NO]))
        for i in range(57)
    ]
    yes, no = confusion_counts(rows)
    assert yes + no == 57
    assert yes == sum(1 for r in rows if r.verdict is Verdict.YES)
    assert confusion_counts([]) == (0, 0)


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


def test_report_json_is_stable():
    payload = report_payload(EvalReport(tp=1, fp=0, tn=1, fn=0), {"dataset": "toy"})
    first = report_json(payload)
    assert first == report_json(dict(reversed(list(payload.items()))))
    assert first.endswith("\n")
