"""Evaluation metrics.

Binary accuracy/F1 reports over Yes/No answers, a similarity-aware F1
for concept-list answers where two names count as a match when their
embedding cosine exceeds a threshold, verdict tallies over edge
judgments, and vocabulary mention counting in free text.
"""
from __future__ import annotations

import hashlib
import json
import statistics
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .recovery import EdgeJudgment, Verdict
from .textnorm import VocabularyMatcher, normalize_name, ordered_unique

DEFAULT_THRESHOLD = 0.6


class MetricsError(Exception):
    """Base class for metric failures."""


class LengthMismatch(MetricsError):
    """Prediction and gold lists have different lengths."""


class EmptyList(MetricsError):
    """An input list is empty where values are required."""


class EmbedderFailure(MetricsError):
    """The embedding provider raised or returned an unusable vector."""


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts with the usual derived metrics.

    Yes is the positive class. Ratios follow the 0/0 -> 0 convention.
    """

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for field_name in ("tp", "fp", "tn", "fn"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 0:
                raise MetricsError(
                    f"{field_name} must be a nonnegative integer, got {value!r}"
                )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def to_dict(self) -> dict[str, float | int]:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
        }


def _as_positive(label: object) -> bool:
    """Map a Yes/No label in any accepted spelling to a boolean."""
    if isinstance(label, Verdict):
        return label is Verdict.YES
    if isinstance(label, bool):
        return label
    if isinstance(label, str):
        lowered = label.strip().lower()
        if lowered == "yes":
            return True
        if lowered == "no":
            return False
    raise MetricsError(f"unrecognized Yes/No label: {label!r}")


def binary_report(predictions: Sequence[object], gold: Sequence[object]) -> EvalReport:
    """Confusion report for paired Yes/No answers; Yes is positive."""
    if len(predictions) != len(gold):
        raise LengthMismatch(
            f"got {len(predictions)} predictions for {len(gold)} gold labels"
        )
    if not predictions:
        raise EmptyList("no predictions to score")
    tp = fp = tn = fn = 0
    for pred, truth in zip(predictions, gold, strict=True):
        p, t = _as_positive(pred), _as_positive(truth)
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif not p and t:
            fn += 1
        else:
            tn += 1
    return EvalReport(tp=tp, fp=fp, tn=tn, fn=fn)


def padded_cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity after zero-padding the shorter vector.

    Padding lets embedders with growing dimensionality interoperate; a
    zero vector has cosine 0 with everything.
    """
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    if a.size < b.size:
        a = np.concatenate([a, np.zeros(b.size - a.size)])
    elif b.size < a.size:
        b = np.concatenate([b, np.zeros(a.size - b.size)])
    norm = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if norm == 0.0:
        return 0.0
    return float(a @ b) / norm


Embedder = Callable[[str], Sequence[float]]


@dataclass(frozen=True)
class SimilarityMatcher:
    """An embedding provider plus the match threshold.

    Two names match when their cosine similarity is strictly greater
    than the threshold.
    """

    embedder: Embedder
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold <= 1.0):
            raise MetricsError(
                f"threshold must be in (0, 1], got {self.threshold}"
            )

    def embed(self, text: str) -> np.ndarray:
        try:
            vector = np.asarray(self.embedder(text), dtype=float)
        except MetricsError:
            raise
        except Exception as exc:
            raise EmbedderFailure(f"embedder failed on {text!r}: {exc}") from exc
        if vector.ndim != 1 or vector.size == 0 or not np.all(np.isfinite(vector)):
            raise EmbedderFailure(
                f"embedder returned an unusable vector for {text!r}"
            )
        return vector

    def cosine(self, a: str, b: str) -> float:
        return padded_cosine(self.embed(a), self.embed(b))

    def matches(self, a: str, b: str) -> bool:
        return self.cosine(a, b) > self.threshold


def _max_bipartite_matching(adjacency: list[list[bool]]) -> int:
    """Size of a maximum matching, by augmenting paths."""
    if not adjacency:
        return 0
    n_right = len(adjacency[0])
    match_right: list[int | None] = [None] * n_right

    def try_assign(left: int, seen: list[bool]) -> bool:
        for right in range(n_right):
            if adjacency[left][right] and not seen[right]:
                seen[right] = True
                if match_right[right] is None or try_assign(
                    match_right[right], seen
                ):
                    match_right[right] = left
                    return True
        return False

    size = 0
    for left in range(len(adjacency)):
        if try_assign(left, [False] * n_right):
            size += 1
    return size


def similarity_f1(
    predicted: Sequence[str],
    relevant: Sequence[str],
    matcher: SimilarityMatcher,
    *,
    one_to_one: bool = False,
) -> tuple[float, float, float]:
    """Precision, recall, and F1 over concept lists under soft matching.

    Both lists are deduplicated by normalized name first. By default a
    predicted name counts as correct when any relevant name clears the
    threshold and vice versa, so one prediction can cover several
    relevant concepts; pass one_to_one=True to force a bipartite
    assignment instead.
    """
    pred_unique = ordered_unique(list(predicted))
    rel_unique = ordered_unique(list(relevant))
    if not pred_unique:
        raise EmptyList("predicted list is empty")
    if not rel_unique:
        raise EmptyList("relevant list is empty")

    vectors: dict[str, np.ndarray] = {}
    for name in pred_unique + rel_unique:
        key = normalize_name(name)
        if key not in vectors:
            vectors[key] = matcher.embed(name)

    hits = [
        [
            padded_cosine(vectors[normalize_name(p)], vectors[normalize_name(r)])
            > matcher.threshold
            for r in rel_unique
        ]
        for p in pred_unique
    ]

    if one_to_one:
        matched = _max_bipartite_matching(hits)
        precision = matched / len(pred_unique)
        recall = matched / len(rel_unique)
    else:
        precision = sum(any(row) for row in hits) / len(pred_unique)
        recall = sum(
            any(hits[i][j] for i in range(len(pred_unique)))
            for j in range(len(rel_unique))
        ) / len(rel_unique)

    s_f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, s_f1


def mean_similarity_f1(
    predicted_lists: Sequence[Sequence[str]],
    gold_lists: Sequence[Sequence[str]],
    matcher: SimilarityMatcher,
    *,
    one_to_one: bool = False,
) -> tuple[float, float, float]:
    """Mean precision, recall, and F1 of similarity_f1 over aligned lists.

    An empty prediction scores 0 on all three; an empty gold list is an
    error, because there is nothing to score against.
    """
    if len(predicted_lists) != len(gold_lists):
        raise LengthMismatch(
            f"got {len(predicted_lists)} predicted lists "
            f"for {len(gold_lists)} gold lists"
        )
    if not predicted_lists:
        raise EmptyList("no lists to score")
    triples = []
    for number, (predicted, gold) in enumerate(
        zip(predicted_lists, gold_lists), start=1
    ):
        if not gold:
            raise EmptyList(f"gold list {number} is empty")
        if not predicted:
            triples.append((0.0, 0.0, 0.0))
            continue
        triples.append(similarity_f1(predicted, gold, matcher, one_to_one=one_to_one))
    precision, recall, s_f1 = (statistics.fmean(column) for column in zip(*triples))
    return precision, recall, s_f1


class ExactMatchEmbedder:
    """One-hot embedding per normalized name.

    The dimension grows as new names appear; cosine under zero-padding
    is 1 for the same normalized name and 0 otherwise, so the soft
    metric collapses to exact set overlap.
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}

    def __call__(self, text: str) -> list[float]:
        key = normalize_name(text)
        index = self._index.setdefault(key, len(self._index))
        vector = [0.0] * len(self._index)
        vector[index] = 1.0
        return vector


class HashEmbedder:
    """Deterministic pseudo-random unit vector per normalized name.

    The same text always embeds identically for a given seed; unrelated
    names land in nearly orthogonal directions for reasonable dims.
    """

    def __init__(self, seed: int = 0, dim: int = 16) -> None:
        if dim < 1:
            raise MetricsError(f"dim must be positive, got {dim}")
        self.seed = seed
        self.dim = dim

    def __call__(self, text: str) -> list[float]:
        key = normalize_name(text)
        digest = hashlib.sha256(f"{self.seed}|{key}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        vector = rng.standard_normal(self.dim)
        norm = float(np.linalg.norm(vector))
        while norm == 0.0:
            vector = rng.standard_normal(self.dim)
            norm = float(np.linalg.norm(vector))
        return (vector / norm).tolist()


def confusion_counts(judgments: Iterable[EdgeJudgment]) -> tuple[int, int]:
    """Tally of (yes, no) verdicts across edge judgments."""
    yes = no = 0
    for judgment in judgments:
        if judgment.verdict is Verdict.YES:
            yes += 1
        else:
            no += 1
    return yes, no


def concept_mentions(
    text: str, vocabulary: Sequence[str]
) -> tuple[int, int, dict[str, int]]:
    """Count vocabulary names occurring in text.

    Matching is case-insensitive over token runs, non-overlapping,
    longest-match-wins. Returns distinct-concept count, total
    occurrence count, and per-concept occurrence counts (only concepts
    that occur at least once appear in the dict).
    """
    if not vocabulary:
        raise EmptyList("vocabulary is empty")
    matcher = VocabularyMatcher(vocabulary)
    counts = Counter(matcher.scan(text))
    return len(counts), sum(counts.values()), dict(counts)


def report_payload(
    report: EvalReport, metadata: Mapping[str, object] | None = None
) -> dict[str, object]:
    """Report fields merged with run metadata, for JSON output."""
    payload: dict[str, object] = dict(report.to_dict())
    for key, value in (metadata or {}).items():
        if key in payload:
            raise MetricsError(f"metadata key collides with a metric: {key}")
        payload[key] = value
    return payload


def render_report(payload: Mapping[str, object]) -> str:
    """Aligned two-column plain-text table of a report payload."""
    if not payload:
        return ""
    width = max(len(str(key)) for key in payload)
    lines = []
    for key, value in payload.items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"{str(key).ljust(width)}  {shown}")
    return "\n".join(lines) + "\n"


def report_json(payload: Mapping[str, object]) -> str:
    """Canonical JSON rendering of a report payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
