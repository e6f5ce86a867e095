"""Evaluation metrics.

Binary accuracy/F1 reports over Yes/No answers, a similarity-aware F1
for concept-list answers where two names match by normalized name or
by embedding cosine above a threshold, and vocabulary mention counting
in free text. numpy is imported only where hashed embeddings are built
and compared, so exact matching never loads it.
"""
from __future__ import annotations

import hashlib
import statistics
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from .recovery import Verdict
from .textnorm import VocabularyMatcher, normalize_name, unique_names

DEFAULT_THRESHOLD = 0.6
# cosines this close to the threshold are recomputed one pair at a time,
# so rounding in a matrix product can never flip a match decision
_TIE_BAND = 1e-9


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


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity of two vectors of one width; a zero vector has
    cosine 0 with everything."""
    import numpy as np

    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if norm == 0.0:
        return 0.0
    return float(a @ b) / norm


Embedder = Callable[[str], Sequence[float]]


@dataclass(frozen=True)
class SimilarityMatcher:
    """An embedding provider plus the match threshold.

    Two names match when their cosine similarity is strictly greater
    than the threshold, which lies in (0, 1): at 1 nothing could match,
    not even two equal names. Each distinct text is embedded once for the
    matcher's lifetime, so the embedder must be deterministic per text,
    and every vector must have the width of the first.
    """

    embedder: Embedder
    threshold: float = DEFAULT_THRESHOLD
    _vectors: dict[str, Sequence[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold < 1.0):
            raise MetricsError(
                f"threshold must be in (0, 1), got {self.threshold}"
            )

    def embed(self, text: str) -> Sequence[float]:
        import numpy as np

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

    def _vector(self, text: str) -> Sequence[float]:
        """embed(text), computed on the first request for this exact text."""
        vector = self._vectors.get(text)
        if vector is None:
            vector = self.embed(text)
            width = len(next(iter(self._vectors.values()), vector))
            if len(vector) != width:
                raise EmbedderFailure(
                    f"embedder returned {len(vector)} values for {text!r}, "
                    f"after {width} for earlier texts"
                )
            self._vectors[text] = vector
        return vector

    def hits(self, predicted: Mapping[str, str], relevant: Mapping[str, str]) -> list[list[bool]]:
        """hits[i][j] is whether the i-th predicted and j-th relevant key match.

        Each list maps normalized names to spellings, as unique_names gives
        them; a name in both lists is embedded as the predicted list spells it.
        """
        spelling = {**relevant, **predicted}
        vectors = [self._vector(spelling[key]) for key in (*predicted, *relevant)]
        return _hit_matrix(vectors[: len(predicted)], vectors[len(predicted) :], self.threshold)


class ExactMatcher:
    """Two names match when their normalized names are equal."""

    def hits(
        self, predicted: Mapping[str, str], relevant: Mapping[str, str]
    ) -> list[Sequence[bool]]:
        """hits[i][j] is whether the i-th predicted and j-th relevant key match."""
        # keys are unique within each list, so a row holds at most one hit,
        # and the rows without one can share a tuple
        column = {key: j for j, key in enumerate(relevant)}
        miss = (False,) * len(column)
        rows = []
        for key in predicted:
            j = column.get(key)
            rows.append(miss if j is None else (*miss[:j], True, *miss[j + 1 :]))
        return rows


def _max_bipartite_matching(adjacency: Sequence[Sequence[bool]]) -> int:
    """Size of a maximum matching, by augmenting paths.

    Each search walks an explicit stack, so an augmenting path may be
    longer than the interpreter's recursion limit.
    """
    if not adjacency:
        return 0
    neighbors = [[right for right, hit in enumerate(row) if hit] for row in adjacency]
    match_right: list[int | None] = [None] * len(adjacency[0])
    size = 0
    for root in range(len(neighbors)):
        seen = [False] * len(match_right)
        # lefts[k] is the k-th row on the path; rights[k] the column it takes
        lefts, options, rights = [root], [iter(neighbors[root])], []
        while options:
            right = next((r for r in options[-1] if not seen[r]), None)
            if right is None:
                lefts.pop()
                options.pop()
                if rights:
                    rights.pop()
                continue
            seen[right] = True
            rights.append(right)
            owner = match_right[right]
            if owner is None:
                for left, taken in zip(lefts, rights, strict=True):
                    match_right[taken] = left
                size += 1
                break
            lefts.append(owner)
            options.append(iter(neighbors[owner]))
    return size


def _unit_rows(vectors: Sequence[Sequence[float]]):
    """Vectors of one width as unit-norm rows; a zero vector stays zero."""
    import numpy as np

    rows = np.array(vectors, dtype=float)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return rows / norms


def _hit_matrix(
    predicted: Sequence[Sequence[float]],
    relevant: Sequence[Sequence[float]],
    threshold: float,
) -> list[list[bool]]:
    """hits[i][j] is cosine(predicted[i], relevant[j]) > threshold.

    All cosines come from one matrix product; the few within _TIE_BAND
    of the threshold are decided by cosine itself.
    """
    import numpy as np

    cosines = _unit_rows(predicted) @ _unit_rows(relevant).T
    hits = cosines > threshold
    for i, j in zip(*np.nonzero(np.abs(cosines - threshold) <= _TIE_BAND)):
        hits[i, j] = cosine(predicted[i], relevant[j]) > threshold
    return hits.tolist()


def similarity_f1(
    predicted: Sequence[str],
    relevant: Sequence[str],
    matcher: SimilarityMatcher | ExactMatcher,
    *,
    one_to_one: bool = False,
) -> tuple[float, float, float]:
    """Precision, recall, and F1 over concept lists under soft matching.

    Both lists are deduplicated by normalized name first. By default a
    predicted name counts as correct when it matches any relevant name
    and vice versa, so one prediction can cover several
    relevant concepts; pass one_to_one=True to force a bipartite
    assignment instead.
    """
    pred_unique = unique_names(predicted)
    rel_unique = unique_names(relevant)
    if not pred_unique:
        raise EmptyList("predicted list is empty")
    if not rel_unique:
        raise EmptyList("relevant list is empty")

    hits = matcher.hits(pred_unique, rel_unique)

    if one_to_one:
        matched = _max_bipartite_matching(hits)
        precision = matched / len(pred_unique)
        recall = matched / len(rel_unique)
    else:
        # only a row with a hit can give a column one
        hit_rows = [row for row in hits if any(row)]
        precision = len(hit_rows) / len(pred_unique)
        recall = sum(map(any, zip(*hit_rows))) / len(rel_unique)

    s_f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, s_f1


def mean_similarity_f1(
    predicted_lists: Sequence[Sequence[str]],
    gold_lists: Sequence[Sequence[str]],
    matcher: SimilarityMatcher | ExactMatcher,
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
        import numpy as np

        key = normalize_name(text)
        digest = hashlib.sha256(f"{self.seed}|{key}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        vector = rng.standard_normal(self.dim)
        norm = float(np.linalg.norm(vector))
        while norm == 0.0:
            vector = rng.standard_normal(self.dim)
            norm = float(np.linalg.norm(vector))
        return (vector / norm).tolist()


def concept_mentions(
    text: str, vocabulary: Sequence[str] | VocabularyMatcher
) -> tuple[int, int, dict[str, int]]:
    """Count vocabulary names occurring in text.

    Matching is case-insensitive over token runs, non-overlapping,
    longest-match-wins. Returns distinct-concept count, total
    occurrence count, and per-concept occurrence counts (only concepts
    that occur at least once appear in the dict). A VocabularyMatcher,
    such as ConceptGraph.matcher, is used as is.
    """
    if not vocabulary:
        raise EmptyList("vocabulary is empty")
    counts = Counter(VocabularyMatcher.of(vocabulary).scan(text))
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
