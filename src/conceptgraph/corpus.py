"""Sentence corpus ingestion and TF-IDF retrieval.

The index is deliberately small: raw term frequency weighted by
idf = ln(N / df), cosine similarity against the query, ties broken by
document id. Retrieval feeds passage context into prompt builders, so
everything here is deterministic and serializable.
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from . import files
from .textnorm import tokenize

INDEX_FORMAT = "conceptgraph.retrieval-index"
INDEX_VERSION = 1
DEFAULT_MIN_WORDS = 25


class CorpusError(Exception):
    """Base class for corpus and retrieval failures."""


class EmptyQuery(CorpusError):
    """The query produced no tokens."""


class IndexFormatError(CorpusError):
    """A serialized index is malformed or has the wrong version."""


@dataclass(frozen=True)
class CorpusDocument:
    doc_id: int
    text: str
    source: str = ""


def ingest(
    lines: Iterable[str],
    *,
    min_words: int = DEFAULT_MIN_WORDS,
    source: str = "",
) -> list[CorpusDocument]:
    """Keep lines with at least min_words whitespace-separated words.

    Document ids are assigned 0..K-1 over the kept lines, so the same
    input always produces the same ids.
    """
    if min_words < 1:
        raise CorpusError(f"min_words must be positive, got {min_words}")
    kept: list[CorpusDocument] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if len(line.split()) >= min_words:
            kept.append(CorpusDocument(doc_id=len(kept), text=line, source=source))
    return kept


class RetrievalIndex:
    """Inverted TF-IDF index over a fixed document list."""

    def __init__(self, documents: Sequence[CorpusDocument]):
        ids = [d.doc_id for d in documents]
        if ids != list(range(len(documents))):
            raise CorpusError("document ids must be 0..K-1 in order")
        self.documents: tuple[CorpusDocument, ...] = tuple(documents)
        self.doc_count = len(documents)
        postings: dict[str, list[tuple[int, int]]] = {}
        for doc in documents:
            for term, tf in sorted(Counter(tokenize(doc.text)).items()):
                postings.setdefault(term, []).append((doc.doc_id, tf))
        self.postings: dict[str, tuple[tuple[int, int], ...]] = {
            term: tuple(rows) for term, rows in sorted(postings.items())
        }
        self.vocabulary: dict[str, int] = {
            term: len(rows) for term, rows in self.postings.items()
        }
        self._doc_norms = self._compute_norms()

    def _compute_norms(self) -> list[float]:
        sq = [0.0] * self.doc_count
        for term, rows in self.postings.items():
            idf = self.idf(term)
            for doc_id, tf in rows:
                sq[doc_id] += (tf * idf) ** 2
        return [math.sqrt(v) for v in sq]

    def idf(self, term: str) -> float:
        df = self.vocabulary.get(term, 0)
        if df == 0:
            return 0.0
        return math.log(self.doc_count / df)

    def retrieve(self, query: str, k: int = 3) -> list[tuple[CorpusDocument, float]]:
        """Top-k documents by cosine similarity; zero-score hits are dropped.

        Query terms absent from the index carry no weight. Results are
        ordered by (score desc, doc_id asc).
        """
        if k < 1:
            raise CorpusError(f"k must be positive, got {k}")
        terms = tokenize(query)
        if not terms:
            raise EmptyQuery(f"query {query!r} has no tokens")
        weights = {
            term: tf * self.idf(term)
            for term, tf in Counter(terms).items()
            if term in self.vocabulary
        }
        query_norm = math.sqrt(sum(w * w for w in weights.values()))
        if query_norm == 0.0:
            return []
        scores: dict[int, float] = {}
        for term, q_weight in weights.items():
            idf = self.idf(term)
            for doc_id, tf in self.postings[term]:
                scores[doc_id] = scores.get(doc_id, 0.0) + q_weight * tf * idf
        ranked = [
            (self.documents[doc_id], dot / (query_norm * self._doc_norms[doc_id]))
            for doc_id, dot in scores.items()
            if dot > 0.0
        ]
        ranked.sort(key=lambda pair: (-pair[1], pair[0].doc_id))
        return ranked[:k]

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the index as versioned JSON; output is byte-stable."""
        payload = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "documents": [
                {"doc_id": d.doc_id, "text": d.text, "source": d.source}
                for d in self.documents
            ],
        }
        files.write_json(path, payload, indent=2)

    @classmethod
    def load(cls, path: str | Path) -> "RetrievalIndex":
        payload = files.read_versioned_json(
            path, INDEX_FORMAT, INDEX_VERSION, IndexFormatError
        )
        try:
            documents = [
                CorpusDocument(
                    doc_id=int(row["doc_id"]),
                    text=str(row["text"]),
                    source=str(row.get("source", "")),
                )
                for row in payload["documents"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(f"{path}: malformed document row: {exc}") from exc
        return cls(documents)
