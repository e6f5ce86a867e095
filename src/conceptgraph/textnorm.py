"""Shared text normalization and vocabulary matching.

Every module that compares concept names or scans text for them goes
through these helpers, so "match" means the same thing everywhere:
names are compared case-insensitively with internal whitespace
collapsed, and text scanning works on lowercase alphanumeric token runs
with longest-match-wins, non-overlapping semantics.
"""
from __future__ import annotations

import re
from collections.abc import Iterable

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def normalize_name(name: str) -> str:
    """Lowercase and collapse internal whitespace; used for lookup only."""
    return " ".join(name.split()).lower()


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric token runs; punctuation and hyphens split."""
    return _TOKEN_RE.findall(text.lower())


class VocabularyMatcher:
    """Scans token streams for vocabulary names.

    Built once per vocabulary; matching is non-overlapping and picks the
    longest token sequence at each position. When two vocabulary entries
    normalize to the same token sequence the first one listed wins.
    """

    def __init__(self, vocabulary: Iterable[str]):
        self._by_tokens: dict[tuple[str, ...], str] = {}
        for name in vocabulary:
            toks = tuple(tokenize(name))
            if toks and toks not in self._by_tokens:
                self._by_tokens[toks] = name
        self._max_len = max((len(t) for t in self._by_tokens), default=0)

    @classmethod
    def of(cls, vocabulary: Iterable[str] | VocabularyMatcher) -> VocabularyMatcher:
        """The matcher itself, or a new one over a list of names."""
        return vocabulary if isinstance(vocabulary, cls) else cls(vocabulary)

    def __len__(self) -> int:
        return len(self._by_tokens)

    def scan(self, text: str) -> list[str]:
        """All matches in text order (one entry per occurrence)."""
        tokens = tokenize(text)
        hits: list[str] = []
        i = 0
        n = len(tokens)
        while i < n:
            matched = None
            limit = min(self._max_len, n - i)
            for length in range(limit, 0, -1):
                candidate = tuple(tokens[i : i + length])
                if candidate in self._by_tokens:
                    matched = (self._by_tokens[candidate], length)
                    break
            if matched is None:
                i += 1
            else:
                hits.append(matched[0])
                i += matched[1]
        return hits


def mentions_concept(text: str, name: str) -> bool:
    """True when the normalized concept name occurs in the text as a
    contiguous token run."""
    needle = tuple(tokenize(name))
    if not needle:
        return False
    tokens = tokenize(text)
    span = len(needle)
    return any(
        tuple(tokens[i : i + span]) == needle for i in range(len(tokens) - span + 1)
    )


def unique_names(items: Iterable[str]) -> dict[str, str]:
    """Map each normalized name to its first spelling, in first-occurrence
    order.

    Accepts any iterable of strings and normalizes each distinct string
    once: the first occurrence of a normalized key is always the first
    occurrence of some exact string, so skipping exact repeats first
    keeps the same spellings.
    """
    out: dict[str, str] = {}
    for item in dict.fromkeys(items):
        out.setdefault(normalize_name(item), item)
    return out


def ordered_unique(items: Iterable[str]) -> list[str]:
    """Deduplicate by normalized name, keeping first occurrences in order."""
    return list(unique_names(items).values())
