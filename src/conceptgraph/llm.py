"""Oracle transport and deterministic mock oracles.

Every consumer in this package treats an oracle as a plain
``Callable[[str], str]``. This module provides one live implementation
(a chat-completions HTTP endpoint) and several mocks that answer
deterministically so recovery and pipeline runs can be replayed
byte-for-byte without network access.

The API key is read from the LLM_API_KEY environment variable at call
time; it is never stored on a config object and never written to logs,
traces, or error messages.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import files
from .graph import ConceptGraph
from .pipeline import (
    parse_concept_list,
    read_command_prompt,
    read_grounding_prompt,
    read_proposal_prompt,
    template_queries,
)
from .query import render_query
from .recovery import BARE_PROMPT_CODES, read_pair_prompt
from .textnorm import VocabularyMatcher, normalize_name, ordered_unique

API_KEY_ENV = "LLM_API_KEY"


class LlmError(Exception):
    """Base class for oracle failures."""


class TransportError(LlmError):
    """The endpoint could not be reached or returned an unusable reply."""


class RateLimitedError(TransportError):
    """Retries were exhausted against 429 responses."""


class AuthFailureError(LlmError):
    """The endpoint rejected the credentials; never retried."""


class UnrecognizedPrompt(LlmError):
    """A mock oracle received a prompt it cannot interpret."""


class FixtureMiss(LlmError):
    """A scripted oracle has no row for the requested pair."""


class FixtureFormatError(ValueError):
    """A fixture file holds a line that is not a fixture row."""


# -- live transport -----------------------------------------------------------


@dataclass(frozen=True)
class OracleConfig:
    """Connection settings for a chat-completions style endpoint."""

    endpoint: str
    model: str
    temperature: float = 0.0
    timeout: float = 30.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        # chained comparisons with infinity are false for NaN as well
        if not 0 < self.timeout < float("inf"):
            raise ValueError(f"timeout must be a finite number > 0, got {self.timeout!r}")
        if not 0 <= self.temperature < float("inf"):
            raise ValueError(
                f"temperature must be a finite number >= 0, got {self.temperature!r}"
            )
        retries = self.max_retries
        if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
            raise ValueError(f"max_retries must be an integer >= 0, got {retries!r}")


# seconds before the first retry; each later retry waits twice as long
RETRY_BACKOFF = 1.0

# Patchable in tests so retry loops run without real delays.
_sleep = time.sleep


def complete(config: OracleConfig, prompt: str) -> str:
    """One completion with retry on 429, 5xx, and connection failures.

    Auth failures (401/403) and other client errors raise immediately.
    requests is imported here, so runs that only use mocks never load it.
    """
    import requests

    payload = {
        "model": config.model,
        "temperature": config.temperature,
        "messages": [{"role": "user", "content": prompt}],
    }
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error = "no attempts made"
    for attempt in range(config.max_retries + 1):
        if attempt:
            _sleep(RETRY_BACKOFF * 2 ** (attempt - 1))
        try:
            response = requests.post(
                config.endpoint, json=payload, headers=headers, timeout=config.timeout
            )
        except requests.RequestException as exc:
            last_error = f"connection failure: {type(exc).__name__}"
            continue
        if response.status_code in (401, 403):
            raise AuthFailureError(
                f"endpoint rejected credentials (HTTP {response.status_code})"
            )
        if response.status_code == 429 or response.status_code >= 500:
            last_error = f"HTTP {response.status_code}"
            continue
        if response.status_code != 200:
            raise TransportError(f"unexpected HTTP {response.status_code}")
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion body: {exc}") from exc
        if not isinstance(text, str):
            raise TransportError("completion content is not a string")
        return text
    if last_error == "HTTP 429":
        raise RateLimitedError(f"gave up after {config.max_retries + 1} attempts")
    raise TransportError(
        f"gave up after {config.max_retries + 1} attempts; last error: {last_error}"
    )


class LiveOracle:
    """Callable wrapper so a config slots in anywhere a mock does."""

    def __init__(self, config: OracleConfig):
        self.config = config

    def __call__(self, prompt: str) -> str:
        return complete(self.config, prompt)


# -- prompt classification -----------------------------------------------------


def parse_pair_prompt(prompt: str) -> tuple[str, str, str]:
    """(a, b, variant code) of a pair-judgment prompt; recovery reads it."""
    read = read_pair_prompt(prompt)
    if read is None:
        raise UnrecognizedPrompt(f"not a pair prompt: {prompt[:80]!r}")
    return read


# -- deterministic mocks --------------------------------------------------------


def _unit_interval(seed: int, a: str, b: str) -> float:
    """Deterministic u in [0, 1) from sha256(f"{seed}|{a}|{b}").

    The first 8 digest bytes, big-endian, divided by 2**64. Tests can
    reproduce flips from this contract without touching the oracle.
    """
    digest = hashlib.sha256(f"{seed}|{a}|{b}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class GraphBackedOracle:
    """Answers pair prompts from a reference graph, with optional noise.

    The verdict is YES exactly when the graph has the directed edge
    (a, b); with flip_probability p the verdict is inverted whenever
    _unit_interval(seed, a, b) < p (names normalized), so a given pair
    always flips or never does.
    """

    def __init__(
        self, graph: ConceptGraph, flip_probability: float = 0.0, seed: int = 0
    ):
        if not 0.0 <= flip_probability <= 1.0:
            raise ValueError(f"flip_probability must be in [0, 1], got {flip_probability}")
        self.graph = graph
        self.flip_probability = flip_probability
        self.seed = seed
        self.calls = 0
        self._calls_lock = threading.Lock()

    def __call__(self, prompt: str) -> str:
        with self._calls_lock:
            self.calls += 1
        a_name, b_name, variant = parse_pair_prompt(prompt)
        a = self.graph.resolve(a_name)
        b = self.graph.resolve(b_name)
        verdict = (a.id, b.id) in self.graph.edges
        if self.flip_probability > 0.0:
            u = _unit_interval(
                self.seed, normalize_name(a_name), normalize_name(b_name)
            )
            if u < self.flip_probability:
                verdict = not verdict
        if variant == "cot":
            word = "YES" if verdict else "NO"
            return (
                "Following the steps: the concepts are related as assessed. "
                f"<result>{word}</result>"
            )
        return "YES" if verdict else "NO"


class ScriptedOracle:
    """Replays canned responses keyed by (a, b) and optionally variant.

    Rows are dicts with keys a, b, response, and optional variant (a
    variant code). Lookup prefers the variant-specific row, then the
    variant-less row, and raises on a miss. A bare zero-shot prompt may
    come from a Doc or RAG run whose context matched nothing, so after
    the "zs" row it tries those variants' rows (BARE_PROMPT_CODES).
    """

    def __init__(self, rows: Sequence[Mapping[str, object]]):
        self._rows: dict[tuple[str, str, str | None], str] = {}
        for i, row in enumerate(rows):
            try:
                key = (
                    normalize_name(str(row["a"])),
                    normalize_name(str(row["b"])),
                    str(row["variant"]) if "variant" in row else None,
                )
                self._rows[key] = str(row["response"])
            except KeyError as exc:
                raise LlmError(f"fixture row {i} is missing {exc}") from None

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScriptedOracle":
        """Rows from a fixture file. A line that is not a JSON object with
        a, b and response raises FixtureFormatError naming file and line."""
        rows = []
        for lineno, row in files.read_jsonl(path, FixtureFormatError):
            if missing := [key for key in ("a", "b", "response") if key not in row]:
                raise FixtureFormatError(
                    f"{path}: line {lineno}: fixture row is missing {missing[0]!r}"
                )
            rows.append(row)
        return cls(rows)

    def __call__(self, prompt: str) -> str:
        a, b, variant = parse_pair_prompt(prompt)
        key_a, key_b = normalize_name(a), normalize_name(b)
        variants = (variant, *BARE_PROMPT_CODES) if variant == "zs" else (variant,)
        for code in (*variants, None):
            if (key_a, key_b, code) in self._rows:
                return self._rows[key_a, key_b, code]
        raise FixtureMiss(f"no fixture row for pair ({a!r}, {b!r})")


class EchoOracle:
    """Returns the prompt's last non-empty line; handy for wiring tests."""

    def __call__(self, prompt: str) -> str:
        for line in reversed(prompt.split("\n")):
            if line.strip():
                return line
        raise UnrecognizedPrompt("empty prompt")


# -- pipeline mocks ---------------------------------------------------------------


class TemplateCommandOracle:
    """Generates graph-query commands from task prompts.

    Extracts concept mentions from the question with the shared
    vocabulary scanner (a VocabularyMatcher, such as
    ConceptGraph.matcher, is used as is) and writes the first query of
    the pipeline's fallback template for them. With fewer mentions than
    the template needs it uses the literal name "unknown", which parses
    but fails concept resolution, which is exactly what the pipeline's
    fallback path is for.
    """

    def __init__(self, vocabulary: Sequence[str] | VocabularyMatcher):
        self._matcher = VocabularyMatcher.of(vocabulary)

    def __call__(self, prompt: str) -> str:
        read = read_command_prompt(prompt)
        if read is None:
            raise UnrecognizedPrompt(f"not a command prompt: {prompt[:80]!r}")
        task, question = read
        if task not in (1, 2, 3, 4):
            raise UnrecognizedPrompt(f"task {task} prompts do not ask for a command")
        mentions = ordered_unique(self._matcher.scan(question))
        names = [*mentions, "unknown", "unknown"][:2]
        return render_query(template_queries(task, names)[0])


class GarbageCommandOracle:
    """Always returns an unparseable command; exercises fallback paths."""

    def __call__(self, prompt: str) -> str:
        return "FOO ??? not a command"


class GroundedAnswerOracle:
    """Answers grounding prompts strictly from their path section.

    Yes/no prompts get "Yes" iff the path section is non-empty; listing
    prompts get the unique path concepts joined by "; "; proposal
    prompts get a review suggestion naming the neighborhood concepts.
    """

    def __call__(self, prompt: str) -> str:
        grounding = read_grounding_prompt(prompt)
        if grounding is not None:
            _, yes_no, paths = grounding
            if yes_no:
                return "Yes" if paths else "No"
            return "; ".join(parse_concept_list(";".join(itertools.chain(*paths))))
        proposal = read_proposal_prompt(prompt)
        if proposal is not None:
            _, names = proposal
            if not names:
                return "No related concepts were found to review."
            listed = "; ".join(parse_concept_list(";".join(names)))
            return f"To improve, review these related concepts: {listed}."
        raise UnrecognizedPrompt(f"not a grounding prompt: {prompt[:80]!r}")
