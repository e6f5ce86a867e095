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
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import requests

from . import files
from .graph import ConceptGraph
from .pipeline import EMPTY_SECTION, NEIGHBORHOOD_MARKER, PATH_MARKER, QUESTION_MARKER
from .pipeline import YES_NO_RULE, parse_concept_list
from .recovery import DOC_HEADER, RAG_HEADER
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


# -- live transport -----------------------------------------------------------


@dataclass(frozen=True)
class OracleConfig:
    """Connection settings for a chat-completions style endpoint."""

    endpoint: str
    model: str
    temperature: float = 0.0
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 1.0


# Patchable in tests so retry loops run without real delays.
_sleep = time.sleep


def complete(config: OracleConfig, prompt: str) -> str:
    """One completion with retry on 429, 5xx, and connection failures.

    Auth failures (401/403) and other client errors raise immediately.
    """
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
            _sleep(config.backoff * 2 ** (attempt - 1))
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

_ZS_FIRST_LINE = re.compile(
    r"\AWe have two (?P<domain>.*?) related concepts: "
    r"A: (?P<a>.*?) and B: (?P<b>.*)\.$",
    re.MULTILINE,
)
_COT_OPENING = re.compile(
    r"\AIn the context of (?P<domain>.*?), we have two concepts: "
    r"A: (?P<a>.*?) and B: (?P<b>.*?)\. Assess if understanding "
)


def parse_pair_prompt(prompt: str) -> tuple[str, str, str]:
    """Extract (a, b, variant code) from a pair-judgment prompt.

    Classification reads the structural markers each variant leaves in
    the rendered text; prompts that fit no frame raise.
    """
    cot = _COT_OPENING.search(prompt)
    if cot:
        return cot.group("a"), cot.group("b"), "cot"
    zs = _ZS_FIRST_LINE.search(prompt)
    if not zs:
        raise UnrecognizedPrompt(f"not a pair prompt: {prompt[:80]!r}")
    a, b = zs.group("a"), zs.group("b")
    lines = prompt.split("\n")
    for i, line in enumerate(lines):
        if line == RAG_HEADER:
            return a, b, "zs-rag"
        if line == DOC_HEADER:
            nxt = lines[i + 1] if i + 1 < len(lines) else ""
            return (a, b, "zs-con") if nxt.startswith("We know that ") else (a, b, "zs-wiki")
        if line.startswith(DOC_HEADER + " "):
            return a, b, "zs-doc"
    return a, b, "zs"


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

    def __call__(self, prompt: str) -> str:
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
    variant-less row, and raises on a miss.
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
        return cls([row for _, row in files.read_jsonl(path, LlmError)])

    def __call__(self, prompt: str) -> str:
        a, b, variant = parse_pair_prompt(prompt)
        key_a, key_b = normalize_name(a), normalize_name(b)
        for key in ((key_a, key_b, variant), (key_a, key_b, None)):
            if key in self._rows:
                return self._rows[key]
        raise FixtureMiss(f"no fixture row for pair ({a!r}, {b!r})")


class EchoOracle:
    """Returns the prompt's last non-empty line; handy for wiring tests."""

    def __call__(self, prompt: str) -> str:
        for line in reversed(prompt.split("\n")):
            if line.strip():
                return line
        raise UnrecognizedPrompt("empty prompt")


# -- pipeline mocks ---------------------------------------------------------------

_TASK_LINE_RE = re.compile(r"^Task (?P<n>[1-5]) question:$", re.MULTILINE)


def _escape_name(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


def _section_after(prompt: str, marker: str) -> str | None:
    lines = prompt.split("\n")
    try:
        start = lines.index(marker) + 1
    except ValueError:
        return None
    body: list[str] = []
    for line in lines[start:]:
        if line.startswith("***"):
            break
        body.append(line)
    return "\n".join(body).strip()


class TemplateCommandOracle:
    """Generates graph-query commands from task prompts.

    Extracts concept mentions from the question with the shared
    vocabulary scanner and fills a fixed command shape per task. With
    fewer mentions than the shape needs it falls back to the literal
    name "unknown", which parses but fails concept resolution, which is
    exactly what the pipeline's fallback path is for.
    """

    def __init__(self, vocabulary: Sequence[str]):
        self._matcher = VocabularyMatcher(vocabulary)

    def __call__(self, prompt: str) -> str:
        match = _TASK_LINE_RE.search(prompt)
        if not match:
            raise UnrecognizedPrompt(f"no task line in {prompt[:80]!r}")
        task = int(match.group("n"))
        question = prompt[match.end() :].split("\n\n", 1)[0].strip()
        mentions = ordered_unique(self._matcher.scan(question))
        first = _escape_name(mentions[0]) if mentions else "unknown"
        second = _escape_name(mentions[1]) if len(mentions) > 1 else "unknown"
        if task == 1:
            return f'REACHABLE "{first}" -> "{second}"'
        if task == 2:
            return f'PREREQ "{first}" DEPTH 3'
        if task == 3:
            return f'SHORTEST "{first}" -> "{second}"'
        if task == 4:
            return f'NEIGHBORS "{first}" IN HOPS 2'
        raise UnrecognizedPrompt(f"task {task} prompts do not ask for a command")


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
        if QUESTION_MARKER not in prompt:
            raise UnrecognizedPrompt(f"not a grounding prompt: {prompt[:80]!r}")
        path_section = _section_after(prompt, PATH_MARKER)
        if path_section is not None:
            if YES_NO_RULE in prompt:
                return "No" if path_section == EMPTY_SECTION else "Yes"
            if path_section == EMPTY_SECTION:
                return ""
            return "; ".join(parse_concept_list(path_section.replace("\n", ";")))
        neighborhood = _section_after(prompt, NEIGHBORHOOD_MARKER)
        if neighborhood is not None:
            if neighborhood == EMPTY_SECTION:
                return "No related concepts were found to review."
            names = "; ".join(parse_concept_list(neighborhood))
            return f"To improve, review these related concepts: {names}."
        raise UnrecognizedPrompt("grounding prompt has no path section")
