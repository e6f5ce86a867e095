"""Two-stage question answering over a concept graph.

Stage one asks an oracle to emit a single graph-query command for the
question; stage two executes that command and asks the oracle again,
this time grounded on the returned paths. When the emitted command is
unparseable or references unknown concepts, a deterministic template
built from the question's own concept mentions takes over.

Tasks: 1 reachability (Yes/No), 2 prerequisite paths, 3 shortest paths,
4 neighborhood suggestions (all concept lists), 5 open-ended proposal
writing grounded on concept neighborhoods (free text, no query stage).
"""
from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import files
from .graph import ConceptGraph, UnknownConcept
from .query import (
    GRAMMAR_REFERENCE,
    GraphQuery,
    Neighbors,
    Prerequisites,
    QueryOutcome,
    QuerySyntaxError,
    Reachable,
    ShortestPath,
    execute,
    merge_path_outcomes,
    parse_query,
    render_query,
)
from .recovery import RETRY_SUFFIX, UnparseableVerdict, Verdict, parse_verdict, template_regex
from .textnorm import VocabularyMatcher, ordered_unique

Oracle = Callable[[str], str]

FALLBACK_DEPTH = 3
FALLBACK_HOPS = 2
PROPOSAL_HOPS = 1
QUESTION_MARKER = "***Question**:"
PATH_MARKER = "***Path**:"
NEIGHBORHOOD_MARKER = "***Neighborhood**:"
EMPTY_SECTION = "EMPTY"

_GROUNDING_OPENING = (
    "There is a concept graph that includes the relations between concepts.",
    "Based on the question, the path between concepts has been returned.",
    "If the path is empty, then there is no relationship.",
    "Only use the returned path as the information for answering.",
)
YES_NO_RULE = 'Only return "Yes" or "No".'
_TASK_LINE = "Task {task} question:"
_COMMAND_CLOSING = "Reply with exactly one command on a single line, nothing else."
_PROPOSAL_OPENING = (
    "There is a concept graph that includes the relations between concepts.",
    "Based on the question, nearby concepts from the graph have been returned.",
    "Only use the returned concepts as the information for answering.",
)


class PipelineError(Exception):
    """Base class for pipeline failures."""


class FallbackExhausted(PipelineError):
    """Both the emitted command and the deterministic template failed."""


class TutorQaFormatError(PipelineError):
    """A question/answer file does not match the format."""


@dataclass(frozen=True)
class TutorQaItem:
    """One question with its reference answer.

    Task 1 answers are exactly "Yes" or "No"; tasks 2 to 4 answer with
    concept-name lists; task 5 answers are free text.
    """

    task: int
    question: str
    answer: str | tuple[str, ...]

    def __post_init__(self) -> None:
        if self.task not in (1, 2, 3, 4, 5):
            raise PipelineError(f"task must be 1..5, got {self.task!r}")
        if not isinstance(self.question, str) or not self.question.strip():
            raise PipelineError("question must be non-empty text")
        if self.task == 1:
            if self.answer not in ("Yes", "No"):
                raise PipelineError(
                    f'task 1 answers "Yes" or "No", got {self.answer!r}'
                )
        elif self.task == 5:
            if not isinstance(self.answer, str):
                raise PipelineError("task 5 answers free text")
        else:
            if not isinstance(self.answer, (list, tuple)) or not self.answer:
                raise PipelineError(
                    f"task {self.task} answers a non-empty concept list"
                )
            object.__setattr__(self, "answer", tuple(self.answer))
            if not all(isinstance(c, str) and c.strip() for c in self.answer):
                raise PipelineError("concept list entries must be non-empty text")


@dataclass(frozen=True)
class PipelineTrace:
    """Everything one question's run did. save_traces writes it as a
    write-only audit record; nothing in the package reads it back."""

    question: str
    generated_command: str
    parsed_query: GraphQuery | None
    outcome: QueryOutcome | None
    grounding_prompt: str
    final_answer: str
    fallback_used: bool

    def __post_init__(self) -> None:
        if self.parsed_query is None and not self.fallback_used:
            raise PipelineError(
                "a trace without a parsed query must be marked as fallback"
            )
        if (
            PATH_MARKER not in self.grounding_prompt
            and NEIGHBORHOOD_MARKER not in self.grounding_prompt
        ):
            raise PipelineError("grounding prompt lacks a context section")


def build_command_prompt(question: str, task: int) -> str:
    """The stage-one prompt: question plus the command grammar."""
    if task not in (1, 2, 3, 4):
        raise PipelineError(f"tasks 1..4 use the query stage, got {task!r}")
    return (
        "You can query a concept graph with one command.\n\n"
        f"{GRAMMAR_REFERENCE}\n\n"
        f"{_TASK_LINE.format(task=task)}\n{question}\n\n"
        f"{_COMMAND_CLOSING}"
    )


_TASK_LINE_RE = re.compile("^" + template_regex(_TASK_LINE, task=r"\d+") + "$", re.MULTILINE)


def read_command_prompt(prompt: str) -> tuple[int, str] | None:
    """(task, question) of a prompt build_command_prompt rendered, else None.

    The question runs from the first task line to the closing line, so
    it may hold blank lines and task lines of its own.
    """
    match = _TASK_LINE_RE.search(prompt)
    closing = f"\n\n{_COMMAND_CLOSING}"
    if match is None or not prompt.endswith(closing):
        return None
    return int(match["task"]), prompt[match.end() + 1 : len(prompt) - len(closing)]


def generate_command(question: str, task: int, oracle: Oracle) -> str:
    """Ask the oracle for a command; returned verbatim, unvalidated."""
    return oracle(build_command_prompt(question, task))


def extract_concepts(
    question: str, vocabulary: Sequence[str] | VocabularyMatcher
) -> list[str]:
    """Vocabulary names mentioned in the question, in order, deduplicated.

    A VocabularyMatcher, such as ConceptGraph.matcher, is used as is, so
    one scanner serves every question over the same graph.
    """
    if not vocabulary:
        raise PipelineError("vocabulary is empty")
    return ordered_unique(VocabularyMatcher.of(vocabulary).scan(question))


def render_path_section(named_paths: tuple[tuple[str, ...], ...]) -> str:
    """Semicolon-joined names per path, one path per line."""
    if not named_paths:
        return EMPTY_SECTION
    return "\n".join(";".join(path) for path in named_paths)


def build_grounding_prompt(question: str, outcome: QueryOutcome) -> str:
    """The stage-two prompt, grounded on the outcome's paths."""
    lines = list(_GROUNDING_OPENING)
    if outcome.kind == "reachable":
        lines.append(YES_NO_RULE)
    lines += [
        QUESTION_MARKER,
        question,
        PATH_MARKER,
        render_path_section(outcome.named_paths),
    ]
    return "\n".join(lines)


def _read_sections(prompt: str, marker: str) -> tuple[str, str, str] | None:
    """(opening, question, section) of a prompt laid out as opening lines,
    the question marker, the question, marker, and the section.

    The question ends at the last line equal to marker, so it may hold
    marker lines of its own; a section holding a marker line is refused.
    """
    opening, found, rest = ("\n" + prompt).partition(f"\n{QUESTION_MARKER}\n")
    if not found:
        return None
    question, found, section = rest.rpartition(f"\n{marker}\n")
    if not found or any(
        f"\n{other}\n" in f"\n{section}\n" for other in (PATH_MARKER, NEIGHBORHOOD_MARKER)
    ):
        return None
    return opening[1:], question, section


def read_grounding_prompt(
    prompt: str,
) -> tuple[str, bool, tuple[tuple[str, ...], ...]] | None:
    """(question, yes/no rule, named paths) of a prompt that
    build_grounding_prompt rendered, with or without the retry
    instruction _answer_grounded appends; None for any other text."""
    prompt = prompt.removesuffix(RETRY_SUFFIX)
    read = _read_sections(prompt, PATH_MARKER)
    if read is None:
        return None
    opening, question, section = read
    paths = () if section == EMPTY_SECTION else section.split("\n")
    return (
        question,
        YES_NO_RULE in opening.split("\n"),
        tuple(tuple(path.split(";")) for path in paths),
    )


def _answer_grounded(prompt: str, outcome: QueryOutcome, oracle: Oracle) -> str:
    """The oracle's reply, verbatim except for reachability: that is "Yes"
    or "No", asked once more when the first reply holds neither."""
    response = oracle(prompt)
    if outcome.kind != "reachable":
        return response
    try:
        verdict = parse_verdict(response)
    except UnparseableVerdict:
        verdict = parse_verdict(oracle(prompt + RETRY_SUFFIX))
    return "Yes" if verdict is Verdict.YES else "No"


def template_queries(task: int, names: Sequence[str]) -> list[GraphQuery]:
    """The fixed queries for a task 1-4 question mentioning names, in order.

    The fallback route runs them all; TemplateCommandOracle writes the
    first as its command. Tasks 1 and 3 need two names, tasks 2 and 4
    one; fewer raise FallbackExhausted.
    """
    wanted = 2 if task in (1, 3) else 1
    if len(names) < wanted:
        needs = "two known concepts" if wanted == 2 else "a known concept"
        raise FallbackExhausted(f"task {task} template needs {needs}, found {len(names)}")
    if task == 1:
        return [Reachable(names[0], names[1])]
    if task == 2:
        return [Prerequisites(names[0], FALLBACK_DEPTH)]
    if task == 3:
        return [ShortestPath(names[0], names[1])]
    return [Neighbors(name, "in", FALLBACK_HOPS) for name in names]


def _run_fallback(item: TutorQaItem, graph: ConceptGraph) -> tuple[GraphQuery, QueryOutcome]:
    names = extract_concepts(item.question, graph.matcher)
    queries = template_queries(item.task, names)
    try:
        outcomes = [execute(query, graph) for query in queries]
    except UnknownConcept as exc:
        raise FallbackExhausted(str(exc)) from exc
    if len(outcomes) == 1:
        return queries[0], outcomes[0]
    return queries[0], merge_path_outcomes(outcomes)


def run_task(
    item: TutorQaItem,
    graph: ConceptGraph,
    command_oracle: Oracle,
    answer_oracle: Oracle,
) -> tuple[str, PipelineTrace]:
    """One question end to end: command, parse, execute, ground, answer.

    When parsing or concept resolution fails, the deterministic
    template built from the question's concept mentions runs instead
    and the trace says so. Task 5 skips the query stage entirely.
    """
    if item.task == 5:
        return run_task_5(item, graph, answer_oracle)
    generated = generate_command(item.question, item.task, command_oracle)
    fallback_used = False
    try:
        query: GraphQuery = parse_query(generated)
        outcome = execute(query, graph)
    except (QuerySyntaxError, UnknownConcept) as exc:
        fallback_used = True
        try:
            query, outcome = _run_fallback(item, graph)
        except FallbackExhausted as final:
            raise FallbackExhausted(
                f"command {generated!r} failed ({exc}); {final}"
            ) from exc
    prompt = build_grounding_prompt(item.question, outcome)
    answer = _answer_grounded(prompt, outcome, answer_oracle)
    trace = PipelineTrace(
        question=item.question,
        generated_command=generated,
        parsed_query=query,
        outcome=outcome,
        grounding_prompt=prompt,
        final_answer=answer,
        fallback_used=fallback_used,
    )
    return answer, trace


def build_proposal_prompt(question: str, neighborhood: list[str]) -> str:
    """The task 5 prompt: question plus nearby concept names."""
    section = "; ".join(neighborhood) if neighborhood else EMPTY_SECTION
    lines = list(_PROPOSAL_OPENING) + [
        QUESTION_MARKER,
        question,
        NEIGHBORHOOD_MARKER,
        section,
    ]
    return "\n".join(lines)


def read_proposal_prompt(prompt: str) -> tuple[str, tuple[str, ...]] | None:
    """(question, neighborhood names) of a prompt build_proposal_prompt
    rendered, else None."""
    read = _read_sections(prompt, NEIGHBORHOOD_MARKER)
    if read is None:
        return None
    _, question, section = read
    return question, () if section == EMPTY_SECTION else tuple(section.split("; "))


def run_task_5(
    item: TutorQaItem, graph: ConceptGraph, answer_oracle: Oracle
) -> tuple[str, PipelineTrace]:
    """Open-ended proposal answering, grounded on concept neighborhoods.

    There is no command stage: the question's concept mentions are
    expanded with their in- and out-neighborhoods of PROPOSAL_HOPS hops
    and handed to the oracle as context. The trace carries no query,
    and fallback_used is true because the deterministic route is the
    only route.
    """
    if item.task != 5:
        raise PipelineError(f"run_task_5 got a task {item.task} item")
    mentioned = extract_concepts(item.question, graph.matcher)
    neighborhood: list[str] = list(mentioned)
    for name in mentioned:
        for direction in ("out", "in"):
            for path in execute(Neighbors(name, direction, PROPOSAL_HOPS), graph).named_paths:
                neighborhood.extend(path)
    neighborhood = ordered_unique(neighborhood)
    prompt = build_proposal_prompt(item.question, neighborhood)
    answer = answer_oracle(prompt)
    trace = PipelineTrace(
        question=item.question,
        generated_command="",
        parsed_query=None,
        outcome=None,
        grounding_prompt=prompt,
        final_answer=answer,
        fallback_used=True,
    )
    return answer, trace


def run_items(
    items: Iterable[TutorQaItem],
    graph: ConceptGraph,
    command_oracle: Oracle,
    answer_oracle: Oracle,
    *,
    concurrency: int = 1,
) -> Iterator[tuple[str, PipelineTrace]]:
    """Yield (answer, trace) per item, in item order, as each finishes.

    The checks run before the first question: prompts and answers list
    concept names separated by ";", so a graph with a name holding one
    is refused. Above concurrency 1, at most 2 * concurrency questions
    are started but not yet consumed, and the rest are cancelled when
    the consumer stops early.
    """
    if concurrency < 1:
        raise PipelineError(f"concurrency must be >= 1, got {concurrency}")
    for concept in graph.concepts:
        if ";" in concept.name:
            raise PipelineError(
                f"concept {concept.id!r} ({concept.name!r}) holds ';', "
                "which separates concept names in QA prompts and answers"
            )

    def one(item: TutorQaItem) -> tuple[str, PipelineTrace]:
        return run_task(item, graph, command_oracle, answer_oracle)

    if concurrency == 1:
        return map(one, items)
    return _run_windowed(one, items, concurrency)


def _run_windowed(
    one: Callable[[TutorQaItem], tuple[str, PipelineTrace]],
    items: Iterable[TutorQaItem],
    concurrency: int,
) -> Iterator[tuple[str, PipelineTrace]]:
    """one(item) for each item on a thread pool, yielded in item order;
    the pool starts on the first request and is shut down, cancelling
    what has not started, when the generator finishes or is closed."""
    pool = ThreadPoolExecutor(max_workers=concurrency)
    pending = []  # futures in item order, at most 2 * concurrency
    try:
        for item in items:
            if len(pending) == 2 * concurrency:
                yield pending.pop(0).result()
            pending.append(pool.submit(one, item))
        while pending:
            yield pending.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)


def parse_concept_list(answer: str) -> list[str]:
    """Split a concept-list answer on semicolons, keeping order."""
    # strip each distinct part once; ordered_unique keeps first occurrences,
    # so dropping exact repeats first changes nothing
    parts = (part.strip() for part in dict.fromkeys(answer.split(";")))
    return ordered_unique(part for part in parts if part)


# -- JSON Lines interchange -------------------------------------------------


def load_tutorqa(path: str | Path) -> list[TutorQaItem]:
    """Read items from JSON Lines with keys task/question/answer."""
    items: list[TutorQaItem] = []
    for number, row in files.read_jsonl(path, TutorQaFormatError):
        if set(row) != {"task", "question", "answer"}:
            raise TutorQaFormatError(
                f"{path}: line {number}: expected task/question/answer keys"
            )
        try:
            items.append(TutorQaItem(**row))
        except PipelineError as exc:
            raise TutorQaFormatError(f"{path}: line {number}: {exc}") from exc
    return items


def _outcome_to_dict(outcome: QueryOutcome) -> dict[str, object]:
    # json writes the tuples as arrays, so they pass through uncopied
    payload = outcome.payload
    return {
        "kind": outcome.kind,
        "payload": payload if isinstance(payload, bool) else payload.paths,
        "concept_ids": outcome.concept_ids,
        "named_paths": outcome.named_paths,
    }


def trace_to_dict(trace: PipelineTrace) -> dict[str, object]:
    return {
        "question": trace.question,
        "generated_command": trace.generated_command,
        "parsed_query": (
            None if trace.parsed_query is None else render_query(trace.parsed_query)
        ),
        "outcome": (
            None if trace.outcome is None else _outcome_to_dict(trace.outcome)
        ),
        "grounding_prompt": trace.grounding_prompt,
        "final_answer": trace.final_answer,
        "fallback_used": trace.fallback_used,
    }


def save_traces(traces: Iterable[PipelineTrace], path: str | Path) -> None:
    """Write each trace as it arrives, so a lazy sequence is never held."""
    files.write_jsonl(path, map(trace_to_dict, traces))
