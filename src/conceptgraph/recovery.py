"""Concept-graph recovery from pairwise oracle judgments.

For every ordered concept pair (a, b) we render a prompt asking whether
learning a helps in understanding b, send it to an oracle (a live model
or a deterministic mock: any ``Callable[[str], str]``), parse the YES/NO
verdict, and assemble YES edges into a graph.

Prompt variants: a bare zero-shot template, a chain-of-thought variant
that asks for a tagged verdict, and three context-augmented forms that
append related documents, 1-hop training-graph neighbors, or retrieved
passages to the zero-shot template.
"""
from __future__ import annotations

import random
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import files
from .corpus import CorpusDocument, RetrievalIndex
from .graph import Concept, ConceptGraph, EdgeRow
from .textnorm import mentions_concept, normalize_name


class RecoveryError(Exception):
    """Base class for recovery failures."""


class MissingContext(RecoveryError):
    """A prompt variant needs context the caller did not supply."""


class UnparseableVerdict(RecoveryError):
    """No YES/NO could be extracted from an oracle response."""


class MissingLabels(RecoveryError):
    """Balanced sampling needs a label on every row."""


class InsufficientPositives(RecoveryError):
    pass


class InsufficientNegatives(RecoveryError):
    pass


class OracleFailure(RecoveryError):
    """The oracle raised; carries the pair that was being judged."""

    def __init__(self, source: str, target: str, cause: Exception):
        super().__init__(f"oracle failed on pair ({source!r}, {target!r}): {cause}")
        self.source = source
        self.target = target
        self.cause = cause


class JudgmentFormatError(RecoveryError):
    """A serialized judgment row is malformed."""


class ConflictingJudgments(RecoveryError):
    """Two judgments for the same pair and variant disagree."""


class Verdict(Enum):
    YES = "YES"
    NO = "NO"


class VariantKind(Enum):
    ZERO_SHOT = "zs"
    COT = "cot"
    ZERO_SHOT_DOC = "zs-doc"
    ZERO_SHOT_CON = "zs-con"
    ZERO_SHOT_WIKI = "zs-wiki"
    ZERO_SHOT_RAG = "zs-rag"


_VARIANT_BY_CODE = {kind.value: kind for kind in VariantKind}


def variant_from_code(code: str) -> VariantKind:
    try:
        return _VARIANT_BY_CODE[code]
    except KeyError:
        raise RecoveryError(
            f"unknown variant code {code!r}; expected one of "
            f"{sorted(_VARIANT_BY_CODE)}"
        ) from None


@dataclass(frozen=True)
class PromptVariant:
    """A variant kind plus its parameters.

    rag_k (passages to retrieve) applies only to the RAG kind and
    defaults to 3 there; it must stay unset for every other kind.
    """

    kind: VariantKind
    rag_k: int | None = None

    def __post_init__(self) -> None:
        if self.kind is VariantKind.ZERO_SHOT_RAG:
            k = 3 if self.rag_k is None else self.rag_k
            if k < 1:
                raise RecoveryError(f"rag_k must be positive, got {k}")
            object.__setattr__(self, "rag_k", k)
        elif self.rag_k is not None:
            raise RecoveryError("rag_k is only valid for the RAG variant")

    @property
    def code(self) -> str:
        return self.kind.value


@dataclass(frozen=True)
class RecoveryContext:
    """Context handles for the augmented prompt variants.

    documents feed the Doc variant, training_graph the Con variant,
    wiki_pages (normalized concept name -> introductory paragraph) the
    Wiki variant, and retrieval_index the RAG variant.
    passage_char_limit truncates each retrieved passage when set.
    """

    documents: tuple[CorpusDocument, ...] = ()
    training_graph: ConceptGraph | None = None
    wiki_pages: Mapping[str, str] | None = None
    retrieval_index: RetrievalIndex | None = None
    passage_char_limit: int | None = None


@dataclass(frozen=True)
class EdgeJudgment:
    """One judged pair: ids, verdict, variant code, raw oracle text.

    flagged marks judgments that fell back to NO after the oracle twice
    produced unparseable output.
    """

    source: str
    target: str
    verdict: Verdict
    variant: str
    raw_response: str
    flagged: bool = False


@dataclass(frozen=True)
class SamplingPlan:
    """Which pairs to judge.

    mode "all" enumerates every ordered pair of distinct concepts.
    mode "balanced" draws sample_size positives and sample_size
    negatives from labeled rows using the given seed.
    """

    mode: str = "all"
    sample_size: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("all", "balanced"):
            raise RecoveryError(f"unknown sampling mode {self.mode!r}")
        if self.mode == "balanced":
            if self.sample_size is None or self.sample_size < 1:
                raise RecoveryError("balanced sampling needs a positive sample_size")
        elif self.sample_size is not None:
            raise RecoveryError("sample_size is only valid in balanced mode")


@dataclass(frozen=True)
class RecoveryResult:
    graph: ConceptGraph
    judgments: tuple[EdgeJudgment, ...]


# -- prompt templates --------------------------------------------------------

_ZS_TEMPLATE = """\
We have two {domain} related concepts: A: {a} and B: {b}.
Do you think that people learning {a} will help in understanding {b}?
Hints:
1. Answer YES or NO only.
2. This is a directional relation, which means if YES, (B,A) may be False, but (A,B) is True.
3. Your answer will be used to create a knowledge graph."""

_COT_TEMPLATE = """\
In the context of {domain}, we have two concepts: A: {a} and B: {b}. Assess if understanding {a} is a necessary prerequisite for understanding {b}. Employ the Chain of Thought approach to detail your reasoning before giving a final answer.

# Identify the Domain and Concepts: Clearly define A and B within their domain. Understand the specific content and scope of each concept.

# Analyze the Directional Relationship: Determine if knowledge of concept A is essential before one can fully grasp concept B. This involves considering if A provides foundational knowledge or skills required for understanding B.

# Evaluate Dependency: Assess whether B is dependent on A in such a way that without understanding A, one cannot understand B.

# Draw a Conclusion: Based on your analysis, decide if understanding A is a necessary prerequisite for understanding B.

# Provide a Clear Answer: After detailed reasoning, conclude with a distinct answer: <result>YES</result> if understanding A is a prerequisite for understanding B, or <result>NO</result> if it is not."""

RETRY_SUFFIX = "\nAnswer YES or NO only."

DOC_HEADER = "And here are related contents to help:"
RAG_HEADER = "Related contents:"


def _con_neighbor_names(graph: ConceptGraph, name: str, direction: str) -> str:
    try:
        concept = graph.resolve(name)
    except Exception:
        return ""
    table = graph.successors if direction == "out" else graph.predecessors
    return ", ".join(graph.concept(cid).name for cid in table[concept.id])


def build_additional_info(
    variant: PromptVariant,
    a: Concept,
    b: Concept,
    context: RecoveryContext | None,
) -> str:
    """Extra prompt block for the context-augmented variants.

    Doc and RAG return "" when nothing matches, which drops the block
    and leaves the bare zero-shot prompt.
    """
    kind = variant.kind
    if kind in (VariantKind.ZERO_SHOT, VariantKind.COT):
        return ""
    if context is None:
        raise MissingContext(f"variant {variant.code!r} needs a RecoveryContext")
    if kind is VariantKind.ZERO_SHOT_DOC:
        if not context.documents:
            raise MissingContext("Doc variant needs context.documents")
        related = [
            doc.text
            for doc in context.documents
            if mentions_concept(doc.text, a.name) or mentions_concept(doc.text, b.name)
        ]
        if not related:
            return ""
        return f"{DOC_HEADER} " + "\n".join(related)
    if kind is VariantKind.ZERO_SHOT_CON:
        graph = context.training_graph
        if graph is None:
            raise MissingContext("Con variant needs context.training_graph")
        lines = [
            DOC_HEADER,
            f"We know that {a.name} is a prerequisite of the following "
            f"concepts:{_con_neighbor_names(graph, a.name, 'out')};",
            f"The following concepts are the prerequisites of {a.name} : "
            f"{_con_neighbor_names(graph, a.name, 'in')};",
            f"We know that {b.name} is a prerequisite of the following "
            f"concepts:{_con_neighbor_names(graph, b.name, 'out')};",
            f"The following concepts are the prerequisites of {b.name} : "
            f"{_con_neighbor_names(graph, b.name, 'in')}.",
        ]
        return "\n".join(lines)
    if kind is VariantKind.ZERO_SHOT_WIKI:
        pages = context.wiki_pages
        if pages is None:
            raise MissingContext("Wiki variant needs context.wiki_pages")
        paragraphs = []
        for concept in (a, b):
            key = normalize_name(concept.name)
            if key not in pages:
                raise MissingContext(f"no wiki page for concept {concept.name!r}")
            paragraphs.append(pages[key])
        return "\n".join([DOC_HEADER, *paragraphs])
    if kind is VariantKind.ZERO_SHOT_RAG:
        index = context.retrieval_index
        if index is None:
            raise MissingContext("RAG variant needs context.retrieval_index")
        hits = index.retrieve(f"{a.name} {b.name}", k=variant.rag_k or 3)
        if not hits:
            return ""
        limit = context.passage_char_limit
        passages = [
            doc.text[:limit] if limit is not None else doc.text for doc, _ in hits
        ]
        return "\n".join([RAG_HEADER, *passages])
    raise RecoveryError(f"unhandled variant kind {kind!r}")


def build_pair_prompt(
    variant: PromptVariant,
    a: Concept,
    b: Concept,
    *,
    domain: str,
    context: RecoveryContext | None = None,
) -> str:
    """Render the full prompt asking whether a is a prerequisite of b."""
    if variant.kind is VariantKind.COT:
        return _COT_TEMPLATE.format(domain=domain, a=a.name, b=b.name)
    base = _ZS_TEMPLATE.format(domain=domain, a=a.name, b=b.name)
    info = build_additional_info(variant, a, b, context)
    return f"{base}\n{info}" if info else base


_RESULT_TAG_RE = re.compile(r"<result>\s*(yes|no)\s*</result>", re.IGNORECASE)
_BARE_TOKEN_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def parse_verdict(text: str) -> Verdict:
    """Extract a verdict: a <result> tag wins, else the first bare
    YES/NO token; anything else raises."""
    tag = _RESULT_TAG_RE.search(text)
    if tag:
        return Verdict(tag.group(1).upper())
    token = _BARE_TOKEN_RE.search(text)
    if token:
        return Verdict(token.group(1).upper())
    raise UnparseableVerdict(f"no YES/NO found in {text!r}")


# -- pair sampling ------------------------------------------------------------


def all_ordered_pairs(concepts: Sequence[Concept]) -> list[tuple[str, str]]:
    """Every ordered pair of distinct concepts, sorted by (source, target) id."""
    ids = sorted(c.id for c in concepts)
    return [(a, b) for a in ids for b in ids if a != b]


def balanced_sample(
    rows: Sequence[EdgeRow], sample_size: int, seed: int
) -> list[EdgeRow]:
    """sample_size positives then sample_size negatives, drawn without
    replacement from the deduplicated, (source, target)-sorted pools."""
    for row in rows:
        if row.label is None:
            raise MissingLabels(f"row ({row.source}, {row.target}) has no label")
    positives = sorted(
        {(r.source, r.target) for r in rows if r.label == 1}
    )
    negatives = sorted(
        {(r.source, r.target) for r in rows if r.label == 0}
    )
    if len(positives) < sample_size:
        raise InsufficientPositives(
            f"need {sample_size} positives, have {len(positives)}"
        )
    if len(negatives) < sample_size:
        raise InsufficientNegatives(
            f"need {sample_size} negatives, have {len(negatives)}"
        )
    rng = random.Random(seed)
    chosen_pos = rng.sample(positives, sample_size)
    chosen_neg = rng.sample(negatives, sample_size)
    return [EdgeRow(s, t, 1) for s, t in chosen_pos] + [
        EdgeRow(s, t, 0) for s, t in chosen_neg
    ]


def plan_pairs(
    concepts: Sequence[Concept],
    plan: SamplingPlan,
    labels: Sequence[EdgeRow] | None = None,
) -> list[tuple[str, str]]:
    if plan.mode == "all":
        return all_ordered_pairs(concepts)
    if labels is None:
        raise MissingLabels("balanced sampling needs labeled rows")
    assert plan.sample_size is not None
    rows = balanced_sample(labels, plan.sample_size, plan.seed)
    return [(r.source, r.target) for r in rows]


# -- the recovery loop ---------------------------------------------------------


def judge_pair(
    oracle: Callable[[str], str],
    prompt: str,
    *,
    source: str,
    target: str,
    variant_code: str,
) -> EdgeJudgment:
    """One oracle call with the unparseable-verdict retry protocol.

    A response with no verdict triggers one retry with an explicit
    YES/NO instruction appended; if that also fails the judgment is NO
    and flagged.
    """
    try:
        raw = oracle(prompt)
    except Exception as exc:
        raise OracleFailure(source, target, exc) from exc
    try:
        verdict = parse_verdict(raw)
    except UnparseableVerdict:
        try:
            raw = oracle(prompt + RETRY_SUFFIX)
        except Exception as exc:
            raise OracleFailure(source, target, exc) from exc
        try:
            verdict = parse_verdict(raw)
        except UnparseableVerdict:
            return EdgeJudgment(
                source, target, Verdict.NO, variant_code, raw, flagged=True
            )
    return EdgeJudgment(source, target, verdict, variant_code, raw)


def recover_graph(
    concepts: Sequence[Concept],
    oracle: Callable[[str], str],
    variant: PromptVariant,
    plan: SamplingPlan,
    *,
    domain: str,
    context: RecoveryContext | None = None,
    labels: Sequence[EdgeRow] | None = None,
    concurrency: int = 8,
) -> RecoveryResult:
    """Judge the planned pairs and assemble YES edges into a graph.

    Oracle calls run on a bounded thread pool; judgments are reassembled
    in the planned pair order, so the result is independent of thread
    scheduling.
    """
    if concurrency < 1:
        raise RecoveryError(f"concurrency must be positive, got {concurrency}")
    by_id = {c.id: c for c in concepts}
    pairs = plan_pairs(concepts, plan, labels)
    prompts = [
        build_pair_prompt(
            variant, by_id[a], by_id[b], domain=domain, context=context
        )
        for a, b in pairs
    ]

    def worker(index: int) -> EdgeJudgment:
        a, b = pairs[index]
        return judge_pair(
            oracle, prompts[index], source=a, target=b, variant_code=variant.code
        )

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        judgments = tuple(pool.map(worker, range(len(pairs))))

    edges = frozenset((j.source, j.target) for j in judgments if j.verdict is Verdict.YES)
    return RecoveryResult(graph=ConceptGraph(tuple(concepts), edges), judgments=judgments)


# -- judgment serialization ------------------------------------------------------


def _judgment_row(j: EdgeJudgment) -> dict[str, object]:
    row: dict[str, object] = {
        "a": j.source,
        "b": j.target,
        "variant": j.variant,
        "verdict": j.verdict.value,
        "raw": j.raw_response,
    }
    if j.flagged:
        row["flagged"] = True
    return row


def save_judgments(judgments: Sequence[EdgeJudgment], path: str | Path) -> None:
    """One JSON object per line: a, b, variant, verdict, raw
    (plus flagged: true for defaulted judgments)."""
    files.write_jsonl(path, map(_judgment_row, judgments))


def load_judgments(path: str | Path) -> list[EdgeJudgment]:
    out: list[EdgeJudgment] = []
    for lineno, row in files.read_jsonl(path, JudgmentFormatError):
        try:
            out.append(
                EdgeJudgment(
                    source=str(row["a"]),
                    target=str(row["b"]),
                    verdict=Verdict(row["verdict"]),
                    variant=str(row["variant"]),
                    raw_response=str(row["raw"]),
                    flagged=bool(row.get("flagged", False)),
                )
            )
        except (KeyError, ValueError) as exc:
            raise JudgmentFormatError(
                f"{path}: line {lineno}: bad judgment row: {exc}"
            ) from exc
    return out


def canonicalize_judgments(
    judgments: Sequence[EdgeJudgment],
) -> list[EdgeJudgment]:
    """Sort by (a, b, variant) and collapse duplicates.

    Duplicates with the same verdict keep the first occurrence;
    disagreeing verdicts for the same key raise.
    """
    by_key: dict[tuple[str, str, str], EdgeJudgment] = {}
    for j in judgments:
        key = (j.source, j.target, j.variant)
        kept = by_key.get(key)
        if kept is None:
            by_key[key] = j
        elif kept.verdict is not j.verdict:
            raise ConflictingJudgments(
                f"pair ({j.source!r}, {j.target!r}) variant {j.variant!r} "
                f"has both {kept.verdict.value} and {j.verdict.value}"
            )
    return [by_key[key] for key in sorted(by_key)]
