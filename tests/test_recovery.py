"""Prompt rendering, verdict parsing, pair sampling, and the recovery loop."""
from __future__ import annotations

import itertools
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

import conceptgraph.recovery as recovery
from conceptgraph.corpus import CorpusDocument, RetrievalIndex
from conceptgraph.graph import Concept, ConceptGraph, EdgeRow
from conceptgraph.recovery import (
    DOC_HEADER,
    RETRY_SUFFIX,
    ConflictingJudgments,
    EdgeJudgment,
    InsufficientNegatives,
    InsufficientPositives,
    JudgmentFormatError,
    MissingContext,
    MissingLabels,
    OracleFailure,
    PromptVariant,
    RecoveryContext,
    RecoveryError,
    SamplingPlan,
    UnparseableVerdict,
    VariantKind,
    Verdict,
    all_ordered_pairs,
    balanced_sample,
    build_additional_info,
    build_pair_prompt,
    canonicalize_judgments,
    judge_pair,
    load_judgments,
    parse_verdict,
    plan_pairs,
    recover_graph,
    save_judgments,
)
from conceptgraph.textnorm import mentions_concept, normalize_name, tokenize

VITERBI = Concept("c3", "Viterbi Algorithm")
POS_TAG = Concept("c4", "POS Tagging")
DOMAIN = "natural language processing"

EXPECTED_ZS_PROMPT = (
    "We have two natural language processing related concepts: "
    "A: Viterbi Algorithm and B: POS Tagging.\n"
    "Do you think that people learning Viterbi Algorithm will help in "
    "understanding POS Tagging?\n"
    "Hints:\n"
    "1. Answer YES or NO only.\n"
    "2. This is a directional relation, which means if YES, (B,A) may be "
    "False, but (A,B) is True.\n"
    "3. Your answer will be used to create a knowledge graph."
)


def training_graph() -> ConceptGraph:
    concepts = (
        Concept("c1", "Probability"),
        Concept("c2", "Hidden Markov Model"),
        VITERBI,
        POS_TAG,
    )
    edges = frozenset(
        {("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c2", "c4")}
    )
    return ConceptGraph(concepts, edges)


# -- prompt templates ----------------------------------------------------------


def test_zero_shot_prompt_is_byte_exact():
    prompt = build_pair_prompt(
        PromptVariant(VariantKind.ZERO_SHOT), VITERBI, POS_TAG, domain=DOMAIN
    )
    assert prompt == EXPECTED_ZS_PROMPT
    assert prompt.endswith("knowledge graph.")


def test_cot_prompt_structure():
    prompt = build_pair_prompt(
        PromptVariant(VariantKind.COT), VITERBI, POS_TAG, domain=DOMAIN
    )
    assert prompt.startswith(
        "In the context of natural language processing, we have two concepts: "
        "A: Viterbi Algorithm and B: POS Tagging."
    )
    assert "Employ the Chain of Thought approach" in prompt
    assert "<result>YES</result>" in prompt and "<result>NO</result>" in prompt
    assert prompt.count("\n\n# ") == 5
    assert prompt.endswith("if it is not.")


def test_doc_variant_appends_mentioning_documents():
    docs = (
        CorpusDocument(0, "The Viterbi algorithm decodes hidden state sequences."),
        CorpusDocument(1, "Convolution layers stack filters."),
        CorpusDocument(2, "POS tagging assigns word classes."),
    )
    context = RecoveryContext(documents=docs)
    variant = PromptVariant(VariantKind.ZERO_SHOT_DOC)
    info = build_additional_info(variant, VITERBI, POS_TAG, context)
    assert info == (
        "And here are related contents to help: "
        "The Viterbi algorithm decodes hidden state sequences.\n"
        "POS tagging assigns word classes."
    )
    prompt = build_pair_prompt(
        variant, VITERBI, POS_TAG, domain=DOMAIN, context=context
    )
    assert prompt.startswith(EXPECTED_ZS_PROMPT + "\n")
    assert prompt.endswith("word classes.")


def test_doc_variant_with_no_mentions_falls_back_to_bare_prompt():
    context = RecoveryContext(documents=(CorpusDocument(0, "unrelated text"),))
    prompt = build_pair_prompt(
        PromptVariant(VariantKind.ZERO_SHOT_DOC),
        VITERBI,
        POS_TAG,
        domain=DOMAIN,
        context=context,
    )
    assert prompt == EXPECTED_ZS_PROMPT


_CORPUS_WORDS = (
    "neural", "network", "language", "models", "tag", "tagging", "part", "of",
    "speech", "new", "york", "parsing", "the", "predict", "words", "Network",
)
_SEPARATORS = (" ", " ", " ", "-", ", ", ". ", " (", ") ", " \u2014 ")

_ADVERSARIAL_DOCS = (
    "Neural network language models predict words.",
    "POS tagging labels each word.",
    "Part-of-Speech tags come from a tagger.",
    "PART OF SPEECH, in short.",
    "New York is new; new new York is newer.",
    "York, new and old.",
    "Neural models of language network design.",
)

_ADVERSARIAL_NAMES = (
    "neural network",
    "network language",  # overlaps "neural network" in the first document
    "Network  Language",
    "tag",  # only a substring of "tagging" and "tags"
    "tagging",
    "Part-of-Speech",
    "part of speech",
    "new new york",  # repeated token
    "new york",
    "york new",  # the same tokens in another order
    "language network",
    "neural language",  # both tokens present but apart in the last document
    "\u2014",  # no alphanumeric token at all
    "words",
)


def synthetic_corpus(size: int, seed: int) -> tuple[CorpusDocument, ...]:
    rng = random.Random(seed)
    texts = list(_ADVERSARIAL_DOCS)
    while len(texts) < size:
        words = [rng.choice(_CORPUS_WORDS) for _ in range(rng.randint(3, 18))]
        words = [w.upper() if rng.random() < 0.1 else w for w in words]
        text = words[0]
        for word in words[1:]:
            text += rng.choice(_SEPARATORS) + word
        texts.append(text)
    rng.shuffle(texts)
    return tuple(CorpusDocument(i, text) for i, text in enumerate(texts))


def reference_doc_block(docs, a: str, b: str) -> str:
    """The zs-doc block as the per-pair scan over every document renders it."""
    related = [
        d.text for d in docs if mentions_concept(d.text, a) or mentions_concept(d.text, b)
    ]
    return f"{DOC_HEADER} " + "\n".join(related) if related else ""


def test_doc_index_renders_every_pair_as_the_per_document_scan_does():
    docs = synthetic_corpus(200, seed=11)
    concepts = [Concept(f"c{i}", name) for i, name in enumerate(_ADVERSARIAL_NAMES)]
    context = RecoveryContext(documents=docs)
    variant = PromptVariant(VariantKind.ZERO_SHOT_DOC)
    for a, b in itertools.product(concepts, repeat=2):
        got = build_additional_info(variant, a, b, context)
        assert got == reference_doc_block(docs, a.name, b.name), (a.name, b.name)

    # The corpus exercises each adversarial case.
    def holds_all_tokens(text: str, name: str) -> bool:
        return set(tokenize(name)) <= set(tokenize(text))

    for name in ("neural network", "york new", "neural language"):
        assert any(
            holds_all_tokens(d.text, name) and not mentions_concept(d.text, name)
            for d in docs
        ), name
    assert any("tag" in d.text.lower() and "tag" not in tokenize(d.text) for d in docs)
    assert context.documents_mentioning("\u2014") == ()
    assert context.documents_mentioning("Part-of-Speech") == context.documents_mentioning(
        "part of speech"
    )
    assert context.documents_mentioning("new new york")
    shared = _ADVERSARIAL_DOCS[0]
    both = set(context.documents_mentioning("neural network")) & set(
        context.documents_mentioning("network language")
    )
    assert shared in [docs[i].text for i in both]
    block = build_additional_info(variant, concepts[0], concepts[1], context)
    assert block.count(shared) == 1


def test_doc_variant_tests_only_candidate_documents(monkeypatch):
    docs = synthetic_corpus(60, seed=3)
    rng = random.Random(4)
    names = sorted({f"{rng.choice(_CORPUS_WORDS)} {rng.choice(_CORPUS_WORDS)}" for _ in range(30)})
    concepts = [Concept(f"c{i:02d}", name) for i, name in enumerate(names[:12])]
    calls: list[str] = []

    def counting(text: str, name: str) -> bool:
        calls.append(name)
        return mentions_concept(text, name)

    monkeypatch.setattr(recovery, "mentions_concept", counting)
    received: list[str] = []

    def oracle(prompt: str) -> str:
        received.append(prompt)
        return "NO"

    variant = PromptVariant(VariantKind.ZERO_SHOT_DOC)
    result = recover_graph(
        concepts,
        oracle,
        variant,
        SamplingPlan(mode="all"),
        domain=DOMAIN,
        context=RecoveryContext(documents=docs),
    )
    pairs = len(result.judgments)
    assert pairs >= 100 and len(docs) >= 50
    candidates = sum(
        1
        for name in {c.name for c in concepts}
        for d in docs
        if set(tokenize(name)) <= set(tokenize(d.text))
    )
    assert 0 < len(calls) <= candidates < pairs * len(docs)

    by_id = {c.id: c for c in concepts}
    expected = [
        build_pair_prompt(
            variant,
            by_id[j.source],
            by_id[j.target],
            domain=DOMAIN,
            context=RecoveryContext(documents=docs),
        )
        for j in result.judgments
    ]
    assert Counter(received) == Counter(expected)
    assert sum(DOC_HEADER in prompt for prompt in received) > pairs // 2


def test_doc_index_scans_each_name_once_across_threads(monkeypatch):
    docs = synthetic_corpus(60, seed=3)
    rng = random.Random(4)
    names = sorted({f"{rng.choice(_CORPUS_WORDS)} {rng.choice(_CORPUS_WORDS)}" for _ in range(30)})
    expected = [RecoveryContext(documents=docs).documents_mentioning(n) for n in names]
    scans: Counter[tuple[str, str]] = Counter()
    scans_lock = threading.Lock()

    def counting(text: str, name: str) -> bool:
        with scans_lock:
            scans[name, text] += 1
        return mentions_concept(text, name)

    monkeypatch.setattr(recovery, "mentions_concept", counting)
    context = RecoveryContext(documents=docs)

    def lookup_all(reverse: int) -> list[tuple[int, ...]]:
        order = names[::-1] if reverse else names
        found = {n: context.documents_mentioning(n) for n in order}
        return [found[n] for n in names]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lookup_all, [i % 2 for i in range(8)]))
    finally:
        sys.setswitchinterval(interval)
    assert all(found == expected for found in results)
    assert scans and max(scans.values()) == 1


def test_con_variant_frames_are_byte_exact():
    context = RecoveryContext(training_graph=training_graph())
    info = build_additional_info(
        PromptVariant(VariantKind.ZERO_SHOT_CON), VITERBI, POS_TAG, context
    )
    assert info == (
        "And here are related contents to help:\n"
        "We know that Viterbi Algorithm is a prerequisite of the following "
        "concepts:POS Tagging;\n"
        "The following concepts are the prerequisites of Viterbi Algorithm : "
        "Hidden Markov Model;\n"
        "We know that POS Tagging is a prerequisite of the following concepts:;\n"
        "The following concepts are the prerequisites of POS Tagging : "
        "Hidden Markov Model, Viterbi Algorithm."
    )


def test_con_variant_concept_missing_from_training_graph_gets_empty_lists():
    context = RecoveryContext(training_graph=training_graph())
    outsider = Concept("c9", "Transformers")
    info = build_additional_info(
        PromptVariant(VariantKind.ZERO_SHOT_CON), outsider, POS_TAG, context
    )
    assert "We know that Transformers is a prerequisite of the following concepts:;" in info


def test_con_variant_propagates_other_errors_from_resolve(monkeypatch):
    context = RecoveryContext(training_graph=training_graph())

    def broken(self, name):
        raise RuntimeError("name table corrupted")

    monkeypatch.setattr(ConceptGraph, "resolve", broken)
    with pytest.raises(RuntimeError, match="name table corrupted"):
        build_additional_info(
            PromptVariant(VariantKind.ZERO_SHOT_CON), VITERBI, POS_TAG, context
        )


def test_wiki_variant_includes_both_pages():
    pages = {
        "viterbi algorithm": "The Viterbi algorithm is a dynamic programming method.",
        "pos tagging": "Part-of-speech tagging labels words.",
    }
    context = RecoveryContext(wiki_pages=pages)
    info = build_additional_info(
        PromptVariant(VariantKind.ZERO_SHOT_WIKI), VITERBI, POS_TAG, context
    )
    assert info == (
        "And here are related contents to help:\n"
        "The Viterbi algorithm is a dynamic programming method.\n"
        "Part-of-speech tagging labels words."
    )
    with pytest.raises(MissingContext, match="no wiki page"):
        build_additional_info(
            PromptVariant(VariantKind.ZERO_SHOT_WIKI),
            Concept("c9", "Transformers"),
            POS_TAG,
            context,
        )


def test_rag_variant_retrieves_and_truncates():
    sentence = "Viterbi algorithm and POS tagging are classic sequence tasks."
    index = RetrievalIndex(
        [
            CorpusDocument(0, sentence),
            CorpusDocument(1, "Graph colorings and chromatic numbers."),
        ]
    )
    context = RecoveryContext(retrieval_index=index, passage_char_limit=16)
    info = build_additional_info(
        PromptVariant(VariantKind.ZERO_SHOT_RAG, rag_k=1), VITERBI, POS_TAG, context
    )
    assert info == "Related contents:\n" + sentence[:16]


def test_rag_variant_with_no_hits_falls_back_to_bare_prompt():
    index = RetrievalIndex([CorpusDocument(0, "entirely unrelated words")])
    context = RecoveryContext(retrieval_index=index)
    prompt = build_pair_prompt(
        PromptVariant(VariantKind.ZERO_SHOT_RAG),
        VITERBI,
        POS_TAG,
        domain=DOMAIN,
        context=context,
    )
    assert prompt == EXPECTED_ZS_PROMPT


def test_missing_context_errors_per_variant():
    for kind in (
        VariantKind.ZERO_SHOT_DOC,
        VariantKind.ZERO_SHOT_CON,
        VariantKind.ZERO_SHOT_WIKI,
        VariantKind.ZERO_SHOT_RAG,
    ):
        with pytest.raises(MissingContext):
            build_additional_info(PromptVariant(kind), VITERBI, POS_TAG, None)
        with pytest.raises(MissingContext):
            build_additional_info(
                PromptVariant(kind), VITERBI, POS_TAG, RecoveryContext()
            )


def test_variant_parameter_validation():
    assert PromptVariant(VariantKind.ZERO_SHOT_RAG).rag_k == 3
    assert PromptVariant(VariantKind.ZERO_SHOT_RAG, rag_k=5).rag_k == 5
    with pytest.raises(RecoveryError):
        PromptVariant(VariantKind.ZERO_SHOT, rag_k=3)
    with pytest.raises(RecoveryError):
        PromptVariant(VariantKind.ZERO_SHOT_RAG, rag_k=0)
    assert VariantKind("zs-con") is VariantKind.ZERO_SHOT_CON
    with pytest.raises(ValueError):
        VariantKind("zs-doc-wiki")


# -- verdict parsing --------------------------------------------------------------


def test_parse_verdict_result_tag_wins_over_bare_tokens():
    assert parse_verdict("no wait... <result>YES</result>") is Verdict.YES
    assert parse_verdict("<result> no </result> but YES overall") is Verdict.NO


def test_parse_verdict_first_bare_token():
    assert parse_verdict("YES") is Verdict.YES
    assert parse_verdict("I think no, then again yes.") is Verdict.NO
    assert parse_verdict("Yes.") is Verdict.YES


def test_parse_verdict_ignores_substrings_and_raises_when_absent():
    with pytest.raises(UnparseableVerdict):
        parse_verdict("eyes and nose")
    with pytest.raises(UnparseableVerdict):
        parse_verdict("")
    with pytest.raises(UnparseableVerdict):
        parse_verdict("affirmative")


# -- sampling ----------------------------------------------------------------------


def test_all_ordered_pairs_counts_and_order():
    concepts = [Concept("b", "B"), Concept("a", "A"), Concept("c", "C")]
    pairs = all_ordered_pairs(concepts)
    assert len(pairs) == 6
    assert pairs == sorted(pairs)
    assert ("a", "a") not in pairs


def test_balanced_sample_is_deterministic_and_balanced():
    rows = [EdgeRow(f"s{i}", f"t{i}", 1) for i in range(10)] + [
        EdgeRow(f"u{i}", f"v{i}", 0) for i in range(10)
    ]
    first = balanced_sample(rows, 4, seed=11)
    second = balanced_sample(list(reversed(rows)), 4, seed=11)
    assert first == second
    assert sum(1 for r in first if r.label == 1) == 4
    assert sum(1 for r in first if r.label == 0) == 4
    assert first[:4] == [r for r in first if r.label == 1]
    assert balanced_sample(rows, 4, seed=12) != first


def test_balanced_sample_deduplicates_before_drawing():
    rows = [EdgeRow("a", "b", 1)] * 5 + [EdgeRow("x", "y", 0)] * 5
    with pytest.raises(InsufficientPositives):
        balanced_sample(rows, 2, seed=0)


def test_balanced_sample_error_cases():
    rows = [EdgeRow("a", "b", 1), EdgeRow("c", "d", 0)]
    with pytest.raises(InsufficientPositives):
        balanced_sample(rows, 2, seed=0)
    with pytest.raises(InsufficientNegatives):
        balanced_sample(rows + [EdgeRow("e", "f", 1)], 2, seed=0)
    with pytest.raises(MissingLabels):
        balanced_sample([EdgeRow("a", "b")], 1, seed=0)


def test_sampling_plan_validation():
    with pytest.raises(RecoveryError):
        SamplingPlan(mode="everything")
    with pytest.raises(RecoveryError):
        SamplingPlan(mode="balanced")
    with pytest.raises(RecoveryError):
        SamplingPlan(mode="all", sample_size=5)
    plan = SamplingPlan(mode="balanced", sample_size=2, seed=3)
    with pytest.raises(MissingLabels):
        plan_pairs([VITERBI], plan, labels=None)


# -- judging -----------------------------------------------------------------------


def test_judge_pair_retry_appends_instruction_once():
    prompts: list[str] = []

    def wobbly(prompt: str) -> str:
        prompts.append(prompt)
        return "hard to say" if len(prompts) == 1 else "YES"

    judgment = judge_pair(wobbly, "base prompt", source="a", target="b", variant_code="zs")
    assert judgment.verdict is Verdict.YES
    assert not judgment.flagged
    assert prompts == ["base prompt", "base prompt\nAnswer YES or NO only."]


def test_judge_pair_double_failure_defaults_to_flagged_no():
    def hopeless(prompt: str) -> str:
        return "..."

    judgment = judge_pair(hopeless, "p", source="a", target="b", variant_code="zs")
    assert judgment.verdict is Verdict.NO
    assert judgment.flagged
    assert judgment.raw_response == "..."


def test_judge_pair_wraps_oracle_exceptions_with_pair():
    def broken(prompt: str) -> str:
        raise RuntimeError("socket closed")

    with pytest.raises(OracleFailure) as err:
        judge_pair(broken, "p", source="c7", target="c9", variant_code="zs")
    assert err.value.source == "c7"
    assert err.value.target == "c9"
    assert "socket closed" in str(err.value)


class PerfectOracle:
    """Answers from a reference graph by parsing the first prompt line."""

    def __init__(self, graph: ConceptGraph):
        self.graph = graph

    def __call__(self, prompt: str) -> str:
        first = prompt.split("\n", 1)[0]
        middle = first.split(": A: ", 1)[1]
        a_name, rest = middle.split(" and B: ", 1)
        b_name = rest[: -1]
        a = self.graph.resolve(a_name)
        b = self.graph.resolve(b_name)
        return "YES" if (a.id, b.id) in self.graph.edges else "NO"


def test_recover_graph_reproduces_reference_with_perfect_oracle():
    reference = training_graph()
    result = recover_graph(
        list(reference.concepts),
        PerfectOracle(reference),
        PromptVariant(VariantKind.ZERO_SHOT),
        SamplingPlan(mode="all"),
        domain=DOMAIN,
    )
    assert result.graph.edges == reference.edges
    assert len(result.judgments) == 4 * 3
    yes = [j for j in result.judgments if j.verdict is Verdict.YES]
    assert {(j.source, j.target) for j in yes} == set(reference.edges)


def test_recover_graph_is_deterministic_across_concurrency_levels():
    reference = training_graph()
    results = [
        recover_graph(
            list(reference.concepts),
            PerfectOracle(reference),
            PromptVariant(VariantKind.ZERO_SHOT),
            SamplingPlan(mode="all"),
            domain=DOMAIN,
            concurrency=workers,
        )
        for workers in (1, 7)
    ]
    assert results[0] == results[1]
    pair_order = [(j.source, j.target) for j in results[0].judgments]
    assert pair_order == all_ordered_pairs(list(reference.concepts))


def test_recover_graph_balanced_plan_judges_sampled_rows():
    reference = training_graph()
    labels = [EdgeRow(s, t, 1) for s, t in sorted(reference.edges)]
    labels += [
        EdgeRow(s, t, 0)
        for s, t in [("c4", "c1"), ("c4", "c2"), ("c3", "c1"), ("c2", "c1")]
    ]
    plan = SamplingPlan(mode="balanced", sample_size=3, seed=5)
    result = recover_graph(
        list(reference.concepts),
        PerfectOracle(reference),
        PromptVariant(VariantKind.ZERO_SHOT),
        plan,
        domain=DOMAIN,
        labels=labels,
    )
    assert len(result.judgments) == 6
    judged = [(j.source, j.target) for j in result.judgments]
    assert judged == plan_pairs(list(reference.concepts), plan, labels)


def test_recover_graph_propagates_oracle_failure():
    reference = training_graph()

    def flaky(prompt: str) -> str:
        raise ConnectionResetError("nope")

    with pytest.raises(OracleFailure):
        recover_graph(
            list(reference.concepts),
            flaky,
            PromptVariant(VariantKind.ZERO_SHOT),
            SamplingPlan(mode="all"),
            domain=DOMAIN,
        )


def test_recover_graph_rejects_bad_concurrency():
    with pytest.raises(RecoveryError):
        recover_graph(
            [VITERBI, POS_TAG],
            lambda p: "NO",
            PromptVariant(VariantKind.ZERO_SHOT),
            SamplingPlan(mode="all"),
            domain=DOMAIN,
            concurrency=0,
        )


FORTY = [Concept(f"k{i:02d}", f"Topic {i:02d}") for i in range(40)]
ZS = PromptVariant(VariantKind.ZERO_SHOT)


def pair_numbers(prompt: str) -> tuple[int, int]:
    """The two topic numbers named on a zero-shot prompt's first line."""
    first = prompt.split("\n", 1)[0]
    a_name, b_name = first.split(": A: ", 1)[1].rstrip(".").split(" and B: ")
    return int(a_name.split()[-1]), int(b_name.split()[-1])


def moody_oracle(prompt: str) -> str:
    """A fixed answer per pair: some pairs need the retry, some stay unparseable."""
    a, b = pair_numbers(prompt)
    key = (3 * a + b) % 7
    retry = prompt.endswith(RETRY_SUFFIX)
    if key == 0:
        return "still unsure" if retry else "unclear"
    if key == 1:
        return "YES" if retry else "hmm"
    return "YES" if key % 2 else "NO"


def test_recover_graph_output_does_not_depend_on_concurrency(tmp_path):
    runs = {}
    for workers in (1, 2, 3, 7):
        result = recover_graph(
            FORTY, moody_oracle, ZS, SamplingPlan(), domain=DOMAIN, concurrency=workers
        )
        path = tmp_path / f"judgments-{workers}.jsonl"
        save_judgments(result.judgments, path)
        runs[workers] = (result, path.read_bytes())
    serial, serial_bytes = runs[1]
    assert [(j.source, j.target) for j in serial.judgments] == all_ordered_pairs(FORTY)
    assert any(j.flagged for j in serial.judgments)
    assert any(j.raw_response == "YES" and not j.flagged for j in serial.judgments)
    for workers in (2, 3, 7):
        assert runs[workers][0] == serial
        assert runs[workers][1] == serial_bytes


class FailsOnce:
    """Answers NO, except that call number k raises.

    Every call gives up the interpreter, as a call to a live endpoint
    does, so the spans interleave and all of them are live when call k
    fails. Calls after the failure also wait a moment: without that, a
    thread switch between the oracle raising and its span setting the
    shared event lets an instant oracle on another span answer for a
    whole switch interval, and the call bound below would depend on
    timing.
    """

    def __init__(self, k: int):
        self.k = k
        self.calls = 0
        self.failed_on: tuple[int, int] | None = None
        self.lock = threading.Lock()

    def __call__(self, prompt: str) -> str:
        with self.lock:
            self.calls += 1
            if self.calls == self.k:
                self.failed_on = pair_numbers(prompt)
                raise ConnectionResetError("endpoint went away")
            late = self.calls > self.k
        time.sleep(0.01 if late else 0)
        return "NO"


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("k", [10, 1000])
def test_recover_graph_stops_judging_after_the_first_oracle_failure(k, workers):
    oracle = FailsOnce(k)
    with pytest.raises(OracleFailure) as err:
        recover_graph(FORTY, oracle, ZS, SamplingPlan(), domain=DOMAIN, concurrency=workers)
    assert oracle.calls <= k + workers - 1
    named = (int(err.value.source[1:]), int(err.value.target[1:]))
    assert named == oracle.failed_on
    if workers == 1:
        assert oracle.calls == k
        assert (err.value.source, err.value.target) == all_ordered_pairs(FORTY)[k - 1]


def test_recover_graph_keeps_concurrency_calls_in_flight():
    concepts = FORTY[:5]
    pairs = all_ordered_pairs(concepts)
    labels = [EdgeRow(a, b, i % 2) for i, (a, b) in enumerate(pairs)]
    plan = SamplingPlan(mode="balanced", sample_size=8, seed=3)
    barrier = threading.Barrier(4, timeout=10)

    def together(prompt: str) -> str:
        barrier.wait()
        return "YES"

    result = recover_graph(
        concepts, together, ZS, plan, domain=DOMAIN, labels=labels, concurrency=4
    )
    assert len(result.judgments) == 16


def test_recover_graph_checks_wiki_pages_before_any_oracle_call():
    pages = {normalize_name(c.name): f"About {c.name}." for c in FORTY[:-1]}
    calls = []

    def oracle(prompt: str) -> str:
        calls.append(prompt)
        return "NO"

    for workers in (1, 2):
        with pytest.raises(MissingContext, match="Topic 39"):
            recover_graph(
                FORTY,
                oracle,
                PromptVariant(VariantKind.ZERO_SHOT_WIKI),
                SamplingPlan(),
                domain=DOMAIN,
                context=RecoveryContext(wiki_pages=pages),
                concurrency=workers,
            )
    assert calls == []


def test_recover_graph_renders_each_prompt_just_before_its_call(monkeypatch):
    rendered = []
    real_build = recovery.build_pair_prompt

    def counting_build(*args, **kwargs):
        rendered.append(1)
        return real_build(*args, **kwargs)

    def no_pool(*args, **kwargs):
        raise AssertionError("concurrency 1 starts no thread pool")

    rendered_at_call: list[int] = []

    def oracle(prompt: str) -> str:
        rendered_at_call.append(len(rendered))
        return "NO"

    monkeypatch.setattr(recovery, "build_pair_prompt", counting_build)
    monkeypatch.setattr(recovery, "ThreadPoolExecutor", no_pool)
    recover_graph(FORTY, oracle, ZS, SamplingPlan(), domain=DOMAIN, concurrency=1)
    assert rendered_at_call == list(range(1, 1561))


def test_recover_graph_submits_spans_not_pairs(monkeypatch):
    submitted = []
    real_submit = ThreadPoolExecutor.submit

    def counting_submit(self, fn, /, *args, **kwargs):
        submitted.append(fn)
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
    result = recover_graph(FORTY, moody_oracle, ZS, SamplingPlan(), domain=DOMAIN, concurrency=2)
    assert len(result.judgments) == 1560
    assert 0 < len(submitted) < 10


# -- judgment serialization -----------------------------------------------------------


def sample_judgments() -> list[EdgeJudgment]:
    return [
        EdgeJudgment("c2", "c1", Verdict.NO, "zs", "NO"),
        EdgeJudgment("c1", "c2", Verdict.YES, "zs", "YES"),
        EdgeJudgment("c1", "c3", Verdict.NO, "cot", "...", flagged=True),
    ]


def test_judgments_round_trip_through_jsonl(tmp_path):
    path = tmp_path / "judgments.jsonl"
    save_judgments(sample_judgments(), path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert '"verdict": "NO"' in lines[0]
    assert '"flagged": true' in lines[2]
    assert '"flagged"' not in lines[0]
    assert load_judgments(path) == sample_judgments()


def test_load_judgments_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(JudgmentFormatError, match="not JSON"):
        load_judgments(path)
    path.write_text('{"a": "x", "b": "y", "variant": "zs", "verdict": "MAYBE", "raw": ""}\n')
    with pytest.raises(JudgmentFormatError):
        load_judgments(path)
    path.write_text('{"a": "x", "verdict": "YES"}\n')
    with pytest.raises(JudgmentFormatError):
        load_judgments(path)
    path.write_text('["x", "y", "zs", "YES", ""]\n')
    with pytest.raises(JudgmentFormatError, match="JSON object"):
        load_judgments(path)


def test_failed_save_leaves_the_previous_judgments_file(tmp_path):
    path = tmp_path / "judgments.jsonl"
    save_judgments(sample_judgments(), path)
    before = path.read_bytes()
    unencodable = EdgeJudgment("c3", "c1", Verdict.NO, "zs", raw_response=object())
    with pytest.raises(TypeError):
        save_judgments([sample_judgments()[0], unencodable], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["judgments.jsonl"]


def test_canonicalize_sorts_and_collapses_duplicates():
    rows = sample_judgments() + [EdgeJudgment("c1", "c2", Verdict.YES, "zs", "yes again")]
    canon = canonicalize_judgments(rows)
    assert [(j.source, j.target, j.variant) for j in canon] == [
        ("c1", "c2", "zs"),
        ("c1", "c3", "cot"),
        ("c2", "c1", "zs"),
    ]
    assert canon[0].raw_response == "YES"


def test_canonicalize_rejects_conflicting_verdicts():
    rows = [
        EdgeJudgment("a", "b", Verdict.YES, "zs", "YES"),
        EdgeJudgment("a", "b", Verdict.NO, "zs", "NO"),
    ]
    with pytest.raises(ConflictingJudgments):
        canonicalize_judgments(rows)


def test_random_judgment_sets_round_trip(tmp_path):
    rng = random.Random(7907)
    for trial in range(10):
        judgments = [
            EdgeJudgment(
                f"c{rng.randrange(9)}",
                f"d{rng.randrange(9)}",
                rng.choice([Verdict.YES, Verdict.NO]),
                rng.choice(["zs", "cot", "zs-rag"]),
                rng.choice(["YES", "NO", "<result>YES</result>", "odd é text"]),
                flagged=rng.random() < 0.2,
            )
            for _ in range(rng.randrange(1, 12))
        ]
        path = tmp_path / f"j{trial}.jsonl"
        save_judgments(judgments, path)
        assert load_judgments(path) == judgments
