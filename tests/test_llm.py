"""Oracle transport retry behavior and the deterministic mock family."""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import requests

import conceptgraph.llm as llm
from conceptgraph.graph import Concept, ConceptGraph
from conceptgraph.llm import (
    AuthFailureError,
    EchoOracle,
    FixtureMiss,
    GarbageCommandOracle,
    GraphBackedOracle,
    GroundedAnswerOracle,
    LiveOracle,
    OracleConfig,
    RateLimitedError,
    ScriptedOracle,
    TemplateCommandOracle,
    TransportError,
    UnrecognizedPrompt,
    complete,
    parse_pair_prompt,
)
from conceptgraph.pipeline import (
    FallbackExhausted,
    TutorQaItem,
    build_command_prompt,
    extract_concepts,
    run_task,
    template_queries,
)
from conceptgraph.query import parse_query
from conceptgraph.recovery import (
    PromptVariant,
    RecoveryContext,
    VariantKind,
    build_pair_prompt,
)


def small_graph() -> ConceptGraph:
    concepts = (
        Concept("c1", "Probability"),
        Concept("c2", "Hidden Markov Model"),
        Concept("c3", "Viterbi Algorithm"),
    )
    return ConceptGraph(concepts, frozenset({("c1", "c2"), ("c2", "c3")}))


def pair_prompt(a: Concept, b: Concept, kind=VariantKind.ZERO_SHOT) -> str:
    return build_pair_prompt(PromptVariant(kind), a, b, domain="statistics")


# -- transport -----------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code: int, body=None):
        self.status_code = status_code
        self._body = body

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


def completion_body(text: str) -> dict:
    return {"choices": [{"message": {"content": text}}]}


CONFIG = OracleConfig(endpoint="https://llm.invalid/v1/chat", model="test-model")


@pytest.fixture
def no_sleep(monkeypatch):
    naps: list[float] = []
    monkeypatch.setattr(llm, "_sleep", naps.append)
    return naps


def test_complete_success_sends_payload_and_key(monkeypatch, no_sleep):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, payload=json, headers=headers, timeout=timeout)
        return FakeResponse(200, completion_body("YES"))

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setenv("LLM_API_KEY", "sk-secret")
    assert complete(CONFIG, "hello") == "YES"
    assert seen["url"] == CONFIG.endpoint
    assert seen["payload"]["model"] == "test-model"
    assert seen["payload"]["temperature"] == 0.0
    assert seen["payload"]["messages"] == [{"role": "user", "content": "hello"}]
    assert seen["headers"]["Authorization"] == "Bearer sk-secret"
    assert seen["timeout"] == 30.0


def test_complete_omits_auth_header_without_key(monkeypatch, no_sleep):
    def fake_post(url, json=None, headers=None, timeout=None):
        assert "Authorization" not in headers
        return FakeResponse(200, completion_body("ok"))

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    assert complete(CONFIG, "x") == "ok"


def test_complete_retries_5xx_then_succeeds(monkeypatch, no_sleep):
    responses = [FakeResponse(503), FakeResponse(500), FakeResponse(200, completion_body("fine"))]

    def fake_post(*args, **kwargs):
        return responses.pop(0)

    monkeypatch.setattr(requests, "post", fake_post)
    assert complete(CONFIG, "x") == "fine"
    assert no_sleep == [1.0, 2.0]


def test_complete_rate_limit_exhaustion(monkeypatch, no_sleep):
    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(429))
    config = OracleConfig(endpoint="e", model="m", max_retries=2)
    with pytest.raises(RateLimitedError):
        complete(config, "x")
    assert no_sleep == [1.0, 2.0]


def test_complete_auth_failure_never_retries(monkeypatch, no_sleep):
    calls = []

    def fake_post(*args, **kwargs):
        calls.append(1)
        return FakeResponse(401)

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(AuthFailureError):
        complete(CONFIG, "x")
    assert len(calls) == 1
    assert no_sleep == []


def test_complete_connection_errors_retry_then_fail(monkeypatch, no_sleep):
    def fake_post(*args, **kwargs):
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "post", fake_post)
    config = OracleConfig(endpoint="e", model="m", max_retries=1)
    with pytest.raises(TransportError, match="connection failure"):
        complete(config, "x")


def test_complete_malformed_bodies_raise(monkeypatch, no_sleep):
    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200))
    with pytest.raises(TransportError, match="malformed"):
        complete(CONFIG, "x")
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse(200, {"choices": []})
    )
    with pytest.raises(TransportError, match="malformed"):
        complete(CONFIG, "x")
    monkeypatch.setattr(
        requests,
        "post",
        lambda *a, **k: FakeResponse(200, {"choices": [{"message": {"content": 5}}]}),
    )
    with pytest.raises(TransportError, match="not a string"):
        complete(CONFIG, "x")


def test_complete_other_client_errors_raise_immediately(monkeypatch, no_sleep):
    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(404))
    with pytest.raises(TransportError, match="HTTP 404"):
        complete(CONFIG, "x")


def test_live_oracle_is_callable(monkeypatch, no_sleep):
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse(200, completion_body("NO"))
    )
    oracle = LiveOracle(CONFIG)
    assert oracle("anything") == "NO"


def test_importing_the_cli_does_not_load_requests():
    # only the live transport needs requests; mock runs never pay its import
    src = str(Path(llm.__file__).parents[1])
    code = "import sys, conceptgraph.cli; print('requests' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# -- prompt classification ---------------------------------------------------------


def test_parse_pair_prompt_identifies_all_variants():
    g = small_graph()
    a, b = g.concept("c1"), g.concept("c2")
    zs = pair_prompt(a, b)
    assert parse_pair_prompt(zs) == ("Probability", "Hidden Markov Model", "zs")
    cot = pair_prompt(a, b, VariantKind.COT)
    assert parse_pair_prompt(cot)[2] == "cot"

    doc = zs + "\nAnd here are related contents to help: Some sentence."
    assert parse_pair_prompt(doc)[2] == "zs-doc"
    con = zs + "\nAnd here are related contents to help:\nWe know that X is a prerequisite of the following concepts:;"
    assert parse_pair_prompt(con)[2] == "zs-con"
    wiki = zs + "\nAnd here are related contents to help:\nAn intro paragraph."
    assert parse_pair_prompt(wiki)[2] == "zs-wiki"
    rag = zs + "\nRelated contents:\nA retrieved passage."
    assert parse_pair_prompt(rag)[2] == "zs-rag"


def test_parse_pair_prompt_reads_a_wiki_page_that_opens_like_a_con_line():
    g = small_graph()
    pages = {
        "probability": "We know that probability measures uncertainty.",
        "hidden markov model": "An HMM has hidden states.",
    }
    prompt = build_pair_prompt(
        PromptVariant(VariantKind.ZERO_SHOT_WIKI),
        g.concept("c1"),
        g.concept("c2"),
        domain="statistics",
        context=RecoveryContext(wiki_pages=pages),
    )
    assert parse_pair_prompt(prompt) == ("Probability", "Hidden Markov Model", "zs-wiki")


def test_parse_pair_prompt_rejects_other_text():
    with pytest.raises(UnrecognizedPrompt):
        parse_pair_prompt("What is a concept graph?")


# -- graph-backed oracle --------------------------------------------------------------


def test_graph_backed_oracle_answers_from_edges():
    g = small_graph()
    oracle = GraphBackedOracle(g)
    assert oracle(pair_prompt(g.concept("c1"), g.concept("c2"))) == "YES"
    assert oracle(pair_prompt(g.concept("c2"), g.concept("c1"))) == "NO"
    assert oracle(pair_prompt(g.concept("c1"), g.concept("c3"))) == "NO"
    assert oracle.calls == 3


def test_graph_backed_oracle_counts_every_call_across_threads():
    g = small_graph()
    oracle = GraphBackedOracle(g)
    prompt = pair_prompt(g.concept("c1"), g.concept("c2"))
    start = threading.Barrier(8)

    def hammer() -> None:
        start.wait()
        for _ in range(2000):
            oracle(prompt)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert oracle.calls == 16000


def test_graph_backed_oracle_wraps_cot_answers_in_result_tags():
    g = small_graph()
    oracle = GraphBackedOracle(g)
    response = oracle(pair_prompt(g.concept("c1"), g.concept("c2"), VariantKind.COT))
    assert "<result>YES</result>" in response


def test_graph_backed_oracle_flips_exactly_per_documented_contract():
    g = small_graph()
    p = 0.5
    oracle = GraphBackedOracle(g, flip_probability=p, seed=7)
    for a in g.concepts:
        for b in g.concepts:
            if a.id == b.id:
                continue
            digest = hashlib.sha256(
                f"7|{a.name.lower()}|{b.name.lower()}".encode()
            ).digest()
            u = int.from_bytes(digest[:8], "big") / 2.0**64
            expected = ((a.id, b.id) in g.edges) ^ (u < p)
            got = oracle(pair_prompt(a, b)) == "YES"
            assert got == expected, (a.name, b.name)


def test_graph_backed_oracle_zero_flip_is_noise_free():
    g = small_graph()
    oracle = GraphBackedOracle(g, flip_probability=0.0, seed=999)
    for a in g.concepts:
        for b in g.concepts:
            if a.id != b.id:
                want = "YES" if (a.id, b.id) in g.edges else "NO"
                assert oracle(pair_prompt(a, b)) == want


def test_graph_backed_oracle_validates_probability():
    with pytest.raises(ValueError):
        GraphBackedOracle(small_graph(), flip_probability=1.5)


# -- scripted and echo oracles -----------------------------------------------------------


def test_scripted_oracle_prefers_variant_specific_rows():
    g = small_graph()
    oracle = ScriptedOracle(
        [
            {"a": "Probability", "b": "Hidden Markov Model", "response": "YES"},
            {
                "a": "Probability",
                "b": "Hidden Markov Model",
                "variant": "cot",
                "response": "<result>NO</result>",
            },
        ]
    )
    zs = pair_prompt(g.concept("c1"), g.concept("c2"))
    cot = pair_prompt(g.concept("c1"), g.concept("c2"), VariantKind.COT)
    assert oracle(zs) == "YES"
    assert oracle(cot) == "<result>NO</result>"
    with pytest.raises(FixtureMiss):
        oracle(pair_prompt(g.concept("c2"), g.concept("c3")))


def test_scripted_oracle_from_jsonl(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    rows = [
        {"a": "Probability", "b": "Viterbi Algorithm", "response": "NO"},
        {"a": "probability", "b": "hidden   markov model", "response": "YES"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    oracle = ScriptedOracle.from_jsonl(path)
    g = small_graph()
    assert oracle(pair_prompt(g.concept("c1"), g.concept("c2"))) == "YES"


def test_scripted_oracle_rejects_incomplete_rows():
    with pytest.raises(llm.LlmError, match="missing"):
        ScriptedOracle([{"a": "x", "response": "YES"}])


def test_echo_oracle_returns_last_nonempty_line():
    oracle = EchoOracle()
    assert oracle("first\nsecond\n\n") == "second"
    with pytest.raises(UnrecognizedPrompt):
        oracle("\n\n")


# -- pipeline mocks ------------------------------------------------------------------------


VOCAB = ["Probability", "Hidden Markov Model", "Viterbi Algorithm"]


def command_prompt(task: int, question: str) -> str:
    return (
        "You can query a concept graph with one command.\n\n"
        f"Task {task} question:\n{question}\n\n"
        "Reply with exactly one command on a single line, nothing else."
    )


def test_template_command_oracle_per_task():
    oracle = TemplateCommandOracle(VOCAB)
    q = "I know probability, can I learn the viterbi algorithm next?"
    assert oracle(command_prompt(1, q)) == 'REACHABLE "Probability" -> "Viterbi Algorithm"'
    assert oracle(command_prompt(2, q)) == 'PREREQ "Probability" DEPTH 3'
    assert oracle(command_prompt(3, q)) == 'SHORTEST "Probability" -> "Viterbi Algorithm"'
    assert oracle(command_prompt(4, q)) == 'NEIGHBORS "Probability" IN HOPS 2'


def test_template_command_oracle_reads_a_question_past_its_blank_line():
    oracle = TemplateCommandOracle(VOCAB)
    question = "Here is my situation.\n\nWhat are the prerequisites of the Viterbi Algorithm?"
    assert oracle(build_command_prompt(question, 2)) == 'PREREQ "Viterbi Algorithm" DEPTH 3'
    item = TutorQaItem(2, question, ("Probability", "Hidden Markov Model"))
    _, trace = run_task(item, small_graph(), oracle, GroundedAnswerOracle())
    assert not trace.fallback_used


def test_template_command_oracle_accepts_a_shared_matcher():
    g = small_graph()
    oracle = TemplateCommandOracle(g.matcher)
    prompt = build_command_prompt("Does probability lead to the viterbi algorithm?", 1)
    assert oracle(prompt) == TemplateCommandOracle(VOCAB)(prompt)


def test_template_command_oracle_uses_unknown_placeholder():
    oracle = TemplateCommandOracle(VOCAB)
    out = oracle(command_prompt(1, "no concepts here at all"))
    assert out == 'REACHABLE "unknown" -> "unknown"'


def test_template_command_oracle_rejects_non_command_prompts():
    oracle = TemplateCommandOracle(VOCAB)
    with pytest.raises(UnrecognizedPrompt):
        oracle("tell me a story")


@pytest.mark.parametrize("task", [1, 2, 3, 4])
def test_template_command_oracle_writes_the_first_fallback_query(task):
    # the benchmark's qa check needs the template and the fallback to agree
    oracle = TemplateCommandOracle(VOCAB)
    rng = random.Random(task)
    wanted = 2 if task in (1, 3) else 1
    for count in (0, 1, 2, 3) * 5:
        names = rng.sample(VOCAB, count)
        question = f"Task {task}: how do {' and '.join(names) or 'these'} relate?"
        assert extract_concepts(question, VOCAB) == names
        if count < wanted:
            with pytest.raises(FallbackExhausted):
                template_queries(task, names)
            continue
        command = oracle(build_command_prompt(question, task))
        assert parse_query(command) == template_queries(task, names)[0]


def test_garbage_command_oracle():
    assert "command" in GarbageCommandOracle()("whatever")


def grounding_prompt(question: str, path: str, *, yes_no: bool) -> str:
    lines = [
        "There is a concept graph that includes the relations between concepts.",
        "Based on the question, the path between concepts has been returned.",
        "If the path is empty, then there is no relationship.",
        "Only use the returned path as the information for answering.",
    ]
    if yes_no:
        lines.append('Only return "Yes" or "No".')
    lines += ["***Question**:", question, "***Path**:", path]
    return "\n".join(lines)


def test_grounded_answer_oracle_yes_no_prompts():
    oracle = GroundedAnswerOracle()
    assert oracle(grounding_prompt("Can I?", "A; B; C", yes_no=True)) == "Yes"
    assert oracle(grounding_prompt("Can I?", "EMPTY", yes_no=True)) == "No"


def test_grounded_answer_oracle_list_prompts():
    oracle = GroundedAnswerOracle()
    path = "Probability; Hidden Markov Model\nProbability; Viterbi Algorithm"
    assert (
        oracle(grounding_prompt("What are the prerequisites?", path, yes_no=False))
        == "Probability; Hidden Markov Model; Viterbi Algorithm"
    )
    assert oracle(grounding_prompt("What?", "EMPTY", yes_no=False)) == ""


def test_grounded_answer_oracle_proposal_prompts():
    oracle = GroundedAnswerOracle()
    prompt = (
        "There is a concept graph that includes the relations between concepts.\n"
        "***Question**:\nHow can I improve?\n"
        "***Neighborhood**:\nProbability; Viterbi Algorithm"
    )
    out = oracle(prompt)
    assert "Probability; Viterbi Algorithm" in out
    empty = (
        "There is a concept graph.\n***Question**:\nHow?\n***Neighborhood**:\nEMPTY"
    )
    assert "No related concepts" in oracle(empty)


def test_grounded_answer_oracle_rejects_other_prompts():
    oracle = GroundedAnswerOracle()
    with pytest.raises(UnrecognizedPrompt):
        oracle("plain question")
    with pytest.raises(UnrecognizedPrompt):
        oracle("***Question**:\nQ but no sections")


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout", 0.0),
        ("timeout", -1.0),
        ("timeout", math.nan),
        ("timeout", math.inf),
        ("temperature", -0.5),
        ("temperature", math.nan),
        ("temperature", math.inf),
        ("max_retries", -1),
        ("max_retries", 1.5),
        ("max_retries", True),
    ],
)
def test_oracle_config_checks_its_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        OracleConfig(endpoint="e", model="m", **{field: value})


def test_oracle_config_accepts_the_edges_of_each_range():
    config = OracleConfig(endpoint="e", model="m", temperature=0.0, timeout=1e-3, max_retries=0)
    assert (config.temperature, config.timeout, config.max_retries) == (0.0, 1e-3, 0)
