"""CLI contracts: exit codes, config merging, manifests, replay.

Every subcommand runs in-process through main() so exit codes and
output bytes can be asserted directly. Reruns with identical flags must
produce byte-identical primary outputs; only the manifest may differ.
"""
from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conceptgraph import cli, files, llm
from conceptgraph.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_ORACLE,
    load_manifest,
    main,
    parse_config_file,
    replay_manifest,
)
from conceptgraph.corpus import RetrievalIndex, ingest
from conceptgraph.files import sha256_digest
from conceptgraph.graph import EdgeRow, load_edge_rows
from conceptgraph.linkpred import ConcatModel, GcnModel
from conceptgraph.recovery import load_judgments, read_pair_prompt
from conceptgraph.textnorm import VocabularyMatcher


NAMES = [
    "Probability",
    "Hidden Markov Model",
    "Viterbi Algorithm",
    "Word Distributions",
    "Sentence Simplification",
    "Syntax Trees",
]
EDGES = [(0, 1), (1, 2), (0, 3), (3, 4)]


def write_concepts(path: Path, names=NAMES) -> Path:
    path.write_text(
        "".join(f"c{i}\t{name}\n" for i, name in enumerate(names)), encoding="utf-8"
    )
    return path


def write_edges(path: Path, pairs=EDGES) -> Path:
    path.write_text("".join(f"c{a}\tc{b}\n" for a, b in pairs), encoding="utf-8")
    return path


def write_labels(path: Path) -> Path:
    rows = [f"c{a}\tc{b}\t1\n" for a, b in EDGES] + ["c2\tc0\t0\n", "c5\tc3\t0\n"]
    path.write_text("".join(rows), encoding="utf-8")
    return path


@pytest.fixture()
def workspace(tmp_path):
    write_concepts(tmp_path / "concepts.tsv")
    write_edges(tmp_path / "hidden.tsv")
    return tmp_path


def recover_argv(workspace: Path, out: str, *extra: str) -> list[str]:
    return [
        "recover",
        "--concepts",
        str(workspace / "concepts.tsv"),
        "--oracle",
        f"mock-graph:{workspace / 'hidden.tsv'}",
        "--output-dir",
        str(workspace / out),
        *extra,
    ]


# -- exit-code taxonomy ---------------------------------------------------------


def test_missing_concepts_file_exits_2_and_names_path(workspace, capsys):
    argv = recover_argv(workspace, "out")
    argv[2] = str(workspace / "absent.tsv")
    assert main(argv) == EXIT_DATA
    assert "absent.tsv" in capsys.readouterr().err


def test_unknown_oracle_spec_exits_1(workspace):
    argv = recover_argv(workspace, "out")
    argv[4] = "telepathy"
    assert main(argv) == EXIT_CONFIG


def test_unknown_variant_exits_1(workspace):
    assert main(recover_argv(workspace, "out", "--variant", "psychic")) == EXIT_CONFIG


@pytest.mark.parametrize(
    "text, problem",
    [('{"Probability": "chance"', "not valid JSON"), ('["Probability"]', "expected a JSON object")],
    ids=["truncated", "array"],
)
def test_malformed_wiki_file_exits_2_and_names_the_file(workspace, capsys, text, problem):
    wiki = workspace / "wiki.json"
    wiki.write_text(text, encoding="utf-8")
    argv = recover_argv(workspace, "out", "--variant", "zs-wiki", "--wiki", str(wiki))
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{wiki}: {problem}" in err


def test_unknown_flag_exits_1(workspace):
    assert main(recover_argv(workspace, "out", "--warp-speed", "9")) == EXIT_CONFIG


def counted_echo_calls(monkeypatch) -> list[str]:
    """The prompts every EchoOracle is asked from now on."""
    calls: list[str] = []
    echo = llm.EchoOracle.__call__
    monkeypatch.setattr(llm.EchoOracle, "__call__", lambda self, p: calls.append(p) or echo(self, p))
    return calls


@pytest.mark.parametrize(
    "rows, problem",
    [
        ("c0\tAlpha\nc1\tBeta\nc2\tGamma\nc0\tDelta\n", "duplicate concept ids: ['c0']"),
        ("c0\tAlpha\nc1\tBeta\nc2\tGamma\nc3\t ALPHA\n", "collide after normalization: ['alpha']"),
    ],
    ids=["duplicate-id", "colliding-names"],
)
def test_recover_refuses_duplicate_concepts_before_any_oracle_call(
    tmp_path, monkeypatch, capsys, rows, problem
):
    (tmp_path / "concepts.tsv").write_text(rows, encoding="utf-8")
    calls = counted_echo_calls(monkeypatch)
    argv = [
        "recover",
        "--concepts", str(tmp_path / "concepts.tsv"),
        "--oracle", "echo",
        "--output-dir", str(tmp_path / "out"),
    ]
    assert main(argv) == EXIT_DATA
    assert problem in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_missing_subcommand_exits_1(capsys):
    assert main([]) == EXIT_CONFIG
    assert "subcommand" in capsys.readouterr().err


def test_balanced_without_labels_exits_1(workspace):
    assert main(recover_argv(workspace, "out", "--pairs", "balanced:2")) == EXIT_CONFIG


def test_bad_pairs_spec_exits_1(workspace):
    assert main(recover_argv(workspace, "out", "--pairs", "balanced:few")) == EXIT_CONFIG
    assert main(recover_argv(workspace, "out", "--pairs", "some")) == EXIT_CONFIG


@pytest.mark.parametrize(
    "flag, value", [("--variant", "zz"), ("--pairs", "balanced:x"), ("--pairs", "some")]
)
def test_bad_variant_or_pairs_exits_1_before_any_file_is_read(workspace, flag, value):
    argv = recover_argv(workspace, "out", flag, value)
    argv[2] = str(workspace / "absent.tsv")
    assert main(argv) == EXIT_CONFIG


def test_fixture_miss_exits_3(workspace):
    # fixture file covers no pairs, so the first judgment call misses
    (workspace / "empty.jsonl").write_text("", encoding="utf-8")
    argv = recover_argv(workspace, "out")
    argv[4] = f"mock-script:{workspace / 'empty.jsonl'}"
    assert main(argv) == EXIT_ORACLE


@pytest.mark.parametrize(
    "line", ['{"a": "Probability"}', "not json"], ids=["missing-key", "not-json"]
)
def test_malformed_fixture_file_exits_2_and_names_file_and_line(workspace, capsys, line):
    fixtures = workspace / "fixtures.jsonl"
    good = {"a": "Probability", "b": "Syntax Trees", "response": "YES"}
    fixtures.write_text(json.dumps(good) + "\n" + line + "\n", encoding="utf-8")
    argv = recover_argv(workspace, "out")
    argv[4] = f"mock-script:{fixtures}"
    assert main(argv) == EXIT_DATA
    assert f"{fixtures}: line 2: " in capsys.readouterr().err
    assert not (workspace / "out").exists()


def test_rag_pair_whose_names_have_no_tokens_gets_the_bare_prompt(tmp_path, monkeypatch):
    write_concepts(tmp_path / "concepts.tsv", ["Probability", "+++", "***", "Syntax Trees"])
    RetrievalIndex(ingest([f"{name} is taught here" for name in NAMES], min_words=1)).save(
        tmp_path / "index.json"
    )
    calls = counted_echo_calls(monkeypatch)
    argv = [
        "recover", "--concepts", str(tmp_path / "concepts.tsv"), "--oracle", "echo",
        "--variant", "zs-rag", "--rag-index", str(tmp_path / "index.json"),
        "--concurrency", "1", "--output-dir", str(tmp_path / "out"),
    ]
    assert main(argv) == EXIT_OK
    assert len(load_judgments(tmp_path / "out" / "judgments.jsonl")) == 12
    read = [read_pair_prompt(prompt) for prompt in calls]
    assert {code for a, b, code in read if (a, b) == ("+++", "***")} == {"zs"}
    assert {code for a, b, code in read if (a, b) == ("Probability", "Syntax Trees")} == {"zs-rag"}


def test_live_oracle_without_endpoint_exits_1(workspace):
    argv = recover_argv(workspace, "out")
    argv[4] = "live"
    assert main(argv) == EXIT_CONFIG


def test_unexpected_exception_exits_4_in_one_line(workspace, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("no such\nthing")

    monkeypatch.setattr(cli, "cmd_recover", broken)
    assert main(recover_argv(workspace, "out")) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "error: internal error: RuntimeError: no such thing\n"


def test_version_is_machine_readable(capsys):
    assert main(["--version"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out and all(part.isdigit() for part in out.split("."))


# -- recover ----------------------------------------------------------------------


def test_recover_perfect_mock_matches_hidden_graph(workspace):
    assert main(recover_argv(workspace, "out")) == EXIT_OK
    recovered = load_edge_rows(workspace / "out" / "recovered-edges.tsv")
    assert {(r.source, r.target) for r in recovered} == {
        (f"c{a}", f"c{b}") for a, b in EDGES
    }


def test_recover_rerun_is_byte_identical(workspace):
    assert main(recover_argv(workspace, "a")) == EXIT_OK
    assert main(recover_argv(workspace, "b")) == EXIT_OK
    for name in ("recovered-edges.tsv", "judgments.jsonl"):
        assert (workspace / "a" / name).read_bytes() == (
            workspace / "b" / name
        ).read_bytes()


def test_recover_flip_p_out_of_range_exits_1(workspace):
    assert main(recover_argv(workspace, "out", "--flip-p", "1.5")) == EXIT_CONFIG


def test_recover_balanced_plan_judges_requested_pairs(workspace):
    labels = workspace / "labels.tsv"
    rows = [f"c{a}\tc{b}\t1" for a, b in EDGES]
    rows += ["c2\tc0\t0", "c4\tc1\t0", "c5\tc0\t0", "c5\tc3\t0"]
    labels.write_text("".join(line + "\n" for line in rows), encoding="utf-8")
    argv = recover_argv(
        workspace, "out", "--pairs", "balanced:2", "--labels", str(labels)
    )
    assert main(argv) == EXIT_OK
    judged = [
        json.loads(line)
        for line in (workspace / "out" / "judgments.jsonl").read_text().splitlines()
    ]
    assert len(judged) == 4


# -- manifests ----------------------------------------------------------------------


def test_manifest_digests_match_inputs(workspace):
    assert main(recover_argv(workspace, "out")) == EXIT_OK
    manifest = load_manifest(workspace / "out" / "manifest.json")
    assert manifest.subcommand == "recover"
    for path, digest in manifest.inputs.items():
        assert sha256_digest(path) == digest
    assert str(workspace / "concepts.tsv") in manifest.inputs
    assert str(workspace / "hidden.tsv") in manifest.inputs


def test_manifest_never_contains_the_api_secret(workspace, monkeypatch):
    secret = "sk-live-T0PS3CRET"
    monkeypatch.setenv("LLM_API_KEY", secret)
    assert main(recover_argv(workspace, "out")) == EXIT_OK
    for path in (workspace / "out").iterdir():
        assert secret not in path.read_text(encoding="utf-8")


def test_replay_manifest_reproduces_outputs(workspace):
    assert main(recover_argv(workspace, "a")) == EXIT_OK
    code = replay_manifest(workspace / "a" / "manifest.json", output_dir=str(workspace / "b"))
    assert code == EXIT_OK
    for name in ("recovered-edges.tsv", "judgments.jsonl"):
        assert (workspace / "a" / name).read_bytes() == (
            workspace / "b" / name
        ).read_bytes()


def test_replay_refuses_a_changed_or_missing_input(tmp_path, monkeypatch):
    write_concepts(tmp_path / "concepts.tsv", [f"Concept {i}" for i in range(40)])
    argv = [
        "recover",
        "--concepts",
        str(tmp_path / "concepts.tsv"),
        "--oracle",
        "echo",
        "--concurrency",
        "1",
        "--output-dir",
        str(tmp_path / "a"),
    ]
    assert main(argv) == EXIT_OK
    assert len((tmp_path / "a" / "judgments.jsonl").read_text().splitlines()) == 40 * 39
    calls = []
    echo = llm.EchoOracle.__call__
    monkeypatch.setattr(llm.EchoOracle, "__call__", lambda self, p: calls.append(p) or echo(self, p))
    manifest = tmp_path / "a" / "manifest.json"
    concepts = tmp_path / "concepts.tsv"
    lines = concepts.read_text(encoding="utf-8").splitlines(keepends=True)
    concepts.write_text("".join(lines[:30]), encoding="utf-8")
    with pytest.raises(cli.DataError, match="changed since the run") as caught:
        replay_manifest(manifest, output_dir=str(tmp_path / "b"))
    assert str(manifest) in str(caught.value) and str(concepts) in str(caught.value)
    concepts.unlink()
    with pytest.raises(cli.DataError, match="cannot read input") as caught:
        replay_manifest(manifest, output_dir=str(tmp_path / "b"))
    assert str(manifest) in str(caught.value) and str(concepts) in str(caught.value)
    assert calls == []
    assert not (tmp_path / "b").exists()


def test_replay_from_another_directory_names_the_run_directory(tmp_path, monkeypatch):
    write_concepts(tmp_path / "concepts.tsv", [f"Concept {i}" for i in range(40)])
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    run_dir = str(Path.cwd())
    argv = ["recover", "--concepts", "concepts.tsv", "--oracle", "echo", "--output-dir", "a"]
    assert main([*argv, "--concurrency", "1"]) == EXIT_OK
    assert load_manifest("a/manifest.json").cwd == run_dir
    calls = counted_echo_calls(monkeypatch)
    hashed: list[str] = []
    digest = files.sha256_digest
    monkeypatch.setattr(files, "sha256_digest", lambda p: hashed.append(p) or digest(p))
    monkeypatch.chdir(tmp_path / "sub")
    with pytest.raises(cli.DataError, match="replay from") as caught:
        replay_manifest("../a/manifest.json", output_dir="../b")
    assert "../a/manifest.json" in str(caught.value) and run_dir in str(caught.value)
    assert calls == [] and hashed == []
    assert not (tmp_path / "b").exists()
    monkeypatch.chdir(tmp_path)
    assert replay_manifest("a/manifest.json", output_dir="b") == EXIT_OK
    for name in ("recovered-edges.tsv", "judgments.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_without_a_directory_replays_as_before(workspace):
    assert main(recover_argv(workspace, "a")) == EXIT_OK
    path = workspace / "a" / "manifest.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    del raw["cwd"]
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert load_manifest(path).cwd is None
    assert replay_manifest(path, output_dir=str(workspace / "b")) == EXIT_OK
    for name in ("recovered-edges.tsv", "judgments.jsonl"):
        assert (workspace / "a" / name).read_bytes() == (workspace / "b" / name).read_bytes()


def _rich_recover_run(ws: Path) -> tuple[list[str], list[Path], list[str]]:
    words = " ".join(f"filler{i}" for i in range(30))
    lines = [f"{name} is taught here {words}" for name in NAMES]
    (ws / "corpus.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    RetrievalIndex(ingest(lines)).save(ws / "index.json")
    (ws / "wiki.json").write_text(json.dumps({NAMES[0]: "chance"}), encoding="utf-8")
    write_concepts(ws / "train-concepts.tsv")
    write_edges(ws / "train-edges.tsv", EDGES[:2])
    write_labels(ws / "labels.tsv")
    argv = recover_argv(
        ws, "out",
        "--pairs", "balanced:2",
        "--labels", str(ws / "labels.tsv"),
        "--documents", str(ws / "corpus.txt"),
        "--train-concepts", str(ws / "train-concepts.tsv"),
        "--train-edges", str(ws / "train-edges.tsv"),
        "--wiki", str(ws / "wiki.json"),
        "--variant", "zs-rag",
        "--rag-index", str(ws / "index.json"),
    )
    read = [
        "concepts.tsv", "hidden.tsv", "labels.tsv", "corpus.txt",
        "train-concepts.tsv", "train-edges.tsv", "wiki.json", "index.json",
    ]
    return argv, [ws / name for name in read], ["recovered-edges.tsv", "judgments.jsonl"]


def _scripted_recover_run(ws: Path) -> tuple[list[str], list[Path], list[str]]:
    assert main(recover_argv(ws, "a")) == EXIT_OK
    assert main(_fixtures_argv(ws, ws / "a" / "judgments.jsonl", "fx")) == EXIT_OK
    argv = recover_argv(ws, "out")
    argv[4] = f"mock-script:{ws / 'fx' / 'fixtures.jsonl'}"
    read = [ws / "concepts.tsv", ws / "fx" / "fixtures.jsonl"]
    return argv, read, ["recovered-edges.tsv", "judgments.jsonl"]


def _train_run(ws: Path) -> tuple[list[str], list[Path], list[str]]:
    write_embeddings(ws / "emb.jsonl", NAMES)
    pairs = [f"{NAMES[a]}\t{NAMES[b]}\t1\n" for a, b in EDGES] + [f"{NAMES[2]}\t{NAMES[0]}\t0\n"]
    (ws / "pairs.tsv").write_text("".join(pairs), encoding="utf-8")
    argv = train_argv(ws, "out", "--model", "concat")
    return argv, [ws / "emb.jsonl", ws / "pairs.tsv"], ["concat-checkpoint.json", "train-report.json"]


def _eval_run(ws: Path) -> tuple[list[str], list[Path], list[str]]:
    (ws / "pred.txt").write_text("Probability\n", encoding="utf-8")
    (ws / "gold.txt").write_text("Probability; Syntax Trees\n", encoding="utf-8")
    argv = [
        "eval",
        "--predictions", str(ws / "pred.txt"),
        "--gold", str(ws / "gold.txt"),
        "--mode", "list",
        "--output-dir", str(ws / "out"),
    ]
    return argv, [ws / "pred.txt", ws / "gold.txt"], ["eval-report.json"]


def _qa_run(trace: str):
    def run(ws: Path) -> tuple[list[str], list[Path], list[str]]:
        write_edges(ws / "edges.tsv")
        write_tutorqa(ws / "tutorqa.jsonl")
        written = ["answers.jsonl", "qa-report-task1.json", "qa-report-task3.json"]
        written += ["qa-mentions-task5.json"] + (["traces.jsonl"] if trace == "on" else [])
        read = [ws / "concepts.tsv", ws / "edges.tsv", ws / "tutorqa.jsonl"]
        return qa_argv(ws, "out", "--trace", trace, "--concurrency", "2"), read, written

    return run


def _fixtures_argv(ws: Path, judgments: Path, out: str) -> list[str]:
    return [
        "fixtures",
        "--judgments", str(judgments),
        "--concepts", str(ws / "concepts.tsv"),
        "--output-dir", str(ws / out),
    ]


def _fixtures_run(ws: Path) -> tuple[list[str], list[Path], list[str]]:
    assert main(recover_argv(ws, "a")) == EXIT_OK
    judgments = ws / "a" / "judgments.jsonl"
    return _fixtures_argv(ws, judgments, "out"), [judgments, ws / "concepts.tsv"], ["fixtures.jsonl"]


def test_fixtures_refuses_a_duplicate_concept_id(workspace, capsys):
    assert main(recover_argv(workspace, "a")) == EXIT_OK
    concepts = workspace / "concepts.tsv"
    concepts.write_text(concepts.read_text(encoding="utf-8") + "c0\tRenamed\n", encoding="utf-8")
    argv = _fixtures_argv(workspace, workspace / "a" / "judgments.jsonl", "fx")
    assert main(argv) == EXIT_DATA
    assert "duplicate concept ids: ['c0']" in capsys.readouterr().err
    assert not (workspace / "fx").exists()


@pytest.mark.parametrize(
    "build",
    [
        _rich_recover_run,
        _scripted_recover_run,
        _train_run,
        _eval_run,
        _qa_run("on"),
        _qa_run("off"),
        _fixtures_run,
    ],
    ids=["recover-all-inputs", "recover-mock-script", "train", "eval", "qa-trace-on", "qa-trace-off", "fixtures"],
)
def test_manifest_lists_exactly_what_the_run_read_and_wrote(workspace, capsys, build):
    argv, read, written = build(workspace)
    capsys.readouterr()
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    out = workspace / "out"
    manifest = load_manifest(out / "manifest.json")
    assert manifest.inputs == {str(path): sha256_digest(path) for path in read}
    assert manifest.outputs == tuple(sorted(str(out / name) for name in written))
    assert {path.name for path in out.iterdir()} == {*written, "manifest.json"}
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert sorted(printed[:-1]) == sorted(f"wrote {out / name}" for name in written)
    assert printed[-1] == f"wrote {out / 'manifest.json'}"


def test_replay_rejects_malformed_manifest(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"subcommand": "recover"}', encoding="utf-8")
    with pytest.raises(cli.DataError, match="missing key 'config'") as caught:
        replay_manifest(bad)
    assert str(bad) in str(caught.value)
    bad.write_text("{}", encoding="utf-8")
    with pytest.raises(cli.DataError, match="missing key 'subcommand'") as caught:
        replay_manifest(bad)
    assert str(bad) in str(caught.value)
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(cli.DataError):
        replay_manifest(bad)


# -- config files ---------------------------------------------------------------------


def test_config_file_supplies_flags(workspace):
    config = workspace / "run.cfg"
    config.write_text("# defaults\nvariant = cot\nseed = 9\n", encoding="utf-8")
    assert main(recover_argv(workspace, "out", "--config", str(config))) == EXIT_OK
    manifest = load_manifest(workspace / "out" / "manifest.json")
    assert manifest.config["variant"] == "cot"
    assert manifest.seed == 9


def test_cli_flag_overrides_config_file(workspace):
    config = workspace / "run.cfg"
    config.write_text("variant = cot\n", encoding="utf-8")
    argv = recover_argv(workspace, "out", "--config", str(config), "--variant", "zs")
    assert main(argv) == EXIT_OK
    assert load_manifest(workspace / "out" / "manifest.json").config["variant"] == "zs"


def test_config_file_errors_exit_1(workspace, capsys):
    config = workspace / "run.cfg"
    config.write_text("variant cot\n", encoding="utf-8")
    assert main(recover_argv(workspace, "out", "--config", str(config))) == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err
    config.write_text("config = other.cfg\n", encoding="utf-8")
    assert main(recover_argv(workspace, "out", "--config", str(config))) == EXIT_CONFIG
    missing = workspace / "absent.cfg"
    assert main(recover_argv(workspace, "out", "--config", str(missing))) == EXIT_CONFIG


def test_config_unknown_key_exits_1(workspace):
    config = workspace / "run.cfg"
    config.write_text("hyperdrive = on\n", encoding="utf-8")
    assert main(recover_argv(workspace, "out", "--config", str(config))) == EXIT_CONFIG


# -- eval --------------------------------------------------------------------------


def test_eval_identical_binary_files_score_one(tmp_path, capsys):
    (tmp_path / "pred.txt").write_text("Yes\nNo\nYes\n", encoding="utf-8")
    (tmp_path / "gold.txt").write_text("Yes\nNo\nYes\n", encoding="utf-8")
    argv = [
        "eval",
        "--predictions",
        str(tmp_path / "pred.txt"),
        "--gold",
        str(tmp_path / "gold.txt"),
        "--output-dir",
        str(tmp_path / "out"),
    ]
    assert main(argv) == EXIT_OK
    report = json.loads((tmp_path / "out" / "eval-report.json").read_text())
    assert report["f1"] == 1.0
    assert report["accuracy"] == 1.0
    out = capsys.readouterr().out
    assert "f1" in out and "1.0000" in out


def test_eval_mismatched_line_counts_exit_2(tmp_path):
    (tmp_path / "pred.txt").write_text("Yes\nNo\n", encoding="utf-8")
    (tmp_path / "gold.txt").write_text("Yes\n", encoding="utf-8")
    for mode in ("binary", "list"):
        argv = [
            "eval",
            "--predictions",
            str(tmp_path / "pred.txt"),
            "--gold",
            str(tmp_path / "gold.txt"),
            "--mode",
            mode,
            "--output-dir",
            str(tmp_path / "out"),
        ]
        assert main(argv) == EXIT_DATA


def test_eval_mu_sweep_is_non_increasing(tmp_path):
    rng = np.random.default_rng(3)
    words = [f"concept {i}" for i in range(12)]
    pred_lines = []
    gold_lines = []
    for _ in range(20):
        pred_lines.append("; ".join(rng.choice(words, size=4, replace=False)))
        gold_lines.append("; ".join(rng.choice(words, size=4, replace=False)))
    (tmp_path / "pred.txt").write_text("\n".join(pred_lines) + "\n", encoding="utf-8")
    (tmp_path / "gold.txt").write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
    scores = []
    for i, mu in enumerate(("0.2", "0.4", "0.6", "0.8")):
        out = tmp_path / f"out{i}"
        argv = [
            "eval",
            "--predictions",
            str(tmp_path / "pred.txt"),
            "--gold",
            str(tmp_path / "gold.txt"),
            "--mode",
            "list",
            "--embedder",
            "hash",
            "--mu",
            mu,
            "--output-dir",
            str(out),
        ]
        assert main(argv) == EXIT_OK
        scores.append(json.loads((out / "eval-report.json").read_text())["s_f1"])
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_eval_list_mode_scores_partial_overlap(tmp_path):
    (tmp_path / "pred.txt").write_text("Probability\n", encoding="utf-8")
    (tmp_path / "gold.txt").write_text("Probability; Syntax Trees\n", encoding="utf-8")
    argv = [
        "eval",
        "--predictions",
        str(tmp_path / "pred.txt"),
        "--gold",
        str(tmp_path / "gold.txt"),
        "--mode",
        "list",
        "--dataset",
        "toy",
        "--output-dir",
        str(tmp_path / "out"),
    ]
    assert main(argv) == EXIT_OK
    report = json.loads((tmp_path / "out" / "eval-report.json").read_text())
    assert report["precision"] == 1.0
    assert report["recall"] == 0.5
    assert abs(report["s_f1"] - 2 / 3) < 1e-9
    assert report["dataset"] == "toy"


def test_eval_list_line_holding_u0085_is_one_list(tmp_path, capsys):
    (tmp_path / "pred.txt").write_text("Probability\u0085Syntax Trees\n", encoding="utf-8")
    (tmp_path / "gold.txt").write_text("Probability\n", encoding="utf-8")
    argv = [
        "eval",
        "--predictions",
        str(tmp_path / "pred.txt"),
        "--gold",
        str(tmp_path / "gold.txt"),
        "--mode",
        "list",
        "--output-dir",
        str(tmp_path / "out"),
    ]
    assert main(argv) == EXIT_OK, capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "eval-report.json").read_text())
    assert report["lines"] == 1


def eval_list_argv(tmp_path: Path, out: str, *extra: str) -> list[str]:
    return [
        "eval",
        "--predictions", str(tmp_path / "pred.txt"),
        "--gold", str(tmp_path / "gold.txt"),
        "--mode", "list",
        "--output-dir", str(tmp_path / out),
        *extra,
    ]


@pytest.mark.parametrize("flag", ["--one-to-one", "--embedder"])
def test_eval_refuses_a_value_outside_the_flag_choices(tmp_path, capsys, flag):
    for name in ("pred.txt", "gold.txt"):
        (tmp_path / name).write_text("Probability\n", encoding="utf-8")
    assert main(eval_list_argv(tmp_path, "out", flag, "maybe")) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def distinct_name_lists(directory: Path, names: int) -> Path:
    """Prediction and gold files holding the same lists of four names each,
    with no name on two lines."""
    lines = "".join(
        "; ".join(f"Topic {k + i}" for i in range(4)) + "\n" for k in range(0, names, 4)
    )
    directory.mkdir()
    for name in ("pred.txt", "gold.txt"):
        (directory / name).write_text(lines, encoding="utf-8")
    return directory


def test_exact_matching_memory_grows_linearly_with_the_names(tmp_path, capsys):
    small, large = (distinct_name_lists(tmp_path / f"n{n}", n) for n in (1000, 4000))
    # one untraced run first, so one-time costs land in neither measurement
    assert main(eval_list_argv(small, "warm")) == EXIT_OK
    peaks = []
    for directory in (small, large):
        tracemalloc.start()
        try:
            assert main(eval_list_argv(directory, "out", "--embedder", "exact")) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        report = json.loads((directory / "out" / "eval-report.json").read_text())
        assert report["s_f1"] == 1.0
    capsys.readouterr()
    # the input lists alone grow 4x; vectors as long as the names seen so
    # far would make the peak grow 16x
    assert peaks[1] < 8 * peaks[0], peaks


def test_documents_line_holding_u2028_is_one_document(workspace):
    half = " ".join(f"word{i}" for i in range(30))
    corpus_path = workspace / "corpus.txt"
    corpus_path.write_text(f"{half}\u2028{half}\n{half}\r\n", encoding="utf-8")
    args = cli._parse_argv(recover_argv(workspace, "out", "--documents", str(corpus_path)))
    with files.recording() as (read, _written):
        context = cli._build_context(args)
    assert read == [corpus_path]
    assert [doc.text for doc in context.documents] == [f"{half}\u2028{half}", half]


# -- qa ----------------------------------------------------------------------------


def write_tutorqa(path: Path) -> Path:
    items = []
    pairs = [(0, 2, "Yes"), (0, 4, "Yes"), (2, 0, "No"), (5, 1, "No"), (1, 4, "No")]
    for a, b, answer in pairs:
        items.append(
            {
                "task": 1,
                "question": f"Does {NAMES[a]} come before {NAMES[b]} in the study order?",
                "answer": answer,
            }
        )
    items.append(
        {
            "task": 3,
            "question": f"What path leads from {NAMES[0]} to {NAMES[2]}?",
            "answer": [NAMES[0], NAMES[1], NAMES[2]],
        }
    )
    items.append(
        {
            "task": 5,
            "question": f"I keep failing at {NAMES[2]}, what should I review?",
            "answer": "review the prerequisites",
        }
    )
    path.write_text(
        "".join(json.dumps(item, sort_keys=True) + "\n" for item in items),
        encoding="utf-8",
    )
    return path


def qa_argv(workspace: Path, out: str, *extra: str) -> list[str]:
    return [
        "qa",
        "--concepts",
        str(workspace / "concepts.tsv"),
        "--edges",
        str(workspace / "edges.tsv"),
        "--tutorqa",
        str(workspace / "tutorqa.jsonl"),
        "--output-dir",
        str(workspace / out),
        *extra,
    ]


@pytest.fixture()
def qa_workspace(workspace):
    write_edges(workspace / "edges.tsv")
    write_tutorqa(workspace / "tutorqa.jsonl")
    return workspace


def test_qa_template_oracles_reach_full_accuracy(qa_workspace):
    assert main(qa_argv(qa_workspace, "out")) == EXIT_OK
    out = qa_workspace / "out"
    report = json.loads((out / "qa-report-task1.json").read_text())
    assert report["accuracy"] == 1.0
    listing = json.loads((out / "qa-report-task3.json").read_text())
    assert listing["s_f1"] == 1.0
    mentions = json.loads((out / "qa-mentions-task5.json").read_text())
    assert mentions["items"] == 1
    assert mentions["mean_unique_mentions"] >= 1.0
    assert (out / "traces.jsonl").exists()


def test_qa_refuses_a_trace_value_other_than_on_or_off(qa_workspace, capsys):
    assert main(qa_argv(qa_workspace, "out", "--trace", "yes")) == EXIT_CONFIG
    assert "--trace" in capsys.readouterr().err
    assert not (qa_workspace / "out").exists()


def test_qa_trace_off_omits_traces_file(qa_workspace):
    assert main(qa_argv(qa_workspace, "out", "--trace", "off")) == EXIT_OK
    assert not (qa_workspace / "out" / "traces.jsonl").exists()
    assert (qa_workspace / "out" / "answers.jsonl").exists()


def test_qa_garbage_commands_fall_back_to_same_accuracy(qa_workspace):
    assert main(qa_argv(qa_workspace, "out", "--command-oracle", "garbage")) == EXIT_OK
    out = qa_workspace / "out"
    report = json.loads((out / "qa-report-task1.json").read_text())
    assert report["accuracy"] == 1.0
    traces = [row for _, row in files.read_jsonl(out / "traces.jsonl", ValueError)]
    assert traces and all(trace["fallback_used"] is True for trace in traces)


def test_qa_rerun_is_byte_identical(qa_workspace):
    assert main(qa_argv(qa_workspace, "a")) == EXIT_OK
    assert main(qa_argv(qa_workspace, "b", "--concurrency", "4")) == EXIT_OK
    for name in (
        "answers.jsonl",
        "traces.jsonl",
        "qa-report-task1.json",
        "qa-report-task3.json",
        "qa-mentions-task5.json",
    ):
        a = (qa_workspace / "a" / name).read_bytes()
        b = (qa_workspace / "b" / name).read_bytes()
        assert a == b, name


def test_qa_shortest_path_longer_than_the_recursion_limit(tmp_path):
    n = 1200
    names = [f"node {i}" for i in range(n)]
    write_concepts(tmp_path / "concepts.tsv", names)
    write_edges(tmp_path / "edges.tsv", [(i, i + 1) for i in range(n - 1)])
    item = {
        "task": 3,
        "question": f"What path leads from {names[0]} to {names[-1]}?",
        "answer": [names[0], names[-1]],
    }
    (tmp_path / "tutorqa.jsonl").write_text(json.dumps(item) + "\n", encoding="utf-8")
    assert main(qa_argv(tmp_path, "out")) == EXIT_OK
    (line,) = (tmp_path / "out" / "answers.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["answer"] == "; ".join(names)


def test_qa_missing_tutorqa_exits_2(qa_workspace):
    argv = qa_argv(qa_workspace, "out")
    argv[6] = str(qa_workspace / "absent.jsonl")
    assert main(argv) == EXIT_DATA


def test_qa_refuses_a_concept_name_holding_a_semicolon(qa_workspace, monkeypatch, capsys):
    calls = []
    for oracle in (llm.TemplateCommandOracle, llm.GroundedAnswerOracle):
        monkeypatch.setattr(oracle, "__call__", lambda self, prompt: calls.append(prompt))
    write_concepts(qa_workspace / "concepts.tsv", [*NAMES[:5], "Tokens; Types"])
    assert main(qa_argv(qa_workspace, "out")) == EXIT_DATA
    assert "'c5'" in capsys.readouterr().err
    assert calls == []
    assert not (qa_workspace / "out" / "answers.jsonl").exists()


@pytest.mark.parametrize("mu", ["0", "-1", "1", "1.5", "nan", "inf", "-inf", "high"])
def test_qa_checks_mu_before_any_oracle_call(qa_workspace, monkeypatch, capsys, mu):
    calls = []
    for oracle in (llm.TemplateCommandOracle, llm.GroundedAnswerOracle):
        monkeypatch.setattr(oracle, "__call__", lambda self, prompt: calls.append(prompt))
    assert main(qa_argv(qa_workspace, "out", "--mu", mu)) == EXIT_CONFIG
    assert "--mu" in capsys.readouterr().err
    assert calls == []
    assert not (qa_workspace / "out" / "answers.jsonl").exists()


@pytest.mark.parametrize("mu", ["0", "nan", "inf", "1", "1.5"])
def test_eval_checks_mu_at_parse_time(tmp_path, mu):
    for name in ("pred.txt", "gold.txt"):
        (tmp_path / name).write_text("Probability\n", encoding="utf-8")
    argv = [
        "eval",
        "--predictions",
        str(tmp_path / "pred.txt"),
        "--gold",
        str(tmp_path / "gold.txt"),
        "--mode",
        "list",
        "--mu",
        mu,
        "--output-dir",
        str(tmp_path / "out"),
    ]
    assert main(argv) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_concept_name_spanning_two_lines_exits_2(workspace, capsys):
    (workspace / "concepts.tsv").write_text(
        'c1\t"Fed" policy\nc2\tU.S. "Fed"\nc3\t"multi\nline"\n', encoding="utf-8"
    )
    write_edges(workspace / "hidden.tsv", [(1, 2)])
    assert main(recover_argv(workspace, "out")) == EXIT_DATA
    assert "expected 2 columns" in capsys.readouterr().err


# -- train --------------------------------------------------------------------------


def write_embeddings(path: Path, names, dim=8, seed=7) -> Path:
    rng = np.random.default_rng(seed)
    rows = []
    for name in names:
        vector = [round(float(v), 6) for v in rng.standard_normal(dim)]
        rows.append(json.dumps({"concept": name, "vector": vector}))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def train_argv(tmp_path: Path, out: str, *extra: str) -> list[str]:
    return [
        "train",
        "--embeddings",
        str(tmp_path / "emb.jsonl"),
        "--edges",
        str(tmp_path / "pairs.tsv"),
        "--epochs",
        "25",
        "--output-dir",
        str(tmp_path / out),
        *extra,
    ]


@pytest.fixture()
def train_workspace(tmp_path):
    write_embeddings(tmp_path / "emb.jsonl", NAMES)
    rows = [EdgeRow(NAMES[a], NAMES[b], 1) for a, b in EDGES]
    rows += [EdgeRow(NAMES[2], NAMES[0], 0), EdgeRow(NAMES[5], NAMES[3], 0)]
    (tmp_path / "pairs.tsv").write_text(
        "".join(f"{r.source}\t{r.target}\t{r.label}\n" for r in rows), encoding="utf-8"
    )
    return tmp_path


def test_train_gcn_writes_loadable_checkpoint(train_workspace):
    argv = train_argv(
        train_workspace, "out", "--proj-width", "8", "--layer-widths", "8,4"
    )
    assert main(argv) == EXIT_OK
    model = GcnModel.load(train_workspace / "out" / "gcn-checkpoint.json")
    assert [w.shape[1] for w in model.w_layers] == [8, 4]
    report = json.loads((train_workspace / "out" / "train-report.json").read_text())
    assert report["model"] == "gcn"
    assert len(report["losses"]) == 25


def test_train_concat_writes_loadable_checkpoint(train_workspace):
    argv = train_argv(train_workspace, "out", "--model", "concat")
    assert main(argv) == EXIT_OK
    model = ConcatModel.load(train_workspace / "out" / "concat-checkpoint.json")
    assert model.weights.size == 16
    report = json.loads((train_workspace / "out" / "train-report.json").read_text())
    assert report["final_loss"] <= report["initial_loss"]


def test_train_rerun_and_replay_are_byte_identical(train_workspace):
    argv = train_argv(train_workspace, "a", "--proj-width", "8", "--layer-widths", "8")
    assert main(argv) == EXIT_OK
    code = replay_manifest(
        train_workspace / "a" / "manifest.json", output_dir=str(train_workspace / "b")
    )
    assert code == EXIT_OK
    for name in ("gcn-checkpoint.json", "train-report.json"):
        assert (train_workspace / "a" / name).read_bytes() == (
            train_workspace / "b" / name
        ).read_bytes()


def test_train_bad_layer_widths_exits_1(train_workspace):
    assert main(train_argv(train_workspace, "out", "--layer-widths", "8,wide")) == EXIT_CONFIG


def test_train_degenerate_labels_exit_2(train_workspace):
    (train_workspace / "pairs.tsv").write_text(
        f"{NAMES[0]}\t{NAMES[1]}\t0\n", encoding="utf-8"
    )
    assert main(train_argv(train_workspace, "out")) == EXIT_DATA


TRAIN_FLAGS = [
    "--learning-rate",
    "--momentum",
    "--negative-ratio",
    "--layer-widths",
    "--epochs",
    "--proj-width",
]
# the pairs file carries negatives, so a negative ratio of 0 is a valid choice
VALID_AT_ZERO = {"--momentum", "--negative-ratio"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("flag", TRAIN_FLAGS)
def test_train_numeric_flags_are_checked_at_parse_time(train_workspace, capsys, flag, value):
    argv = train_argv(train_workspace, "out", "--proj-width", "4", "--layer-widths", "4")
    argv[argv.index("--epochs") + 1] = "2"
    code = main([*argv, flag, value])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if value == "0" and flag in VALID_AT_ZERO:
        assert code == EXIT_OK
        for path in (train_workspace / "out").iterdir():
            text = path.read_text(encoding="utf-8")
            assert "NaN" not in text and "Infinity" not in text, path.name
    else:
        assert code == EXIT_CONFIG, err
        assert flag in err
        assert not (train_workspace / "out" / "train-report.json").exists()


LIVE = ["--endpoint", "http://localhost:9/v1/chat", "--llm-model", "m"]
LIVE_FLAG_CASES = [
    ("--timeout", "-1"),
    ("--timeout", "0"),
    ("--timeout", "nan"),
    ("--timeout", "inf"),
    ("--temperature", "-1"),
    ("--temperature", "nan"),
    ("--temperature", "inf"),
    ("--max-retries", "-5"),
    ("--max-retries", "1.5"),
    ("--max-retries", "nan"),
    ("--concurrency", str(cli.MAX_CONCURRENCY + 1)),
]
RECOVER_FLAG_CASES = [
    ("--flip-p", "-0.1"),
    ("--flip-p", "1.5"),
    ("--flip-p", "nan"),
    ("--flip-p", "inf"),
    ("--pairs", "balanced:0"),
    ("--pairs", "balanced:-3"),
]


@pytest.mark.parametrize(
    "command, flag, value",
    [("recover", *case) for case in LIVE_FLAG_CASES + RECOVER_FLAG_CASES]
    + [("qa", *case) for case in LIVE_FLAG_CASES],
)
def test_oracle_and_thread_flags_are_checked_at_parse_time(
    qa_workspace, monkeypatch, capsys, command, flag, value
):
    calls = []
    monkeypatch.setattr(llm, "complete", lambda config, prompt: calls.append(prompt))
    if command == "recover":
        write_edges(qa_workspace / "labels.tsv")
        argv = recover_argv(qa_workspace, "out", *LIVE, "--labels", str(qa_workspace / "labels.tsv"))
        argv[argv.index("--oracle") + 1] = "live"
    else:
        argv = qa_argv(qa_workspace, "out", *LIVE, "--command-oracle", "live", "--answer-oracle", "live")
    code = main([*argv, flag, value])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert flag in err
    assert calls == []
    assert not (qa_workspace / "out").exists()


NUMERIC_FLAGS = [
    ("recover", flag)
    for flag in (
        "--seed", "--rag-k", "--flip-p", "--concurrency", "--passage-chars", "--pairs",
        "--temperature", "--timeout", "--max-retries",
    )
] + [
    ("qa", flag)
    for flag in ("--seed", "--mu", "--concurrency", "--temperature", "--timeout", "--max-retries")
] + [("eval", "--seed"), ("eval", "--mu")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "1e308"])
@pytest.mark.parametrize("command, flag", NUMERIC_FLAGS)
def test_numeric_flags_never_crash_or_write_non_finite_numbers(
    qa_workspace, capsys, command, flag, value
):
    ws = qa_workspace
    if command == "recover":
        write_labels(ws / "labels.tsv")
        RetrievalIndex(ingest([f"{name} is taught here" for name in NAMES])).save(ws / "index.json")
        argv = recover_argv(
            ws, "out", "--labels", str(ws / "labels.tsv"), "--pairs", "balanced:2",
            "--variant", "zs-rag", "--rag-index", str(ws / "index.json"),
        )
    elif command == "qa":
        argv = qa_argv(ws, "out", "--embedder", "hash")
    else:
        (ws / "pred.txt").write_text("Probability; Syntax Trees\n", encoding="utf-8")
        (ws / "gold.txt").write_text("Probability\n", encoding="utf-8")
        argv = [
            "eval", "--predictions", str(ws / "pred.txt"), "--gold", str(ws / "gold.txt"),
            "--mode", "list", "--embedder", "hash", "--output-dir", str(ws / "out"),
        ]
    code = main([*argv, flag, f"balanced:{value}" if flag == "--pairs" else value])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA), err
    assert "Traceback" not in err
    for path in (ws / "out").glob("*"):
        text = path.read_text(encoding="utf-8")
        assert "NaN" not in text and "Infinity" not in text, path.name


@pytest.mark.parametrize("ratio", ["1e308", "1e6"])
def test_train_negative_ratio_beyond_the_free_pairs_exits_2(train_workspace, capsys, ratio):
    (train_workspace / "pairs.tsv").write_text(
        "".join(f"{NAMES[a]}\t{NAMES[b]}\n" for a, b in EDGES), encoding="utf-8"
    )
    argv = train_argv(train_workspace, "out", "--negative-ratio", ratio)
    assert main(argv) == EXIT_DATA
    assert "free pairs" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["gcn", "concat"])
def test_train_divergence_exits_2_and_writes_nothing(train_workspace, capsys, model):
    path = train_workspace / "emb.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows[0]["vector"][0] = 1e200
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with np.errstate(all="ignore"):
        code = main(train_argv(train_workspace, "out", "--model", model))
    err = capsys.readouterr().err
    assert code == EXIT_DATA, err
    assert "training diverged at epoch" in err
    assert not (train_workspace / "out").exists()


# -- fixtures -------------------------------------------------------------------------


def test_fixture_chain_replays_byte_identically(workspace):
    # live-style run (noisy mock) -> fixtures -> scripted replay
    assert main(recover_argv(workspace, "a", "--flip-p", "0.3", "--seed", "4")) == EXIT_OK
    fixtures_argv = [
        "fixtures",
        "--judgments",
        str(workspace / "a" / "judgments.jsonl"),
        "--concepts",
        str(workspace / "concepts.tsv"),
        "--output-dir",
        str(workspace / "fx"),
    ]
    assert main(fixtures_argv) == EXIT_OK
    replay = recover_argv(workspace, "b", "--seed", "4")
    replay[4] = f"mock-script:{workspace / 'fx' / 'fixtures.jsonl'}"
    assert main(replay) == EXIT_OK
    for name in ("recovered-edges.tsv", "judgments.jsonl"):
        assert (workspace / "a" / name).read_bytes() == (
            workspace / "b" / name
        ).read_bytes()


def test_fixtures_unknown_concept_id_exits_2(workspace, capsys):
    (workspace / "j.jsonl").write_text(
        json.dumps(
            {"a": "zz", "b": "c0", "variant": "zs", "verdict": "YES", "raw": "YES"}
        )
        + "\n",
        encoding="utf-8",
    )
    argv = [
        "fixtures",
        "--judgments",
        str(workspace / "j.jsonl"),
        "--concepts",
        str(workspace / "concepts.tsv"),
        "--output-dir",
        str(workspace / "out"),
    ]
    assert main(argv) == EXIT_DATA
    assert "zz" in capsys.readouterr().err


def test_fixture_rows_use_names_not_ids(workspace):
    assert main(recover_argv(workspace, "a")) == EXIT_OK
    argv = [
        "fixtures",
        "--judgments",
        str(workspace / "a" / "judgments.jsonl"),
        "--concepts",
        str(workspace / "concepts.tsv"),
        "--output-dir",
        str(workspace / "fx"),
    ]
    assert main(argv) == EXIT_OK
    rows = [
        json.loads(line)
        for line in (workspace / "fx" / "fixtures.jsonl").read_text().splitlines()
    ]
    assert rows
    names = set(NAMES)
    for row in rows:
        assert row["a"] in names and row["b"] in names
        assert set(row) == {"a", "b", "variant", "response"}


def test_config_fragment_parsing(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# comment\n\nvariant = cot\nflip-p = 0.1\n", encoding="utf-8"
    )
    assert parse_config_file(config) == ["--variant", "cot", "--flip-p", "0.1"]


def test_config_line_holding_u2028_is_one_line(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("domain = speech\u2028language\r\nseed = 3\n", encoding="utf-8")
    assert parse_config_file(config) == ["--domain", "speech\u2028language", "--seed", "3"]


@pytest.mark.parametrize("variant", ["zs-doc", "zs-rag"])
def test_fixture_replay_of_context_runs_whose_context_misses_some_pairs(tmp_path, variant):
    # the corpus mentions only Probability, so (Hidden Markov Model, Viterbi
    # Algorithm) renders the bare zero-shot prompt under both variants
    write_concepts(tmp_path / "concepts.tsv", NAMES[:3])
    write_edges(tmp_path / "hidden.tsv", [(0, 1), (1, 2)])
    words = " ".join(f"filler{i}" for i in range(30))
    lines = [f"Probability is counted here {words}", f"Nothing else is named {words}"]
    documents = ingest(lines)
    (tmp_path / "corpus.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    RetrievalIndex(documents).save(tmp_path / "index.json")
    assert RetrievalIndex(documents).retrieve("Hidden Markov Model Viterbi Algorithm") == []
    context = (
        ["--documents", str(tmp_path / "corpus.txt")]
        if variant == "zs-doc"
        else ["--rag-index", str(tmp_path / "index.json")]
    )
    run = recover_argv(tmp_path, "a", "--variant", variant, "--flip-p", "0.3", *context)
    assert main(run) == EXIT_OK
    fixtures_argv = [
        "fixtures",
        "--judgments",
        str(tmp_path / "a" / "judgments.jsonl"),
        "--concepts",
        str(tmp_path / "concepts.tsv"),
        "--output-dir",
        str(tmp_path / "fx"),
    ]
    assert main(fixtures_argv) == EXIT_OK
    replay = recover_argv(tmp_path, "b", "--variant", variant, *context)
    replay[4] = f"mock-script:{tmp_path / 'fx' / 'fixtures.jsonl'}"
    assert main(replay) == EXIT_OK
    for name in ("recovered-edges.tsv", "judgments.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_recover_labels_naming_an_unknown_concept_exit_2(workspace, capsys, monkeypatch):
    labels = workspace / "labels.tsv"
    labels.write_text("c0\tc1\t1\nc2\tc9\t0\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli.llm.GraphBackedOracle, "__call__", lambda self, p: calls.append(p))
    argv = recover_argv(workspace, "out", "--pairs", "balanced:1", "--labels", str(labels))
    assert main(argv) == EXIT_DATA
    assert "'c9'" in capsys.readouterr().err
    assert calls == []


def test_qa_builds_one_vocabulary_scanner(qa_workspace, monkeypatch):
    builds = []
    original = VocabularyMatcher.__init__

    def counting_init(self, vocabulary):
        builds.append(1)
        original(self, vocabulary)

    monkeypatch.setattr(VocabularyMatcher, "__init__", counting_init)
    assert main(qa_argv(qa_workspace, "out")) == EXIT_OK
    assert len(builds) == 1
