"""CLI contracts: exit codes, config merging, manifests, replay.

Every subcommand runs in-process through main() so exit codes and
output bytes can be asserted directly. Reruns with identical flags must
produce byte-identical primary outputs; only the manifest may differ.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from conceptgraph import cli
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
    sha256_digest,
)
from conceptgraph.graph import EdgeRow, load_edge_rows
from conceptgraph.linkpred import ConcatModel, GcnModel
from conceptgraph.pipeline import load_traces


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


def test_unknown_flag_exits_1(workspace):
    assert main(recover_argv(workspace, "out", "--warp-speed", "9")) == EXIT_CONFIG


def test_missing_subcommand_exits_1(capsys):
    assert main([]) == EXIT_CONFIG
    assert "subcommand" in capsys.readouterr().err


def test_balanced_without_labels_exits_1(workspace):
    assert main(recover_argv(workspace, "out", "--pairs", "balanced:2")) == EXIT_CONFIG


def test_bad_pairs_spec_exits_1(workspace):
    assert main(recover_argv(workspace, "out", "--pairs", "balanced:few")) == EXIT_CONFIG
    assert main(recover_argv(workspace, "out", "--pairs", "some")) == EXIT_CONFIG


def test_fixture_miss_exits_3(workspace):
    # fixture file covers no pairs, so the first judgment call misses
    (workspace / "empty.jsonl").write_text("", encoding="utf-8")
    argv = recover_argv(workspace, "out")
    argv[4] = f"mock-script:{workspace / 'empty.jsonl'}"
    assert main(argv) == EXIT_ORACLE


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


def test_replay_rejects_malformed_manifest(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"subcommand": "recover"}', encoding="utf-8")
    with pytest.raises(cli.DataError):
        replay_manifest(bad)
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


def test_qa_trace_off_omits_traces_file(qa_workspace):
    assert main(qa_argv(qa_workspace, "out", "--trace", "off")) == EXIT_OK
    assert not (qa_workspace / "out" / "traces.jsonl").exists()
    assert (qa_workspace / "out" / "answers.jsonl").exists()


def test_qa_garbage_commands_fall_back_to_same_accuracy(qa_workspace):
    assert main(qa_argv(qa_workspace, "out", "--command-oracle", "garbage")) == EXIT_OK
    out = qa_workspace / "out"
    report = json.loads((out / "qa-report-task1.json").read_text())
    assert report["accuracy"] == 1.0
    for trace in load_traces(out / "traces.jsonl"):
        assert trace.fallback_used


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
