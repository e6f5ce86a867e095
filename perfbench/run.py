"""Benchmark for conceptgraph: four CLI workloads timed end to end, plus a
traced run that reports per-layer numbers.

    python3 perfbench/run.py --workload recover-all --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, each in its own process

A run generates its inputs from --seed (perfbench/gen.py, in a child
process so that its memory does not count), times the workload's setup,
then repeats whole rounds of the workload's CLI invocations, driven
in-process through conceptgraph.cli.main, until the rounds have taken
--seconds. Every round's outputs are checked (perfbench/check.py). The
last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones:

    setup_s      median time of the public loaders and oracle constructors
                 the workload's CLI runs call before their first unit of work
    wall_s       median time of one round of CLI invocations
    items_per_s  units of work (judged pairs, answered questions, training
                 epochs) per second of wall_s
    peak_rss_mb  peak resident memory of this process

With --trace 1 the run times one untraced round, then traced rounds, and
reports per-layer metrics per round (see perfbench/tracing.py and
perfbench/README.md). Spans are written to .perfbench_out/traces/.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread keeps train-linkpred's time independent of whether the
# second CPU is free; two oracle threads stay within a 2-CPU machine.
BLAS_THREADS = "1"
ORACLE_THREADS = 2
SETUP_REPEATS = 2
FLIP_P = 0.02
CONTEXT_PAIRS = 300
EPOCHS = 200

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    name: str
    # (inputs dir, outputs dir, seed) -> [(argv, units of work)]
    invocations: Callable[[Path, Path, int], list[tuple[list[str], int]]]
    setup: Callable[[Path, int], object]
    check: Callable[[Path, Path, int], list[str]]


def _concept_count(inputs: Path) -> int:
    return sum(1 for line in (inputs / "concepts.tsv").read_text(encoding="utf-8").splitlines() if line)


def _recover_argv(inputs: Path, out: Path, seed: int, variant: str, *extra: str) -> list[str]:
    return [
        "recover", "--concepts", str(inputs / "concepts.tsv"),
        "--oracle", f"mock-graph:{inputs / 'uniform-dag.tsv'}", "--flip-p", str(FLIP_P),
        "--seed", str(seed), "--concurrency", str(ORACLE_THREADS), "--variant", variant,
        "--output-dir", str(out / variant), *extra,
    ]


def _recover_setup(inputs: Path, seed: int):
    from conceptgraph import graph, llm

    concepts = graph.load_concepts(inputs / "concepts.tsv")
    hidden = graph.build_graph(concepts, graph.load_edge_rows(inputs / "uniform-dag.tsv"))
    return concepts, llm.GraphBackedOracle(hidden, flip_probability=FLIP_P, seed=seed)


# -- recover-all ------------------------------------------------------------------


def recover_all_invocations(inputs: Path, out: Path, seed: int):
    n = _concept_count(inputs)
    return [(_recover_argv(inputs, out, seed, "zs", "--pairs", "all"), n * (n - 1))]


def recover_all_check(inputs: Path, out: Path, seed: int) -> list[str]:
    import check

    return check.check_recovery(inputs, out / "zs", seed=seed, flip_p=FLIP_P, variant="zs", sample_size=None)


# -- recover-context --------------------------------------------------------------

CONTEXT_VARIANTS = {
    "zs-doc": lambda inputs: ["--documents", str(inputs / "corpus.txt")],
    "zs-rag": lambda inputs: ["--rag-index", str(inputs / "rag-index.json")],
    "zs-con": lambda inputs: [
        "--train-concepts", str(inputs / "concepts.tsv"),
        "--train-edges", str(inputs / "train-edges.tsv"),
    ],
}


def recover_context_invocations(inputs: Path, out: Path, seed: int):
    plan = ["--pairs", f"balanced:{CONTEXT_PAIRS}", "--labels", str(inputs / "labels.tsv")]
    return [
        (_recover_argv(inputs, out, seed, variant, *plan, *extra(inputs)), 2 * CONTEXT_PAIRS)
        for variant, extra in CONTEXT_VARIANTS.items()
    ]


def recover_context_setup(inputs: Path, seed: int):
    from conceptgraph import corpus, graph

    concepts, oracle = _recover_setup(inputs, seed)
    labels = graph.load_edge_rows(inputs / "labels.tsv")
    lines = (inputs / "corpus.txt").read_text(encoding="utf-8").splitlines()
    documents = corpus.ingest(lines, source="corpus.txt")
    index = corpus.RetrievalIndex.load(inputs / "rag-index.json")
    training = graph.build_graph(
        graph.load_concepts(inputs / "concepts.tsv"), graph.load_edge_rows(inputs / "train-edges.tsv")
    )
    return concepts, oracle, labels, documents, index, training


def recover_context_check(inputs: Path, out: Path, seed: int) -> list[str]:
    import check

    problems = []
    for variant in CONTEXT_VARIANTS:
        problems += check.check_recovery(
            inputs, out / variant, seed=seed, flip_p=FLIP_P, variant=variant, sample_size=CONTEXT_PAIRS
        )
    return problems


# -- qa-tutor ---------------------------------------------------------------------

QA_ORACLES = ("template", "garbage")


def qa_invocations(inputs: Path, out: Path, seed: int):
    questions = sum(1 for line in (inputs / "tutorqa.jsonl").read_text(encoding="utf-8").splitlines() if line)
    return [
        (
            [
                "qa", "--concepts", str(inputs / "concepts.tsv"), "--edges", str(inputs / "noisy.tsv"),
                "--tutorqa", str(inputs / "tutorqa.jsonl"), "--command-oracle", oracle,
                "--trace", "on", "--seed", str(seed), "--output-dir", str(out / f"qa-{oracle}"),
            ],
            questions,
        )
        for oracle in QA_ORACLES
    ]


def qa_setup(inputs: Path, seed: int):
    from conceptgraph import graph, llm, pipeline

    concepts = graph.load_concepts(inputs / "concepts.tsv")
    g = graph.build_graph(concepts, graph.load_edge_rows(inputs / "noisy.tsv"))
    items = pipeline.load_tutorqa(inputs / "tutorqa.jsonl")
    vocabulary = [c.name for c in g.concepts]
    oracles = (llm.TemplateCommandOracle(vocabulary), llm.GarbageCommandOracle(), llm.GroundedAnswerOracle())
    return g, items, oracles


def qa_check(inputs: Path, out: Path, seed: int) -> list[str]:
    import check

    return check.check_qa(inputs, out / "qa-template", out / "qa-garbage")


# -- train-linkpred ---------------------------------------------------------------

TRAIN_MODELS = ("gcn", "concat")


def train_invocations(inputs: Path, out: Path, seed: int):
    return [
        (
            [
                "train", "--embeddings", str(inputs / "embeddings.jsonl"),
                "--edges", str(inputs / "train-pairs.tsv"), "--model", model,
                "--epochs", str(EPOCHS), "--seed", str(seed), "--output-dir", str(out / f"train-{model}"),
            ],
            EPOCHS,
        )
        for model in TRAIN_MODELS
    ]


def train_setup(inputs: Path, seed: int):
    from conceptgraph import graph, linkpred

    store = linkpred.EmbeddingStore.load_jsonl(inputs / "embeddings.jsonl")
    return store, graph.load_edge_rows(inputs / "train-pairs.tsv")


def train_check(inputs: Path, out: Path, seed: int) -> list[str]:
    import check

    dim = len(json.loads((inputs / "embeddings.jsonl").open(encoding="utf-8").readline())["vector"])
    # the CLI defaults: --proj-width 256 --layer-widths 128
    gcn = {"w_proj": (dim, 256), "w_layers": ((256, 128),), "r": (128, 128)}
    return check.check_training(out / "train-gcn", "gcn", gcn) + check.check_training(
        out / "train-concat", "concat", {"weights": (2 * dim,)}
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("recover-all", recover_all_invocations, _recover_setup, recover_all_check),
        Workload("recover-context", recover_context_invocations, recover_context_setup, recover_context_check),
        Workload("qa-tutor", qa_invocations, qa_setup, qa_check),
        Workload("train-linkpred", train_invocations, train_setup, train_check),
    )
}


# -- per-layer metrics -------------------------------------------------------------

# name -> (unit, better). A name ending in .calls, .s or .self_s is that field
# of the span named by the rest; the others are computed in per_layer_metrics.
PER_LAYER = {
    "graph.build_graph.s": ("s", "lower"),
    "graph.add_edge.s": ("s", "lower"),
    "graph.shortest_path.s": ("s", "lower"),
    "graph.prerequisite_paths.s": ("s", "lower"),
    "graph.neighborhood_paths.s": ("s", "lower"),
    "graph.add_edge.calls": ("count", "lower"),
    "graph.paths_returned": ("count", "lower"),
    "recovery.recover_graph.s": ("s", "lower"),
    "recovery.judge_pair.s": ("s", "lower"),
    "recovery.build_pair_prompt.s": ("s", "lower"),
    "recovery.save_judgments.s": ("s", "lower"),
    "recovery.recover_graph.self_s": ("s", "lower"),
    "llm.parse_pair_prompt.s": ("s", "lower"),
    "llm.GraphBackedOracle.s": ("s", "lower"),
    "llm.TemplateCommandOracle.s": ("s", "lower"),
    "llm.GroundedAnswerOracle.s": ("s", "lower"),
    "llm.prompt_bytes": ("bytes", "lower"),
    "textnorm.mentions_concept.s": ("s", "lower"),
    "textnorm.VocabularyMatcher.scan.s": ("s", "lower"),
    "textnorm.mentions_concept.calls": ("count", "lower"),
    "textnorm.VocabularyMatcher.init.calls": ("count", "lower"),
    "corpus.ingest.s": ("s", "lower"),
    "corpus.RetrievalIndex.load.s": ("s", "lower"),
    "corpus.RetrievalIndex.retrieve.s": ("s", "lower"),
    "query.parse_query.s": ("s", "lower"),
    "query.execute.s": ("s", "lower"),
    "pipeline.run_task.s": ("s", "lower"),
    "pipeline.save_traces.s": ("s", "lower"),
    "pipeline.run_task.calls": ("count", "higher"),
    "pipeline.run_task.p50_ms": ("ms", "lower"),
    "pipeline.run_task.p98_ms": ("ms", "lower"),
    "pipeline.fallback_used": ("count", "lower"),
    "metrics.similarity_f1.s": ("s", "lower"),
    "metrics.SimilarityMatcher.embed.s": ("s", "lower"),
    "metrics.concept_mentions.s": ("s", "lower"),
    "metrics.SimilarityMatcher.embed.calls": ("count", "lower"),
    "metrics.embed_calls_per_name": ("ratio", "lower"),
    "linkpred.EmbeddingStore.load_jsonl.s": ("s", "lower"),
    "linkpred.gcn_loss_and_grads.s": ("s", "lower"),
    "linkpred.train_gcn.s": ("s", "lower"),
    "linkpred.train_concat.s": ("s", "lower"),
    "linkpred.GcnModel.save.s": ("s", "lower"),
    "linkpred.ConcatModel.save.s": ("s", "lower"),
    "linkpred.gcn_loss_and_grads.calls": ("count", "lower"),
    "linkpred.train_gcn.self_s": ("s", "lower"),
    "cli.s": ("s", "lower"),
    "cli.write_manifest.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
COUNTERS = ("graph.paths_returned", "llm.prompt_bytes", "pipeline.fallback_used")


def per_layer_metrics(tracer, summary: dict, rounds: int, traced_wall: float, untraced_wall: float) -> dict[str, dict]:
    """Per-round values of PER_LAYER from the tracer's span summary and counts."""
    from tracing import percentile_ms

    durations = summary.get("pipeline.run_task", {}).get("durations", [])
    embeds = summary.get("metrics.SimilarityMatcher.embed", {}).get("calls", 0)
    derived = {
        **{name: tracer.counts.get(name, 0) / rounds for name in COUNTERS},
        "pipeline.run_task.p50_ms": percentile_ms(durations, 50),
        "pipeline.run_task.p98_ms": percentile_ms(durations, 98),
        "metrics.embed_calls_per_name": embeds / len(tracer.scored_names) if tracer.scored_names else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        else:
            span, field = name.rsplit(".", 1)
            value = summary.get(span, {}).get(field, 0) / rounds
        out[name] = {"value": value, "unit": unit}
    return out


# -- running -----------------------------------------------------------------------


def _generate(seed: int, inputs: Path) -> None:
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--seed", str(seed), "--out", str(inputs)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def _run_round(workload: Workload, inputs: Path, out: Path, seed: int) -> tuple[float, int, int, list[str]]:
    """One round: (wall seconds, units attempted, units failed, problems)."""
    from conceptgraph import cli

    invocations = workload.invocations(inputs, out, seed)
    codes = []
    start = time.perf_counter()
    for argv, _ in invocations:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    attempted = sum(units for _, units in invocations)
    failed = sum(units for (_, units), code in zip(invocations, codes) if code != 0)
    problems = [f"{argv[0]} exited {code}" for (argv, _), code in zip(invocations, codes) if code != 0]
    if not problems:
        problems = workload.check(inputs, out, seed)
    gc.collect()
    return wall, attempted, failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    run_dir = OUT / f"run-{os.getpid()}"
    inputs, out = run_dir / "inputs", run_dir / "out"
    try:
        _generate(seed, inputs)
        metrics: dict[str, dict] = {}
        attempted = failed = 0
        problems: list[str] = []
        walls: list[float] = []
        if trace:
            untraced, attempted, failed, problems = _run_round(workload, inputs, out, seed)
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                while not walls or sum(walls) < seconds:
                    wall, a, f, p = _run_round(workload, inputs, out, seed)
                    walls.append(wall)
                    attempted, failed, problems = attempted + a, failed + f, problems + p
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            metrics = per_layer_metrics(tracer, summary, len(walls), statistics.median(walls), untraced)
            trace_dir = OUT / "traces"
            tracer.write(trace_dir / f"{name}.spans.tsv")
            totals = {span: {k: v for k, v in row.items() if k != "durations"} for span, row in summary.items()}
            (trace_dir / f"{name}.summary.json").write_text(json.dumps(totals, indent=1, sort_keys=True))
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                loaded = workload.setup(inputs, seed)
                setups.append(time.perf_counter() - start)
                del loaded
                gc.collect()
            units = 0
            while not walls or sum(walls) < seconds:
                wall, a, f, p = _run_round(workload, inputs, out, seed)
                walls.append(wall)
                units = a
                attempted, failed, problems = attempted + a, failed + f, problems + p
            wall_s = statistics.median(walls)
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": wall_s,
                "items_per_s": units / wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
        for problem in problems[:10]:
            print(f"check failed: {problem}", file=sys.stderr)
        return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in a process of its own; prints one table row each."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"{name}: exited {done.returncode}")
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.4f} {entry['unit']}")
            merged["metrics"][f"{name}.{metric}"] = entry
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conceptgraph" / "cli.py").is_file():
        print(f"error: no conceptgraph sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        for metric, entry in result["metrics"].items():
            print(f"{args.workload} {metric} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
