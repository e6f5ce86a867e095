"""Test-session plumbing: surface the acceptance criterion lines, and
share the benchmark generator's small inputs.

The acceptance module records one PASS/FAIL line per criterion; pytest
captures ordinary prints, so the lines are replayed here as a summary
section that always reaches the run log.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def gen():
    """The benchmark's seeded input generator, perfbench/gen.py."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import gen

    return gen


@pytest.fixture(scope="session")
def small_inputs(tmp_path_factory, gen) -> Path:
    """perfbench/gen.py's SMALL inputs for seed 3: 30 concepts, every file
    the four benchmark workloads read, and six TutorQA questions per task.
    Tests read them and never write there."""
    return gen.generate(3, tmp_path_factory.mktemp("small-inputs"), gen.SMALL)
