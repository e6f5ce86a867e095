"""The shared writers: JSON Lines bytes, atomic replacement, and no NaN."""
from __future__ import annotations

import json
import math

import pytest

from conceptgraph import files, metrics

ROWS = [
    {"b": 1, "a": "naïve — “quoted”", "c": [1.5, -0.0, 1e-300, 2**70]},
    {"nested": {"z": None, "y": [True, False]}, "text": "line break\ttab"},
    {},
]


def test_write_jsonl_bytes_match_json_dumps(tmp_path):
    path = tmp_path / "rows.jsonl"
    files.write_jsonl(path, iter(ROWS))
    expected = "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n" for row in ROWS)
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
def test_write_jsonl_refuses_non_finite_numbers_and_keeps_the_old_file(tmp_path, number):
    path = tmp_path / "rows.jsonl"
    files.write_jsonl(path, ROWS)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        files.write_jsonl(path, [*ROWS, {"score": number}])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


@pytest.mark.parametrize("number", [math.nan, math.inf])
def test_report_json_refuses_non_finite_numbers(number):
    assert metrics.report_json({"s_f1": 0.5}) == '{\n  "s_f1": 0.5\n}\n'
    with pytest.raises(ValueError):
        metrics.report_json({"s_f1": number})
