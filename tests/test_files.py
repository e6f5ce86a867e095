"""The shared writers: JSON Lines bytes, atomic replacement, and no NaN."""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from conceptgraph import files

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
def test_report_json_refuses_non_finite_numbers(tmp_path, number):
    path = tmp_path / "report.json"
    files.write_json(path, {"s_f1": 0.5}, indent=2)
    assert path.read_text(encoding="utf-8") == '{\n  "s_f1": 0.5\n}\n'
    with pytest.raises(ValueError):
        files.write_json(path, {"s_f1": number}, indent=2)


def test_json_is_encoded_and_decoded_only_in_files():
    # one module owns the JSON dialect: sorted keys, no NaN, final newline
    call = re.compile(r"\bjson\.(dumps?|loads?)\b")
    package = Path(files.__file__).parent
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "files.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if call.search(line)
    ]
    assert offenders == []
