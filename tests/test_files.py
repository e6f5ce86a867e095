"""The shared writers: JSON Lines bytes, atomic replacement, and no NaN."""
from __future__ import annotations

import json
import math
import re
import threading
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


def test_files_are_opened_only_in_files():
    # a reader that opens its own file would escape files.recording(), and
    # a manifest would then miss an input
    call = re.compile(r"\b(open|read_text|read_bytes|write_text|write_bytes)\(")
    package = Path(files.__file__).parent
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "files.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if call.search(line)
    ]
    assert offenders == []


def test_recording_lists_each_path_once_in_first_use_order(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.jsonl", "b.json", "c.txt"))
    files.write_jsonl(a, ROWS)  # outside any block: not recorded
    with files.recording() as (read, written):
        files.write_json(b, {"k": 1})
        files.write_text_atomic(c, "x\n")
        files.write_json(b, {"k": 2})
        assert [row for _, row in files.read_jsonl(a, ValueError)] == ROWS
        assert files.read_json(b, ValueError) == {"k": 2}
        files.read_lines(c)
        files.read_lines(a)
        with pytest.raises(ValueError):
            files.write_json(tmp_path / "bad.json", {"x": math.nan})
        with pytest.raises(FileNotFoundError):
            files.read_lines(tmp_path / "absent.txt")
        worker = threading.Thread(target=files.read_lines, args=(c,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        worker = threading.Thread(target=files.write_text_atomic, args=(tmp_path / "t.txt", ""))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert read == [a, b, c]
    assert written == [b, c]
    files.read_lines(c)
    assert read == [a, b, c]
