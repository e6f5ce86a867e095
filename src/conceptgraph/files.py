"""The on-disk dialect shared by every reader and writer in the package.

Text is UTF-8 with "\\n" line ends. Every write goes to a sibling
temporary file that is renamed over the target only after the whole
content was written, so a crash or an unencodable row leaves the
previous file as it was. JSON Lines files hold one JSON object per
line, written with sorted keys and non-ASCII text kept as is; blank
lines are skipped on reading. A JSON document is one object with
sorted keys, non-ASCII text escaped and a final newline; versioned
documents carry "format" and "version" fields that readers check
before using anything else. No writer in the package emits NaN or
Infinity, which JSON does not allow: such a number raises ValueError
instead. A recording() block notes every path read or written here.
"""
from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import IO

_RECORD: ContextVar[tuple[list[Path], list[Path]] | None] = ContextVar("record", default=None)


@contextmanager
def recording() -> Iterator[tuple[list[Path], list[Path]]]:
    """Yield (read, written): the paths read and written here while the
    block runs, in first-use order without repeats. A write is noted once
    its file is in place. Only the calling thread is recorded."""
    token = _RECORD.set(([], []))
    try:
        yield _RECORD.get()
    finally:
        _RECORD.reset(token)


def _note(path: str | Path, *, written: bool = False) -> None:
    record = _RECORD.get()
    if record is not None and Path(path) not in record[written]:
        record[written].append(Path(path))


@contextmanager
def _replacing(path: str | Path) -> Iterator[IO[str]]:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    _note(path, written=True)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace the file's content with text, all or nothing."""
    with _replacing(path) as fh:
        fh.write(text)


_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False)


def write_jsonl(path: str | Path, rows: Iterable[Mapping[str, object]]) -> None:
    """One JSON object per line, all or nothing; rows are encoded as they
    are written, so a long row sequence is never held as one string. A
    NaN or infinite number raises ValueError and leaves no file."""
    with _replacing(path) as fh:
        for row in rows:
            fh.write(_ROW_ENCODER.encode(row) + "\n")


def read_lines(path: str | Path) -> list[str]:
    """The file's lines without their line ends.

    Lines split where read_jsonl splits them, at "\\n", "\\r\\n" and
    "\\r" only, so U+2028, U+0085 and other Unicode breaks stay inside
    a line.
    """
    with open(path, encoding="utf-8") as fh:
        _note(path)
        return [line.removesuffix("\n") for line in fh]


def read_jsonl(
    path: str | Path, error: type[Exception]
) -> Iterator[tuple[int, dict[str, object]]]:
    """Yield (line number, object) for each non-blank line.

    Lines split at "\\n", "\\r\\n" and "\\r" only, so text holding other
    Unicode line breaks (U+2028, U+0085) reads back as written. A line
    that is not a JSON object raises error(message).
    """
    with open(path, encoding="utf-8") as fh:
        _note(path)
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}: line {lineno}: not JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise error(f"{path}: line {lineno}: expected a JSON object")
            yield lineno, row


def write_json(
    path: str | Path, payload: Mapping[str, object], *, indent: int | None = None
) -> None:
    """Replace the file with payload as one JSON document, all or nothing.
    A NaN or infinite number raises ValueError and leaves no file."""
    text = json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    write_text_atomic(path, text + "\n")


def sha256_digest(path: str | Path) -> str:
    """The file's sha256 in hex; recording() does not note it."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_json(path: str | Path, error: type[Exception]) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            _note(path)
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def read_json(path: str | Path, error: type[Exception]) -> dict[str, object]:
    """Load a file holding one JSON object; anything else raises
    error(message) naming the file."""
    payload = _load_json(path, error)
    if not isinstance(payload, dict):
        raise error(f"{path}: expected a JSON object")
    return payload


def read_versioned_json(
    path: str | Path, fmt: str, version: int, error: type[Exception]
) -> dict[str, object]:
    """Load a JSON object whose "format" and "version" fields must match."""
    payload = _load_json(path, error)
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise error(f"{path}: missing format marker {fmt!r}")
    if payload.get("version") != version:
        raise error(f"{path}: version {payload.get('version')!r} is not {version}")
    return payload
