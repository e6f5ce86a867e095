"""The on-disk dialect shared by every reader and writer in the package.

Text is UTF-8 with "\\n" line ends. Every write goes to a sibling
temporary file that is renamed over the target only after the whole
content was written, so a crash or an unencodable row leaves the
previous file as it was. JSON Lines files hold one JSON object per
line, written with sorted keys and non-ASCII text kept as is; blank
lines are skipped on reading. Versioned JSON documents carry "format"
and "version" fields that readers check before using anything else.
"""
from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import IO


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


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace the file's content with text, all or nothing."""
    with _replacing(path) as fh:
        fh.write(text)


def write_jsonl(path: str | Path, rows: Iterable[Mapping[str, object]]) -> None:
    """One JSON object per line, all or nothing; rows are encoded as they
    are written, so a long row sequence is never held as one string."""
    with _replacing(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def read_jsonl(
    path: str | Path, error: type[Exception]
) -> Iterator[tuple[int, dict[str, object]]]:
    """Yield (line number, object) for each non-blank line.

    Lines split at "\\n", "\\r\\n" and "\\r" only, so text holding other
    Unicode line breaks (U+2028, U+0085) reads back as written. A line
    that is not a JSON object raises error(message).
    """
    with open(path, encoding="utf-8") as fh:
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


def read_versioned_json(
    path: str | Path, fmt: str, version: int, error: type[Exception]
) -> dict[str, object]:
    """Load a JSON object whose "format" and "version" fields must match."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise error(f"{path}: missing format marker {fmt!r}")
    if payload.get("version") != version:
        raise error(f"{path}: version {payload.get('version')!r} is not {version}")
    return payload
