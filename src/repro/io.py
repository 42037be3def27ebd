"""Durable I/O: the one crash-safe write path for every artifact.

:func:`atomic_write` replaces a whole file (``<name>.tmp``, fsync,
``os.replace``), so a crash leaves the old content or the new, never a
hybrid; it is the ``io.write`` fault site (:mod:`repro.faults`).
:class:`Journal` appends fsynced JSONL lines, so a crash tears at most
the last line — and before its first append it truncates such a torn
tail, so later records never fuse with the fragment.
:func:`parse_jsonl` is the one definition of a torn tail, shared by
:meth:`Journal.read` and the BF604 artifact lint.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.plan import should_inject

__all__ = ["atomic_write", "Journal", "JournalCorruptError", "parse_jsonl"]


def atomic_write(path: str | os.PathLike, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (``str`` is encoded as UTF-8).

    An injected ``torn_file``/``corrupt_file`` fault damages the bytes
    on their way to disk — after the caller computed any checksum from
    the intact data.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fault = should_inject("io.write", file=path.name, dir=path.parent.name)
    if fault is not None:
        if fault.mode == "torn_file":
            fraction = float(fault.payload_dict.get("fraction", 0.5))
            data = data[: int(len(data) * fraction)]
        elif fault.mode == "corrupt_file":
            # Flip a byte mid-file: still the right length, wrong content.
            middle = len(data) // 2
            data = data[:middle] + b"\x00" + data[middle + 1 :]
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class JournalCorruptError(ValueError):
    """An undecodable journal line with more lines after it: damage,
    not a crash mid-append."""


@dataclass
class JsonLines:
    #: ``(lineno, object)`` for every line decoded before any damage.
    records: list[tuple[int, dict]] = field(default_factory=list)
    #: Line number of an undecodable final line (a torn append).
    torn_tail: int | None = None
    #: ``(lineno, message)`` of damage anywhere else.
    error: tuple[int, str] | None = None


def parse_jsonl(text: str | bytes) -> JsonLines:
    """One JSON object per line, blank lines skipped; an undecodable
    line followed only by blank lines is a torn tail."""
    out = JsonLines()
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            if any(rest.strip() for rest in lines[lineno:]):
                out.error = (lineno, f"not valid JSON: {exc}")
            else:
                out.torn_tail = lineno
            break
        if not isinstance(data, dict):
            out.error = (lineno, "line is not a JSON object")
            break
        out.records.append((lineno, data))
    return out


class Journal:
    """Append-only JSONL file of records of one registered schema tag.

    A ``jsonl`` schema tags every line; a ``journal`` schema tags its
    header line and checks later lines against its ``entry_fields``.
    """

    def __init__(self, path: str | os.PathLike, schema: str) -> None:
        self.path = Path(path)
        self.schema = schema
        self._tail_checked = False

    def append(self, record: dict) -> None:
        """Write one line, flushed and fsynced; key order is kept."""
        line = json.dumps(record) + "\n"
        if not self._tail_checked:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                with open(self.path, "rb+") as fh:
                    data = fh.read()
                    if not data.endswith(b"\n"):  # torn by a crash
                        fh.truncate(data.rfind(b"\n") + 1)
            self._tail_checked = True
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def read(self) -> list[dict]:
        """Every complete record; a torn final line is discarded.

        Raises :class:`JournalCorruptError` for damage before the last
        line and ``ValueError`` naming the violated BF6xx rule for a
        record that does not conform to the schema.
        """
        from repro.analysis.schemas import SCHEMAS, validate_fields

        parsed = parse_jsonl(self.path.read_bytes())
        if parsed.error is not None:
            lineno, message = parsed.error
            raise JournalCorruptError(f"{self.path}:{lineno}: {message}")
        headered = SCHEMAS[self.schema].kind == "journal"
        for i, (lineno, data) in enumerate(parsed.records):
            entry = headered and i > 0
            if not entry and data.get("schema") != self.schema:
                raise ValueError(
                    f"{self.path}:{lineno}: unknown schema "
                    f"{data.get('schema')!r} (expected {self.schema!r})"
                )
            problems = validate_fields(data, self.schema, entry=entry)
            if problems:
                raise ValueError(
                    f"{self.path}:{lineno}: record does not conform to "
                    f"{self.schema} — " + "; ".join(problems)
                )
        return [data for _, data in parsed.records]
