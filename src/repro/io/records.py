"""CRC-framed JSON-lines records (``repro.io.records``).

The one line format behind the checkpoint journal, the persistent
cache and the batch/serve result streams: each record is a JSON object
in canonical form (sorted keys, no whitespace) carrying a ``crc`` field,
the CRC-32 of the canonical JSON of every *other* field, as 8 lowercase
hex digits, and ends in a newline.  A reader that finds a torn,
bit-flipped or interleaved line learns why from :class:`RecordError`
and decides for itself what the damage means: the journal truncates
there, the cache and the result streams skip the line.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict

__all__ = ["RecordError", "canonical_json", "record_crc", "frame", "parse_record"]


class RecordError(ValueError):
    """One line is not an intact record; the message says why."""


def canonical_json(doc: Any) -> str:
    """The canonical JSON form (sorted keys, no whitespace) every CRC
    and content digest in the package is computed over."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _crc32(text: str) -> str:
    return format(zlib.crc32(text.encode("utf-8")), "08x")


def record_crc(doc: Any) -> str:
    """CRC-32 of ``doc``'s canonical JSON, as 8 lowercase hex digits."""
    return _crc32(canonical_json(doc))


def frame(record: Dict[str, Any]) -> str:
    """``record`` as one newline-terminated, CRC-tagged line."""
    return canonical_json(dict(record, crc=record_crc(record))) + "\n"


def parse_record(raw: bytes) -> Dict[str, Any]:
    """The record on one line, with its ``crc`` field checked and
    popped; raises :class:`RecordError` for anything less."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise RecordError("unparseable record") from None
    if not isinstance(record, dict) or "crc" not in record:
        raise RecordError("record is not an object with a crc")
    crc = record.pop("crc")
    # Check the fields in the order they were written, not re-sorted:
    # canonical order sorts integer keys numerically ({2: .., 10: ..}),
    # but read back they are strings, and "10" sorts before "2".
    if _crc32(json.dumps(record, separators=(",", ":"))) != crc:
        raise RecordError("checksum mismatch")
    return record
