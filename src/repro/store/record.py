"""The framed durable-record codec: length prefix + blake2s + version.

Every record the durable store writes — journal steps, checkpoints —
is one self-verifying line::

    rs1 <length> <blake2s-64> <payload>\\n

* ``rs1`` is the format magic + version (rejecting future versions,
  like the checkpoint document's ``FORMAT_VERSION``);
* ``<length>`` is the payload's byte length in decimal — a torn write
  that truncates the line mid-payload is detected by length before the
  checksum is even computed;
* ``<blake2s-64>`` is the 16-hex-digit blake2s digest (``digest_size=8``)
  of the payload bytes — a bit flip anywhere in the payload flips the
  digest with probability ``1 - 2^-64``;
* ``<payload>`` is compact sorted-key JSON (ASCII, no embedded
  newlines), so segment files stay line-oriented and greppable.

The codec never *repairs* anything: :func:`scan_segment` reports the
first damaged frame with its byte offset and classification, and the
store layer decides whether to truncate (recovery, ``scrub --repair``)
or refuse.
"""

from __future__ import annotations

import json
from hashlib import blake2s
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import StoreCorruption

#: Magic + format version prefix of every framed record.
STORE_MAGIC = "rs1"

#: Hex digits of the blake2s-64 digest embedded in each frame.
DIGEST_HEX_LEN = 16

PathLike = Union[str, Path]

#: The payload text of a record: what ``json.dumps(record,
#: sort_keys=True)`` returns, from one encoder built once (``dumps``
#: builds a new encoder at every call with a non-default option).
canonical_json = json.JSONEncoder(sort_keys=True).encode


def payload_digest(payload: bytes) -> str:
    """The 16-hex-digit blake2s-64 digest of a record payload."""
    return blake2s(payload, digest_size=8).hexdigest()


def encode_record(record: dict) -> bytes:
    """Frame one JSON-able record as a checksummed line (with newline)."""
    payload = canonical_json(record).encode("ascii")
    digest = blake2s(payload, digest_size=8).hexdigest()
    return (
        f"{STORE_MAGIC} {len(payload)} {digest} ".encode("ascii")
        + payload
        + b"\n"
    )


def decode_record(line: bytes, path: Optional[PathLike] = None,
                  offset: Optional[int] = None) -> dict:
    """Verify and decode one framed line (without its newline).

    Raises:
        StoreCorruption: classified as ``version`` (unknown magic from
            a newer build), ``torn`` (payload shorter than its length
            prefix — a truncated write), ``checksum`` (digest
            mismatch — a bit flip), or ``garbled`` (frame structure or
            JSON unreadable).
    """
    where = f"{path}@{offset}" if path is not None else "record"
    parts = line.split(b" ", 3)
    if not line.startswith(STORE_MAGIC.encode("ascii") + b" "):
        if line[:2] == b"rs" and len(parts) == 4:
            raise StoreCorruption(
                f"{where}: record format {parts[0].decode('ascii', 'replace')!r} "
                f"is newer than this build supports ({STORE_MAGIC!r})",
                kind="version", path=path, offset=offset,
            )
        raise StoreCorruption(
            f"{where}: not a framed record (missing {STORE_MAGIC!r} magic)",
            kind="garbled", path=path, offset=offset,
        )
    if len(parts) != 4:
        raise StoreCorruption(
            f"{where}: truncated frame header",
            kind="torn", path=path, offset=offset,
        )
    _, length_field, digest_field, payload = parts
    try:
        length = int(length_field)
    except ValueError:
        raise StoreCorruption(
            f"{where}: unreadable length prefix "
            f"{length_field.decode('ascii', 'replace')!r}",
            kind="garbled", path=path, offset=offset,
        ) from None
    if len(digest_field) != DIGEST_HEX_LEN:
        raise StoreCorruption(
            f"{where}: malformed digest field",
            kind="garbled", path=path, offset=offset,
        )
    if len(payload) < length:
        raise StoreCorruption(
            f"{where}: payload truncated at {len(payload)}/{length} "
            f"byte(s) (torn write)",
            kind="torn", path=path, offset=offset,
        )
    if len(payload) > length:
        raise StoreCorruption(
            f"{where}: payload overruns its length prefix "
            f"({len(payload)} > {length})",
            kind="garbled", path=path, offset=offset,
        )
    if payload_digest(payload) != digest_field.decode("ascii", "replace"):
        raise StoreCorruption(
            f"{where}: checksum mismatch (bit flip or in-place edit)",
            kind="checksum", path=path, offset=offset,
        )
    try:
        record = json.loads(payload)
    except ValueError as exc:  # pragma: no cover - digest already matched
        raise StoreCorruption(
            f"{where}: checksummed payload is not JSON ({exc})",
            kind="garbled", path=path, offset=offset,
        ) from None
    if not isinstance(record, dict):
        raise StoreCorruption(
            f"{where}: record payload must be an object, "
            f"got {type(record).__name__}",
            kind="garbled", path=path, offset=offset,
        )
    return record


class SegmentScan:
    """Outcome of scanning one segment file leniently.

    Attributes:
        records: the verified records, in file order, up to the first
            damaged frame.
        valid_bytes: byte length of the verified prefix — the truncate
            point ``scrub --repair`` cuts the file back to.
        damage: the :class:`~repro.errors.StoreCorruption` describing
            the first bad frame (``None`` for a clean file).
        dropped_lines: non-empty lines at or after the damage point
            that were not decoded (the records recovery loses).
    """

    __slots__ = ("path", "records", "valid_bytes", "damage",
                 "dropped_lines")

    def __init__(self, path, records, valid_bytes, damage, dropped_lines):
        self.path = Path(path)
        self.records: List[dict] = records
        self.valid_bytes: int = valid_bytes
        self.damage: Optional[StoreCorruption] = damage
        self.dropped_lines: int = dropped_lines

    @property
    def clean(self) -> bool:
        """Whether every frame in the file verified."""
        return self.damage is None

    def __repr__(self) -> str:
        state = "clean" if self.clean else (
            f"damage={self.damage.kind!r}@{self.damage.offset}"
        )
        return (
            f"SegmentScan({self.path.name}, {len(self.records)} "
            f"record(s), {state})"
        )


def scan_segment(path: PathLike) -> SegmentScan:
    """Scan one segment file, stopping at the first damaged frame.

    Never raises for damaged *content* — the classification travels in
    :attr:`SegmentScan.damage` so recovery can truncate-to-last-valid
    and scrub can report.  Only an unreadable file raises ``OSError``
    (the caller maps it to a finding).
    """
    path = Path(path)
    data = path.read_bytes()
    records: List[dict] = []
    offset = 0
    damage: Optional[StoreCorruption] = None
    while offset < len(data):
        newline = data.find(b"\n", offset)
        # a frame without its terminating newline is a torn tail even
        # when the visible bytes verify: the write never completed
        line = data[offset:] if newline < 0 else data[offset:newline]
        if not line.strip():
            offset = len(data) if newline < 0 else newline + 1
            continue
        try:
            record = decode_record(line, path=path, offset=offset)
            if newline < 0:
                raise StoreCorruption(
                    f"{path}@{offset}: frame missing its terminating "
                    f"newline (torn write)",
                    kind="torn", path=path, offset=offset,
                )
        except StoreCorruption as exc:
            damage = exc
            break
        records.append(record)
        offset = newline + 1
    dropped = 0
    if damage is not None:
        dropped = sum(
            1 for tail_line in data[offset:].splitlines() if tail_line.strip()
        )
    return SegmentScan(path, records, offset, damage, dropped)
