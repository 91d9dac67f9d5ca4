"""Length-prefixed binary wire protocol for the FHE serving layer.

Every message is one *frame*::

    offset  size  field
    0       4     magic  b"FHES"
    4       2     protocol version (big-endian u16)
    6       2     message kind     (big-endian u16)
    8       4     header length    (big-endian u32)
    12      4     payload length   (big-endian u32)
    16      ...   header  — UTF-8 JSON object (routing + metadata)
    ...     ...   payload — raw bytes (ciphertexts / keys / binaries,
                  already self-describing via :mod:`repro.serialization`
                  envelopes or the :mod:`repro.isa` binary format)

Splitting metadata (JSON header) from bulk bytes (payload) keeps the
hot path copy-free: a ciphertext blob is never JSON-escaped, and the
server can reject a frame from its fixed 16-byte prologue — wrong
magic, incompatible version, or a declared size beyond the
receiver's ``max_frame_bytes`` — before buffering anything.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

MAGIC = b"FHES"
PROTOCOL_VERSION = 1

#: Default ceiling on header+payload bytes per frame (16 MiB) — large
#: enough for test-parameter cloud keys, small enough to bound memory
#: per connection.  Both peers can raise it.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

_PROLOGUE = struct.Struct(">4sHHII")
PROLOGUE_SIZE = _PROLOGUE.size


class ProtocolError(Exception):
    """The byte stream is not a well-formed protocol conversation."""


class FrameTooLarge(ProtocolError):
    """A frame declares more bytes than the receiver accepts.

    The server answers these with a BUSY (backpressure) reply rather
    than reading the body.
    """

    def __init__(self, declared: int, limit: int):
        super().__init__(
            f"frame declares {declared} bytes, limit is {limit}"
        )
        self.declared = declared
        self.limit = limit


class MessageKind:
    """Frame kind codes (u16 on the wire)."""

    REGISTER_KEY = 1
    REGISTER_PROGRAM = 2
    CALL = 3
    PING = 4
    METRICS = 5
    REPLY = 100

    _NAMES = {
        1: "REGISTER_KEY",
        2: "REGISTER_PROGRAM",
        3: "CALL",
        4: "PING",
        5: "METRICS",
        100: "REPLY",
    }

    @classmethod
    def name(cls, kind: int) -> str:
        return cls._NAMES.get(kind, f"kind-{kind}")


class Status:
    """Reply status strings (the protocol's HTTP-status analogue)."""

    OK = "OK"
    #: Admission control: queue full or frame over the size limit.
    BUSY = "BUSY"
    #: The request's deadline passed before execution started.
    DEADLINE = "DEADLINE"
    #: Unknown tenant or program id.
    NOT_FOUND = "NOT_FOUND"
    #: Malformed request (bad blob, wrong input width, missing field).
    BAD_REQUEST = "BAD_REQUEST"
    #: Program rejected by the static analyzer.
    REJECTED = "REJECTED"
    #: Unexpected server-side failure.
    ERROR = "ERROR"


@dataclass
class Frame:
    """One decoded wire message."""

    kind: int
    header: Dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""

    @property
    def kind_name(self) -> str:
        return MessageKind.name(self.kind)

    @property
    def status(self) -> str:
        """Reply status; OK-frames may omit the field."""
        return str(self.header.get("status", Status.OK))

    @property
    def ok(self) -> bool:
        return self.status == Status.OK


def encode_frame(
    kind: int,
    header: Optional[Dict[str, Any]] = None,
    payload: bytes = b"",
) -> bytes:
    """Serialize one frame (prologue + JSON header + raw payload)."""
    header_bytes = json.dumps(
        header or {}, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return b"".join(
        (
            _PROLOGUE.pack(
                MAGIC,
                PROTOCOL_VERSION,
                kind,
                len(header_bytes),
                len(payload),
            ),
            header_bytes,
            payload,
        )
    )


def parse_prologue(data: bytes, max_frame_bytes: int) -> tuple:
    """Validate a 16-byte prologue; return ``(kind, hlen, plen)``."""
    if len(data) < PROLOGUE_SIZE:
        raise ProtocolError(
            f"truncated prologue ({len(data)} of {PROLOGUE_SIZE} bytes)"
        )
    magic, version, kind, hlen, plen = _PROLOGUE.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad magic {magic!r}: peer is not speaking the FHE "
            f"serving protocol"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version} unsupported "
            f"(this side speaks {PROTOCOL_VERSION})"
        )
    if hlen + plen > max_frame_bytes:
        raise FrameTooLarge(hlen + plen, max_frame_bytes)
    return kind, hlen, plen


def _decode_header(raw: bytes) -> Dict[str, Any]:
    # ValueError covers bad UTF-8, bad JSON and an integer literal past
    # the int-conversion digit limit; deep nesting raises RecursionError.
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got "
            f"{type(header).__name__}"
        )
    return header


def decode_frame(
    data: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Frame:
    """Decode one complete frame from a byte string."""
    kind, hlen, plen = parse_prologue(data, max_frame_bytes)
    if len(data) != PROLOGUE_SIZE + hlen + plen:
        raise ProtocolError(
            f"frame length mismatch: prologue declares "
            f"{PROLOGUE_SIZE + hlen + plen} bytes, got {len(data)}"
        )
    header = _decode_header(data[PROLOGUE_SIZE:PROLOGUE_SIZE + hlen])
    return Frame(
        kind=kind, header=header, payload=data[PROLOGUE_SIZE + hlen:]
    )


async def read_frame(
    reader, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[Frame]:
    """Read one frame from an ``asyncio.StreamReader``.

    Returns ``None`` on clean EOF (peer closed between frames).
    Raises :class:`FrameTooLarge` *after* the prologue but *before*
    buffering the body, so the caller can still send a backpressure
    reply on the intact write side.
    """
    import asyncio

    try:
        prologue = await reader.readexactly(PROLOGUE_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-prologue "
            f"({len(exc.partial)} of {PROLOGUE_SIZE} bytes)"
        ) from exc
    try:
        kind, hlen, plen = parse_prologue(prologue, max_frame_bytes)
    except FrameTooLarge as exc:
        # Drain the declared body (bounded memory) so the peer can
        # finish sending and still read a backpressure reply on a
        # synchronized stream.
        remaining = exc.declared
        while remaining:
            chunk = await reader.read(min(remaining, 1 << 20))
            if not chunk:
                break
            remaining -= len(chunk)
        raise
    try:
        body = await reader.readexactly(hlen + plen)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame "
            f"({len(exc.partial)} of {hlen + plen} body bytes)"
        ) from exc
    return Frame(
        kind=kind,
        header=_decode_header(body[:hlen]),
        payload=body[hlen:],
    )


def write_frame_sync(
    sock,
    kind: int,
    header: Optional[Dict[str, Any]] = None,
    payload: bytes = b"",
) -> None:
    """Blocking frame send over a ``socket.socket``."""
    sock.sendall(encode_frame(kind, header, payload))


def read_frame_sync(
    sock, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Frame:
    """Blocking frame receive over a ``socket.socket``."""
    prologue = _recv_exactly(sock, PROLOGUE_SIZE)
    kind, hlen, plen = parse_prologue(prologue, max_frame_bytes)
    body = _recv_exactly(sock, hlen + plen)
    return Frame(
        kind=kind,
        header=_decode_header(body[:hlen]),
        payload=body[hlen:],
    )


def _recv_exactly(sock, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed with {remaining} of {count} bytes "
                f"outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
