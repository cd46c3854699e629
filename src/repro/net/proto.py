"""Memcached-style text protocol codec (DESIGN.md §15).

Grammar (ASCII lines terminated ``\\r\\n``; ``<data>`` is a raw byte
block of the declared length followed by ``\\r\\n``; every numeric field
is ``[0-9]+`` and nothing else — no sign, underscore or padding)::

    request  = "get" 1*(" " key) CRLF
             / "set" " " key " " flags " " exptime " " nbytes [" noreply"] CRLF <data> CRLF
             / "delete" " " key [" noreply"] CRLF
             / "quit" CRLF

    response = *( "VALUE" " " key " " flags " " nbytes CRLF <data> CRLF ) "END" CRLF
             / "STORED" / "DELETED" / "NOT_FOUND" CRLF
             / "ERROR" CRLF
             / "CLIENT_ERROR" " " text CRLF
             / "SERVER_ERROR" " " code " " text CRLF

Both decoders are incremental push parsers: feed them arbitrary byte
chunks (half a line, a line and a half, one huge blob) and they emit
exactly the frames whose bytes have fully arrived. A chunk is parsed
**where it lies** — lines are found, split and compared as bytes, each
field read once — and only the tail of a frame that has not ended is
copied aside, the next chunk appended to it. A chunk arriving with nothing
held is scanned first: each one-key ``get``/``set``/``delete`` (bare reply
line, get reply) is one match where it lies, up to the first byte that
starts none; the general loop takes the rest, and makes every refusal.
The request verbs are the ones the client sends, plus ``quit``; any
other verb (memcached's ``gets``, ``touch`` or ``version`` among them)
is an unknown command, answered ``ERROR``.
Malformed input never raises — it surfaces as :class:`BadCommand` / an ``ERROR``-kind
:class:`Reply` frame, and the decoder distinguishes *recoverable* damage
(an unknown command on an otherwise well-framed line: skip the line,
keep parsing; a ``set`` with a readable length but a refused key, flags
or size: skip its block too) from *fatal* damage (framing lost — an
unparsable ``set`` header, a line past :data:`MAX_LINE_BYTES`, a block
without its CRLF: the connection must be closed because nothing after
the damage can be trusted to be a frame boundary).

Values are opaque here and at the shard server, which stores the
``(flags, payload)`` pair a ``set`` carried and echoes it on ``get``.
Only the client edge reads a payload, with the closed tag codec of
:func:`dump_value` / :func:`load_value`: the flags name one of six plain
types, and no payload a peer sends can make either end run code.

Fault transport: injected shard failures
(:class:`~repro.errors.ShardFailure` subclasses) cross the wire as
``SERVER_ERROR <code> <message>`` frames and are reconstructed
client-side by :func:`decode_failure`, so the retry/breaker layer sees
the same exception types on both planes.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import (
    ProtocolError,
    ShardDownError,
    ShardFailure,
    ShardFlakyError,
    ShardTimeoutError,
)

__all__ = [
    "BadCommand",
    "DeleteCommand",
    "GetCommand",
    "MAX_FLAGS",
    "MAX_KEY_BYTES",
    "MAX_LINE_BYTES",
    "MAX_VALUE_BYTES",
    "QuitCommand",
    "Reply",
    "RequestDecoder",
    "ResponseDecoder",
    "SetCommand",
    "Value",
    "decode_failure",
    "delete_frame",
    "dump_value",
    "encode_failure",
    "encode_value",
    "get_frame",
    "get_frames",
    "load_value",
    "set_frame",
    "valid_key",
]

CRLF = b"\r\n"

#: memcached's key limit: at most 250 bytes, no whitespace or control chars.
MAX_KEY_BYTES = 250
#: a command/response line longer than this means framing is lost.
MAX_LINE_BYTES = 16_384
#: default cap on one value's payload (memcached's classic 1 MB).
MAX_VALUE_BYTES = 1 << 20
#: client flags are an unsigned 32-bit field, as in memcached.
MAX_FLAGS = (1 << 32) - 1

#: wire codes for the injected-failure taxonomy (SERVER_ERROR frames).
_FAILURE_TO_CODE: dict[type, str] = {
    ShardDownError: "down",
    ShardTimeoutError: "timeout",
    ShardFlakyError: "flaky",
}
_CODE_TO_FAILURE: dict[str, type] = {v: k for k, v in _FAILURE_TO_CODE.items()}


# --------------------------------------------------------------------------
# value payloads: the closed tag codec of the client edge

FLAG_RAW = 0
FLAG_TUPLE = 5

_DOUBLE = struct.Struct(">d")
_ITEM = struct.Struct(">BI")


def _load_none(payload: bytes) -> None:
    if payload:
        raise ValueError("None carries no payload")


_DUMP: dict[type, tuple[int, Callable[[Any], bytes]]] = {
    bytes: (FLAG_RAW, bytes),
    str: (1, lambda value: value.encode("utf-8", "surrogatepass")),
    int: (2, lambda value: value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)),
    float: (3, _DOUBLE.pack),
    type(None): (4, lambda value: b""),
}
_LOAD: dict[int, Callable[[bytes], Any]] = {
    FLAG_RAW: bytes,
    1: lambda payload: str(payload, "utf-8", "surrogatepass"),
    2: lambda payload: int.from_bytes(payload, "big", signed=True),
    3: lambda payload: _DOUBLE.unpack(payload)[0],
    4: _load_none,
}


def dump_value(value: object) -> tuple[int, bytes]:
    """Serialize one cached value for the wire → ``(flags, payload)``::

        0  bytes  the bytes themselves        3  float  IEEE-754 double, big endian
        1  str    UTF-8 (surrogates pass)     4  None   empty
        2  int    two's complement, big end.  5  tuple  per item: tag 0-4, u32 length, payload

    These, by exact type, round-trip exactly; anything else (a list, a
    ``bool``, a nested tuple, a subclass) raises ``ProtocolError`` before
    a byte is sent.
    """
    codec = _DUMP.get(type(value))
    if codec is not None:
        return codec[0], codec[1](value)
    if type(value) is not tuple:
        raise ProtocolError(f"value not wire-safe: {type(value).__name__}")
    parts = []
    for item in value:
        codec = _DUMP.get(type(item))
        if codec is None:
            raise ProtocolError(f"tuple item not wire-safe: {type(item).__name__}")
        payload = codec[1](item)
        parts += _ITEM.pack(codec[0], len(payload)), payload
    return FLAG_TUPLE, b"".join(parts)


def load_value(flags: int, payload: bytes) -> object:
    """Inverse of :func:`dump_value`; junk raises ``ProtocolError``."""
    try:
        if flags != FLAG_TUPLE:
            return _LOAD[flags](payload)
        items, pos, size = [], 0, len(payload)
        while pos < size:
            tag, length = _ITEM.unpack_from(payload, pos)
            pos += _ITEM.size + length
            if pos > size:
                raise ValueError("tuple item runs past the payload")
            items.append(_LOAD[tag](payload[pos - length : pos]))
        return tuple(items)
    except (KeyError, ValueError, struct.error) as exc:
        raise ProtocolError(f"undecodable value under flags {flags}: {exc!r}") from None


_KEY = rb"([!-~]{1,%d})" % MAX_KEY_BYTES
_KEY_RE = re.compile(_KEY)


def valid_key(key: str) -> bool:
    """Whether ``key`` is legal on the wire (token, ≤250 bytes, printable).

    The rule of :data:`_KEY_RE` (``[!-~]{1,250}``) read off the ``str``: an
    ASCII character is printable from space to ``~``, and space is out.
    """
    return (
        isinstance(key, str)
        and 0 < len(key) <= MAX_KEY_BYTES
        and key.isascii()
        and key.isprintable()
        and " " not in key
    )


def _wire_key(key: str) -> bytes:
    """``key`` as it goes on the wire: checked, then encoded once."""
    if valid_key(key):
        return key.encode()
    raise ProtocolError(f"key not wire-safe: {key!r}")


def _numbers(fields: list[bytes]) -> list[int] | None:
    """Header fields as integers; ``None`` unless each is ``[0-9]+`` (``int()`` takes more)."""
    if not b"".join(fields).isdigit():  # split() leaves no empty field to hide in the join
        return None
    try:
        return list(map(int, fields))
    except ValueError:  # more digits than int() converts
        return None


# --------------------------------------------------------------------------
# request layouts: each verb's frame is formatted here and nowhere else


def get_frame(keys: Iterable[str]) -> bytes:
    """The ``get`` frame asking for ``keys``."""
    return b"get " + b" ".join(map(_wire_key, keys)) + CRLF


def get_frames(keys: list[str]) -> list[bytes]:
    """``get`` frames asking for ``keys`` in order, as few as keep each line
    within :data:`MAX_LINE_BYTES` (a key's characters are its wire bytes)."""
    frames, start, size = [], 0, len(b"get")
    for at, key in enumerate(keys):
        size += 1 + len(key)
        if size > MAX_LINE_BYTES and at > start:
            frames.append(get_frame(keys[start:at]))
            start, size = at, len(b"get ") + len(key)
    frames.append(get_frame(keys[start:]))
    return frames


def set_frame(key: str, flags: int, exptime: int, data: bytes, noreply: bool = False) -> bytes:
    """The ``set`` frame storing ``data`` under ``key``: header line, block, CRLF."""
    return b"set %b %d %d %d%b\r\n%b\r\n" % (
        _wire_key(key),
        flags,
        exptime,
        len(data),
        b" noreply" if noreply else b"",
        data,
    )


def delete_frame(key: str, noreply: bool = False) -> bytes:
    """The ``delete`` frame for ``key``."""
    return b"delete " + _wire_key(key) + (b" noreply\r\n" if noreply else CRLF)


# --------------------------------------------------------------------------
# frames


@dataclass(slots=True)
class GetCommand:
    """``get`` — one wire round-trip for any number of keys."""

    keys: tuple[str, ...]

    def encode(self) -> bytes:
        return get_frame(self.keys)


@dataclass(slots=True)
class SetCommand:
    key: str
    flags: int
    exptime: int
    data: bytes
    noreply: bool = False

    def encode(self) -> bytes:
        return set_frame(self.key, self.flags, self.exptime, self.data, self.noreply)


@dataclass(slots=True)
class DeleteCommand:
    key: str
    noreply: bool = False

    def encode(self) -> bytes:
        return delete_frame(self.key, self.noreply)


@dataclass(slots=True)
class QuitCommand:
    def encode(self) -> bytes:
        return b"quit\r\n"


@dataclass(slots=True)
class BadCommand:
    """Decoder-synthesized frame for input that was not a command.

    ``fatal`` means framing is lost (the server must close the
    connection after replying); non-fatal damage skips one line.
    ``kind`` picks the error reply family: ``"ERROR"`` for an unknown
    verb, ``"CLIENT_ERROR"`` for a recognized verb used wrongly.
    """

    message: str
    kind: str = "CLIENT_ERROR"
    fatal: bool = False


Command = GetCommand | SetCommand | DeleteCommand | QuitCommand | BadCommand


#: reply layouts: each reply the server sends is formatted here and nowhere else
STORED_REPLY = b"STORED\r\n"
DELETED_REPLY = b"DELETED\r\n"
NOT_FOUND_REPLY = b"NOT_FOUND\r\n"
END_REPLY = b"END\r\n"  # a get reply that found nothing


def encode_value(key: str, flags: int, data: bytes) -> bytes:
    """One ``VALUE`` frame: header line, data block, CRLF."""
    return b"VALUE %b %d %d\r\n%b\r\n" % (key.encode("ascii"), flags, len(data), data)


def value_reply(key: str, flags: int, data: bytes) -> bytes:
    """The reply to a one-key ``get`` that found ``data``: its ``VALUE`` frame, then ``END``."""
    return b"VALUE %b %d %d\r\n%b\r\nEND\r\n" % (key.encode("ascii"), flags, len(data), data)


@dataclass(slots=True)
class Value:
    """One ``VALUE`` frame of a get response."""

    key: str
    flags: int
    data: bytes

    def encode(self) -> bytes:
        return encode_value(self.key, self.flags, self.data)


@dataclass(slots=True)
class Reply:
    """Any non-VALUE response frame.

    ``kind`` is the leading token (``STORED``, ``DELETED``,
    ``NOT_FOUND``, ``END``, ``ERROR``, ``CLIENT_ERROR``,
    ``SERVER_ERROR``); ``values`` is populated on
    ``END`` replies with the VALUE frames that preceded the terminator.
    """

    kind: str
    message: str = ""
    values: tuple[Value, ...] = ()

    @property
    def is_error(self) -> bool:
        return self.kind in ("ERROR", "CLIENT_ERROR", "SERVER_ERROR")

    def encode(self) -> bytes:
        line = f"{self.kind} {self.message}" if self.message else self.kind
        # Error text is whatever an exception said: never let it fail to encode.
        tail = line.encode("ascii", "backslashreplace") + CRLF
        return b"".join([v.encode() for v in self.values]) + tail


def encode_failure(exc: ShardFailure) -> Reply:
    """An injected shard failure as its ``SERVER_ERROR`` wire frame."""
    code = _FAILURE_TO_CODE.get(type(exc), "down")
    message = str(exc).replace("\r", " ").replace("\n", " ")
    return Reply("SERVER_ERROR", f"{code} {message}".strip())


def decode_failure(reply: Reply) -> ShardFailure:
    """Reconstruct the shard-side exception a ``SERVER_ERROR`` carries."""
    code, _, message = reply.message.partition(" ")
    cls = _CODE_TO_FAILURE.get(code, ShardDownError)
    return cls(message or code)


# --------------------------------------------------------------------------
# incremental decoders


class _FrameDecoder:
    """The framing both decoders share: CRLF lines and counted data blocks.

    :meth:`feed` walks the received chunk in place. A subclass turns each
    line into a frame (``_on_line``; ``None`` when the line only opened
    something, setting ``_block`` when a data block follows), each data
    block likewise (``_on_block``), and names the two frames that report
    lost framing. What is left of an unfinished frame is copied into
    ``_held`` once, later chunks are appended to it, and it is parsed —
    once — when its end has arrived, so the bytes copied stay linear in
    the bytes received however a peer slices them.
    """

    def __init__(self, max_value_bytes: int = MAX_VALUE_BYTES) -> None:
        self.max_value_bytes = max_value_bytes
        self._held = bytearray()  # the bytes so far of a frame that has not ended
        self._scan = 0  # no line feed in _held[:_scan]
        self._block = -1  # length of the data block awaited; -1: a line is awaited
        self._head = None  # what that block belongs to, as the subclass parsed its line
        self.broken = False  # framing was lost: the owner must close, nothing more comes out

    @property
    def pending(self) -> int:
        """Bytes received that belong to a frame not yet emitted."""
        return len(self._held)

    def _lost(self, frame):
        """Framing is lost: ``frame`` says so, and is the last one emitted."""
        self.broken = True
        self._held.clear()
        return frame

    def feed(self, data: bytes) -> list:
        if self.broken:
            return []
        held = self._held
        if held:
            held += data
            if self._block >= 0:
                if len(held) < self._block + 2:
                    return []
            elif held.find(b"\n", self._scan) < 0 and len(held) - 1 <= MAX_LINE_BYTES:
                self._scan = len(held)
                return []
            data = bytes(held)
            held.clear()
        out: list = []
        pos, size = 0, len(data)
        while True:
            block = self._block
            if block >= 0:
                end = pos + block
                if size < end + 2:
                    break
                if data[end : end + 2] != CRLF:
                    out.append(self._lost(self._BAD_BLOCK))
                    break
                self._block = -1
                frame = self._on_block(data[pos:end])
                pos = end + 2
            else:
                end = data.find(b"\n", pos)
                stop = end - 1 if end > pos and data[end - 1] == 13 else end  # CR of CRLF
                # Unterminated, one byte of grace: the last may be the CR of a CRLF to come.
                if (stop - pos if end >= 0 else size - pos - 1) > MAX_LINE_BYTES:
                    out.append(self._lost(self._LINE_TOO_LONG))
                    break
                if end < 0:
                    break
                frame = self._on_line(data[pos:stop])
                pos = end + 1
            if frame is not None:
                out.append(frame)
                if self.broken:
                    break
        if pos < size and not self.broken:
            held += memoryview(data)[pos:]
            self._scan = len(held)
        return out


def _refusal(line: bytes, problem: str, kind: str = "CLIENT_ERROR") -> BadCommand:
    """A recoverable error frame for ``line``; not being ASCII outranks any other problem."""
    if line.isascii():
        return BadCommand(problem, kind)
    return BadCommand("command line is not ascii")


# The scan's shapes, each parsed and checked by one match (the key rule, digits-only fields; 20
# digits at most keep int() and the line limit out of reach): any near miss stops the scan.
_REQUEST = re.compile(
    rb"get %b\r\n"  # 1: key
    rb"|delete (?!noreply\r\n)%b( noreply)?\r\n"  # 2: key, 3: noreply
    rb"|set %b ([0-9]{1,20}) ([0-9]{1,20}) ([0-9]{1,20})( noreply)?\r\n"  # 4-8
    % (_KEY, _KEY, _KEY)
)
_VALUE = re.compile(rb"VALUE %b ([0-9]{1,20}) ([0-9]{1,20})\r\n" % _KEY)


class RequestDecoder(_FrameDecoder):
    """Server-side incremental parser: bytes in, :data:`Command`\\ s out."""

    _LINE_TOO_LONG = BadCommand("line exceeds maximum length", fatal=True)
    _BAD_BLOCK = BadCommand("bad data chunk", fatal=True)

    def feed(self, data: bytes) -> list:
        # With nothing held or awaited, each one-key get, set or delete is one match
        # where it lies; from the first byte that starts none, the general loop's.
        if self._held or self._block >= 0 or self.broken:
            return _FrameDecoder.feed(self, data)
        out: list = []
        pos, frame = 0, _REQUEST.match(data)
        while frame is not None:
            which = frame.lastindex
            if which == 1:
                out.append(GetCommand((frame[1].decode(),)))
                pos = frame.end()
            elif which <= 3:
                out.append(DeleteCommand(frame[2].decode(), which == 3))
                pos = frame.end()
            else:
                key, flags, exptime, nbytes = frame.group(4, 5, 6, 7)
                start, flags = frame.end(), int(flags)
                end = start + int(nbytes)
                if end - start > self.max_value_bytes or flags > MAX_FLAGS or data[end : end + 2] != CRLF:
                    break  # a refusal, a block yet to arrive, or damage
                out.append(SetCommand(key.decode(), flags, int(exptime), data[start:end], which == 8))
                pos = end + 2
            if pos == len(data):
                return out
            frame = _REQUEST.match(data, pos)
        return out + _FrameDecoder.feed(self, data[pos:])

    def _on_block(self, block: bytes) -> Command:
        # ``(key, flags, exptime, noreply)`` of the ``set`` this block ends,
        # or the refusal to emit now that the block has been skipped.
        head = self._head
        if type(head) is BadCommand:
            return head
        key, flags, exptime, noreply = head
        return SetCommand(key, flags, exptime, block, noreply)

    def _on_line(self, line: bytes) -> Command | None:
        parts = line.split()
        verb = parts[0] if parts else b""
        if verb == b"get":
            keys = parts[1:]
            if keys and all(map(_KEY_RE.fullmatch, keys)):
                return GetCommand(tuple(map(bytes.decode, keys)))
            return _refusal(line, "bad key" if keys else "get needs at least one key")
        if verb == b"set":
            return self._on_set(line, parts)
        if verb == b"delete":
            noreply = parts[-1] == b"noreply"
            if len(parts) - noreply == 2 and _KEY_RE.fullmatch(parts[1]):
                return DeleteCommand(parts[1].decode(), noreply)
            return _refusal(line, "delete needs exactly one key")
        if verb == b"quit" and len(parts) == 1:
            return QuitCommand()
        if not line:
            return BadCommand("empty command line")
        return _refusal(line, f"unknown command: {verb.decode('ascii', 'replace')!r}", "ERROR")

    def _on_set(self, line: bytes, parts: list[bytes]) -> Command | None:
        noreply = parts[-1] == b"noreply"
        numbers = _numbers(parts[2:5]) if len(parts) - noreply == 5 else None
        if numbers is None:
            problem = "bad set header"
        elif numbers[2] > self.max_value_bytes:
            problem = "object too large for cache"
        elif not _KEY_RE.fullmatch(parts[1]):
            problem = "bad key"
        elif numbers[0] > MAX_FLAGS:
            problem = "flags exceed 32 bits"
        else:
            self._head = (parts[1].decode(), numbers[0], numbers[1], noreply)
            self._block = numbers[2]
            return None
        if not line.isascii():
            return _refusal(line, problem)  # as any such line: skipped, and nothing after it
        if numbers is None:
            # The byte count is unreadable, so the data block that
            # follows cannot be skipped: framing is lost.
            return self._lost(BadCommand(problem, fatal=True))
        # Recoverable: the length is known, so the refused block is
        # consumed and discarded, then the error frame surfaces.
        self._head = BadCommand(problem)
        self._block = numbers[2]
        return None


#: reply lines that are one bare token / a token and free text
_BARE_REPLIES = {kind.encode(): kind for kind in ("STORED", "DELETED", "NOT_FOUND", "ERROR")}
_TEXT_REPLIES = {kind.encode(): kind for kind in ("CLIENT_ERROR", "SERVER_ERROR")}
#: a bare reply line with its CRLF (``END`` too, closing no values)
_WHOLE_LINES = {line + CRLF: kind for line, kind in [*_BARE_REPLIES.items(), (b"END", "END")]}


class ResponseDecoder(_FrameDecoder):
    """Client-side incremental parser: bytes in, :class:`Reply`\\ s out.

    VALUE frames accumulate until their ``END`` terminator and come out
    as one ``Reply("END", values=...)`` — one reply per pipelined
    request, in request order. An error line received while VALUE
    frames are pending terminates that response as the error (the
    server aborts a multi-get by replying with a single error frame).
    """

    _LINE_TOO_LONG = Reply("CLIENT_ERROR", "response line exceeds maximum length")
    _BAD_BLOCK = Reply("CLIENT_ERROR", "data block not CRLF-terminated")

    def __init__(self, max_value_bytes: int = MAX_VALUE_BYTES) -> None:
        super().__init__(max_value_bytes)
        self._values: list[Value] = []

    def feed(self, data: bytes) -> list:
        # With nothing held, awaited or pending, a chunk that is one bare reply line is one
        # lookup; else each bare line and get reply where it lies, up to one it cannot close.
        if self._held or self._values or self._block >= 0 or self.broken:
            return _FrameDecoder.feed(self, data)
        kind = _WHOLE_LINES.get(data)
        if kind is not None:
            return [Reply(kind)]
        out: list = []
        pos, head = 0, _VALUE.match(data)
        while True:
            if head is None:  # a bare reply line, or where the scan stops
                end = data.find(b"\n", pos) + 1
                kind = _WHOLE_LINES.get(data[pos:end])
                if kind is None:
                    break
                out.append(Reply(kind))
                pos = end
            else:  # a get reply: its VALUE frames, then END
                values = []
                while head is not None:
                    key, flags, nbytes = head.groups()
                    start = head.end()
                    end = start + int(nbytes)
                    if end - start > self.max_value_bytes:
                        break
                    values.append(Value(key.decode(), int(flags), data[start:end]))
                    if data[end : end + 7] == b"\r\nEND\r\n":  # its CRLF, then END
                        out.append(Reply("END", "", tuple(values)))
                        pos = end + 7
                        break
                    head = _VALUE.match(data, end + 2) if data[end : end + 2] == CRLF else None
                if pos < end:  # not closed: the loop takes this reply from its first byte
                    break
            if pos == len(data):
                return out
            head = _VALUE.match(data, pos)
        return out + _FrameDecoder.feed(self, data[pos:])

    @property
    def idle(self) -> bool:
        """Whether every byte fed so far belonged to a reply already emitted."""
        return not (self._held or self._values or self._block >= 0)

    def _on_block(self, block: bytes) -> None:
        key, flags = self._head
        self._values.append(Value(key, flags, block))

    def _on_line(self, line: bytes) -> Reply | None:
        parts = line.split()
        kind = parts[0] if parts else b""
        if kind == b"VALUE":
            numbers = _numbers(parts[2:]) if len(parts) == 4 else None
            if numbers is None:
                problem = "bad VALUE header"
            elif numbers[1] > self.max_value_bytes:
                problem = "VALUE payload exceeds maximum size"
            else:
                self._head = (parts[1].decode("ascii", "replace"), numbers[0])
                self._block = numbers[1]
                return None
        elif kind == b"END":
            values, self._values = tuple(self._values), []
            return Reply("END", "", values)
        elif kind in _BARE_REPLIES:
            if not self._values:
                return Reply(_BARE_REPLIES[kind])
            problem = f"{_BARE_REPLIES[kind]} interleaved with VALUE frames"
        elif kind in _TEXT_REPLIES:
            # An error aborts any multi-get in flight; partial values drop.
            self._values = []
            return Reply(_TEXT_REPLIES[kind], line[len(kind) + 1 :].decode("ascii", "replace"))
        else:
            problem = f"unparsable response line: {line.decode('ascii', 'replace')!r}"
        return self._lost(Reply("CLIENT_ERROR", problem))
