"""Memcached-style text protocol codec (DESIGN.md §15).

Grammar (ASCII lines terminated ``\\r\\n``; ``<data>`` is a raw byte
block of the declared length followed by ``\\r\\n``)::

    request  = "get" 1*(" " key) CRLF
             / "gets" 1*(" " key) CRLF
             / "set" " " key " " flags " " exptime " " nbytes [" noreply"] CRLF <data> CRLF
             / "delete" " " key [" noreply"] CRLF
             / "touch" " " key " " exptime [" noreply"] CRLF
             / "version" CRLF
             / "quit" CRLF

    response = *( "VALUE" " " key " " flags " " nbytes [" " cas] CRLF <data> CRLF ) "END" CRLF
             / "STORED" / "DELETED" / "NOT_FOUND" / "TOUCHED" CRLF
             / "VERSION" " " token CRLF
             / "ERROR" CRLF
             / "CLIENT_ERROR" " " text CRLF
             / "SERVER_ERROR" " " code " " text CRLF

Both decoders are incremental push parsers: feed them arbitrary byte
chunks (half a line, a line and a half, one huge blob) and they emit
exactly the frames whose bytes have fully arrived, keeping the rest
buffered. Malformed input never raises — it surfaces as
:class:`BadCommand` / an ``ERROR``-kind :class:`Reply` frame, and the
decoder distinguishes *recoverable* damage (an unknown command on an
otherwise well-framed line: skip the line, keep parsing) from *fatal*
damage (framing lost — an unparsable ``set`` header or an unterminated
line past :data:`MAX_LINE_BYTES`: the connection must be closed because
nothing after the damage can be trusted to be a frame boundary).

Fault transport: injected shard failures
(:class:`~repro.errors.ShardFailure` subclasses) cross the wire as
``SERVER_ERROR <code> <message>`` frames and are reconstructed
client-side by :func:`decode_failure`, so the retry/breaker layer sees
the same exception types on both planes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    "MAX_KEY_BYTES",
    "MAX_LINE_BYTES",
    "MAX_VALUE_BYTES",
    "QuitCommand",
    "Reply",
    "RequestDecoder",
    "ResponseDecoder",
    "SetCommand",
    "TouchCommand",
    "Value",
    "VersionCommand",
    "decode_failure",
    "dump_value",
    "encode_failure",
    "load_value",
    "valid_key",
]

CRLF = b"\r\n"

#: memcached's key limit: at most 250 bytes, no whitespace or control chars.
MAX_KEY_BYTES = 250
#: a command/response line longer than this means framing is lost.
MAX_LINE_BYTES = 16_384
#: default cap on one value's payload (memcached's classic 1 MB).
MAX_VALUE_BYTES = 1 << 20

#: value-payload encodings carried in the ``flags`` field.
FLAG_RAW = 0
FLAG_PICKLE = 1

#: wire codes for the injected-failure taxonomy (SERVER_ERROR frames).
_FAILURE_TO_CODE: dict[type, str] = {
    ShardDownError: "down",
    ShardTimeoutError: "timeout",
    ShardFlakyError: "flaky",
}
_CODE_TO_FAILURE: dict[str, type] = {v: k for k, v in _FAILURE_TO_CODE.items()}


# --------------------------------------------------------------------------
# value payloads


def dump_value(value: object) -> tuple[int, bytes]:
    """Serialize one cached value for the wire → ``(flags, payload)``.

    ``bytes`` pass through untouched (``FLAG_RAW``); everything else is
    pickled (``FLAG_PICKLE``) — the planes exchange arbitrary Python
    values (tuples, ints) and equivalence needs exact round-trips.
    """
    if isinstance(value, bytes):
        return FLAG_RAW, value
    import pickle

    return FLAG_PICKLE, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def load_value(flags: int, payload: bytes) -> object:
    """Inverse of :func:`dump_value`."""
    if flags == FLAG_RAW:
        return payload
    if flags == FLAG_PICKLE:
        import pickle

        return pickle.loads(payload)
    raise ProtocolError(f"unknown value flags: {flags}")


_KEY_RE = re.compile("[!-~]{1,%d}" % MAX_KEY_BYTES)


def valid_key(key: str) -> bool:
    """Whether ``key`` is legal on the wire (token, ≤250 bytes, printable)."""
    return isinstance(key, str) and _KEY_RE.fullmatch(key) is not None


def _require_key(key: str) -> bytes:
    if not valid_key(key):
        raise ProtocolError(f"key not wire-safe: {key!r}")
    return key.encode("ascii")


# --------------------------------------------------------------------------
# frames


@dataclass(frozen=True)
class GetCommand:
    """``get``/``gets`` — one wire round-trip for any number of keys."""

    keys: tuple[str, ...]
    cas: bool = False

    def encode(self) -> bytes:
        verb = b"gets " if self.cas else b"get "
        return verb + b" ".join(_require_key(k) for k in self.keys) + CRLF


@dataclass(frozen=True)
class SetCommand:
    key: str
    flags: int
    exptime: int
    data: bytes
    noreply: bool = False

    def encode(self) -> bytes:
        head = b"set %s %d %d %d%s\r\n" % (
            _require_key(self.key),
            self.flags,
            self.exptime,
            len(self.data),
            b" noreply" if self.noreply else b"",
        )
        return head + self.data + CRLF


@dataclass(frozen=True)
class DeleteCommand:
    key: str
    noreply: bool = False

    def encode(self) -> bytes:
        tail = b" noreply\r\n" if self.noreply else CRLF
        return b"delete " + _require_key(self.key) + tail


@dataclass(frozen=True)
class TouchCommand:
    key: str
    exptime: int = 0
    noreply: bool = False

    def encode(self) -> bytes:
        return b"touch %s %d%s\r\n" % (
            _require_key(self.key),
            self.exptime,
            b" noreply" if self.noreply else b"",
        )


@dataclass(frozen=True)
class VersionCommand:
    def encode(self) -> bytes:
        return b"version\r\n"


@dataclass(frozen=True)
class QuitCommand:
    def encode(self) -> bytes:
        return b"quit\r\n"


@dataclass(frozen=True)
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


Command = (
    GetCommand
    | SetCommand
    | DeleteCommand
    | TouchCommand
    | VersionCommand
    | QuitCommand
    | BadCommand
)


@dataclass(frozen=True)
class Value:
    """One ``VALUE`` frame of a get response."""

    key: str
    flags: int
    data: bytes
    cas: int | None = None

    def encode(self) -> bytes:
        if self.cas is None:
            head = b"VALUE %s %d %d\r\n" % (
                self.key.encode("ascii"),
                self.flags,
                len(self.data),
            )
        else:
            head = b"VALUE %s %d %d %d\r\n" % (
                self.key.encode("ascii"),
                self.flags,
                len(self.data),
                self.cas,
            )
        return head + self.data + CRLF


@dataclass(frozen=True)
class Reply:
    """Any non-VALUE response frame.

    ``kind`` is the leading token (``STORED``, ``DELETED``,
    ``NOT_FOUND``, ``TOUCHED``, ``VERSION``, ``END``, ``ERROR``,
    ``CLIENT_ERROR``, ``SERVER_ERROR``); ``values`` is populated on
    ``END`` replies with the VALUE frames that preceded the terminator.
    """

    kind: str
    message: str = ""
    values: tuple[Value, ...] = field(default=())

    @property
    def is_error(self) -> bool:
        return self.kind in ("ERROR", "CLIENT_ERROR", "SERVER_ERROR")

    def encode(self) -> bytes:
        body = b"".join(v.encode() for v in self.values)
        if self.message:
            return body + self.kind.encode("ascii") + b" " + self.message.encode("ascii") + CRLF
        return body + self.kind.encode("ascii") + CRLF


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


class _LineBuffer:
    """Shared incremental framing: CRLF lines + counted data blocks.

    ``readline`` returns ``None`` while incomplete, raises nothing, and
    flags overlong lines through ``overflowed`` so the owner can go
    fatal instead of buffering unboundedly. Reads advance an offset;
    the owner calls ``compact`` once at the end of each ``feed`` to drop
    the consumed prefix, so a batch of frames costs one buffer shift.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0  # bytes before this offset are consumed
        self._scan = 0  # >= _pos; no line feed in [_pos, _scan)
        self.overflowed = False

    def feed(self, data: bytes) -> None:
        self._buf += data

    def compact(self) -> None:
        pos = self._pos
        if pos:
            del self._buf[:pos]
            self._scan -= pos
            self._pos = 0

    def readline(self) -> bytes | None:
        buf = self._buf
        idx = buf.find(b"\n", self._scan)
        if idx < 0:
            self._scan = len(buf)
            if self._scan - self._pos > MAX_LINE_BYTES:
                self.overflowed = True
            return None
        pos = self._pos
        self._pos = self._scan = idx + 1
        if idx > pos and buf[idx - 1] == 13:  # strip the CR of CRLF
            idx -= 1
        if idx - pos > MAX_LINE_BYTES:
            self.overflowed = True
        return bytes(buf[pos:idx])

    def readblock(self, nbytes: int) -> bytes | None:
        """A counted data block + its trailing CRLF (``None`` if short)."""
        buf = self._buf
        pos = self._pos
        end = pos + nbytes
        if len(buf) < end + 2:
            return None
        self._pos = self._scan = end + 2
        if buf[end : end + 2] != CRLF:
            raise ProtocolError("data block not CRLF-terminated")
        return bytes(buf[pos:end])

    def pending(self) -> int:
        return len(self._buf) - self._pos


class RequestDecoder:
    """Server-side incremental parser: bytes in, :data:`Command`\\ s out."""

    def __init__(self, max_value_bytes: int = MAX_VALUE_BYTES) -> None:
        self._lines = _LineBuffer()
        self.max_value_bytes = max_value_bytes
        self._pending_set: SetCommand | None = None
        self._pending_nbytes = 0
        self._discard_reason: BadCommand | None = None
        self._broken = False

    @property
    def broken(self) -> bool:
        """Whether a fatal frame was emitted (owner must close)."""
        return self._broken

    def feed(self, data: bytes) -> list[Command]:
        if self._broken:
            return []
        self._lines.feed(data)
        out: list[Command] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                break
            out.append(frame)
            if isinstance(frame, BadCommand) and frame.fatal:
                self._broken = True
                break
        self._lines.compact()
        return out

    def _next_frame(self) -> Command | None:
        if self._pending_set is not None or self._discard_reason is not None:
            return self._finish_block()
        line = self._lines.readline()
        if line is None:
            if self._lines.overflowed:
                return BadCommand(
                    "line exceeds maximum length", fatal=True
                )
            return None
        if not line:
            return BadCommand("empty command line")
        return self._parse_line(line)

    def _finish_block(self) -> Command | None:
        nbytes = self._pending_nbytes
        try:
            block = self._lines.readblock(nbytes)
        except ProtocolError:
            self._pending_set = None
            self._discard_reason = None
            return BadCommand("bad data chunk", fatal=True)
        if block is None:
            return None
        if self._discard_reason is not None:
            frame, self._discard_reason = self._discard_reason, None
            return frame
        cmd = self._pending_set
        assert cmd is not None
        self._pending_set = None
        return SetCommand(cmd.key, cmd.flags, cmd.exptime, block, cmd.noreply)

    def _parse_line(self, line: bytes) -> Command:
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError:
            return BadCommand("command line is not ascii")
        parts = text.split()
        verb = parts[0] if parts else ""
        if verb in ("get", "gets"):
            keys = parts[1:]
            if not keys:
                return BadCommand("get needs at least one key")
            if not all(map(valid_key, keys)):
                return BadCommand("bad key")
            return GetCommand(tuple(keys), cas=(verb == "gets"))
        if verb == "set":
            return self._parse_set(parts)
        if verb == "delete":
            noreply = parts[-1] == "noreply"
            keys = parts[1 : len(parts) - (1 if noreply else 0)]
            if len(keys) != 1 or not valid_key(keys[0]):
                return BadCommand("delete needs exactly one key")
            return DeleteCommand(keys[0], noreply=noreply)
        if verb == "touch":
            noreply = parts[-1] == "noreply"
            args = parts[1 : len(parts) - (1 if noreply else 0)]
            if len(args) != 2 or not valid_key(args[0]):
                return BadCommand("touch needs a key and an exptime")
            try:
                exptime = int(args[1])
            except ValueError:
                return BadCommand("bad exptime")
            return TouchCommand(args[0], exptime, noreply=noreply)
        if verb == "version" and len(parts) == 1:
            return VersionCommand()
        if verb == "quit" and len(parts) == 1:
            return QuitCommand()
        return BadCommand(f"unknown command: {verb!r}", kind="ERROR")

    def _parse_set(self, parts: list[str]) -> Command:
        noreply = parts[-1] == "noreply"
        args = parts[1 : len(parts) - (1 if noreply else 0)]
        if len(args) != 4:
            # The byte count is unreadable, so the data block that
            # follows cannot be skipped: framing is lost.
            return BadCommand("bad set header", fatal=True)
        key, flags_s, exptime_s, nbytes_s = args
        try:
            flags, exptime, nbytes = int(flags_s), int(exptime_s), int(nbytes_s)
        except ValueError:
            return BadCommand("bad set header", fatal=True)
        if nbytes < 0:
            return BadCommand("bad set header", fatal=True)
        self._pending_nbytes = nbytes
        if nbytes > self.max_value_bytes:
            # Recoverable: the length is known, so the oversized block
            # is consumed and discarded, then the error frame surfaces.
            self._discard_reason = BadCommand("object too large for cache")
            return self._finish_block()
        if not valid_key(key):
            self._discard_reason = BadCommand("bad key")
            return self._finish_block()
        self._pending_set = SetCommand(key, flags, exptime, b"", noreply)
        return self._finish_block()


class ResponseDecoder:
    """Client-side incremental parser: bytes in, :class:`Reply`\\ s out.

    VALUE frames accumulate until their ``END`` terminator and come out
    as one ``Reply("END", values=...)`` — one reply per pipelined
    request, in request order. An error line received while VALUE
    frames are pending terminates that response as the error (the
    server aborts a multi-get by replying with a single error frame).
    """

    _SIMPLE = frozenset(
        ["STORED", "NOT_STORED", "DELETED", "NOT_FOUND", "TOUCHED", "END", "ERROR", "OK"]
    )

    def __init__(self, max_value_bytes: int = MAX_VALUE_BYTES) -> None:
        self._lines = _LineBuffer()
        self.max_value_bytes = max_value_bytes
        self._values: list[Value] = []
        #: header of the VALUE whose data block is awaited: key, flags, cas, nbytes
        self._pending_value: tuple[str, int, int | None, int] | None = None
        self._broken = False

    @property
    def broken(self) -> bool:
        return self._broken

    @property
    def idle(self) -> bool:
        """Whether every byte fed so far belonged to a reply already emitted."""
        return not (self._lines.pending() or self._values or self._pending_value)

    def feed(self, data: bytes) -> list[Reply]:
        if self._broken:
            return []
        self._lines.feed(data)
        out: list[Reply] = []
        while True:
            try:
                reply = self._next_reply()
            except ProtocolError as exc:
                self._broken = True
                out.append(Reply("CLIENT_ERROR", str(exc)))
                break
            if reply is None:
                break
            out.append(reply)
        self._lines.compact()
        return out

    def _next_reply(self) -> Reply | None:
        lines = self._lines
        while True:
            if self._pending_value is not None:
                key, flags, cas, nbytes = self._pending_value
                block = lines.readblock(nbytes)
                if block is None:
                    return None
                self._pending_value = None
                self._values.append(Value(key, flags, block, cas))
            line = lines.readline()
            if line is None:
                if lines.overflowed:
                    raise ProtocolError("response line exceeds maximum length")
                return None
            text = line.decode("ascii", errors="replace")
            parts = text.split()
            kind = parts[0] if parts else ""
            if kind == "VALUE":
                self._start_value(parts)
                continue
            if kind == "END":
                values, self._values = tuple(self._values), []
                return Reply("END", values=values)
            if kind in self._SIMPLE:
                if self._values:
                    raise ProtocolError(f"{kind} interleaved with VALUE frames")
                return Reply(kind)
            if kind in ("CLIENT_ERROR", "SERVER_ERROR", "VERSION"):
                # An error aborts any multi-get in flight; partial values drop.
                self._values = []
                return Reply(kind, text[len(kind) + 1 :])
            raise ProtocolError(f"unparsable response line: {text!r}")

    def _start_value(self, parts: list[str]) -> None:
        if len(parts) not in (4, 5):
            raise ProtocolError("bad VALUE header")
        try:
            flags, nbytes = int(parts[2]), int(parts[3])
            cas = int(parts[4]) if len(parts) == 5 else None
        except ValueError:
            raise ProtocolError("bad VALUE header") from None
        if nbytes < 0 or nbytes > self.max_value_bytes:
            raise ProtocolError("VALUE payload exceeds maximum size")
        self._pending_value = (parts[1], flags, cas, nbytes)
