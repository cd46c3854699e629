"""The wire decoders as they stood before the one-pass rewrite (PR 16).

A reference implementation the differential test in ``test_net_proto.py``
compares :mod:`repro.net.proto` against; nothing ships from here.
``_LineBuffer``, ``RequestDecoder`` and ``ResponseDecoder`` (and the
``str`` key rule they call) are copied verbatim from the parent commit's
``src/repro/net/proto.py``, less the verbs and the ``cas`` field the wire
no longer speaks (``gets``, ``touch``, ``version``); the frames they
build are the live ones, so their output compares equal to the live
decoders' frame for frame.
"""

from __future__ import annotations

import re

from repro.errors import ProtocolError
from repro.net.proto import (
    CRLF,
    MAX_KEY_BYTES,
    MAX_LINE_BYTES,
    MAX_VALUE_BYTES,
    BadCommand,
    Command,
    DeleteCommand,
    GetCommand,
    QuitCommand,
    Reply,
    SetCommand,
    Value,
)

_KEY_RE = re.compile("[!-~]{1,%d}" % MAX_KEY_BYTES)


def valid_key(key: str) -> bool:
    """Whether ``key`` is legal on the wire (token, ≤250 bytes, printable)."""
    return isinstance(key, str) and _KEY_RE.fullmatch(key) is not None


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
        if verb == "get":
            keys = parts[1:]
            if not keys:
                return BadCommand("get needs at least one key")
            if not all(map(valid_key, keys)):
                return BadCommand("bad key")
            return GetCommand(tuple(keys))
        if verb == "set":
            return self._parse_set(parts)
        if verb == "delete":
            noreply = parts[-1] == "noreply"
            keys = parts[1 : len(parts) - (1 if noreply else 0)]
            if len(keys) != 1 or not valid_key(keys[0]):
                return BadCommand("delete needs exactly one key")
            return DeleteCommand(keys[0], noreply=noreply)
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

    _SIMPLE = frozenset(["STORED", "DELETED", "NOT_FOUND", "END", "ERROR"])

    def __init__(self, max_value_bytes: int = MAX_VALUE_BYTES) -> None:
        self._lines = _LineBuffer()
        self.max_value_bytes = max_value_bytes
        self._values: list[Value] = []
        #: header of the VALUE whose data block is awaited: key, flags, nbytes
        self._pending_value: tuple[str, int, int] | None = None
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
                key, flags, nbytes = self._pending_value
                block = lines.readblock(nbytes)
                if block is None:
                    return None
                self._pending_value = None
                self._values.append(Value(key, flags, block))
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
            if kind in ("CLIENT_ERROR", "SERVER_ERROR"):
                # An error aborts any multi-get in flight; partial values drop.
                self._values = []
                return Reply(kind, text[len(kind) + 1 :])
            raise ProtocolError(f"unparsable response line: {text!r}")

    def _start_value(self, parts: list[str]) -> None:
        if len(parts) != 4:
            raise ProtocolError("bad VALUE header")
        try:
            flags, nbytes = int(parts[2]), int(parts[3])
        except ValueError:
            raise ProtocolError("bad VALUE header") from None
        if nbytes < 0 or nbytes > self.max_value_bytes:
            raise ProtocolError("VALUE payload exceeds maximum size")
        self._pending_value = (parts[1], flags, nbytes)
