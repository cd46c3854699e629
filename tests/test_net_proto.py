"""Property-based tests of the wire codec (:mod:`repro.net.proto`).

The decoders are incremental push parsers, so the load-bearing property
is **chunking invariance**: encode a frame sequence, slice the byte
stream at hypothesis-chosen boundaries, feed the slices one by one, and
the decoded frames must equal the originals no matter where the cuts
landed. The rest of the file pins the damage taxonomy — recoverable
errors (oversized value with a readable length, unknown verb) keep the
decoder parsing; fatal errors (unparsable ``set`` header, endless
unterminated line) mark it broken.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShardDownError, ShardFlakyError, ShardTimeoutError
from repro.net.proto import (
    MAX_LINE_BYTES,
    BadCommand,
    DeleteCommand,
    GetCommand,
    QuitCommand,
    Reply,
    RequestDecoder,
    ResponseDecoder,
    SetCommand,
    TouchCommand,
    Value,
    VersionCommand,
    decode_failure,
    dump_value,
    encode_failure,
    load_value,
    valid_key,
)

# ---------------------------------------------------------------- strategies

#: wire-legal keys: 1..32 printable ASCII chars with no whitespace
keys = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=32,
)
payloads = st.binary(max_size=256)

get_commands = st.builds(
    GetCommand,
    keys=st.lists(keys, min_size=1, max_size=5).map(tuple),
    cas=st.booleans(),
)
set_commands = st.builds(
    SetCommand,
    key=keys,
    flags=st.integers(min_value=0, max_value=7),
    exptime=st.integers(min_value=0, max_value=1 << 20),
    data=payloads,
    noreply=st.booleans(),
)
delete_commands = st.builds(DeleteCommand, key=keys, noreply=st.booleans())
touch_commands = st.builds(
    TouchCommand,
    key=keys,
    exptime=st.integers(min_value=0, max_value=1 << 20),
    noreply=st.booleans(),
)
commands = st.one_of(
    get_commands,
    set_commands,
    delete_commands,
    touch_commands,
    st.just(VersionCommand()),
)

values = st.builds(
    Value,
    key=keys,
    flags=st.integers(min_value=0, max_value=7),
    data=payloads,
    cas=st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 30)),
)
replies = st.one_of(
    st.builds(
        Reply,
        kind=st.just("END"),
        values=st.lists(values, max_size=4).map(tuple),
    ),
    st.sampled_from(
        [Reply("STORED"), Reply("DELETED"), Reply("NOT_FOUND"), Reply("TOUCHED")]
    ),
    st.builds(
        Reply,
        kind=st.sampled_from(["SERVER_ERROR", "CLIENT_ERROR", "VERSION"]),
        message=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            min_size=1,
            max_size=40,
        ).map(lambda s: " ".join(s.split()) or "x"),
    ),
)


def chunked(stream: bytes, cuts: list[int]) -> list[bytes]:
    """Slice ``stream`` at the (normalized) cut offsets."""
    offsets = sorted({min(c, len(stream)) for c in cuts})
    pieces, last = [], 0
    for off in offsets:
        pieces.append(stream[last:off])
        last = off
    pieces.append(stream[last:])
    return [p for p in pieces if p]


# ------------------------------------------------------- chunking invariance


@settings(max_examples=120, deadline=None)
@given(
    cmds=st.lists(commands, min_size=1, max_size=6),
    cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=12),
)
def test_request_stream_roundtrip_any_chunking(cmds, cuts):
    stream = b"".join(c.encode() for c in cmds)
    decoder = RequestDecoder()
    out = []
    for piece in chunked(stream, cuts):
        out.extend(decoder.feed(piece))
    assert out == cmds
    assert not decoder.broken


@settings(max_examples=120, deadline=None)
@given(
    frames=st.lists(replies, min_size=1, max_size=6),
    cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=12),
)
def test_response_stream_roundtrip_any_chunking(frames, cuts):
    stream = b"".join(r.encode() for r in frames)
    decoder = ResponseDecoder()
    out = []
    for piece in chunked(stream, cuts):
        out.extend(decoder.feed(piece))
    assert out == list(frames)
    assert not decoder.broken


@settings(max_examples=60, deadline=None)
@given(cmd=set_commands)
def test_partial_reassembly_byte_by_byte(cmd):
    """Nothing comes out until the last byte lands; then exactly the frame."""
    stream = cmd.encode()
    decoder = RequestDecoder()
    out = []
    for i, byte in enumerate(stream):
        got = decoder.feed(bytes([byte]))
        if i < len(stream) - 1:
            assert got == []
        out.extend(got)
    assert out == [cmd]


@settings(max_examples=60, deadline=None)
@given(value=st.one_of(payloads, st.integers(), st.tuples(st.text(), st.integers())))
def test_value_payload_roundtrip(value):
    flags, payload = dump_value(value)
    assert load_value(flags, payload) == value


# ----------------------------------------------------------- damage taxonomy


def test_oversized_value_is_consumed_and_recoverable():
    decoder = RequestDecoder(max_value_bytes=8)
    big = b"x" * 64
    stream = (
        b"set huge 0 0 64\r\n" + big + b"\r\n"
        b"get after\r\n"
    )
    frames = decoder.feed(stream)
    assert frames == [
        BadCommand("object too large for cache"),
        GetCommand(("after",)),
    ]
    assert not decoder.broken


def test_bad_key_set_discards_block_and_recovers():
    decoder = RequestDecoder()
    frames = decoder.feed(b"set bad\tkey 0 0 3\r\nabc\r\nversion\r\n")
    # "bad\tkey" splits into two tokens -> 5 args -> unreadable header.
    assert frames[0].fatal
    decoder = RequestDecoder()
    frames = decoder.feed(b"set " + b"k" * 300 + b" 0 0 3\r\nabc\r\nversion\r\n")
    assert frames == [BadCommand("bad key"), VersionCommand()]
    assert not decoder.broken


def test_unparsable_set_header_is_fatal():
    decoder = RequestDecoder()
    frames = decoder.feed(b"set k 0 0 notanumber\r\ngarbage\r\nget k\r\n")
    assert frames == [BadCommand("bad set header", fatal=True)]
    assert decoder.broken
    # A broken decoder stays silent; nothing after the damage is a frame.
    assert decoder.feed(b"get k\r\n") == []


def test_unknown_verb_is_recoverable_error_frame():
    decoder = RequestDecoder()
    frames = decoder.feed(b"frobnicate now\r\nget k\r\n")
    assert frames[0].kind == "ERROR"
    assert not frames[0].fatal
    assert frames[1] == GetCommand(("k",))


def test_unterminated_line_overflow_is_fatal():
    decoder = RequestDecoder()
    frames = decoder.feed(b"g" * (MAX_LINE_BYTES + 10))
    assert frames == [BadCommand("line exceeds maximum length", fatal=True)]
    assert decoder.broken


def test_bad_block_trailer_is_fatal():
    decoder = RequestDecoder()
    frames = decoder.feed(b"set k 0 0 3\r\nabcXXget k\r\n")
    assert frames == [BadCommand("bad data chunk", fatal=True)]
    assert decoder.broken


def test_response_error_aborts_multi_get():
    decoder = ResponseDecoder()
    stream = (
        Value("a", 0, b"1").encode()
        + b"SERVER_ERROR down gone\r\n"
        + Reply("STORED").encode()
    )
    frames = decoder.feed(stream)
    assert frames == [Reply("SERVER_ERROR", "down gone"), Reply("STORED")]
    assert not decoder.broken


def test_unparsable_response_marks_broken():
    decoder = ResponseDecoder()
    frames = decoder.feed(b"WAT is this\r\n")
    assert len(frames) == 1 and frames[0].kind == "CLIENT_ERROR"
    assert decoder.broken
    assert decoder.feed(Reply("STORED").encode()) == []


# ------------------------------------------------------------ odds and ends


def test_quit_and_version_parse():
    decoder = RequestDecoder()
    assert decoder.feed(b"version\r\nquit\r\n") == [
        VersionCommand(),
        QuitCommand(),
    ]


@pytest.mark.parametrize(
    "exc_type", [ShardDownError, ShardTimeoutError, ShardFlakyError]
)
def test_failure_frames_roundtrip_exception_type(exc_type):
    reply = encode_failure(exc_type("shard s0 unavailable"))
    rebuilt = decode_failure(reply)
    assert type(rebuilt) is exc_type
    assert "unavailable" in str(rebuilt)


def test_valid_key_rejects_whitespace_control_and_long():
    assert valid_key("usertable:42")
    assert not valid_key("has space")
    assert not valid_key("tab\there")
    assert not valid_key("")
    assert not valid_key("k" * 251)
    assert valid_key("k" * 250)


def _valid_key_reference(key: object) -> bool:
    """The definition the compiled pattern replaced, one character at a time."""
    if not isinstance(key, str) or not 0 < len(key) <= 250:
        return False
    return all(33 <= ord(ch) <= 126 for ch in key)


@settings(max_examples=300, deadline=None)
@given(
    key=st.one_of(
        st.text(max_size=260),  # any code points: controls, spaces, non-ASCII
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=127), max_size=260),
        st.builds(  # around the length limit, clean and with one bad tail
            lambda n, tail: "k" * n + tail,
            st.integers(245, 255),
            st.sampled_from(["", "\n", " ", "\x7f", "é"]),
        ),
        st.binary(max_size=8),
        st.integers(),
        st.none(),
    )
)
def test_valid_key_agrees_with_the_per_character_definition(key):
    assert valid_key(key) is _valid_key_reference(key)


@pytest.mark.parametrize(
    "decoder, stream",
    [
        (RequestDecoder(), b"get a b\r\nset k 0 0 3\r\nabc\r\ndelete k\r\n"),
        (
            ResponseDecoder(),
            Reply("END", values=(Value("a", 0, b"x" * 64),)).encode() + b"STORED\r\n",
        ),
    ],
    ids=["request", "response"],
)
def test_whole_frames_leave_nothing_buffered(decoder, stream):
    chunk = bytes(bytearray(stream))  # a fresh object only this test refers to
    references = sys.getrefcount(chunk)
    assert len(decoder.feed(chunk)) >= 2
    assert decoder._lines.pending() == 0
    assert len(decoder._lines._buf) == 0  # consumed bytes are dropped, not skipped
    assert sys.getrefcount(chunk) == references  # the received chunk is released
    # A split frame is the only thing that stays behind, and only until it ends.
    decoder.feed(stream[:5])
    assert decoder._lines.pending() == 5
    decoder.feed(stream[5:])
    assert decoder._lines.pending() == 0
