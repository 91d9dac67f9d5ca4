"""Wire-protocol frame tests (no sockets)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    MAGIC,
    PROLOGUE_SIZE,
    PROTOCOL_VERSION,
    Frame,
    FrameTooLarge,
    MessageKind,
    ProtocolError,
    decode_frame,
    encode_frame,
    parse_prologue,
)


class TestFrameRoundtrip:
    def test_roundtrip_header_and_payload(self):
        blob = bytes(range(256))
        data = encode_frame(
            MessageKind.CALL,
            {"tenant": "acme", "deadline_ms": 250},
            blob,
        )
        frame = decode_frame(data)
        assert frame.kind == MessageKind.CALL
        assert frame.header == {"tenant": "acme", "deadline_ms": 250}
        assert frame.payload == blob

    def test_empty_header_and_payload(self):
        frame = decode_frame(encode_frame(MessageKind.PING))
        assert frame.kind == MessageKind.PING
        assert frame.header == {}
        assert frame.payload == b""

    def test_kind_name(self):
        assert decode_frame(
            encode_frame(MessageKind.REPLY, {"status": "OK"})
        ).kind_name == "REPLY"

    def test_status_defaults_to_ok(self):
        assert decode_frame(encode_frame(MessageKind.PING)).ok

    def test_non_ok_status(self):
        frame = decode_frame(
            encode_frame(MessageKind.REPLY, {"status": "BUSY"})
        )
        assert not frame.ok
        assert frame.status == "BUSY"


class TestPrologueValidation:
    def test_magic_is_first_four_bytes(self):
        assert encode_frame(MessageKind.PING)[:4] == MAGIC

    def test_bad_magic_rejected(self):
        data = b"HTTP" + encode_frame(MessageKind.PING)[4:]
        with pytest.raises(ProtocolError, match="bad magic"):
            decode_frame(data)

    def test_wrong_version_rejected(self):
        data = bytearray(encode_frame(MessageKind.PING))
        data[4:6] = (PROTOCOL_VERSION + 1).to_bytes(2, "big")
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(data))

    def test_truncated_prologue(self):
        with pytest.raises(ProtocolError, match="truncated"):
            parse_prologue(b"FH", 1 << 20)

    def test_truncated_body(self):
        data = encode_frame(MessageKind.CALL, {"a": 1}, b"xyz")
        with pytest.raises(ProtocolError, match="length mismatch"):
            decode_frame(data[:-1])

    def test_oversized_frame_raises_frame_too_large(self):
        data = encode_frame(MessageKind.CALL, {}, b"\0" * 1024)
        with pytest.raises(FrameTooLarge) as err:
            decode_frame(data, max_frame_bytes=100)
        assert err.value.declared > 100
        assert err.value.limit == 100

    def test_prologue_size_is_sixteen(self):
        assert PROLOGUE_SIZE == 16

    def test_non_object_header_rejected(self):
        import json
        import struct

        header = json.dumps([1, 2]).encode()
        data = (
            struct.pack(
                ">4sHHII",
                MAGIC,
                PROTOCOL_VERSION,
                MessageKind.PING,
                len(header),
                0,
            )
            + header
        )
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(data)


def _with_header(header: bytes) -> bytes:
    import struct

    return struct.pack(
        ">4sHHII", MAGIC, PROTOCOL_VERSION, MessageKind.PING, len(header), 0
    ) + header


class TestHostileHeaders:
    def test_deeply_nested_header_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame(_with_header(b"[" * 200_000))

    def test_overlong_integer_header_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame(_with_header(b'{"a": ' + b"9" * 5000 + b"}"))

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_decode_or_raise_protocol_error(self, data):
        try:
            assert isinstance(decode_frame(data), Frame)
        except ProtocolError:
            pass

    @given(
        st.one_of(
            st.binary(max_size=256),
            st.text(alphabet='[]{}":,0123456789 ab', max_size=256).map(
                str.encode
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_valid_prologue_random_header_decodes_or_raises(self, header):
        try:
            assert isinstance(decode_frame(_with_header(header)), Frame)
        except ProtocolError:
            pass
