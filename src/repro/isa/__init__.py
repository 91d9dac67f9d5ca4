"""The PyTFHE instruction set: binary encoding, the stream decoder and
(dis)assembly."""

from .assembler import assemble, binary_size_bytes, disassemble
from .decoder import (
    DecodedStream,
    Instruction,
    decode,
    decode_instruction,
    iter_instructions,
)
from .disassembler import format_program
from .encoding import (
    FIELD_ALL_ONES,
    INPUT_MARKER,
    INSTRUCTION_BYTES,
    MAX_NODE_INDEX,
    OUTPUT_MARKER,
    decode_words,
    encode_gate,
    encode_header,
    encode_input,
    encode_output,
    encode_words,
)

__all__ = [
    "DecodedStream",
    "FIELD_ALL_ONES",
    "INPUT_MARKER",
    "INSTRUCTION_BYTES",
    "Instruction",
    "MAX_NODE_INDEX",
    "OUTPUT_MARKER",
    "assemble",
    "binary_size_bytes",
    "decode",
    "decode_instruction",
    "decode_words",
    "disassemble",
    "encode_gate",
    "encode_header",
    "encode_input",
    "encode_output",
    "encode_words",
    "format_program",
    "iter_instructions",
]
