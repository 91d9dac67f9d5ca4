"""The PyTFHE instruction set: binary encoding and (dis)assembly."""

from .assembler import assemble, binary_size_bytes, disassemble
from .disassembler import format_program
from .encoding import (
    FIELD_ALL_ONES,
    INPUT_MARKER,
    INSTRUCTION_BYTES,
    Instruction,
    MAX_NODE_INDEX,
    OUTPUT_MARKER,
    decode_instruction,
    decode_words,
    encode_gate,
    encode_header,
    encode_input,
    encode_output,
    encode_words,
    is_mb_binary,
    iter_instructions,
)

__all__ = [
    "format_program",
    "FIELD_ALL_ONES",
    "INPUT_MARKER",
    "INSTRUCTION_BYTES",
    "Instruction",
    "MAX_NODE_INDEX",
    "OUTPUT_MARKER",
    "assemble",
    "binary_size_bytes",
    "decode_instruction",
    "decode_words",
    "disassemble",
    "encode_gate",
    "encode_header",
    "encode_input",
    "encode_output",
    "encode_words",
    "is_mb_binary",
    "iter_instructions",
]
