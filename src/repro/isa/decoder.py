"""The one reader of PyTFHE binaries: a lenient, array-based decoder.

:func:`decode` never raises.  It classifies every 128-bit word once, as
numpy columns — its kind, the 1-based node it defines (paper Fig. 6),
its op with the format-1 field 1 decoded, its operands, a digit input's
precision and bound, the table segments — and records every violation
of the stream grammar as a :class:`Defect`, each of which belongs to one
``IS`` rule (or the stream-level ``MB002``) of the analyzer's catalog.
``disassemble``, ``check_program``, ``format_program`` and
:func:`iter_instructions` all read these columns.

A stream without defects is *canonical*: its netlist re-assembles to
the same bytes, so a program has one content-addressed id.  That is why
an operand in an unused slot, junk in field 1 of a format-0 input word,
bits outside a table's entries, a set kx/ky on a LUT/B2D/D2B/SIGN word
or a precision on a SIGN word, and a format-1 header on a program that
format 0 can express are defects too.  A defect-free decode has proven
what ``Netlist`` would check, so :meth:`DecodedStream.netlist` builds it
without re-validating.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..gatetypes import (
    CODE_ARITY,
    CODE_USES_TABLE,
    NO_INPUT,
    OP_LIN,
    OP_SIGN,
    Gate,
    op_name,
)
from ..hdl.netlist import Netlist
from .encoding import (
    ENTRIES_PER_WORD,
    ENTRY_BITS,
    ENTRY_SHIFTS,
    FIELD_ALL_ONES,
    INPUT_MARKER,
    INPUT_PREC_BITS,
    INSTRUCTION_BYTES,
    MB_FORMAT_VERSION,
    OUTPUT_MARKER,
    decode_ext_field1,
    decode_words,
    encode_header,
    table_data_words,
)

#: Word kinds (``DecodedStream.kind``).
HEADER, INPUT, GATE, OUTPUT, TABLE, TABLE_DATA, GARBAGE = range(7)
KIND_NAMES = (
    "header", "input", "gate", "output", "table", "table-data", "garbage"
)
#: Sections, in the order a stream must visit them.
SECTIONS = ("inputs", "gates", "outputs", "tables")

#: Kind of a body word by ``nibble + 16 * (field 0 is all-ones)``, per
#: format: format 0 has no unmarked 0x3/0xF word; format 1 reads them as
#: a multi-bit gate and a table header.
_KINDS = np.full((2, 32), GATE, dtype=np.int8)
_KINDS[:, 16 + INPUT_MARKER] = INPUT
_KINDS[:, 16 + OUTPUT_MARKER] = OUTPUT
_KINDS[0, [INPUT_MARKER, OUTPUT_MARKER]] = GARBAGE
_KINDS[1, INPUT_MARKER] = TABLE
#: Per kind: the section it opens (0 for none).
_OPENS = np.array([0, 0, 1, 2, 3, 0, 0], dtype=np.int8)

_ENTRY_MASK = (1 << ENTRY_BITS) - 1
_HALF = ENTRIES_PER_WORD // 2  # entries per field
_FULL = ENTRY_BITS * _HALF  # the bits a field's entries fill
_NONE = np.zeros(0, dtype=np.int64)
_SLOT_ARITY = np.array([[1], [2]])  # the arity that reads operand slot 0 / 1
#: prec, kx, ky, kconst, table_id, bound of a word that sets none.
_COLUMN_DEFAULTS = np.array([[0], [0], [0], [0], [-1], [0]], dtype=np.int64)
_DEFAULT_BYTES = _COLUMN_DEFAULTS.tobytes()


#: Grammar violations, in code order (see :data:`DEFECTS`).
Defect = enum.IntEnum(
    "Defect",
    "LENGTH EMPTY HEADER FORMAT GARBAGE INPUT_FIELD1 TABLE_ID TABLE_TRUNCATED "
    "TABLE_NIBBLE TABLE_PADDING GATE_COUNT LATE_INPUT LATE_GATE LATE_OUTPUT "
    "EARLY_TABLE READ0 READ1 MARKER0 STRAY0 MARKER1 STRAY1 OUTPUT_REF TABLE_REF "
    "UNREAD_FIELD",
    start=0,
)

_GATE = "gate {node} ({name}"
_READ = _GATE + (
    ") reads node {value}, which is not defined before it (defined: 1..{prev})"
)
_EARLIER = "operands must reference strictly earlier instructions"
#: Per defect, in code order: its rule id and message template.  Within
#: one word, one rule's defects are reported in code order.
DEFECTS: Tuple[Tuple[str, str], ...] = (
    ("IS001", "binary length {size} is not a multiple of 16 bytes"),
    ("IS001", "binary is empty (no header instruction)"),
    ("IS001", "first instruction is not a well-formed header "
              "(nibble={nib:#x}, field0={f0})"),
    ("IS001", "format-1 header on a program without a digit wire, a "
              "multi-bit op or a table"),
    ("IS001", "unknown instruction nibble {nib:#x}"),
    ("IS001", "input instruction carries {f1:#x} in field1, not the all-ones marker"),
    ("IS001", "table segment declares id {tid}, expected {index} (ids are sequential)"),
    ("IS001", "table {tid} is truncated: {f1} entries need {words} data "
              "words, stream has {rest}"),
    ("IS001", "table {tid} data word {word} has nibble {nib:#x}"),
    ("IS001", "table {tid} data word {word} carries bits outside its entries"),
    ("IS002", "header claims {f1} gates, stream holds {gates}"),
    ("IS003", "input instruction after {state} began"),
    ("IS003", "gate instruction{named} after {state} began"),
    ("IS003", "output instruction after tables began"),
    ("IS003", "table segment before the outputs section"),
    ("IS004", _READ),
    ("IS004", _READ),
    ("IS005", _GATE + ", arity {arity}) carries the unused-operand marker in field0"),
    ("IS005", _GATE + ", arity {arity}) carries operand {f0} in unused field0"),
    ("IS005", _GATE + ", arity {arity}) carries the unused-operand marker in field1"),
    ("IS005", _GATE + ", {stray}"),
    ("IS006", "output references node {f1}; the stream defines nodes 1..{node}"),
    ("MB002", _GATE + ") references table {table_id}; the stream carries "
              "tables 0..{last_table}"),
    ("IS001", _GATE + ") sets {unread} in fields its op does not read"),
)
_UNNAMED = (Defect.LENGTH, Defect.HEADER, Defect.GARBAGE)  # no row to yield
_HINTS = {Defect.LENGTH: "the stream is truncated or padded",
          Defect.READ0: _EARLIER, Defect.READ1: _EARLIER}
#: Rules whose findings name the gate's node.
_NODE_RULES = ("IS004", "IS005", "MB002")
#: Defects that name the gate's node under a rule that does not.
_NODE_DEFECTS = (Defect.UNREAD_FIELD,)


class Instruction(NamedTuple):
    """One decoded word: a row of a :class:`DecodedStream`."""

    kind: str  # one of KIND_NAMES
    offset: int
    node: int  # see DecodedStream.node
    field0: int
    field1: int
    nibble: int
    op: Optional[int] = None  # gate rows: a Gate code or OP_LIN..OP_D2B
    in0: Optional[int] = None  # gate rows: 1-based operands
    in1: Optional[int] = None
    prec: int = 0  # format-1 inputs: precision; multi-bit gates: output p
    bound: int = 0  # format-1 inputs: declared value bound
    kx: int = 0
    ky: int = 0
    kconst: int = 0
    table_id: int = -1  # table ops

    @property
    def gate(self) -> Optional[Gate]:
        """The boolean gate of a gate row (None for multi-bit ops)."""
        return None if self.op is None or self.op > 0xF else Gate(self.op)

    @property
    def total_gates(self) -> int:
        if self.kind != "header":
            raise TypeError("total_gates is only defined on headers")
        return self.field1

    @property
    def operands(self) -> Tuple[Optional[int], Optional[int]]:
        if self.kind != "gate":
            raise TypeError("operands are only defined on gate instructions")
        return self.in0, self.in1

    @property
    def output_node(self) -> int:
        if self.kind != "output":
            raise TypeError("output_node is only defined on outputs")
        return self.field1


_ROW_COLUMNS = ("node", "field0", "field1", "nibble", "op", "in0", "in1",
                "prec", "bound", "kx", "ky", "kconst", "table_id")
_GATE_COLUMNS = ("prec", "kx", "ky", "kconst", "table_id")


@dataclass(frozen=True)
class DecodedStream:
    """Every complete word of a binary, classified once.

    ``node`` counts the nodes defined up to and including each word (on
    an input or gate, its 1-based index); operands are 1-based, -1 when
    empty.  Defects are listed by code, then word position; position -1
    is the stream itself (a bad length or an empty binary, then the only
    defect).
    """

    size: int
    fmt: int
    field0: np.ndarray
    field1: np.ndarray
    nibble: np.ndarray
    kind: np.ndarray
    node: np.ndarray
    op: np.ndarray
    in0: np.ndarray
    in1: np.ndarray
    prec: np.ndarray
    bound: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    kconst: np.ndarray
    table_id: np.ndarray
    heads: np.ndarray  # word positions of the table headers
    defect_pos: np.ndarray
    defect_code: np.ndarray

    def by_rule(self, limit: int = 0) -> Iterator[Tuple[str, int, np.ndarray]]:
        """Per rule id with defects: how many, and the indices of the
        first ``limit`` (0 = all) in stream order (word, then code)."""
        if not self.defect_pos.size:
            return
        bounds = np.searchsorted(self.defect_code, np.arange(len(DEFECTS) + 1))
        for rule_id in dict.fromkeys(rule for rule, _ in DEFECTS):
            codes = [c for c, (rule, _) in enumerate(DEFECTS) if rule == rule_id]
            total = int(bounds[codes[-1] + 1] - bounds[codes[0]])
            if total:
                # The rule's first ``limit`` are among each code's first.
                first = np.concatenate([
                    np.arange(bounds[c], bounds[c + 1])[: limit or None]
                    for c in codes
                ])
                first = first[np.lexsort(
                    (self.defect_code[first], self.defect_pos[first])
                )]
                yield rule_id, total, first[: limit or None]

    def describe(
        self, i: int
    ) -> Tuple[str, Optional[int], Optional[int], Optional[str]]:
        """``(message, node, byte offset, fix hint)`` of defect ``i``."""
        code, pos = Defect(int(self.defect_code[i])), int(self.defect_pos[i])
        rule, template = DEFECTS[code]
        if pos < 0:
            return template.format(size=self.size), None, None, _HINTS.get(code)
        f0, f1 = int(self.field0[pos]), int(self.field1[pos])
        op, node = int(self.op[pos]), int(self.node[pos])
        arity = int(CODE_ARITY[op])
        context: Dict[str, Any] = dict(
            f0=f0, f1=f1, nib=int(self.nibble[pos]), node=node, prev=node - 1,
            name=op_name(op), arity=arity, table_id=int(self.table_id[pos]),
            last_table=len(self.heads) - 1, rest=len(self.kind) - pos - 1,
            words=table_data_words(f1), tid=f0 - 1,
            index=int(np.searchsorted(self.heads, pos)),
            named="" if self.fmt else f" ({op_name(op)})",
            stray=(
                f"arity {arity}) carries operand {f1} in unused field1"
                if self.nibble[pos] != OUTPUT_MARKER
                else f"unary) carries a second operand ({int(self.in1[pos])})"
            ),
            value=int((self.in1 if code is Defect.READ1 else self.in0)[pos]),
            unread=", ".join(
                f"{label}={int(column[pos])}"
                for label, column in (
                    ("kx", self.kx), ("ky", self.ky), ("precision", self.prec)
                )
                if column[pos] and (label != "precision" or op == OP_SIGN)
            ),
        )
        if code in (Defect.TABLE_NIBBLE, Defect.TABLE_PADDING):
            head = int(self.heads[context["index"] - 1])
            context.update(tid=int(self.field0[head]) - 1, word=pos - head - 1)
        if code is Defect.GATE_COUNT:
            context["gates"] = int(
                np.count_nonzero((self.kind == GATE) | (self.kind == GARBAGE))
            )
        if rule == "IS003":
            opened = _OPENS[self.kind[:pos]]
            at = np.flatnonzero(opened)
            context["state"] = SECTIONS[int(opened[at[-1]]) if at.size else 0]
        return (
            template.format(**context),
            node if rule in _NODE_RULES or code in _NODE_DEFECTS else None,
            pos * INSTRUCTION_BYTES,
            _HINTS.get(code),
        )

    def rows(self, limit: Optional[int] = None) -> Iterator[Instruction]:
        """The first ``limit`` words (all by default) as rows."""
        kinds = self.kind[:limit].tolist()
        columns = [getattr(self, c)[:limit].tolist() for c in _ROW_COLUMNS]
        for i, name in enumerate(_ROW_COLUMNS):
            if name in ("op", "in0", "in1"):  # only gate rows carry them
                columns[i] = [
                    v if k == GATE and v >= 0 else None
                    for k, v in zip(kinds, columns[i])
                ]
        for pos, (kind, values) in enumerate(zip(kinds, zip(*columns))):
            yield Instruction(KIND_NAMES[kind], pos * INSTRUCTION_BYTES, *values)

    def netlist(self, name: str = "binary") -> Netlist:
        """The program as a netlist; :class:`ValueError` naming the first
        defect by offset if there is one."""
        if self.defect_pos.size:
            message, _, offset, _ = self.describe(int(np.argmin(self.defect_pos)))
            if offset is not None:
                message += f" (offset {offset:#x})"
            raise ValueError(message)
        inputs, gates = self.kind == INPUT, self.kind == GATE
        columns: Dict[str, Any] = {}
        if self.fmt:
            # A canonical stream's words after its outputs are table words.
            first = int(np.count_nonzero(self.kind <= OUTPUT))
            entries = np.concatenate(
                (self.field0[first:, None], self.field1[first:, None]), axis=1
            )
            entries = (entries[:, :, None] >> ENTRY_SHIFTS) & _ENTRY_MASK
            counts = self.field1[self.heads].tolist()
            # A column at its default everywhere stays a zero-stride view.
            columns = {
                c: values
                for c, default in zip(_GATE_COLUMNS, _COLUMN_DEFAULTS[:5, 0])
                for values in [getattr(self, c)[gates]]
                if (values != default).any()
            }
            input_prec, input_bound = self.prec[inputs], self.bound[inputs]
            if input_prec.any():
                columns.update(input_prec=input_prec, input_bound=input_bound)
            elif (input_bound != 1).any():
                columns.update(input_bound=input_bound)
            columns["tables"] = [
                entries[head - first + 1 :].reshape(-1)[:count]
                for head, count in zip(self.heads.tolist(), counts)
            ]
        # The decode has proven every op known, every operand an earlier
        # node, every table id and every output: nothing to re-check.
        return Netlist(
            num_inputs=int(np.count_nonzero(inputs)),
            ops=self.op[gates],
            in0=np.maximum(self.in0[gates] - 1, NO_INPUT),
            in1=np.maximum(self.in1[gates] - 1, NO_INPUT),
            outputs=self.field1[self.kind == OUTPUT] - 1,
            name=name,
            validate=False,
            **columns,
        )


def _tables(
    kind: np.ndarray,
    field0: np.ndarray,
    field1: np.ndarray,
    nibble: np.ndarray,
    bad: np.ndarray,
) -> Tuple[np.ndarray, bool]:
    """Mark a format-1 stream's table data in ``kind``, flag its table
    defects, and return the header positions and whether the last table
    runs past the end.  A header's ``ceil(count/12)`` data words are data
    whatever they look like, so only candidates outside them are headers.
    """
    cands = (kind == TABLE).nonzero()[0]
    if not cands.size:
        return cands, False
    n = len(kind)
    heads: List[int] = []
    data: List[int] = []
    # Per data word of a complete table, the bits its entries fill in
    # field 0 and field 1; every bit above them must be zero.
    used0: List[int] = []
    used1: List[int] = []
    end = 0
    for cand, tid, count in zip(
        cands.tolist(), field0[cands].tolist(), field1[cands].tolist()
    ):
        if cand <= end:
            continue
        if tid - 1 != len(heads):
            bad[Defect.TABLE_ID, cand] = True
        heads.append(cand)
        size = table_data_words(count)
        end = cand + size
        data.extend(range(cand + 1, min(end, n - 1) + 1))
        if size and end < n:
            last = count - ENTRIES_PER_WORD * (size - 1)
            used0 += [_FULL] * (size - 1) + [ENTRY_BITS * min(last, _HALF)]
            used1 += [_FULL] * (size - 1) + [ENTRY_BITS * max(last - _HALF, 0)]
    words = np.asarray(data, dtype=np.int64)
    kind[words] = TABLE_DATA
    bad[Defect.TABLE_TRUNCATED, heads[-1]] = end >= n
    checked = words[: len(used0)]  # not the data of a truncated table
    bad[Defect.TABLE_NIBBLE][checked] = nibble[checked] != INPUT_MARKER
    bits = np.array((used0, used1), dtype=np.int64).reshape(2, -1)
    bad[Defect.TABLE_PADDING][checked] = (
        (field0[checked] >> bits[0]) | (field1[checked] >> bits[1])
    ) != 0
    return np.asarray(heads), end >= n


def decode(data: bytes) -> DecodedStream:
    """Classify every word of ``data``; never raises."""
    n, trailing = divmod(len(data), INSTRUCTION_BYTES)
    words = decode_words(data[: n * INSTRUCTION_BYTES] if trailing else data)
    field0, field1, nibble = words
    fmt = int(n > 0 and nibble[0] == 0 and field0[0] == MB_FORMAT_VERSION)
    marked = words[:2] == FIELD_ALL_ONES  # per field: the all-ones marker
    kind = _KINDS[fmt][np.where(marked[0], nibble + 16, nibble)]
    if n:
        kind[0] = HEADER
    bad = np.zeros((len(DEFECTS), n), dtype=bool)
    heads, truncated = (
        _tables(kind, field0, field1, nibble, bad) if fmt else (_NONE, False)
    )

    gate = kind == GATE
    is_input = kind == INPUT
    garbage = kind == GARBAGE
    node = (is_input | gate | garbage).cumsum()
    # Operand slots as rows 0 and 1 (in0, in1).
    operands = np.where(gate & ~marked, words[:2], -1)
    op = np.where(gate, nibble, -1)
    # The multi-bit columns, in decode_ext_field1's row order; constant
    # (read-only views) in format 0.
    cols = (
        _COLUMN_DEFAULTS.repeat(n, axis=1)
        if fmt
        else np.ndarray((6, n), np.int64, _DEFAULT_BYTES, 0, (8, 0))
    )
    prec, kx, ky, kconst, table_id, bound = cols
    ext = gate & (nibble == OUTPUT_MARKER) if fmt else _NONE
    if fmt:
        np.copyto(prec, field1 & ((1 << INPUT_PREC_BITS) - 1), where=is_input)
        np.copyto(bound, field1 >> INPUT_PREC_BITS, where=is_input)
        if ext.any():
            at = np.nonzero(ext)[0]
            decoded = decode_ext_field1(field1[at])
            op[at] = decoded[0]
            cols[:5, at] = decoded[1:6]
            in1 = decoded[6] + 1  # 1-based; 0 = no second operand
            in1[in1 == 0] = -1
            operands[1, at] = in1
            # Canonical form: only a LIN reads kx/ky, and a SIGN has no
            # precision.
            ext_op, ext_prec, ext_kx, ext_ky = decoded[:4]
            bad[Defect.UNREAD_FIELD, at] = (ext_op != OP_LIN) & (
                (ext_kx != 0) | (ext_ky != 0)
                | ((ext_op == OP_SIGN) & (ext_prec != 0))
            )

    if n:
        bad[Defect.HEADER, 0] = not (
            nibble[0] == 0 and field0[0] in (0, MB_FORMAT_VERSION)
        )
        bad[Defect.FORMAT, 0] = fmt and not (
            heads.size or ext.any() or prec[is_input].any()
        )
    if not fmt:
        bad[Defect.GARBAGE] = garbage
        bad[Defect.INPUT_FIELD1] = is_input & ~marked[1]
    # A stream that visits its sections in order, with an output before
    # the tables, breaks no section rule; only others need the state.
    section = np.minimum(kind, TABLE)  # table data is in the table section
    if (
        garbage.any()
        or not (section[1:] >= section[:-1]).all()
        or heads.size and kind[heads[0] - 1] != OUTPUT
    ):
        opens = _OPENS[kind]
        last = np.maximum.accumulate(np.where(opens > 0, np.arange(n), 0))
        state = opens[np.concatenate(([0], last[:-1]))]
        bad[Defect.LATE_INPUT] = is_input & (state != 0)
        bad[Defect.LATE_GATE] = gate & (state >= 2)
        bad[Defect.LATE_OUTPUT] = (kind == OUTPUT) & (state == 3)
        bad[Defect.EARLY_TABLE] = (kind == TABLE) & (state <= 1)
    bad[Defect.OUTPUT_REF] = (kind == OUTPUT) & ((field1 < 1) | (field1 > node))
    # Slot 0 is required by arity >= 1; slot 1 is allowed by arity 2 and
    # required unless the op is LIN.  (An op of -1 reads the last arity;
    # every use is masked by gate.)
    allow = gate & (CODE_ARITY[op] >= _SLOT_ARITY)
    need = allow.copy()
    need[1] &= op != OP_LIN
    has = operands >= 0  # only gate words have operands
    bad[Defect.READ0 : Defect.READ1 + 1] = (
        allow & has & ((operands < 1) | (operands >= node))
    )
    bad[Defect.MARKER0 : Defect.STRAY1 + 1 : 2] = need & ~has
    bad[Defect.STRAY0 : Defect.STRAY1 + 1 : 2] = has & ~allow
    # A truncated table ends the stream: nothing after it is counted.
    if n and not truncated:
        if fmt:
            bad[Defect.TABLE_REF] = (
                ext
                & CODE_USES_TABLE[op]
                & (table_id.view(np.uint64) >= heads.size)
            )
        gates = np.count_nonzero(gate) + np.count_nonzero(garbage)
        bad[Defect.GATE_COUNT, 0] = gates != field1[0]
    if trailing or not n:
        defect_code = np.array([Defect.LENGTH if trailing else Defect.EMPTY])
        defect_pos = np.array([-1])
    elif bad.any():
        defect_code = bad.any(axis=1).nonzero()[0]
        found = [bad[code].nonzero()[0] for code in defect_code.tolist()]
        defect_pos = np.concatenate(found)
        defect_code = np.repeat(defect_code, [len(f) for f in found])
    else:
        defect_code = defect_pos = _NONE
    in0, in1 = operands
    return DecodedStream(
        size=len(data), fmt=fmt, field0=field0, field1=field1,
        nibble=nibble, kind=kind, node=node, op=op, in0=in0, in1=in1,
        prec=prec, bound=bound, kx=kx, ky=ky, kconst=kconst,
        table_id=table_id, heads=heads, defect_pos=defect_pos,
        defect_code=defect_code,
    )


def iter_instructions(data: bytes) -> Iterator[Instruction]:
    """The rows of a binary; :class:`ValueError` if a word has none (a
    bad length, a malformed header, an unknown nibble)."""
    stream = decode(data)
    unnamed = np.isin(stream.defect_code, _UNNAMED)
    if unnamed.any():
        raise ValueError(stream.describe(int(np.argmax(unnamed)))[0])
    return stream.rows()


def decode_instruction(raw: bytes, is_first: bool = False) -> Instruction:
    """One word of a format-0 stream (the Fig. 5/6 conformance helper):
    its header if ``is_first``, else a body word."""
    if len(raw) != INSTRUCTION_BYTES:
        raise ValueError(f"instruction must be {INSTRUCTION_BYTES} bytes")
    rows = list(iter_instructions(raw if is_first else encode_header(0) + raw))
    if rows[0].field0 != 0:
        raise ValueError("not a format-0 header instruction")
    return rows[-1]
