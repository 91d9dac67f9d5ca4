"""Multi-bit analysis tests: MB rules, p-ary noise certification, cost."""

import numpy as np
import pytest

from repro.analyze import (
    AnalyzerConfig,
    analyze_binary,
    analyze_netlist,
    check_program,
)
from repro.analyze.cache import netlist_digest
from repro.analyze.noisecert import certify_noise
from repro.bench import vip_workload
from repro.analyze.mb import check_mb
from repro.gatetypes import OP_LIN, OP_LUT
from repro.hdl.arith import ripple_add
from repro.hdl.builder import CircuitBuilder
from repro.hdl.netlist import NO_INPUT, Netlist
from repro.isa import assemble
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.mblut import synthesize
from repro.runtime.scheduler import build_schedule
from repro.tfhe import TFHE_DEFAULT_128, TFHE_TEST
from repro.tfhe.params import TFHE_MB_128

from ..analyze import noisecert_oracle as oracle
from ..analyze.test_noisecert import assert_certificates_equal


def adder_mb(width=8, modulus=16):
    bd = CircuitBuilder()
    a = [bd.input() for _ in range(width)]
    b = [bd.input() for _ in range(width)]
    for bit in ripple_add(bd, a, b, width=width + 1, signed=False):
        bd.output(bit)
    return synthesize(bd.build(), modulus=modulus)


def lin_netlist(input_prec, kx, ky, out_prec, input_bound=None):
    """Two inputs feeding one LIN gate; the MB001 unit fixture."""
    return Netlist(
        num_inputs=2,
        ops=[OP_LIN],
        in0=[0],
        in1=[1],
        outputs=[2],
        input_prec=[input_prec, input_prec],
        prec=[out_prec],
        kx=[kx],
        ky=[ky],
        kconst=[0],
        table_id=[-1],
        tables=[],
        input_bound=input_bound,
    )


class TestMbRules:
    def test_mb001_overflow(self):
        # Bounds default to p-1 = 3: 1*3 + 1*3 = 6 >= 4 overflows.
        col = check_mb(lin_netlist(4, 1, 1, 4))
        ids = [f.rule for f in col.findings]
        assert "MB001" in ids

    def test_mb001_respects_input_bounds(self):
        # The same wiring with 1-bit-bounded digits stays in range.
        col = check_mb(lin_netlist(4, 1, 1, 4, input_bound=[1, 1]))
        assert not [f for f in col.findings if f.rule == "MB001"]

    def test_mb002_table_length(self):
        bad = Netlist(
            num_inputs=1,
            ops=[OP_LUT],
            in0=[0],
            in1=[NO_INPUT],
            outputs=[1],
            input_prec=[4],
            prec=[4],
            kx=[0],
            ky=[0],
            kconst=[0],
            table_id=[0],
            tables=[[0, 1, 2]],  # p=4 operand needs 4 entries
        )
        col = check_mb(bad)
        assert [f for f in col.findings if f.rule == "MB002"]

    def test_mb002_entry_outside_output_modulus(self):
        bad = Netlist(
            num_inputs=1,
            ops=[OP_LUT],
            in0=[0],
            in1=[NO_INPUT],
            outputs=[1],
            input_prec=[4],
            prec=[4],
            kx=[0],
            ky=[0],
            kconst=[0],
            table_id=[0],
            tables=[[0, 1, 2, 7]],  # 7 outside Z_4
        )
        col = check_mb(bad)
        assert [f for f in col.findings if f.rule == "MB002"]

    def test_clean_synthesis_has_no_mb_findings(self):
        col = check_mb(adder_mb())
        assert not col.findings


class TestNoiseCertification:
    def test_mb_params_certify_p16(self):
        analysis = analyze_netlist(
            adder_mb(), AnalyzerConfig(params=TFHE_MB_128)
        )
        assert not analysis.report.errors()
        assert analysis.noise is not None
        assert analysis.noise.params_name == "tfhe-mb-128"
        worst = min(lv.margin_sigmas for lv in analysis.noise.levels)
        assert worst >= 4.0

    def test_boolean_params_fail_p16(self):
        # Gate-tuned parameters genuinely cannot hold a 1/64 margin.
        analysis = analyze_netlist(
            adder_mb(), AnalyzerConfig(params=TFHE_DEFAULT_128)
        )
        assert "NB001" in analysis.report.rule_ids()

    def test_margin_shrinks_with_modulus(self):
        margins = {}
        for p in (4, 16):
            analysis = analyze_netlist(
                adder_mb(modulus=p), AnalyzerConfig(params=TFHE_MB_128)
            )
            margins[p] = min(
                lv.margin_sigmas for lv in analysis.noise.levels
            )
        assert margins[16] < margins[4]


    @pytest.mark.parametrize(
        "program",
        ["hamming_distance/p8", "fibonacci/p16", "adder8/p16"],
    )
    @pytest.mark.parametrize(
        "params", [TFHE_TEST, TFHE_MB_128], ids=lambda p: p.name
    )
    def test_certificate_equals_the_per_gate_walk(self, program, params):
        name, modulus = program.split("/p")
        netlist = (
            adder_mb(modulus=int(modulus))
            if name == "adder8"
            else synthesize(vip_workload(name).netlist, modulus=int(modulus))
        )
        schedule = build_schedule(netlist)
        got = certify_noise(netlist, schedule, params)
        assert got.levels
        assert_certificates_equal(
            got, oracle.certify_per_gate(netlist, schedule, params)
        )


class TestCostCertification:
    def test_lut_bootstraps_priced(self):
        mb = adder_mb()
        analysis = analyze_netlist(mb, AnalyzerConfig(params=TFHE_MB_128))
        assert analysis.cost is not None
        assert analysis.cost.lut_bootstrapped == mb.num_lut_bootstraps
        assert analysis.cost.lut_bootstrapped > 0

    def test_families_include_mb(self):
        analysis = analyze_netlist(
            adder_mb(), AnalyzerConfig(params=TFHE_MB_128)
        )
        assert "mb" in analysis.families
        assert "noise" in analysis.families
        assert "cost" in analysis.families


class TestCacheDigest:
    def test_table_change_changes_digest(self):
        mb = adder_mb()
        before = netlist_digest(mb)
        mb.tables[0] = (mb.tables[0] + 1) % 16
        assert netlist_digest(mb) != before

    def test_input_bound_changes_digest(self):
        mb = adder_mb()
        before = netlist_digest(mb)
        mb.input_bound = np.minimum(mb.input_bound, 1)
        assert netlist_digest(mb) != before


class TestStreamLint:
    def test_clean_binary(self):
        col = check_program(assemble(adder_mb()))
        assert not col.findings

    def test_check_program_dispatches(self):
        """The header's format marker decides how the words are read:
        under a format-0 header, multi-bit gate words are garbage."""
        data = bytearray(assemble(adder_mb()))
        word = int.from_bytes(data[:INSTRUCTION_BYTES], "little")
        word &= ~(1 << 66)  # header field 0 (the format marker): 1 -> 0
        data[:INSTRUCTION_BYTES] = word.to_bytes(INSTRUCTION_BYTES, "little")
        col = check_program(bytes(data))
        assert any(
            f.rule == "IS001" and "unknown instruction nibble 0x3" in f.message
            for f in col.findings
        )

    def test_truncated_stream(self):
        data = assemble(adder_mb())
        col = check_program(data[:-7])
        assert [f for f in col.findings if f.rule == "IS001"]

    def test_gate_count_mismatch(self):
        data = bytearray(assemble(adder_mb()))
        # Bump the header's claimed gate count (field1 starts at bit 4).
        word = int.from_bytes(data[:INSTRUCTION_BYTES], "little")
        word += 1 << 4
        data[:INSTRUCTION_BYTES] = word.to_bytes(INSTRUCTION_BYTES, "little")
        col = check_program(bytes(data))
        assert [f for f in col.findings if f.rule == "IS002"]

    def test_analyze_binary_runs_mb_family(self):
        analysis = analyze_binary(
            assemble(adder_mb()), AnalyzerConfig(params=TFHE_MB_128)
        )
        assert not analysis.report.errors()
        assert "mb" in analysis.families
