"""Static noise-budget certification (NB family)."""

import dataclasses

import pytest
from hypothesis import given, settings

from repro.analyze import Collector, certify_noise
from repro.bench import mnist_workload, vip_workloads
from repro.gatetypes import NO_INPUT, OP_LIN, OP_SIGN, Gate
from repro.hdl.builder import CircuitBuilder
from repro.hdl.netlist import Netlist
from repro.runtime.scheduler import build_schedule
from repro.synth import optimize
from repro.tfhe.params import TFHE_DEFAULT_128, TFHE_MB_128, TFHE_TEST

from ..isa import test_roundtrip_property as roundtrip
from ..synth import two_input
from . import noisecert_oracle as oracle


def two_level_circuit():
    b = CircuitBuilder(name="2lvl")
    a, c, d = b.inputs(3)
    b.output(b.and_(b.xor_(a, c), d), "o")
    return b.build()


def noisy_params(base=TFHE_TEST, tlwe_noise_std=2**-10):
    return dataclasses.replace(
        base, name="noisy", tlwe_noise_std=tlwe_noise_std
    )


def certify(netlist, params, **kwargs):
    return certify_noise(netlist, build_schedule(netlist), params, **kwargs)


def test_default_params_certify_clean():
    netlist = two_level_circuit()
    for params in (TFHE_TEST, TFHE_DEFAULT_128):
        col = Collector()
        cert = certify(netlist, params, collector=col)
        assert col.findings == []
        assert len(cert.levels) == 2
        assert cert.levels[0].fresh_inputs
        assert not cert.levels[1].fresh_inputs
        assert cert.worst.margin_sigmas > 6.0
        assert cert.expected_failures < 1e-6


def test_nb001_sub_threshold_margin_is_an_error():
    col = Collector()
    cert = certify(two_level_circuit(), noisy_params(), collector=col)
    nb001 = [f for f in col.findings if f.rule == "NB001"]
    assert nb001, [f.render() for f in col.findings]
    assert all(f.severity.name == "ERROR" for f in nb001)
    assert cert.worst.margin_sigmas < 4.0


def test_nb002_warning_band_via_raised_threshold():
    # TFHE_DEFAULT_128's margin is ~9.7 sigma: raising the warn
    # threshold above it lands the level in the warning band without
    # touching the error band.
    col = Collector()
    certify(
        two_level_circuit(),
        TFHE_DEFAULT_128,
        error_sigmas=4.0,
        warn_sigmas=50.0,
        collector=col,
    )
    assert {f.rule for f in col.findings} == {"NB002"}
    assert all(f.severity.name == "WARNING" for f in col.findings)


def test_nb003_expected_failures_budget():
    col = Collector()
    cert = certify(
        two_level_circuit(),
        TFHE_DEFAULT_128,
        max_expected_failures=0.0,
        collector=col,
    )
    nb003 = [f for f in col.findings if f.rule == "NB003"]
    assert len(nb003) == 1
    assert cert.expected_failures > 0.0


def test_certificate_levels_report_widths():
    cert = certify(two_level_circuit(), TFHE_TEST, collector=Collector())
    assert [c.gates for c in cert.levels] == [1, 1]
    assert cert.params_name == TFHE_TEST.name


def test_free_chain_carries_its_operands_variance():
    # XOR(z, BUF(NOT(AND(x, y)))): one fresh and one bootstrapped input,
    # through a two-gate free chain.  The closed form assumed two
    # bootstrapped inputs; the sweep is exact.
    netlist = Netlist(
        num_inputs=3,
        ops=[Gate.AND, Gate.NOT, Gate.BUF, Gate.XOR],
        in0=[0, 3, 4, 2],
        in1=[1, NO_INPUT, NO_INPUT, 5],
        outputs=[6],
    )
    schedule = build_schedule(netlist)
    cert = certify_noise(netlist, schedule, TFHE_DEFAULT_128)
    assert cert == oracle.certify_per_gate(
        netlist, schedule, TFHE_DEFAULT_128
    )
    bound = oracle.certify_closed_form(schedule, TFHE_DEFAULT_128)
    assert cert.levels[1].margin_sigmas > bound.levels[1].margin_sigmas


def assert_certificates_equal(got, want):
    """Field for field; floats to 1e-12 relative."""
    assert got.params_name == want.params_name
    assert len(got.levels) == len(want.levels)
    for g, w in zip(got.levels, want.levels):
        assert (g.level, g.gates, g.fresh_inputs) == (
            w.level, w.gates, w.fresh_inputs
        )
        assert g.margin_sigmas == pytest.approx(w.margin_sigmas, rel=1e-12)
        assert g.failure_probability == pytest.approx(
            w.failure_probability, rel=1e-12, abs=0.0
        )
    assert got.expected_failures == pytest.approx(
        want.expected_failures, rel=1e-12, abs=0.0
    )


@settings(max_examples=60, deadline=None)
@given(roundtrip.netlists(typed=True))
def test_sweep_equals_the_per_gate_walk_on_typed_netlists(netlist):
    schedule = build_schedule(netlist)
    for params in (TFHE_TEST, TFHE_MB_128):
        assert_certificates_equal(
            certify_noise(netlist, schedule, params),
            oracle.certify_per_gate(netlist, schedule, params),
        )


def _workloads():
    workloads = sorted(vip_workloads().items())
    workloads.append(("mnist_S", mnist_workload("S")))
    return workloads


def _boolean_programs():
    for name, workload in _workloads():
        yield name, workload.netlist
        yield f"{name}/opt", two_input(workload.netlist)


@pytest.mark.parametrize("params", [TFHE_TEST, TFHE_DEFAULT_128],
                         ids=lambda p: p.name)
def test_vip_programs_keep_the_closed_form_verdicts(params):
    """18 VIP programs and MNIST_S, raw and optimized onto the 2-input
    library, against the old per-level closed form: the same levels,
    widths, fresh flags, worst margin and NB findings, and never less
    margin on any level."""
    risen = 0
    for name, netlist in _boolean_programs():
        schedule = build_schedule(netlist)
        col = Collector(max_per_rule=10**6)
        got = certify_noise(netlist, schedule, params, collector=col)
        bound = oracle.certify_closed_form(schedule, params)
        assert [(c.level, c.gates, c.fresh_inputs) for c in got.levels] == [
            (c.level, c.gates, c.fresh_inputs) for c in bound.levels
        ], name
        for g, w in zip(got.levels, bound.levels):
            assert g.margin_sigmas >= w.margin_sigmas * (1 - 1e-12), name
            assert g.failure_probability <= w.failure_probability * (
                1 + 1e-12
            ), name
            risen += g.margin_sigmas > w.margin_sigmas * (1 + 1e-12)
        assert got.worst.margin_sigmas == pytest.approx(
            bound.worst.margin_sigmas, rel=1e-12
        ), name
        assert got.expected_failures <= bound.expected_failures * (
            1 + 1e-12
        ), name
        assert {(f.rule, f.level) for f in col.findings} == (
            oracle.nb_verdicts(bound)
        ), name
    assert risen  # the sweep is exact where the closed form is worst-case


def test_mapped_programs_certify_at_six_sigma():
    """Every VIP program and MNIST_S, mapped onto MAJ3/XOR3 cells,
    certifies at >= 6 sigma at tfhe-default-128.  A cell's SIGN decides
    at 1/8 over its LIN sum: XOR3's 12 sigma^2 puts the worst margin at
    sqrt(8/12) of the 2-input library's where a program has one."""
    for name, workload in _workloads():
        library = two_input(workload.netlist)
        mapped = optimize(workload.netlist)
        got = certify_noise(mapped, build_schedule(mapped), TFHE_DEFAULT_128)
        base = certify_noise(
            library, build_schedule(library), TFHE_DEFAULT_128
        )
        assert got.worst.margin_sigmas >= 6.0, name
        assert got.worst.margin_sigmas >= base.worst.margin_sigmas * (
            (8 / 12) ** 0.5 - 1e-3
        ), name


def _cell(kx, ky, kconst=0, phase_ky=1):
    """One SIGN over ``LIN(LIN(a, b, kx, ky), c, 1, phase_ky) + kconst``."""
    return Netlist(
        3,
        [OP_LIN, OP_LIN, OP_SIGN],
        [0, 3, 4],
        [1, 2, NO_INPUT],
        [5],
        kx=[kx, 1, 0],
        ky=[ky, phase_ky, 0],
        kconst=[0, kconst, 0],
    )


@pytest.mark.parametrize(
    "cell, safe",
    [
        (_cell(1, 1), True),  # MAJ3: phases ±1, ±3
        (_cell(-2, -2, phase_ky=-2), True),  # XOR3: phases ±2, ±6
        (_cell(1, -1, phase_ky=-1), True),  # MAJ3 of negated inputs
        (_cell(1, 1, phase_ky=0), False),  # a + b: phase 0
        (_cell(2, 2, phase_ky=0), False),  # 2(a + b): phases 0, ±4
        (_cell(4, 4, phase_ky=4), False),  # 4(a+b+c): phase 4 always
        (_cell(1, 1, kconst=1), False),  # a+b+c+1: phases 0 and 4
    ],
)
def test_sign_on_a_boundary_has_no_margin(cell, safe):
    """A SIGN whose phase can land on 0 or 1/2 fails NB001; MAJ3 and
    XOR3 never can."""
    col = Collector()
    cert = certify_noise(cell, build_schedule(cell), TFHE_DEFAULT_128,
                         collector=col)
    assert (cert.worst.margin_sigmas > 6.0) == safe
    assert any(f.rule == "NB001" for f in col.findings) == (not safe)
