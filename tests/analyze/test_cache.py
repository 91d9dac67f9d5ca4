"""Content-hash analysis cache: hits, counters, copies, disk spill."""

import dataclasses
import json

import pytest

from repro import obs
from repro.analyze import (
    AnalysisCache,
    AnalyzerConfig,
    DEFAULT_CONFIG,
    analyze_binary_cached,
    analyze_netlist_cached,
    binary_digest,
    netlist_digest,
)
import repro.analyze.cache as cache_module
from repro.analyze.cache import config_digest
from repro.isa.assembler import assemble
from repro.tfhe.params import TFHE_TEST

from .test_facts import full_adder, random_netlist


def counters(ob):
    return (
        ob.metrics.counter_value("analyze_cache_miss"),
        ob.metrics.counter_value("analyze_cache_hit"),
    )


class TestNetlistCache:
    def test_miss_then_hit_with_counters_and_no_respan(self):
        nl = full_adder()
        cache = AnalysisCache()
        config = DEFAULT_CONFIG.with_params(TFHE_TEST)
        with obs.observe() as ob:
            first = analyze_netlist_cached(nl, config, cache=cache)
            assert counters(ob) == (1, 0)
            spans_after_miss = sum(
                1
                for s in ob.tracer.spans
                if s.name == "analyze:netlist"
            )
            assert spans_after_miss == 1
            second = analyze_netlist_cached(nl, config, cache=cache)
            assert counters(ob) == (1, 1)
            # A hit is a lookup: no new analyze span was emitted.
            assert (
                sum(
                    1
                    for s in ob.tracer.spans
                    if s.name == "analyze:netlist"
                )
                == spans_after_miss
            )
        assert second.report.as_dict() == first.report.as_dict()
        assert second.families == first.families
        assert second.noise is not None
        assert second.noise.as_dict() == first.noise.as_dict()

    def test_hits_return_fresh_copies(self):
        nl = full_adder()
        cache = AnalysisCache()
        analyze_netlist_cached(nl, DEFAULT_CONFIG, cache=cache)
        hit = analyze_netlist_cached(nl, DEFAULT_CONFIG, cache=cache)
        hit.report.findings.append("poison")
        clean = analyze_netlist_cached(nl, DEFAULT_CONFIG, cache=cache)
        assert "poison" not in clean.report.findings

    def test_different_netlists_do_not_collide(self):
        cache = AnalysisCache()
        a = analyze_netlist_cached(
            random_netlist(0), DEFAULT_CONFIG, cache=cache
        )
        b = analyze_netlist_cached(
            random_netlist(1), DEFAULT_CONFIG, cache=cache
        )
        assert len(cache) == 2
        assert a.report.subject != b.report.subject

    def test_config_changes_miss(self):
        nl = full_adder()
        cache = AnalysisCache()
        with obs.observe() as ob:
            analyze_netlist_cached(nl, DEFAULT_CONFIG, cache=cache)
            analyze_netlist_cached(
                nl,
                dataclasses.replace(DEFAULT_CONFIG, dataflow=False),
                cache=cache,
            )
            assert counters(ob) == (2, 0)

    def test_explicit_digest_skips_rehash(self):
        nl = full_adder()
        cache = AnalysisCache()
        with obs.observe() as ob:
            analyze_netlist_cached(
                nl, DEFAULT_CONFIG, cache=cache, digest="cafebabe"
            )
            analyze_netlist_cached(
                nl, DEFAULT_CONFIG, cache=cache, digest="cafebabe"
            )
            assert counters(ob) == (1, 1)

    def test_lru_eviction(self):
        cache = AnalysisCache(max_entries=1)
        with obs.observe() as ob:
            analyze_netlist_cached(
                random_netlist(0), DEFAULT_CONFIG, cache=cache
            )
            analyze_netlist_cached(
                random_netlist(1), DEFAULT_CONFIG, cache=cache
            )
            assert len(cache) == 1
            # Entry 0 was evicted: analyzing it again is a miss.
            analyze_netlist_cached(
                random_netlist(0), DEFAULT_CONFIG, cache=cache
            )
            assert counters(ob) == (3, 0)


class TestDiskCache:
    def test_hits_survive_process_boundaries(self, tmp_path):
        nl = full_adder()
        first = AnalysisCache(directory=str(tmp_path))
        warm = analyze_netlist_cached(nl, DEFAULT_CONFIG, cache=first)
        assert list(tmp_path.glob("*.json"))
        # A brand-new cache instance (same directory) hits from disk.
        second = AnalysisCache(directory=str(tmp_path))
        with obs.observe() as ob:
            hit = analyze_netlist_cached(
                nl, DEFAULT_CONFIG, cache=second
            )
            assert counters(ob) == (0, 1)
        assert hit.report.as_dict() == warm.report.as_dict()

    def test_corrupt_disk_entry_is_a_miss_not_a_crash(self, tmp_path):
        nl = full_adder()
        cache = AnalysisCache(directory=str(tmp_path))
        analyze_netlist_cached(nl, DEFAULT_CONFIG, cache=cache)
        (path,) = tmp_path.glob("*.json")
        path.write_text("{ not json")
        fresh = AnalysisCache(directory=str(tmp_path))
        with obs.observe() as ob:
            analysis = analyze_netlist_cached(
                nl, DEFAULT_CONFIG, cache=fresh
            )
            assert counters(ob) == (1, 0)
        assert analysis.report.subject == nl.name
        # The miss repaired the entry on disk.
        assert json.loads(path.read_text())["report"]

    def test_entry_of_another_noise_model_version_misses(
        self, tmp_path, monkeypatch
    ):
        nl = full_adder()
        config = DEFAULT_CONFIG.with_params(TFHE_TEST)
        version = cache_module.CERTIFICATE_VERSION
        monkeypatch.setattr(cache_module, "CERTIFICATE_VERSION", version - 1)
        stale = AnalysisCache(directory=str(tmp_path))
        analyze_netlist_cached(nl, config, cache=stale)
        monkeypatch.setattr(cache_module, "CERTIFICATE_VERSION", version)
        assert len(list(tmp_path.glob("*.json"))) == 1
        fresh = AnalysisCache(directory=str(tmp_path))
        with obs.observe() as ob:
            analysis = analyze_netlist_cached(nl, config, cache=fresh)
            assert counters(ob) == (1, 0)
        assert analysis.noise is not None
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_clear_empties_memory_but_not_disk(self, tmp_path):
        cache = AnalysisCache(directory=str(tmp_path))
        analyze_netlist_cached(full_adder(), DEFAULT_CONFIG, cache=cache)
        cache.clear()
        assert len(cache) == 0
        with obs.observe() as ob:
            analyze_netlist_cached(
                full_adder(), DEFAULT_CONFIG, cache=cache
            )
            assert counters(ob) == (0, 1)


class TestCostCaching:
    def test_certificate_round_trips_through_disk(self, tmp_path):
        nl = full_adder()
        config = DEFAULT_CONFIG.with_params(TFHE_TEST)
        warm = analyze_netlist_cached(
            nl, config, cache=AnalysisCache(directory=str(tmp_path))
        )
        assert warm.cost is not None
        # A brand-new cache instance reads the certificate from disk.
        hit = analyze_netlist_cached(
            nl, config, cache=AnalysisCache(directory=str(tmp_path))
        )
        assert hit.cost is not None
        assert hit.cost == warm.cost
        assert hit.cost.as_dict() == warm.cost.as_dict()

    def test_cost_counters_track_hits_and_misses(self):
        nl = full_adder()
        cache = AnalysisCache()
        with obs.observe() as ob:
            analyze_netlist_cached(nl, DEFAULT_CONFIG, cache=cache)
            analyze_netlist_cached(nl, DEFAULT_CONFIG, cache=cache)
            assert (
                ob.metrics.counter_value("analyze_cost_cache_miss") == 1
            )
            assert (
                ob.metrics.counter_value("analyze_cost_cache_hit") == 1
            )

    def test_cost_counters_silent_when_family_disabled(self):
        nl = full_adder()
        cache = AnalysisCache()
        no_cost = dataclasses.replace(DEFAULT_CONFIG, cost=False)
        with obs.observe() as ob:
            analyze_netlist_cached(nl, no_cost, cache=cache)
            analyze_netlist_cached(nl, no_cost, cache=cache)
            assert counters(ob) == (1, 1)
            assert (
                ob.metrics.counter_value("analyze_cost_cache_miss") == 0
            )
            assert (
                ob.metrics.counter_value("analyze_cost_cache_hit") == 0
            )


class TestBinaryCache:
    def test_binary_hit_skips_disassembly(self):
        data = assemble(full_adder())
        cache = AnalysisCache()
        with obs.observe() as ob:
            miss = analyze_binary_cached(data, cache=cache, name="fa")
            hit = analyze_binary_cached(data, cache=cache, name="fa")
            assert counters(ob) == (1, 1)
        assert miss.netlist is not None
        assert hit.netlist is None and hit.schedule is None
        assert hit.report.as_dict() == miss.report.as_dict()

    def test_subject_name_is_part_of_the_key(self):
        data = assemble(full_adder())
        cache = AnalysisCache()
        with obs.observe() as ob:
            analyze_binary_cached(data, cache=cache, name="a.bin")
            analyze_binary_cached(data, cache=cache, name="b.bin")
            assert counters(ob) == (2, 0)


class TestDigests:
    def test_netlist_digest_is_sensitive_to_content(self):
        a = netlist_digest(random_netlist(0))
        b = netlist_digest(random_netlist(1))
        assert a != b and len(a) == 32

    def test_netlist_digest_is_stable(self):
        assert netlist_digest(full_adder()) == netlist_digest(
            full_adder()
        )

    def test_binary_digest_matches_serve_program_id(self):
        from repro.serve.registry import program_id_of

        data = assemble(full_adder())
        assert binary_digest(data) == program_id_of(data)

    def test_config_digest_covers_thresholds(self):
        base = AnalyzerConfig()
        assert config_digest(base) != config_digest(
            dataclasses.replace(base, error_sigmas=1.5)
        )
        assert config_digest(base) != config_digest(
            dataclasses.replace(base, max_findings_per_rule=3)
        )

    def test_config_digest_covers_cost_config(self):
        # A recalibrated gate cost or changed budget must never be
        # served a stale certificate.
        from repro.analyze import CostAnalysisConfig
        from repro.perfmodel import GateCostModel

        base = AnalyzerConfig()
        assert config_digest(base) != config_digest(
            dataclasses.replace(base, cost=False)
        )
        assert config_digest(base) != config_digest(
            dataclasses.replace(
                base,
                cost_config=CostAnalysisConfig(budget_ms=100.0),
            )
        )
        assert config_digest(base) != config_digest(
            dataclasses.replace(
                base,
                cost_config=CostAnalysisConfig(
                    gate_cost=GateCostModel("m", 0.1, 2.0, 0.2, 64)
                ),
            )
        )


class TestGatedEntryPoints:
    def test_verify_compiled_hits_on_second_call(self):
        from repro.analyze.cache import default_cache
        from repro.core.compiler import verify_compiled

        default_cache().clear()
        nl = random_netlist(7)
        with obs.observe() as ob:
            verify_compiled(nl, True)
            verify_compiled(nl, True)
            assert counters(ob) == (1, 1)

    def test_server_check_programs_caches(self):
        import numpy as np

        from repro.analyze.cache import default_cache
        from repro.chiseltorch.dtypes import UInt
        from repro.core import Client, Server
        from repro.core.compiler import TensorSpec, compile_function

        default_cache().clear()
        compiled = compile_function(
            lambda x: x + x, [TensorSpec("x", (1,), UInt(2))]
        )
        client = Client(TFHE_TEST, seed=3)
        x = np.array([1.0])
        with obs.observe() as ob, Server(
            client.cloud_key, backend="batched", check_programs=True
        ) as server:
            ct = client.encrypt(compiled, x)
            server.execute(compiled, ct)
            server.execute(compiled, ct)
            assert counters(ob) == (1, 1)

    @pytest.mark.parametrize("use_registry", [True, False])
    def test_registry_reuses_cli_and_registry_verdicts(
        self, use_registry
    ):
        from repro.analyze.cache import default_cache
        from repro.serve.registry import ProgramRegistry

        default_cache().clear()
        data = assemble(random_netlist(11))
        with obs.observe() as ob:
            if use_registry:
                ProgramRegistry().register(data)
            else:
                # An out-of-band `verify_compiled` with the program id
                # as digest (what the registry passes) pre-warms it.
                from repro.core.compiler import verify_compiled
                from repro.isa import disassemble
                from repro.serve.registry import program_id_of

                verify_compiled(
                    disassemble(data), True, cache_key=program_id_of(data)
                )
            # A *different* registry instance (no shared metadata)
            # re-verifies the upload purely from the analysis cache.
            ProgramRegistry().register(data)
            assert counters(ob) == (1, 1)
