"""Command-line interface: ``python -m repro.cli <command>``.

A small operator toolbox around the library:

* ``compile``  — compile a built-in workload to a PyTFHE binary file;
* ``check``    — static analysis of a binary or workload: structural
  lint, schedule/hazard race detection, and noise-budget certification
  (text or ``--json`` report, non-zero exit on gating findings;
  ``--check-passes`` re-checks between synthesis passes);
* ``disasm``   — textual listing of a PyTFHE binary;
* ``stats``    — gate statistics of a binary;
* ``estimate`` — backend runtime estimates for a binary (paper model);
* ``run``      — execute a workload under real FHE on a chosen backend
  (default ``batched``: the in-process level-batched SIMD
  bootstrapping engine; ``distributed`` shards each level over a
  shared-memory worker pool, reused across ``--runs``); ``--trace-out`` /
  ``--metrics-out`` capture the run through the observability layer
  and ``--noise`` prints the noise certificate of the executed
  schedule; ``--mode mblut`` (also on ``check``, ``cost``
  and ``bench-gate``) compiles matched arithmetic onto multi-bit LUT
  bootstraps first;
* ``profile``  — compile + run one workload fully instrumented and
  print a combined Fig.-7/Fig.-8-style report (gate phases, compile
  passes, execution Gantt, metrics; ``--noise`` adds the noise
  certificate);
* ``serve``    — run the multi-tenant FHE inference service
  (:mod:`repro.serve`): tenants register cloud keys and programs over
  the wire, concurrent same-program requests coalesce into SIMD
  batches, full queues answer BUSY;
* ``call``     — drive a workload through a running service: register
  key + program, send encrypted inputs, verify the decrypted reply;
* ``keygen``   — generate and save a (secret, cloud) key pair;
* ``bench-gate`` — measure this machine's bootstrapped-gate cost:
  single-gate phase breakdown plus the batched engine's
  fused-bootstrap gates/s and its speedup over one gate alone.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import List, Optional

from .isa import assemble, disassemble, format_program


def _workload_by_name(name: str):
    from .bench import attention_workload, mnist_workload, vip_workloads

    vips = vip_workloads()
    if name in vips:
        return vips[name]
    if name.startswith("mnist_"):
        variant = name.split("_")[1].upper()
        return mnist_workload(variant, "reduced")
    if name == "attention":
        return attention_workload(8, name="attention")
    raise SystemExit(
        f"unknown workload {name!r}; try one of: "
        f"{', '.join(sorted(vips))}, mnist_s/m/l, attention"
    )


def cmd_compile(args) -> int:
    workload = _workload_by_name(args.workload)
    binary = assemble(workload.netlist)
    with open(args.output, "wb") as handle:
        handle.write(binary)
    stats = workload.netlist.stats()
    print(
        f"wrote {args.output}: {len(binary)} bytes, "
        f"{stats.num_gates} gates ({stats.num_bootstrapped_gates} "
        f"bootstrapped, depth {stats.bootstrap_depth})"
    )
    return 0


def _maybe_synthesize_mb(netlist, args):
    """Apply ``--mode mblut``: rewrite arithmetic onto LUT bootstraps."""
    if getattr(args, "mode", "boolean") != "mblut":
        return netlist
    from .mblut import synthesize

    mb = synthesize(netlist, modulus=args.modulus)
    rep = mb.synthesis
    print(
        f"mblut synthesis (p={rep.modulus}): "
        f"{rep.bool_bootstraps_before} -> {rep.mb_bootstraps_after} "
        f"bootstraps ({rep.reduction:.1f}x over boolean, "
        f"{rep.chains} chains, {rep.lut_bootstraps} LUTs, "
        f"{rep.b2d_conversions}+{rep.d2b_conversions} conversions)"
    )
    return mb


def _mode_params_name(args) -> str:
    """``--mode mblut`` retargets the default parameter set.

    The boolean-tuned default decides against a 1/8 margin; multi-bit
    slices need the PBS-grade set, so an unchanged ``--params`` follows
    the mode.  An explicit ``--params`` always wins.
    """
    if (
        getattr(args, "mode", "boolean") == "mblut"
        and args.params == "tfhe-default-128"
    ):
        return "tfhe-mb-128"
    return args.params


def _gatecost_arg(spec):
    """``--gatecost`` value: 'paper' (None = default) or a JSON path."""
    if spec is None or spec == "paper":
        return None
    from .perfmodel import load_gate_cost

    return load_gate_cost(spec)


def cmd_check(args: argparse.Namespace) -> int:
    import json
    import os

    from . import obs as obslib
    from .analyze import (
        AnalysisCache,
        AnalyzerConfig,
        CostAnalysisConfig,
        DEFAULT_MAX_FINDINGS_PER_RULE,
        Severity,
        analyze_binary,
        analyze_binary_cached,
        analyze_netlist,
        analyze_netlist_cached,
        run_checked_passes,
    )

    params = None
    params_name = _mode_params_name(args)
    if params_name.lower() != "none":
        params = _resolve_params(params_name)
    cost_config = CostAnalysisConfig(
        gate_cost=_gatecost_arg(args.gatecost),
        budget_ms=args.budget_ms,
        budget_mb=args.budget_mb,
        backend=args.cost_backend,
    )
    config = AnalyzerConfig(
        params=params,
        noise=not args.no_noise,
        dataflow=not args.no_dataflow,
        cost=not args.no_cost,
        cost_config=cost_config,
        error_sigmas=args.sigma_error,
        warn_sigmas=args.sigma_warn,
        max_findings_per_rule=(
            args.max_findings
            if args.max_findings is not None
            else DEFAULT_MAX_FINDINGS_PER_RULE
        ),
    )
    fail_at = (
        None if args.fail_on == "never" else Severity.parse(args.fail_on)
    )
    use_cache = not args.no_cache
    cache = (
        AnalysisCache(directory=args.cache_dir) if args.cache_dir else None
    )

    observed = _wants_observability(args)
    ctx = (
        obslib.observe() if observed else nullcontext(obslib.DISABLED)
    )
    with ctx as ob:
        if os.path.exists(args.target):
            with open(args.target, "rb") as handle:
                data = handle.read()
            name = os.path.basename(args.target)
            if use_cache:
                analysis = analyze_binary_cached(
                    data, config, name=name, cache=cache
                )
                if (
                    args.check_passes
                    and analysis.netlist is None
                    and not analysis.report.has_errors
                ):
                    # A cache hit skips disassembly; recover the
                    # netlist so --check-passes still has a subject.
                    from .isa import disassemble

                    analysis.netlist = disassemble(data, name=name)
            else:
                analysis = analyze_binary(data, config, name=name)
        else:
            workload = _workload_by_name(args.target)
            netlist = _maybe_synthesize_mb(workload.netlist, args)
            if use_cache:
                analysis = analyze_netlist_cached(
                    netlist, config, cache=cache
                )
            else:
                analysis = analyze_netlist(netlist, config)

        passcheck = None
        if args.check_passes:
            if analysis.netlist is None:
                print(
                    "cannot --check-passes: the instruction stream has "
                    "error findings, no netlist was recovered"
                )
            else:
                passcheck = run_checked_passes(
                    analysis.netlist, config=config
                )
                analysis.report.merge(passcheck.report)

    report = analysis.report
    if args.json:
        doc = report.as_dict()
        if analysis.noise is not None:
            doc["noise"] = analysis.noise.as_dict()
        if analysis.cost is not None:
            doc["cost"] = analysis.cost.as_dict()
        if passcheck is not None:
            doc["passcheck"] = {
                "ok": passcheck.ok,
                "failing_pass": passcheck.failing_pass,
                "passes": [
                    {
                        "name": r.pass_name,
                        "ok": r.ok,
                        "gates_before": r.gates_before,
                        "gates_after": r.gates_after,
                    }
                    for r in passcheck.records
                ],
            }
        serialized = json.dumps(doc, indent=2)
        if args.json == "-":
            print(serialized)
        else:
            with open(args.json, "w") as handle:
                handle.write(serialized + "\n")
            print(f"wrote JSON report to {args.json}")
    if args.json != "-":
        print(report.render_text())
        if analysis.noise is not None and analysis.noise.levels:
            print(analysis.noise.summary())
        if args.cost and analysis.cost is not None:
            print(analysis.cost.render_text())
        if passcheck is not None:
            print(passcheck.render_text())
    if observed:
        _finish_observability(ob, args)

    status = 0
    if fail_at is not None and report.at_least(fail_at):
        status = 1
    if passcheck is not None and not passcheck.ok:
        status = 1
    return status


def cmd_cost(args) -> int:
    """Render one program's static cost certificate (text or JSON)."""
    import json
    import os

    from .analyze import CostAnalysisConfig, certify_cost
    from .analyze.findings import Collector

    if os.path.exists(args.target):
        from .isa import disassemble

        with open(args.target, "rb") as handle:
            data = handle.read()
        netlist = disassemble(
            data, name=os.path.basename(args.target)
        )
    else:
        netlist = _maybe_synthesize_mb(
            _workload_by_name(args.target).netlist, args
        )
    config = CostAnalysisConfig(
        gate_cost=_gatecost_arg(args.gatecost),
        budget_ms=args.budget_ms,
        budget_mb=args.budget_mb,
        backend=args.backend,
        requests=args.requests,
    )
    col = Collector()
    certificate = certify_cost(netlist.facts, config, col)
    report = col.into_report(netlist.name, ["cost"])
    if args.json:
        doc = certificate.as_dict()
        doc["report"] = report.as_dict()
        serialized = json.dumps(doc, indent=2)
        if args.json == "-":
            print(serialized)
        else:
            with open(args.json, "w") as handle:
                handle.write(serialized + "\n")
            print(f"wrote cost certificate to {args.json}")
    if args.json != "-":
        print(certificate.render_text())
        if report.findings:
            print(report.render_text())
    return 0 if report.ok else 1


def cmd_calibrate(args) -> int:
    """Measure this machine's gate cost and persist the calibration."""
    import os

    import numpy as np

    from .perfmodel import measured_gate_cost
    from .tfhe import generate_keys
    from .tfhe.lwe import LweCiphertext

    params = _resolve_params(args.params)
    print(f"generating keys for {params.name} ...")
    _, cloud = generate_keys(params, seed=args.seed)

    # Random-mask inputs: a trivial sample's zero mask lets the blind
    # rotation skip every CMUX, which would calibrate an optimistic
    # model that serve admission then trusts.  Same discipline as
    # `repro bench-gate`.
    rng = np.random.default_rng(args.seed)

    def _sample():
        a = rng.integers(
            -(2 ** 31), 2 ** 31,
            size=(1, params.lwe_dimension), dtype=np.int64,
        ).astype(np.int32)
        b = rng.integers(
            -(2 ** 31), 2 ** 31, size=1, dtype=np.int64
        ).astype(np.int32)
        return LweCiphertext(a, b)

    cost = measured_gate_cost(
        cloud,
        repetitions=args.repetitions,
        warmup=args.warmup,
        inputs=(_sample(), _sample()),
    )
    out_dir = os.path.dirname(args.output)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    cost.save(args.output)
    print(
        f"calibrated {cost.name}: {cost.gate_ms:.2f} ms/gate "
        f"(linear {cost.linear_ms:.3f}, blind rotation "
        f"{cost.blind_rotation_ms:.2f}, key switch "
        f"{cost.key_switching_ms:.2f}), ciphertext "
        f"{cost.ciphertext_bytes} B"
    )
    print(
        f"wrote {args.output} — serve it with "
        f"`repro serve --gatecost {args.output}`"
    )
    return 0


def cmd_disasm(args) -> int:
    with open(args.binary, "rb") as handle:
        data = handle.read()
    print(format_program(data, max_rows=args.max_rows))
    return 0


def cmd_stats(args) -> int:
    with open(args.binary, "rb") as handle:
        netlist = disassemble(handle.read())
    print(netlist.stats())
    return 0


def cmd_estimate(args) -> int:
    from .perfmodel import (
        A5000,
        ClusterSimulator,
        GpuSimulator,
        PAPER_GATE_COST,
        RTX4090,
        TABLE_II_CLUSTER,
        single_node,
    )
    from .runtime import build_schedule

    with open(args.binary, "rb") as handle:
        netlist = disassemble(handle.read())
    schedule = build_schedule(netlist)
    single_ms = schedule.num_bootstrapped * PAPER_GATE_COST.gate_ms
    rows = [
        ("single core", single_ms),
        (
            "1 node (18 workers)",
            ClusterSimulator(single_node(), PAPER_GATE_COST)
            .simulate(schedule)
            .total_ms,
        ),
        (
            "4 nodes (72 workers)",
            ClusterSimulator(TABLE_II_CLUSTER, PAPER_GATE_COST)
            .simulate(schedule)
            .total_ms,
        ),
        (
            "A5000 GPU",
            GpuSimulator(A5000, PAPER_GATE_COST)
            .simulate_pytfhe(schedule)
            .total_ms,
        ),
        (
            "RTX 4090 GPU",
            GpuSimulator(RTX4090, PAPER_GATE_COST)
            .simulate_pytfhe(schedule)
            .total_ms,
        ),
    ]
    print(f"{schedule.num_bootstrapped} bootstrapped gates, "
          f"{schedule.depth} levels")
    for name, ms in rows:
        print(f"  {name:22s} {ms / 1e3:10.1f} s  ({single_ms / ms:6.1f}x)")
    return 0


def _resolve_params(name: str):
    from .tfhe import PARAMETER_SETS

    params = PARAMETER_SETS.get(name)
    if params is None:
        raise SystemExit(
            f"unknown parameter set {name!r}; "
            f"choose from {sorted(PARAMETER_SETS)}"
        )
    return params


def _add_obs_arguments(
    parser: argparse.ArgumentParser, noise: bool = True
) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome trace_event JSON (Perfetto-loadable)",
    )
    parser.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="FILE",
        help="write the raw span/instant stream as JSON lines",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the metrics registry as JSON",
    )
    if noise:
        parser.add_argument(
            "--noise",
            action="store_true",
            help="print the noise certificate of the executed schedule",
        )


def _wants_observability(args) -> bool:
    return bool(
        getattr(args, "trace_out", None)
        or getattr(args, "trace_jsonl", None)
        or getattr(args, "metrics_out", None)
    )


def _finish_observability(ob, args) -> None:
    """Write the export artifacts an observed CLI command asked for."""
    from .obs import write_chrome_trace, write_jsonl

    if getattr(args, "trace_out", None):
        write_chrome_trace(ob.tracer, args.trace_out, ob.metrics)
        print(
            f"wrote Chrome trace to {args.trace_out} "
            f"(open in Perfetto / chrome://tracing)"
        )
    if getattr(args, "trace_jsonl", None):
        write_jsonl(ob.tracer, args.trace_jsonl)
        print(f"wrote JSONL event stream to {args.trace_jsonl}")
    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w") as handle:
            handle.write(ob.metrics.to_json() + "\n")
        print(f"wrote metrics to {args.metrics_out}")


def _execution_backend(args, cloud):
    """The backend ``--backend`` / ``--workers`` ask for."""
    from .runtime import CpuBackend, DistributedCpuBackend

    if args.backend == "distributed":
        try:
            return DistributedCpuBackend(cloud, num_workers=args.workers)
        except ValueError as exc:
            raise SystemExit(f"--workers: {exc}") from None
    return CpuBackend(cloud)


def cmd_run(args) -> int:
    import numpy as np

    from . import obs as obslib
    from .analyze import certify_noise
    from .runtime import build_schedule
    from .tfhe import decrypt_bits, encrypt_bits, generate_keys

    params = _resolve_params(args.params)
    mblut = args.mode == "mblut"
    observed = _wants_observability(args)
    ctx = obslib.observe() if observed else nullcontext(obslib.DISABLED)
    with ctx as ob:
        workload = _workload_by_name(args.workload)
        source = workload.netlist
        netlist = _maybe_synthesize_mb(source, args)
        print(f"generating keys for {params.name} ...")
        secret, cloud = generate_keys(params, seed=args.seed)
        rng = np.random.default_rng(args.seed)
        bits = workload.compiled.encode_inputs(*workload.sample_inputs())
        want = source.evaluate(bits)
        if mblut:
            from .mblut import decrypt_mb_outputs, encrypt_mb_inputs

            ciphertext = encrypt_mb_inputs(secret, netlist, bits, rng)
        else:
            ciphertext = encrypt_bits(secret, bits, rng)
        schedule = build_schedule(netlist)
        cert = certify_noise(netlist, schedule, params)
        if args.noise:
            print(cert.summary())
        worst = cert.worst
        if mblut and worst is not None and worst.margin_sigmas < 4.0:
            # Multi-bit slices are 1/(4p) wide, so a parameter set that
            # is fine for boolean gates may be hopeless here; say so
            # before spending minutes on a run that cannot decrypt.
            print(
                f"warning: certified decision margin is only "
                f"{worst.margin_sigmas:.1f} sigma at p={args.modulus} "
                f"on {params.name} (expected wrong decisions: "
                f"{cert.expected_failures:.2e}); decryption failures are "
                f"likely — lower --modulus or use --params tfhe-mb-128"
            )

        backend = _execution_backend(args, cloud)
        status = 0
        try:
            for index in range(args.runs):
                out, report = backend.run(netlist, ciphertext, schedule)
                if mblut:
                    got = decrypt_mb_outputs(secret, netlist, out)
                else:
                    got = decrypt_bits(secret, out)
                ok = bool(np.array_equal(got, want))
                print(
                    f"run {index}: {report.backend}  "
                    f"{report.wall_time_s * 1e3:9.1f} ms  "
                    f"ct_moved={report.ciphertext_bytes_moved}  "
                    f"key_moved={report.key_bytes_moved}  "
                    f"pool_reused={report.pool_reused}  ok={ok}"
                )
                if not ok:
                    status = 1
                    break
        finally:
            if hasattr(backend, "shutdown"):
                backend.shutdown()
    if observed:
        _finish_observability(ob, args)
    return status


def cmd_profile(args) -> int:
    import numpy as np

    from . import obs as obslib
    from .analyze import certify_noise
    from .runtime import build_schedule, profile_gate
    from .tfhe import decrypt_bits, encrypt_bits, generate_keys

    params = _resolve_params(args.params)
    with obslib.observe() as ob:
        # Touch the netlist inside the observed block so elaboration
        # and synthesis pass spans land in the trace.
        workload = _workload_by_name(args.workload)
        netlist = workload.netlist
        schedule = build_schedule(netlist)
        with ob.tracer.span(
            "session:keygen", cat="session", params=params.name
        ):
            print(f"generating keys for {params.name} ...")
            secret, cloud = generate_keys(params, seed=args.seed)

        print(f"\n== gate phase breakdown (Fig. 7, {params.name}) ==")
        profile = profile_gate(
            cloud, repetitions=args.repetitions, warmup=args.warmup
        )
        for phase, ms, fraction in profile.rows():
            print(f"  {phase:20s} {ms:8.2f} ms  ({fraction * 100:5.1f}%)")
        print(f"  {'total':20s} {profile.total_ms:8.2f} ms")

        rng = np.random.default_rng(args.seed)
        bits = workload.compiled.encode_inputs(*workload.sample_inputs())
        ciphertext = encrypt_bits(secret, bits, rng)
        want = netlist.evaluate(bits)

        backend = _execution_backend(args, cloud)
        try:
            out, report = backend.run(netlist, ciphertext, schedule)
        finally:
            if hasattr(backend, "shutdown"):
                backend.shutdown()
        ok = bool(np.array_equal(decrypt_bits(secret, out), want))

    print("\n== compile phases ==")
    compile_spans = list(ob.tracer.iter_spans(cat="compile"))
    if compile_spans:
        for span in compile_spans:
            gates = span.args.get("gates", span.args.get("gates_out", ""))
            print(
                f"  {span.name:28s} {span.duration_s * 1e3:9.2f} ms"
                + (f"  gates={gates}" if gates != "" else "")
            )
    else:
        print("  (workload was pre-compiled; no compile spans)")

    print(
        f"\n== execution timeline ({report.backend}, "
        f"{report.wall_time_s * 1e3:.1f} ms, ok={ok}) =="
    )
    levels = list(ob.tracer.iter_spans(cat="execute"))
    print(obslib.render_levels(levels))
    summary = obslib.summarize_levels(levels)
    print(
        f"levels={summary['levels']}  "
        f"bootstrap={summary['bootstrap_s'] * 1e3:.1f} ms  "
        f"free={summary['free_s'] * 1e3:.1f} ms  "
        f"bootstrap_fraction={summary['bootstrap_fraction'] * 100:.1f}%  "
        f"widest_level={summary['widest_level']}"
    )

    print("\n== metrics ==")
    print(ob.metrics.render_text())
    if args.noise:
        print("\n== noise ==")
        print(certify_noise(netlist, schedule, params).summary())
    _finish_observability(ob, args)
    return 0 if ok else 1


def cmd_serve(args) -> int:
    import asyncio

    from . import obs as obslib
    from .serve import FheServer, ServeConfig

    observed = _wants_observability(args)
    ctx = (
        obslib.observe() if observed else nullcontext(obslib.DISABLED)
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        num_workers=args.workers,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        linger_s=args.linger_ms / 1e3,
        max_frame_bytes=args.max_frame_bytes,
        check=not args.no_check,
        gatecost_path=args.gatecost,
        admission_engine=None if args.no_admission else args.backend,
        telemetry_port=args.telemetry_port,
        flight_dir=args.flight_dir,
    )

    async def _main(server: FheServer) -> None:
        await server.start()
        print(
            f"serving FHE inference on {config.host}:{server.port}  "
            f"(backend={config.backend}, max_batch={config.max_batch}, "
            f"max_pending={config.max_pending})"
        )
        if server.telemetry_port is not None:
            print(
                f"telemetry on http://{config.telemetry_host}:"
                f"{server.telemetry_port}  (/metrics /healthz /varz)"
            )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    with ctx as ob:
        server = FheServer(config)
        try:
            asyncio.run(_main(server))
        except KeyboardInterrupt:
            print("\nshutting down")
    if observed:
        _finish_observability(ob, args)
    return 0


def cmd_call(args) -> int:
    import time as _time

    import numpy as np

    from .core.session import compile_to_binary
    from .serve import FheServiceClient
    from .tfhe import generate_keys
    from .tfhe.client import decrypt_bits, encrypt_bits

    params = _resolve_params(args.params)
    workload = _workload_by_name(args.workload)
    compiled = workload.compiled
    print(f"generating keys for {params.name} ...")
    secret, cloud = generate_keys(params, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    bits = compiled.encode_inputs(*workload.sample_inputs())
    want = compiled.netlist.evaluate(bits)

    with FheServiceClient(
        args.host, args.port, args.tenant, timeout_s=args.timeout
    ) as svc:
        info = svc.register_key(cloud)
        print(
            f"key {info['fingerprint']} "
            f"({'new' if info['created'] else 'already registered'}, "
            f"server backend {info['backend']})"
        )
        program_id = svc.register_program(compile_to_binary(compiled))
        print(f"program {program_id}")
        status = 0
        for index in range(args.requests):
            ciphertext = encrypt_bits(secret, bits, rng)
            t0 = _time.perf_counter()
            out, report, meta = svc.call(
                program_id,
                ciphertext,
                deadline_ms=args.deadline_ms,
            )
            latency_ms = (_time.perf_counter() - t0) * 1e3
            ok = bool(np.array_equal(decrypt_bits(secret, out), want))
            print(
                f"call {index}: {latency_ms:9.1f} ms end-to-end  "
                f"server={report.wall_time_s * 1e3:.1f} ms  "
                f"batch={meta['batch_size']}  "
                f"queued={meta['queue_ms']:.1f} ms  ok={ok}"
            )
            if not ok:
                status = 1
                break
    return status


def _render_top(doc: dict, req_rate: Optional[float]) -> str:
    """One ``repro top`` screen from a /varz document."""
    metrics = doc.get("metrics", {})
    gauges = metrics.get("gauges", {})
    hists = metrics.get("histograms", {})
    stats = doc.get("scheduler_stats", {})

    def _hist(name: str) -> dict:
        return hists.get(name, {})

    stage = {
        key.split("stage=", 1)[1].rstrip("}"): value
        for key, value in hists.items()
        if key.startswith("serve_stage_ms{")
    }
    lines = [
        f"repro top — backend={doc.get('backend', '?')}  "
        f"uptime={doc.get('uptime_s', 0.0):.0f}s  "
        f"tenants={doc.get('tenants', 0)}  "
        f"programs={doc.get('programs', 0)}",
        f"req/s: "
        + (f"{req_rate:8.2f}" if req_rate is not None else "      --")
        + f"   queue: {doc.get('queue_depth', 0)}/"
        f"{doc.get('max_pending', 0)}"
        f"   bootstraps/s: "
        f"{gauges.get('bootstraps_per_sec{backend=serve}', 0.0):10.1f}",
        f"batches: {stats.get('dispatched_batches', 0)} dispatched, "
        f"{stats.get('coalesced_batches', 0)} coalesced, "
        f"busy={stats.get('busy_rejections', 0)}, "
        f"deadline={stats.get('deadline_cancellations', 0)}",
        f"batch size: mean="
        f"{_hist('serve_batch_size').get('mean', 0.0):.1f} "
        f"max={_hist('serve_batch_size').get('max', 0.0):.0f} "
        f"(cap {doc.get('max_batch', 0)})",
    ]
    if stage:
        lines.append("stage latencies (ms):        p50        p99")
        for name in ("queue_wait", "batch_linger", "execute"):
            h = stage.get(name)
            if h:
                lines.append(
                    f"  {name:<18s} {h.get('p50', 0.0):10.2f} "
                    f"{h.get('p99', 0.0):10.2f}"
                )
    triggers = doc.get("flight_triggers", {})
    if triggers:
        rendered = ", ".join(
            f"{k}={v}" for k, v in sorted(triggers.items())
        )
        lines.append(
            f"flight: {rendered} "
            f"({doc.get('flight_dumps', 0)} dumps)"
        )
    return "\n".join(lines)


def cmd_top(args) -> int:
    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    url = f"http://{args.host}:{args.port}/varz"
    prev_requests: Optional[float] = None
    prev_t: Optional[float] = None
    iteration = 0
    try:
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5) as resp:
                    doc = _json.loads(resp.read().decode("utf-8"))
            except (urllib.error.URLError, OSError) as exc:
                print(f"cannot reach {url}: {exc}")
                return 1
            counters = doc.get("metrics", {}).get("counters", {})
            total = sum(
                value
                for key, value in counters.items()
                if key.startswith("serve_requests")
            )
            now = _time.monotonic()
            rate = None
            if prev_requests is not None and now > prev_t:
                rate = (total - prev_requests) / (now - prev_t)
            prev_requests, prev_t = total, now
            if iteration and sys.stdout.isatty():
                # Redraw in place on a live terminal; append when piped.
                print("\x1b[2J\x1b[H", end="")
            print(_render_top(doc, rate))
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_keygen(args) -> int:
    from .serialization import save_cloud_key, save_secret_key
    from .tfhe import generate_keys

    secret, cloud = generate_keys(
        _resolve_params(args.params), seed=args.seed
    )
    with open(args.secret_out, "wb") as handle:
        handle.write(save_secret_key(secret))
    with open(args.cloud_out, "wb") as handle:
        handle.write(save_cloud_key(cloud))
    print(f"wrote {args.secret_out} (KEEP PRIVATE) and {args.cloud_out}")
    return 0


def cmd_bench_gate(args) -> int:
    import time as _time

    import numpy as np

    from .gatetypes import Gate
    from .runtime import profile_gate
    from .tfhe import generate_keys
    from .tfhe.gates import evaluate_gates_batch
    from .tfhe.lwe import LweCiphertext

    params = _resolve_params(args.params)
    print(f"generating keys for {params.name} ...")
    _, cloud = generate_keys(params, seed=0)

    # Random-mask samples: a trivial sample's zero mask lets the blind
    # rotation skip every CMUX step, so trivial inputs would time
    # little beyond the key switch.  Timing needs no decryptable
    # plaintext, only representative mask values.
    rng = np.random.default_rng(0)

    def _random_samples(batch):
        a = rng.integers(
            -(2 ** 31), 2 ** 31,
            size=(batch, params.lwe_dimension), dtype=np.int64,
        ).astype(np.int32)
        b = rng.integers(
            -(2 ** 31), 2 ** 31, size=batch, dtype=np.int64
        ).astype(np.int32)
        return LweCiphertext(a, b)

    profile = profile_gate(
        cloud,
        repetitions=args.repetitions,
        warmup=args.warmup,
        inputs=(_random_samples(1), _random_samples(1)),
    )
    for phase, ms, fraction in profile.rows():
        print(f"  {phase:20s} {ms:8.2f} ms  ({fraction * 100:5.1f}%)")
    print(f"  {'total':20s} {profile.total_ms:8.2f} ms")
    alone_rate = 1e3 / profile.total_ms
    print(f"  one gate alone: {alone_rate:7.1f} gates/s")
    batch = args.batch
    ca = _random_samples(batch)
    codes = np.full(batch, int(Gate.NAND))
    best = float("inf")
    for _ in range(max(1, args.repetitions)):
        t0 = _time.perf_counter()
        evaluate_gates_batch(cloud, codes, ca, ca)
        best = min(best, _time.perf_counter() - t0)
    batched_rate = batch / best
    print(
        f"  batched engine: {batched_rate:7.1f} gates/s at batch "
        f"{batch} ({batched_rate / alone_rate:.1f}x over one alone)"
    )
    if args.mode == "mblut":
        # A programmable (multi-bit LUT) bootstrap is the same blind
        # rotation with a table-shaped test polynomial; measure it so
        # the ~1x cost claim behind the gate-count reduction is checked
        # on this machine, not assumed.
        from .tfhe.lut import (
            IntegerEncoding,
            lut_test_polynomial,
            programmable_bootstrap,
        )

        p = args.modulus
        encoding = IntegerEncoding(p)
        test_poly = lut_test_polynomial(
            rng.integers(0, p, size=p), encoding, encoding,
            params.tlwe_degree,
        )
        ct = _random_samples(batch)
        best = float("inf")
        for _ in range(max(1, args.repetitions)):
            t0 = _time.perf_counter()
            programmable_bootstrap(cloud, ct, test_poly)
            best = min(best, _time.perf_counter() - t0)
        lut_rate = batch / best
        print(
            f"  mblut engine:   {lut_rate:7.1f} LUT bootstraps/s at "
            f"batch {batch}, p={p} ({batched_rate / lut_rate:.2f}x a "
            f"batched boolean gate's cost)"
        )
    return 0


def _add_backend_arguments(
    parser: argparse.ArgumentParser, backend_help: Optional[str] = None
) -> None:
    parser.add_argument(
        "--backend",
        choices=("batched", "distributed"),
        default="batched",
        help=backend_help,
    )
    parser.add_argument("--workers", type=int, default=None)


def _add_mode_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=("boolean", "mblut"),
        default="boolean",
        help="compilation mode for workload targets: 'mblut' rewrites "
        "matched arithmetic onto multi-bit LUT bootstraps first "
        "(binary targets self-describe their format; under the "
        "default --params, mblut retargets to tfhe-mb-128)",
    )
    parser.add_argument(
        "--modulus",
        type=int,
        default=16,
        help="digit modulus p for --mode mblut (power of two >= 4)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pytfhe", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a workload to a binary")
    p.add_argument("workload")
    p.add_argument("-o", "--output", default="program.pytfhe")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "check",
        help="static analysis: structural lint, hazard/race detection, "
        "noise-budget certification",
    )
    p.add_argument(
        "target",
        help="path to a .pytfhe binary, or a built-in workload name",
    )
    p.add_argument(
        "--params",
        default="tfhe-default-128",
        help="parameter set for noise certification, or 'none' to skip",
    )
    p.add_argument(
        "--sigma-error",
        type=float,
        default=4.0,
        help="fail any level whose decision margin is below this many "
        "sigmas",
    )
    p.add_argument(
        "--sigma-warn",
        type=float,
        default=6.0,
        help="warn below this many sigmas of decision margin",
    )
    p.add_argument(
        "--no-noise",
        action="store_true",
        help="skip the noise-certification family",
    )
    p.add_argument(
        "--no-dataflow",
        action="store_true",
        help="skip the dataflow (constant/transparency) family",
    )
    p.add_argument(
        "--cost",
        action="store_true",
        help="print the cost certificate (predicted latency per "
        "engine, memory high-water mark) with the report",
    )
    p.add_argument(
        "--no-cost",
        action="store_true",
        help="skip the cost-certification family",
    )
    p.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        help="declared execute-latency budget; CA001 (ERROR) fires "
        "when the predicted latency exceeds it",
    )
    p.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="declared ciphertext-plane memory budget in MiB; CA002 "
        "(ERROR) fires when the high-water mark exceeds it",
    )
    p.add_argument(
        "--gatecost",
        default=None,
        metavar="PATH",
        help="gate-cost calibration JSON (`repro calibrate` output) "
        "for cost predictions; default: the paper's Xeon model",
    )
    p.add_argument(
        "--cost-backend",
        default=None,
        choices=("batched", "2d", "distributed"),
        help="backend the latency budget applies to (also arms CA003 "
        "degenerate-parallelism warnings)",
    )
    p.add_argument(
        "--max-findings-per-rule",
        "--max-findings",
        dest="max_findings",
        type=int,
        default=None,
        help="findings stored per rule (overflow is counted, not listed)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-hash analysis cache",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist analysis verdicts to DIR so repeated checks of an "
        "unchanged program are cache hits across processes",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the report as JSON ('-' for stdout)",
    )
    p.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "never"),
        default="error",
        help="exit non-zero when findings at/above this severity exist",
    )
    p.add_argument(
        "--check-passes",
        action="store_true",
        help="re-run the analyzer + equivalence spot checks between "
        "every synthesis pass to localize pass bugs",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome trace_event JSON of the analysis",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the metrics registry (finding counters) as JSON",
    )
    _add_mode_arguments(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "cost",
        help="static cost certificate: predicted latency per engine, "
        "memory high-water mark, parallelism classification",
    )
    p.add_argument(
        "target",
        help="path to a .pytfhe binary, or a built-in workload name",
    )
    p.add_argument(
        "--gatecost",
        default=None,
        metavar="PATH",
        help="gate-cost calibration JSON (`repro calibrate` output); "
        "default: the paper's Xeon model",
    )
    p.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        help="latency budget (CA001 ERROR beyond it; exit non-zero)",
    )
    p.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="memory budget in MiB (CA002 ERROR beyond it)",
    )
    p.add_argument(
        "--backend",
        default=None,
        choices=("batched", "2d", "distributed"),
        help="backend the budget applies to (arms CA003 checks)",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=4,
        help="request depth of the 2-D (request x level) prediction",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the certificate as JSON ('-' for stdout)",
    )
    _add_mode_arguments(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser(
        "calibrate",
        help="measure this machine's bootstrapped-gate cost and write "
        "a calibration JSON for `repro serve --gatecost` / "
        "`repro cost --gatecost`",
    )
    p.add_argument("--params", default="tfhe-test")
    p.add_argument(
        "-o",
        "--output",
        default="benchmarks/out/gatecost.json",
        help="calibration file to write",
    )
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="untimed iterations before measurement",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("disasm", help="list a binary's instructions")
    p.add_argument("binary")
    p.add_argument("--max-rows", type=int, default=64)
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("stats", help="gate statistics of a binary")
    p.add_argument("binary")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("estimate", help="backend runtime estimates")
    p.add_argument("binary")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("run", help="execute a workload under real FHE")
    p.add_argument("workload")
    _add_backend_arguments(
        p,
        "where levels bootstrap (default: batched — in-process "
        "level-batched SIMD bootstrapping, each BFS level one fused "
        "vectorized call; 'distributed' shards each level over a "
        "worker pool sharing the ciphertext plane)",
    )
    p.add_argument(
        "--runs",
        type=int,
        default=1,
        help="repeat execution, reusing the same worker pool",
    )
    p.add_argument("--params", default="tfhe-test")
    p.add_argument("--seed", type=int, default=0)
    _add_mode_arguments(p)
    _add_obs_arguments(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "profile",
        help="compile + run one workload and print a combined "
        "Fig.-7/Fig.-8-style observability report",
    )
    p.add_argument("workload")
    _add_backend_arguments(p)
    p.add_argument("--params", default="tfhe-test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--repetitions",
        type=int,
        default=3,
        help="timed iterations for the gate-phase breakdown",
    )
    p.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="untimed gate iterations before the phase breakdown",
    )
    _add_obs_arguments(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant FHE inference service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7478)
    _add_backend_arguments(
        p,
        "per-tenant executor; cross-request batches stack onto "
        "its level batches either way",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission-control queue bound (BUSY beyond this)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="cross-request SIMD batch cap per dispatch",
    )
    p.add_argument(
        "--linger-ms",
        type=float,
        default=2.0,
        help="hold a batch open this long for stragglers to coalesce",
    )
    p.add_argument(
        "--max-frame-bytes",
        type=int,
        default=16 * 1024 * 1024,
        help="per-frame ceiling; oversized requests get BUSY",
    )
    p.add_argument(
        "--no-check",
        action="store_true",
        help="skip the static-analyzer gate on program registration",
    )
    p.add_argument(
        "--gatecost",
        default=None,
        metavar="PATH",
        help="load a `repro calibrate` gate-cost JSON at startup so "
        "cost certificates (and deadline admission) use this "
        "machine's calibration instead of the paper's",
    )
    p.add_argument(
        "--no-admission",
        action="store_true",
        help="disable static deadline-feasibility admission (requests "
        "with provably-unmeetable deadlines are otherwise rejected "
        "with DEADLINE before queueing)",
    )
    p.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose /metrics (Prometheus), /healthz, and /varz over "
        "HTTP on this port (0 = ephemeral; omit to disable)",
    )
    p.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="dump the flight recorder's recent-span ring here on "
        "BUSY/DEADLINE/crash",
    )
    _add_obs_arguments(p, noise=False)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "top",
        help="live terminal view of a serving fleet's /varz",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        required=True,
        help="the server's --telemetry-port",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between polls",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after N polls (0 = until interrupted)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "call",
        help="drive one workload through a running FHE service",
    )
    p.add_argument("workload")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7478)
    p.add_argument("--tenant", default="cli")
    p.add_argument("--params", default="tfhe-test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--requests",
        type=int,
        default=1,
        help="number of sequential encrypted calls",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline (DEADLINE reply when missed)",
    )
    p.add_argument("--timeout", type=float, default=120.0)
    p.set_defaults(func=cmd_call)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--params", default="tfhe-default-128")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--secret-out", default="secret.key")
    p.add_argument("--cloud-out", default="cloud.key")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("bench-gate", help="measure local gate cost")
    p.add_argument("--params", default="tfhe-test")
    p.add_argument(
        "--batch",
        type=int,
        default=64,
        help="gates per fused SIMD bootstrap",
    )
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="untimed iterations before measurement (FFT planning, "
        "numpy buffer warm-up)",
    )
    _add_mode_arguments(p)
    p.set_defaults(func=cmd_bench_gate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
