"""Command-line interface: the "easy-to-use tool" face of BlackForest.

The paper's pitch is a tool a performance engineer can point at a
kernel and get readable feedback from; this module is that front end::

    python -m repro list-kernels
    python -m repro list-archs --format json
    python -m repro profile reduce1 1048576 --arch GTX580
    python -m repro analyze reduce1 --arch GTX580 --trace
    python -m repro predict matrixMul --sizes 96,416,1936
    python -m repro transfer matrixMul --train GTX580 --test K20m
    python -m repro trace analyze reduce1 --arch GTX580
    python -m repro lint --format json
    python -m repro bench --quick
    python -m repro bench --quick --check --threshold 30
    python -m repro report reduce1 --arch GTX580 --format html --out r.html
    python -m repro chaos reduce1 --launch-rate 0.2 --worker-rate 0.1 --jobs 4
    python -m repro repo verify ./profiles --quarantine
    python -m repro publish reduce1 --arch GTX580 --registry ./models
    python -m repro serve --registry ./models --max-batch 32
    python -m repro serve --registry ./models --socket 127.0.0.1:7070 \\
        --telemetry telemetry.jsonl --flight-recorder flightrec.json
    python -m repro top --connect 127.0.0.1:7070
    python -m repro top --once --format json

Every data-producing subcommand takes ``--format {text,json}``; the
sweep-driving ones share ``--seed`` and ``--jobs``. ``--trace`` (on
``analyze``/``predict``/``transfer``) and the ``trace`` wrapper
subcommand record a hierarchical span tree of the run (see
docs/api.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro import (
    BlackForest,
    Campaign,
    HardwareScalingPredictor,
    ProblemScalingPredictor,
    Profiler,
    bottleneck_report,
    common_predictors,
    kernel_registry,
    prediction_report_text,
)
from repro.cpusim import I7_SANDY, XEON_E5
from repro.gpusim import GTX480, GTX580, K20M
from repro.io import atomic_write
from repro.viz import table

ARCHS = {a.name: a for a in (GTX480, GTX580, K20M, XEON_E5, I7_SANDY)}


def _arch(name: str):
    try:
        return ARCHS[name]
    except KeyError:
        raise SystemExit(
            f"unknown architecture {name!r}; choose from {sorted(ARCHS)}"
        )


def _kernel(name: str):
    registry = kernel_registry()
    try:
        return registry[name]
    except KeyError:
        raise SystemExit(
            f"unknown kernel {name!r}; run 'list-kernels' to see choices"
        )


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SystemExit(f"could not parse sizes {text!r} (expected e.g. 96,416)")


def _trace_payload(records) -> dict:
    """A trace as JSON: the span list plus its Chrome-trace events."""
    from repro.obs import to_chrome_trace

    return {
        "spans": [
            {
                "name": r.name,
                "span_id": r.span_id,
                "parent_id": r.parent_id,
                "duration_s": r.duration_s,
                "pid": r.pid,
                "labels": r.labels,
            }
            for r in records
        ],
        "chrome_trace": to_chrome_trace(records),
    }


def _emit(args, payload: dict, text: str) -> None:
    """Print a command's result in the selected format.

    When ``--trace`` was active, the recorded span tree is attached:
    under a ``trace`` key (span list + Chrome-trace events) in JSON
    mode, as a rendered tree after the report in text mode.
    """
    tracer = getattr(args, "_tracer", None)
    registry = getattr(args, "_registry", None)
    if getattr(args, "format", "text") == "json":
        if tracer is not None:
            payload["trace"] = _trace_payload(tracer.records)
        if registry is not None:
            payload["metrics"] = registry.snapshot()
        print(json.dumps(payload, indent=2))
    else:
        print(text)
        if tracer is not None:
            from repro.obs import render_text_tree

            print()
            print(render_text_tree(tracer.records))


# ---------------------------------------------------------------------------


def cmd_list_kernels(args) -> int:
    rows = []
    payload = []
    for name, kernel in sorted(kernel_registry().items()):
        doc = (kernel.__class__.__doc__ or "").strip().splitlines()[0]
        sweep = kernel.default_sweep()
        rows.append((name, f"{len(sweep)} sizes "
                     f"[{sweep[0]}..{sweep[-1]}]", doc[:60]))
        payload.append({
            "kernel": name,
            "sweep_sizes": len(sweep),
            "sweep_min": sweep[0] if np.isscalar(sweep[0]) else list(sweep[0]),
            "sweep_max": sweep[-1] if np.isscalar(sweep[-1]) else list(sweep[-1]),
            "description": doc,
        })
    _emit(args, {"kernels": payload},
          table(["kernel", "default sweep", "description"], rows))
    return 0


def cmd_list_archs(args) -> int:
    rows = []
    payload = []
    for a in ARCHS.values():
        metrics = ", ".join(
            f"{k}={v:g}" for k, v in sorted(a.machine_metrics().items())
        )
        rows.append((a.name, a.family, metrics))
        payload.append({
            "arch": a.name,
            "family": a.family,
            "machine_metrics": a.machine_metrics(),
        })
    _emit(args, {"archs": payload},
          table(["arch", "family", "machine metrics"], rows,
                title="Architectures (Table 2-style metrics)"))
    return 0


def cmd_profile(args) -> int:
    arch = _arch(args.arch)
    kernel = _kernel(args.kernel)
    try:
        record = Profiler(arch, rng=args.seed).profile(kernel, args.problem)[0]
    except ValueError as exc:
        raise SystemExit(f"cannot profile {kernel.name!r}: {exc}")
    rows = sorted(record.counters.items())
    text = table(["counter", "value"], rows,
                 title=f"{kernel.name} (problem={args.problem}) on {arch.name}")
    text += f"\n\nexecution time: {record.time_s * 1e3:.4g} ms"
    if record.power_w is not None:
        text += f"\naverage power : {record.power_w:.1f} W"
    _emit(args, {
        "kernel": kernel.name,
        "arch": arch.name,
        "problem": args.problem,
        "time_s": record.time_s,
        "power_w": record.power_w,
        "counters": dict(sorted(record.counters.items())),
    }, text)
    return 0


def cmd_analyze(args) -> int:
    arch = _arch(args.arch)
    kernel = _kernel(args.kernel)
    problems = _parse_sizes(args.sizes) if args.sizes else None
    print(f"collecting campaign for {kernel.name} on {arch.name}...",
          file=sys.stderr)
    campaign = Campaign(kernel, arch, rng=args.seed).run(
        problems=problems, replicates=args.replicates, n_jobs=args.jobs,
        telemetry=args.telemetry,
    )
    fit = BlackForest(
        n_trees=args.trees, importance_repeats=args.repeats,
        n_jobs=args.jobs, rng=args.seed + 1,
    ).fit(campaign, response=args.response)
    _emit(args, {
        "kernel": kernel.name,
        "arch": arch.name,
        "response": args.response,
        "n_runs": len(campaign),
        "oob_explained_variance": fit.oob_explained_variance,
        "test_explained_variance": fit.test_explained_variance,
        "top_predictors": fit.importance.names[:args.top],
        "bottlenecks": [
            {"pattern": b.pattern.key, "score": b.score,
             "evidence": list(b.evidence)}
            for b in fit.bottlenecks
        ],
    }, bottleneck_report(fit, top_k=args.top))
    return 0


def cmd_predict(args) -> int:
    arch = _arch(args.arch)
    kernel = _kernel(args.kernel)
    sizes = _parse_sizes(args.sizes)
    print(f"training problem-scaling model for {kernel.name} on "
          f"{arch.name}...", file=sys.stderr)
    campaign = Campaign(kernel, arch, rng=args.seed).run(
        replicates=args.replicates, n_jobs=args.jobs
    )
    predictor = ProblemScalingPredictor(
        BlackForest(n_trees=args.trees, n_jobs=args.jobs, rng=args.seed + 1),
        prefer_mars=args.mars, rng=args.seed + 2,
    ).fit(campaign)
    times = predictor.predict(np.array(sizes, dtype=float))
    rows = [(s, f"{t * 1e3:.4g} ms") for s, t in zip(sizes, times)]
    _emit(args, {
        "kernel": kernel.name,
        "arch": arch.name,
        "predictions": [
            {"size": s, "predicted_time_s": float(t)}
            for s, t in zip(sizes, times)
        ],
    }, table(["size", "predicted time"], rows,
             title=f"{kernel.name} on {arch.name}"))
    return 0


def cmd_transfer(args) -> int:
    train_arch = _arch(args.train)
    test_arch = _arch(args.test)
    kernel = _kernel(args.kernel)
    print(f"profiling {kernel.name} on {train_arch.name} and "
          f"{test_arch.name}...", file=sys.stderr)
    train = Campaign(kernel, train_arch, rng=args.seed).run(
        replicates=args.replicates, n_jobs=args.jobs
    )
    test = Campaign(kernel, test_arch, rng=args.seed + 1).run(
        replicates=args.replicates, n_jobs=args.jobs
    )
    common = common_predictors(train, test)
    hw = HardwareScalingPredictor(n_trees=args.trees, rng=args.seed + 2)
    hw.fit(train, common=common)
    result = hw.assess(test)
    _emit(args, {
        "kernel": kernel.name,
        "train_arch": train_arch.name,
        "test_arch": test_arch.name,
        "variables": result.variables,
        "explained_variance": result.report.explained_variance,
        "mean_relative_error": result.report.mean_relative_error,
        "rows": [
            {"problem": p, "predicted_s": pr, "measured_s": me}
            for p, pr, me in result.report.rows()
        ],
    }, prediction_report_text(
        result.report,
        title=f"{kernel.name}: {train_arch.name} -> {test_arch.name}",
    ))
    return 0


def cmd_bench(args) -> int:
    import os
    import tempfile

    from repro.bench import (
        BASELINE_PATH,
        check_regressions,
        format_results,
        run_benchmarks,
        write_report,
    )

    ops = (
        [tok.strip() for tok in args.ops.split(",") if tok.strip()]
        if args.ops else None
    )
    try:
        results = run_benchmarks(
            ops=ops, quick=args.quick,
            log=lambda msg: print(msg, file=sys.stderr),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))

    # With --check and no explicit --out, don't clobber the committed
    # baseline with the fresh (possibly regressed) run.
    out = args.out
    if out is None and not args.check:
        out = BASELINE_PATH
    if out is not None:
        payload = write_report(results, out, quick=args.quick)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            payload = write_report(
                results, os.path.join(tmp, "bench.json"), quick=args.quick
            )

    if not args.no_history:
        from repro.obs.history import append_history

        append_history(args.history, payload)

    regressions = None
    if args.check:
        try:
            regressions = check_regressions(
                payload, baseline_path=args.baseline,
                threshold_pct=args.threshold,
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(f"bench --check: {exc}")

    if getattr(args, "format", "text") == "json":
        doc = {"results": [r.__dict__ for r in results]}
        if regressions is not None:
            doc["regressions"] = [
                {
                    "op": r.op,
                    "baseline_speedup": r.baseline_speedup,
                    "current_speedup": r.current_speedup,
                    "drop_pct": r.drop_pct,
                }
                for r in regressions
            ]
        print(json.dumps(doc, indent=2))
    else:
        print(format_results(results))
        if out is not None:
            print(f"\nreport written to {out}")
        if regressions is not None:
            if regressions:
                print(f"\nREGRESSIONS detected against {args.baseline}:",
                      file=sys.stderr)
                for reg in regressions:
                    print(f"  {reg.describe()}", file=sys.stderr)
            else:
                print(f"\nno regressions against {args.baseline}")
    return 1 if regressions else 0


def cmd_report(args) -> int:
    """Build the structured bottleneck report (text/Markdown/HTML)."""
    from repro.obs import read_events
    from repro.obs.log import event_log
    from repro.obs.report import build_report

    arch = _arch(args.arch)
    kernel = _kernel(args.kernel)

    events = None
    if args.repo:
        from repro.profiling import CampaignKey, ProfileRepository

        key = CampaignKey(kernel.name, arch.name, args.tag)
        try:
            campaign = ProfileRepository(args.repo).load(key)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(f"cannot load {key} from {args.repo}: {exc}")
        print(f"loaded {len(campaign)} runs for {key} from {args.repo}",
              file=sys.stderr)
        fit = _report_fit(args, campaign)
    else:
        problems = _parse_sizes(args.sizes) if args.sizes else None
        print(f"collecting campaign for {kernel.name} on {arch.name}...",
              file=sys.stderr)
        with event_log() as log:
            campaign = Campaign(kernel, arch, rng=args.seed).run(
                problems=problems, replicates=args.replicates,
                n_jobs=args.jobs,
            )
            fit = _report_fit(args, campaign)
        events = log

    if args.events:
        events = read_events(args.events)

    tracer = getattr(args, "_tracer", None)
    report = build_report(
        fit, campaign,
        trace=tracer.records if tracer is not None else None,
        events=events,
        top_k=args.top,
    )
    rendered = report.render(args.format)
    if args.out:
        atomic_write(args.out, rendered)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


def _report_fit(args, campaign):
    return BlackForest(
        n_trees=args.trees, importance_repeats=args.repeats,
        n_jobs=args.jobs, rng=args.seed + 1,
    ).fit(campaign, response=args.response)


def cmd_lint(args) -> int:
    from repro.analysis import (
        Severity,
        as_json,
        exit_code,
        lint_artifacts,
        lint_tree,
        rule_table,
        summarize,
    )

    if args.list_rules:
        print(table(
            ["rule", "severity", "domain", "summary"], rule_table(),
            title="Lint rule catalogue (see docs/analysis.md)",
        ))
        return 0
    select = (
        [tok.strip() for tok in args.select.split(",") if tok.strip()]
        if args.select else None
    )
    if args.plan and args.artifacts:
        print("--plan and --artifacts are separate modes; pass one",
              file=sys.stderr)
        return 2
    if args.plan:
        from repro.analysis import lint_plan, plan_from_file

        plan = plan_from_file(args.plan)
        if args.budget is not None:
            plan.budget_s = args.budget
        findings = lint_plan(plan, select=select)
        n_rules = len(_plan_rules())
    elif args.artifacts:
        from repro.analysis import rules_for

        findings = lint_artifacts(_expand_artifact_paths(args.artifacts))
        if select is not None:
            findings = [
                f for f in findings
                if any(f.rule.startswith(s) for s in select)
            ]
        n_rules = len(rules_for("artifact"))
    else:
        findings = lint_tree(
            select=select,
            include_launches=not args.no_launches,
            include_source=not args.no_source,
        )
        n_rules = None
    if args.format == "json":
        print(as_json(findings, n_rules=n_rules))
    else:
        print(summarize(findings, n_rules=n_rules))
    return exit_code(findings, Severity.parse(args.fail_on))


def _plan_rules():
    from repro.analysis import rules_for

    return rules_for("plan")


def _expand_artifact_paths(paths):
    """Files as given; directories expanded to the artifact files the
    schema registry knows how to name (JSON/JSONL)."""
    out = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(
                p for p in path.rglob("*")
                if p.suffix in (".json", ".jsonl") and p.is_file()
            ))
        else:
            out.append(path)
    return out


def _plan_from_file(path: str, default_seed: int):
    """Parse a JSON fault-plan file into a :class:`FaultPlan`."""
    from repro.faults import FaultPlan, FaultSpec

    with open(path) as fh:
        data = json.load(fh)
    raw = data["specs"] if isinstance(data, dict) else data
    seed = data.get("seed", default_seed) if isinstance(data, dict) \
        else default_seed
    try:
        specs = [
            FaultSpec(
                s["site"], s["mode"], match=s.get("match"),
                probability=s.get("probability", 1.0),
                payload=s.get("payload"),
            )
            for s in raw
        ]
    except (KeyError, ValueError, TypeError) as exc:
        raise SystemExit(f"bad fault plan {path!r}: {exc}")
    return FaultPlan(specs, seed=seed)


def cmd_chaos(args) -> int:
    """Run a campaign under an injected fault plan; report survivals.

    The point is operational confidence: with faults firing, the sweep
    must *complete* — failing launches quarantined, crashed workers
    recovered — instead of crashing. Exit code 0 means the campaign
    produced records; 1 means nothing survived. With ``--serve`` the
    faults target the prediction server instead (see
    :func:`_cmd_chaos_serve`).
    """
    from repro.faults import FaultPlan, FaultSpec, RetryPolicy, fault_injection

    if args.serve:
        return _cmd_chaos_serve(args)

    arch = _arch(args.arch)
    kernel = _kernel(args.kernel)
    problems = _parse_sizes(args.sizes) if args.sizes else None

    if args.plan:
        plan = _plan_from_file(args.plan, args.seed)
    else:
        transient = {"times": 1} if args.transient else None
        specs = []
        if args.launch_rate > 0:
            specs.append(FaultSpec("profiler.launch", "raise",
                                   probability=args.launch_rate,
                                   payload=transient))
        if args.nan_rate > 0:
            specs.append(FaultSpec("profiler.launch", "nan_counters",
                                   probability=args.nan_rate,
                                   payload=transient))
        if args.worker_rate > 0:
            specs.append(FaultSpec("parallel.worker", "crash",
                                   probability=args.worker_rate))
        if args.torn_rate > 0:
            specs.append(FaultSpec("io.write", "torn_file",
                                   probability=args.torn_rate))
        if not specs:
            raise SystemExit(
                "no faults configured; pass --plan FILE or at least one of "
                "--launch-rate/--nan-rate/--worker-rate/--torn-rate"
            )
        plan = FaultPlan(specs, seed=args.seed)

    retry = RetryPolicy(max_attempts=args.retries, timeout_s=args.timeout)
    print(f"chaos campaign for {kernel.name} on {arch.name} "
          f"({len(plan.specs)} fault rules)...", file=sys.stderr)
    with fault_injection(plan):
        result = Campaign(kernel, arch, rng=args.seed).run(
            problems=problems, replicates=args.replicates,
            n_jobs=args.jobs, retry=retry, telemetry=args.telemetry,
        )
        repo_findings = None
        if args.save_to:
            from repro.profiling import ProfileRepository, CampaignKey

            repo = ProfileRepository(args.save_to)
            if result.records:
                repo.save(result, seed=args.seed)
                key = CampaignKey(result.kernel, result.arch)
                repo_findings = repo.verify(key)

    quarantined = [q.to_dict() for q in result.quarantined]
    rows = [(q["problem"], q["stage"], q["attempts"], q["error"][:60])
            for q in quarantined]
    text = table(
        ["problem", "stage", "attempts", "error"], rows,
        title=f"chaos: {kernel.name} on {arch.name} — "
        f"{len(result.records)} records kept, "
        f"{len(result.quarantined)} runs quarantined",
    ) if rows else (
        f"chaos: {kernel.name} on {arch.name} — all "
        f"{len(result.records)} records survived (faults fired: "
        f"{plan.summary() or 'none'})"
    )
    if repo_findings is not None:
        text += ("\nrepository verify: "
                 + ("; ".join(repo_findings) if repo_findings else "intact"))
    _emit(args, {
        "kernel": kernel.name,
        "arch": arch.name,
        "n_records": len(result.records),
        "n_quarantined": len(result.quarantined),
        "quarantined": quarantined,
        "faults_fired": plan.summary(),
        "repository_findings": repo_findings,
    }, text)
    return 0 if result.records else 1


def _cmd_chaos_serve(args) -> int:
    """Chaos-test the prediction server: concurrent retrying clients vs
    injected ``serve.request`` / ``registry.load`` faults.

    The contract under fire: the server never crashes, faulted requests
    get *typed* errors, the circuit breaker opens and recovers on the
    deterministic schedule, shutdown drains in-flight work — and every
    *successful* response is byte-identical to what the serial stdio
    server answers without faults. Exit 0 when all of that holds.
    """
    import tempfile
    import threading

    from numpy.random import default_rng

    from repro.faults import FaultPlan, FaultSpec, fault_injection
    from repro.faults.retry import RetryPolicy
    from repro.serve import (
        FitRegistry,
        PredictionClient,
        PredictionServer,
        ServeError,
        servable_from_fit,
        serve_tcp,
    )

    arch = _arch(args.arch)
    kernel = _kernel(args.kernel)
    problems = _parse_sizes(args.sizes) if args.sizes else None

    if args.plan:
        plan = _plan_from_file(args.plan, args.seed)
    else:
        specs = []
        if args.request_rate > 0:
            specs.append(FaultSpec(
                "serve.request", "raise", match={"method": "predict"},
                probability=args.request_rate,
            ))
        if args.delay_rate > 0:
            specs.append(FaultSpec(
                "serve.request", "delay", match={"method": "predict"},
                probability=args.delay_rate,
                payload={"seconds": args.delay_s},
            ))
        if args.corrupt_times > 0:
            # A bounded burst of corrupt loads: opens the breaker after
            # `threshold` consecutive failures, then the half-open probe
            # after the burst succeeds and closes it — open AND recover,
            # both on a deterministic schedule.
            specs.append(FaultSpec(
                "registry.load", "corrupt",
                payload={"times": args.corrupt_times},
            ))
        if not specs:
            raise SystemExit(
                "no serve faults configured; pass --plan FILE or at "
                "least one of --request-rate/--delay-rate/--corrupt-times"
            )
        plan = FaultPlan(specs, seed=args.seed)

    # Model building is out of scope: train and publish before any
    # fault plan is installed.
    print(f"chaos --serve: fitting {kernel.name} on {arch.name}...",
          file=sys.stderr)
    campaign = Campaign(kernel, arch, rng=args.seed).run(
        problems=problems, replicates=args.replicates, n_jobs=args.jobs,
    )
    fit = BlackForest(
        n_trees=args.trees, n_jobs=args.jobs, rng=args.seed + 1,
    ).fit(campaign, response="time")
    servable = servable_from_fit(fit, source={"n_runs": len(campaign)})

    # Deterministic request load: ids match what each PredictionClient
    # will generate, so expected serial responses can be compared
    # byte-for-byte against live concurrent ones.
    rng = default_rng(args.seed)
    n_features = len(servable.feature_names)
    per_client: list[list[tuple[str, dict]]] = [
        [] for _ in range(args.clients)
    ]
    for i in range(args.requests):
        c = i % args.clients
        params = {
            "kernel": kernel.name,
            "arch": arch.name,
            "X": rng.uniform(1.0, 1000.0, size=(1, n_features)).tolist(),
        }
        if args.deadline_ms is not None:
            params["deadline_ms"] = args.deadline_ms
        rid = f"c{c}-{len(per_client[c]) + 1}"
        per_client[c].append((rid, params))

    with tempfile.TemporaryDirectory() as tmp:
        registry = FitRegistry(tmp)
        registry.publish(servable)

        # Ground truth: the serial stdio server, no faults installed.
        serial = PredictionServer(registry)
        expected: dict[str, str] = {}
        for reqs in per_client:
            for rid, params in reqs:
                line = json.dumps(
                    {"id": rid, "method": "predict", "params": params},
                    sort_keys=True,
                )
                expected[rid] = serial.handle_batch([line])[0]

        # The flight recorder rides along under fire: the event ring
        # must capture every injected failure, and a breaker opening
        # must dump exactly once (shutdown is via RPC, not SIGTERM, so
        # the breaker-open artifact is the only dump expected).
        flightrec_path = Path(tmp) / "flightrec.json"
        server = PredictionServer(
            registry,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            flightrec_path=str(flightrec_path),
        )
        ready = threading.Event()
        bound: dict = {}

        def on_ready(host, port):
            bound["addr"] = (host, port)
            ready.set()

        retry = RetryPolicy(
            max_attempts=args.retries, backoff_s=0.01,
            max_backoff_s=0.2, jitter=0.5, seed=args.seed,
        )
        outcomes: dict[str, tuple[str, str]] = {}
        outcome_lock = threading.Lock()

        def client_run(c: int) -> None:
            client = PredictionClient(
                *bound["addr"], retry=retry, id_prefix=f"c{c}-",
            )
            try:
                for rid, params in per_client[c]:
                    try:
                        client.call("predict", params)
                        with outcome_lock:
                            outcomes[rid] = ("ok", client.last_line)
                    except ServeError as exc:
                        with outcome_lock:
                            outcomes[rid] = ("typed_error", exc.kind)
                    except OSError as exc:
                        with outcome_lock:
                            outcomes[rid] = ("lost", str(exc))
            finally:
                client.close()

        print(f"chaos --serve: {args.clients} clients x "
              f"{args.requests} requests, {len(plan.specs)} fault "
              f"rule(s)...", file=sys.stderr)
        with fault_injection(plan):
            serve_thread = threading.Thread(
                target=serve_tcp,
                args=(server, "127.0.0.1", 0),
                kwargs={"workers": args.workers, "on_ready": on_ready,
                        "announce": False},
                daemon=True,
            )
            serve_thread.start()
            if not ready.wait(timeout=15):
                raise SystemExit("chaos --serve: server never became ready")
            client_threads = [
                threading.Thread(target=client_run, args=(c,))
                for c in range(args.clients)
            ]
            for t in client_threads:
                t.start()
            for t in client_threads:
                t.join()
            shutdown_error = None
            closer = PredictionClient(*bound["addr"], id_prefix="ctl-")
            try:
                closer.shutdown()
            except (ServeError, OSError) as exc:
                shutdown_error = str(exc)
            finally:
                closer.close()
            serve_thread.join(timeout=30)
        drained_cleanly = not serve_thread.is_alive()

        # Flight-recorder leg (read before the tempdir vanishes).
        from repro.obs import read_flightrec

        fired = plan.summary()
        injected_captured = sum(
            1 for e in server.events.find("serve.error")
            if "injected fault" in e.fields["message"]
        )
        breaker_opens = server.metrics.counters.get(
            ("serve.breaker.open",), 0
        )
        flight_problems: list[str] = []
        if fired.get("serve.request:raise", 0) and not injected_captured:
            flight_problems.append(
                "ring captured no injected-failure error records"
            )
        dump_doc = None
        if breaker_opens:
            if not flightrec_path.exists():
                flight_problems.append(
                    "breaker opened but no flight-recorder dump"
                )
            else:
                dump_doc = read_flightrec(flightrec_path)
                if dump_doc["reason"] != "breaker_open":
                    flight_problems.append(
                        f"dump reason {dump_doc['reason']!r} "
                        "!= 'breaker_open'"
                    )
                if dump_doc["dump_count"] != 1:
                    flight_problems.append(
                        f"dump_count {dump_doc['dump_count']} != 1 "
                        "(breaker-open dump must fire exactly once)"
                    )
        elif flightrec_path.exists():
            # No SIGTERM, no worker crash, breaker never opened: any
            # artifact here means a spurious dump trigger.
            dump_doc = read_flightrec(flightrec_path)
            flight_problems.append(
                f"unexpected dump (reason {dump_doc['reason']!r})"
            )
        flight = {
            "ring_events": len(server.events),
            "injected_captured": injected_captured,
            "breaker_opens": int(breaker_opens),
            "dump_reason": dump_doc["reason"] if dump_doc else None,
            "dump_count": dump_doc["dump_count"] if dump_doc else 0,
            "dump_events": len(dump_doc["events"]) if dump_doc else 0,
            "problems": flight_problems,
        }

    n_ok = sum(1 for kind, _ in outcomes.values() if kind == "ok")
    typed: dict[str, int] = {}
    for kind, detail in outcomes.values():
        if kind == "typed_error":
            typed[detail] = typed.get(detail, 0) + 1
    lost = {
        rid: detail for rid, (kind, detail) in outcomes.items()
        if kind == "lost"
    }
    mismatched = sorted(
        rid for rid, (kind, line) in outcomes.items()
        if kind == "ok" and line != expected[rid]
    )
    unanswered = sorted(expected.keys() - outcomes.keys())
    snapshot = server.metrics.snapshot()
    counters = snapshot["counter"]
    breaker_events = {
        name: count for name, count in counters.items()
        if name.startswith("serve.breaker.")
    }

    survived = (
        drained_cleanly
        and not lost
        and not mismatched
        and not unanswered
        and shutdown_error is None
        and not flight_problems
    )
    text = (
        f"chaos --serve: {kernel.name} on {arch.name} — "
        f"{n_ok}/{args.requests} ok"
        + (f", typed errors {typed}" if typed else "")
        + (f", LOST {len(lost)}" if lost else "")
        + (f", MISMATCHED {mismatched}" if mismatched else "")
        + (f", UNANSWERED {unanswered}" if unanswered else "")
        + f"; faults fired: {plan.summary() or 'none'}"
        + (f"; breaker: {breaker_events}" if breaker_events else "")
        + f"; drained {server.drained_count()} in-flight, "
        + ("clean shutdown" if drained_cleanly else "SHUTDOWN HUNG")
        + (f" (shutdown error: {shutdown_error})" if shutdown_error else "")
        + (
            f"; flight recorder: {flight['ring_events']} ring events, "
            f"{flight['injected_captured']} injected captured"
            + (
                f", dumped ({flight['dump_reason']})"
                if flight["dump_reason"] else ""
            )
            + (
                f", PROBLEMS {flight_problems}" if flight_problems
                else ", OK"
            )
        )
    )
    _emit(args, {
        "kernel": kernel.name,
        "arch": arch.name,
        "clients": args.clients,
        "requests": args.requests,
        "n_ok": n_ok,
        "typed_errors": typed,
        "lost": lost,
        "mismatched": mismatched,
        "unanswered": unanswered,
        "bit_identical": not mismatched,
        "faults_fired": plan.summary(),
        "breaker_events": breaker_events,
        "drained": server.drained_count(),
        "clean_shutdown": drained_cleanly,
        "shutdown_error": shutdown_error,
        "flight_recorder": flight,
        # Per-method timer snapshot (count, p50/p95/p99) — the latency
        # evidence CI archives for the concurrent chaos leg.
        "latency": snapshot["timer"],
        "counters": counters,
    }, text)
    return 0 if survived else 1


def cmd_repo(args) -> int:
    """Inspect / verify an on-disk profile repository."""
    from repro.profiling import ProfileRepository, RepositoryIntegrityError

    try:
        repo = ProfileRepository(args.root)
    except RepositoryIntegrityError as exc:
        raise SystemExit(f"cannot open {args.root}: {exc}")
    if args.action == "list":
        metas = repo.list_campaigns()
        rows = [(m["kernel"], m["arch"], m["tag"] or "-", m["n_runs"])
                for m in metas]
        _emit(args, {"campaigns": metas},
              table(["kernel", "arch", "tag", "runs"], rows,
                    title=f"repository {args.root}"))
        return 0

    if args.action == "stats":
        s = repo.stats()
        lines = [
            f"repository {args.root} (layout v{s['layout']})",
            f"  campaigns: {s['campaigns']}   runs: {s['runs']}",
            f"  shards: {s['shards']['used']}/{s['shards']['total']} used, "
            f"max fill {s['shards']['max_fill']}",
            f"  index: {s['index']['fresh']} fresh, "
            f"{s['index']['stale']} stale, {s['index']['missing']} missing",
        ]
        _emit(args, {"root": str(repo.root), **s}, "\n".join(lines))
        return 0

    # action == "verify"
    findings = repo.verify_all()
    damaged = {
        name: probs for name, probs in findings.items()
        if any("legacy" not in p for p in probs)
    }
    moved = {}
    if args.quarantine:
        for name in damaged:
            moved[name] = str(repo._quarantine_dirname(name))
    rows = []
    for name in sorted(findings):
        probs = findings[name]
        status = ("quarantined" if name in moved
                  else "DAMAGED" if name in damaged
                  else "ok" if not probs else "legacy")
        rows.append((name, status, "; ".join(probs)[:70] or "-"))
    _emit(args, {
        "root": str(repo.root),
        "findings": findings,
        "damaged": sorted(damaged),
        "quarantined": moved,
    }, table(["campaign", "status", "findings"], rows,
             title=f"verify {args.root}: {len(damaged)} damaged of "
             f"{len(findings)} campaigns"))
    return 1 if damaged and not args.quarantine else 0


def cmd_publish(args) -> int:
    """Fit a model and publish it into a fit registry for serving."""
    from repro.serve import FitRegistry, servable_from_fit

    arch = _arch(args.arch)
    kernel = _kernel(args.kernel)
    source = {"trees": args.trees, "seed": args.seed}
    if args.repo:
        from repro.profiling import CampaignKey, ProfileRepository

        repo = ProfileRepository(args.repo)
        key = CampaignKey(kernel.name, arch.name, args.tag)
        try:
            campaign = repo.load(key)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(f"cannot load {key} from {args.repo}: {exc}")
        source["campaign_manifest_sha256"] = repo.manifest_digest(key)
        print(f"loaded {len(campaign)} runs for {key} from {args.repo}",
              file=sys.stderr)
    else:
        problems = _parse_sizes(args.sizes) if args.sizes else None
        print(f"collecting campaign for {kernel.name} on {arch.name}...",
              file=sys.stderr)
        campaign = Campaign(kernel, arch, rng=args.seed).run(
            problems=problems, replicates=args.replicates, n_jobs=args.jobs
        )
    source["n_runs"] = len(campaign)
    fit = BlackForest(
        n_trees=args.trees, n_jobs=args.jobs, rng=args.seed + 1,
    ).fit(campaign, response=args.response)
    servable = servable_from_fit(fit, tag=args.tag, source=source)
    version = FitRegistry(args.registry).publish(servable)
    _emit(args, {
        "kernel": kernel.name,
        "arch": arch.name,
        "tag": args.tag,
        "registry": str(args.registry),
        "version": version.version,
        "digest": version.digest,
        "n_runs": len(campaign),
    }, f"published {version} to {args.registry} "
       f"(digest {version.digest[:12]}, {len(campaign)} training runs)")
    return 0


def cmd_serve(args) -> int:
    """Serve predictions from a fit registry over line-delimited JSON-RPC."""
    from repro.serve import (
        FitRegistry,
        PredictionServer,
        serve_stdio,
        serve_tcp,
    )

    server = PredictionServer(
        FitRegistry(args.registry),
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        request_timeout_s=args.request_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        telemetry_path=args.telemetry,
        telemetry_interval_s=args.telemetry_interval,
        flightrec_path=args.flight_recorder,
    )
    if args.socket:
        host, _, port = args.socket.rpartition(":")
        try:
            port_no = int(port)
        except ValueError:
            raise SystemExit(
                f"bad --socket {args.socket!r} (expected HOST:PORT)"
            )
        # serve_tcp prints the machine-readable ready line
        # ("repro-serve-ready host=... port=...") after bind().
        served = serve_tcp(
            server,
            host or "127.0.0.1",
            port_no,
            workers=args.workers,
            queue_size=args.queue_size,
            linger_s=args.linger_ms / 1000.0,
        )
    else:
        print(f"repro serve: registry {args.registry}, "
              f"max_batch={args.max_batch}, cache_size={args.cache_size} "
              f"(JSON-RPC on stdio; EOF or 'shutdown' to stop)",
              file=sys.stderr)
        served = serve_stdio(server)
    print(f"repro serve: stopped after {served} requests "
          f"({server.drained_count()} drained)", file=sys.stderr)
    return 0


def cmd_query(args) -> int:
    """Query a running ``repro serve`` instance (retrying client)."""
    from repro.faults.retry import RetryPolicy
    from repro.serve import PredictionClient, ServeError

    host, _, port = args.connect.rpartition(":")
    try:
        port_no = int(port)
    except ValueError:
        raise SystemExit(
            f"bad --connect {args.connect!r} (expected HOST:PORT)"
        )
    retry = RetryPolicy(
        max_attempts=args.retries,
        backoff_s=0.05,
        max_backoff_s=1.0,
        jitter=0.5,
        seed=args.seed,
        max_elapsed_s=args.max_elapsed,
    )
    client = PredictionClient(
        host or "127.0.0.1", port_no, retry=retry, timeout_s=args.timeout
    )
    try:
        if args.method == "predict":
            if not args.kernel:
                raise SystemExit("query predict needs a kernel argument")
            if not args.X:
                raise SystemExit(
                    "query predict needs --X (JSON feature matrix, e.g. "
                    "'[[1024, 2.5, 0.9, 4096]]')"
                )
            try:
                X = json.loads(args.X)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"bad --X: {exc}")
            result = client.predict(
                args.kernel, args.arch, X=X, tag=args.tag,
                version=args.version, deadline_ms=args.deadline_ms,
            )
            preds = ", ".join(f"{v:.6g}" for v in result["predictions"])
            text = (f"{args.kernel} on {args.arch} "
                    f"@{result['version']}: [{preds}] "
                    f"({result['response']}, {client.last_attempts} "
                    f"attempt(s))")
        else:
            result = client.call(
                args.method, retry=args.method != "shutdown"
            )
            text = json.dumps(result, indent=2, sort_keys=True)
    except ServeError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {args.connect}: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    _emit(args, {"method": args.method, "result": result,
                 "attempts": client.last_attempts}, text)
    return 0


def _render_top(doc: dict, qps: float | None, addr: str) -> str:
    """One plain-text dashboard frame from a telemetry snapshot."""
    server = doc.get("server") or {}
    counters = doc.get("counters") or {}
    lines = [
        f"repro top — {addr}",
        "  qps {qps}   requests {served}   inflight {inflight}   "
        "queue-shed {shed}   timeouts {timeouts}".format(
            qps=f"{qps:.1f}" if qps is not None else "-",
            served=server.get("requests_served", 0),
            inflight=server.get("inflight", 0),
            shed=counters.get("serve.shed", 0),
            timeouts=counters.get("serve.timeouts", 0),
        ),
        "  cache {rate:.1%} hit ({hits} hits / {misses} misses, "
        "{entries} warm, {evictions} evicted)   reloads {reloads}   "
        "{drain}".format(
            rate=server.get("cache_hit_rate", 0.0),
            hits=server.get("cache_hits", 0),
            misses=server.get("cache_misses", 0),
            entries=server.get("cache_entries", 0),
            evictions=server.get("cache_evictions", 0),
            reloads=counters.get("serve.reloads", 0),
            drain=(
                f"DRAINING ({server.get('drained', 0)} drained)"
                if server.get("draining") else "accepting"
            ),
        ),
    ]
    timers = doc.get("timers") or {}
    if timers:
        rows = []
        for key in sorted(timers):
            h = timers[key]
            fmt = lambda v: f"{v * 1e3:.3g}" if v is not None else "-"
            rows.append((
                key, h.get("count", 0), fmt(h.get("p50_s")),
                fmt(h.get("p95_s")), fmt(h.get("p99_s")),
                fmt(h.get("max_s")),
            ))
        lines.append("")
        lines.append(table(
            ["latency", "count", "p50 ms", "p95 ms", "p99 ms", "max ms"],
            rows,
        ))
    breakers = doc.get("breakers") or {}
    if breakers:
        lines.append("")
        lines.append(table(
            ["breaker", "state"],
            [(k, breakers[k]) for k in sorted(breakers)],
        ))
    return "\n".join(lines)


def cmd_top(args) -> int:
    """Live dashboard over a running server's ``telemetry`` RPC.

    Plain-text frames refreshed in place every ``--interval`` seconds;
    ``--once`` prints a single frame and exits (``--once --format
    json`` emits the raw snapshot for scripts). qps is computed from
    ``requests_served`` deltas between consecutive scrapes.
    """
    import time as _time

    from repro.serve import PredictionClient, ServeError

    host, _, port = args.connect.rpartition(":")
    try:
        port_no = int(port)
    except ValueError:
        raise SystemExit(
            f"bad --connect {args.connect!r} (expected HOST:PORT)"
        )
    client = PredictionClient(
        host or "127.0.0.1", port_no, timeout_s=args.timeout,
        id_prefix="top-",
    )
    prev: tuple[float, int] | None = None
    try:
        while True:
            t = _time.monotonic()
            try:
                doc = client.telemetry()["telemetry"]
            except (ServeError, OSError) as exc:
                print(f"cannot scrape {args.connect}: {exc}",
                      file=sys.stderr)
                return 1
            served = (doc.get("server") or {}).get("requests_served", 0)
            qps = None
            if prev is not None and t > prev[0]:
                qps = max(0, served - prev[1]) / (t - prev[0])
            prev = (t, served)
            frame = _render_top(doc, qps, args.connect)
            if args.once:
                _emit(args, {"telemetry": doc, "qps": qps}, frame)
                return 0
            # ANSI clear + home keeps the dashboard in place on a
            # terminal; piped output just gets frame after frame.
            prefix = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
            print(prefix + frame + "\n", flush=True)
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def cmd_trace(args) -> int:
    """Run any subcommand under tracing and print/export its span tree."""
    from repro.obs import collect, render_text_tree, trace

    wrapped = list(args.wrapped)
    if wrapped and wrapped[0] == "--":
        wrapped = wrapped[1:]
    if not wrapped:
        raise SystemExit("usage: repro trace <subcommand> [options...]")
    if wrapped[0] == "trace":
        raise SystemExit("cannot nest 'repro trace'")
    sub_args = build_parser().parse_args(wrapped)
    with trace() as tracer, collect() as registry:
        rc = _COMMANDS[sub_args.command](sub_args)
    if args.format == "json":
        out = json.dumps({
            "command": wrapped,
            **_trace_payload(tracer.records),
            "metrics": registry.snapshot(),
        }, indent=2)
    else:
        out = render_text_tree(tracer.records)
    if args.out:
        atomic_write(args.out, out + "\n")
        print(f"trace written to {args.out}", file=sys.stderr)
    else:
        print(out)
    return rc


# ---------------------------------------------------------------------------


def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BlackForest: GPU bottleneck analysis & performance "
        "prediction (paper reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-kernels", help="available kernel models")
    _add_format(p)
    p = sub.add_parser("list-archs", help="available architectures")
    _add_format(p)

    p = sub.add_parser("profile", help="profile one run, print all counters")
    p.add_argument("kernel")
    p.add_argument("problem", type=int)
    p.add_argument("--arch", default="GTX580")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)

    p = sub.add_parser("analyze", help="full bottleneck analysis")
    p.add_argument("kernel")
    p.add_argument("--arch", default="GTX580")
    p.add_argument("--sizes", help="comma-separated problem sizes "
                   "(default: the kernel's paper sweep)")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--trees", type=int, default=300)
    p.add_argument("--repeats", type=int, default=3,
                   help="forests averaged for the importance ranking")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--response", choices=("time", "power"), default="time")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the campaign sweep and "
                   "forest fits (-1 = all cores); results are identical "
                   "for any value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true",
                   help="record a span tree of the run (text: appended; "
                   "json: under the 'trace' key)")
    p.add_argument("--telemetry", metavar="PATH",
                   help="append campaign heartbeats (progress, retries, "
                   "quarantines) to this repro-telemetry/1 JSONL journal")
    _add_format(p)

    p = sub.add_parser("predict", help="predict times for unseen sizes")
    p.add_argument("kernel")
    p.add_argument("--sizes", required=True)
    p.add_argument("--arch", default="GTX580")
    p.add_argument("--replicates", type=int, default=3)
    p.add_argument("--trees", type=int, default=300)
    p.add_argument("--mars", action="store_true",
                   help="force MARS counter models")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (-1 = all cores)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true",
                   help="record a span tree of the run")
    _add_format(p)

    p = sub.add_parser(
        "lint",
        help="run the counter-invariant / workload-model static analysis",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--fail-on", choices=("info", "warning", "error"),
                   default="warning",
                   help="lowest severity that makes the exit code 1")
    p.add_argument("--select",
                   help="comma-separated rule ids or prefixes (e.g. "
                   "BF001,BF1)")
    p.add_argument("--no-launches", action="store_true",
                   help="skip the simulated kernel-launch checks")
    p.add_argument("--no-source", action="store_true",
                   help="skip the AST source lint")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--plan", metavar="FILE",
                   help="check a campaign plan (JSON) instead of the "
                   "tree: design rank, coverage, transfer, cost (BF5xx)")
    p.add_argument("--budget", type=float, metavar="SECONDS",
                   help="with --plan: fail when the estimated sweep "
                   "cost exceeds this many seconds")
    p.add_argument("--artifacts", nargs="+", metavar="PATH",
                   help="validate artifact files/directories against "
                   "the registered schemas (BF6xx) instead of the tree")

    p = sub.add_parser(
        "bench",
        help="run the hot-path micro-benchmarks, write BENCH_core.json",
    )
    p.add_argument("--quick", action="store_true",
                   help="smaller workloads (CI smoke sizes)")
    p.add_argument("--out", default=None,
                   help="JSON report path (default: BENCH_core.json; with "
                   "--check the report is only written when --out is "
                   "given, so the baseline stays intact)")
    p.add_argument("--ops",
                   help="comma-separated subset of benchmark ops "
                   "(default: all)")
    p.add_argument("--check", action="store_true",
                   help="compare per-op speedups against the committed "
                   "baseline; exit 1 on regression")
    p.add_argument("--baseline", default="BENCH_core.json",
                   help="baseline report for --check "
                   "(default: BENCH_core.json)")
    p.add_argument("--threshold", type=float, default=None, metavar="PCT",
                   help="speedup drop (percent) that counts as a "
                   "regression (default: 30)")
    p.add_argument("--history", default="benchmarks/history.jsonl",
                   help="bench-history journal to append each run to")
    p.add_argument("--no-history", action="store_true",
                   help="skip the history append")
    _add_format(p)

    p = sub.add_parser(
        "report",
        help="structured bottleneck report (text/Markdown/single-file HTML)",
    )
    p.add_argument("kernel")
    p.add_argument("--arch", default="GTX580")
    p.add_argument("--repo",
                   help="load the campaign from this ProfileRepository "
                   "root instead of profiling afresh")
    p.add_argument("--tag", help="repository campaign tag (with --repo)")
    p.add_argument("--sizes", help="comma-separated problem sizes for a "
                   "fresh campaign (default: the kernel's paper sweep)")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--trees", type=int, default=300)
    p.add_argument("--repeats", type=int, default=3,
                   help="forests averaged for the importance ranking "
                   "(>1 enables the stability section)")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--response", choices=("time", "power"), default="time")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (-1 = all cores); the report is "
                   "identical for any value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events",
                   help="JSONL event log (repro-events/1) to render as "
                   "the timeline section")
    p.add_argument("--trace", action="store_true",
                   help="record a span tree of the run and include the "
                   "hot-path section")
    p.add_argument("--out", help="write the report to a file instead of "
                   "stdout")
    p.add_argument("--format", choices=("text", "md", "html"),
                   default="text",
                   help="report format (default: text)")

    p = sub.add_parser("transfer", help="cross-architecture prediction")
    p.add_argument("kernel")
    p.add_argument("--train", default="GTX580")
    p.add_argument("--test", default="K20m")
    p.add_argument("--replicates", type=int, default=3)
    p.add_argument("--trees", type=int, default=300)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (-1 = all cores)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true",
                   help="record a span tree of the run")
    _add_format(p)

    p = sub.add_parser(
        "chaos",
        help="run a campaign under injected faults, report quarantines",
    )
    p.add_argument("kernel")
    p.add_argument("--arch", default="GTX580")
    p.add_argument("--sizes", help="comma-separated problem sizes "
                   "(default: the kernel's paper sweep)")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; quarantine decisions are "
                   "identical for any value")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign RNG seed and fault-plan seed")
    p.add_argument("--plan",
                   help="JSON fault plan: a list of specs (or "
                   "{'seed':..., 'specs':[...]}), each "
                   "{'site','mode','match','probability','payload'}")
    p.add_argument("--launch-rate", type=float, default=0.0,
                   help="probability an individual launch raises")
    p.add_argument("--nan-rate", type=float, default=0.0,
                   help="probability a launch returns NaN counters")
    p.add_argument("--worker-rate", type=float, default=0.0,
                   help="probability a worker process crashes on an item")
    p.add_argument("--torn-rate", type=float, default=0.0,
                   help="probability an artifact file write (the io.write "
                   "site) is torn (needs --save-to)")
    p.add_argument("--transient", action="store_true",
                   help="launch faults fire once per run (retries recover)")
    p.add_argument("--retries", type=int, default=3,
                   help="attempts per launch before quarantine")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-launch deadline in seconds")
    p.add_argument("--save-to",
                   help="save the surviving campaign into this repository "
                   "and verify it (exercises io.write faults)")
    p.add_argument("--serve", action="store_true",
                   help="chaos-test the prediction server instead: fit "
                   "the kernel, serve it, and drive concurrent retrying "
                   "clients against injected serve.request/registry.load "
                   "faults")
    p.add_argument("--clients", type=int, default=4,
                   help="(--serve) concurrent client connections")
    p.add_argument("--requests", type=int, default=32,
                   help="(--serve) total predict requests across clients")
    p.add_argument("--trees", type=int, default=60,
                   help="(--serve) forest size of the served fit")
    p.add_argument("--workers", type=int, default=4,
                   help="(--serve) server worker threads")
    p.add_argument("--request-rate", type=float, default=0.0,
                   help="(--serve) probability a predict handler raises "
                   "(serve.request raise -> typed internal_error)")
    p.add_argument("--delay-rate", type=float, default=0.0,
                   help="(--serve) probability a predict is delayed "
                   "(serve.request delay; trips deadlines)")
    p.add_argument("--delay-s", type=float, default=0.02,
                   help="(--serve) injected delay duration (default 0.02)")
    p.add_argument("--corrupt-times", type=int, default=0,
                   help="(--serve) first N registry loads fail corrupt "
                   "(registry.load corrupt; opens + recovers the breaker)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="(--serve) per-request deadline clients attach")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="(--serve) failures before the breaker opens")
    p.add_argument("--breaker-cooldown", type=int, default=4,
                   help="(--serve) rejections between half-open probes")
    p.add_argument("--telemetry", metavar="PATH",
                   help="(campaign mode) append campaign heartbeats to "
                   "this repro-telemetry/1 JSONL journal")
    _add_format(p)

    p = sub.add_parser(
        "repo",
        help="inspect/verify an on-disk profile repository",
    )
    p.add_argument("action", choices=("verify", "list", "stats"))
    p.add_argument("root", help="repository root directory")
    p.add_argument("--quarantine", action="store_true",
                   help="(verify) move damaged campaigns into _quarantine/")
    _add_format(p)

    p = sub.add_parser(
        "publish",
        help="fit a model and publish it into a fit registry for serving",
    )
    p.add_argument("kernel")
    p.add_argument("--arch", default="GTX580")
    p.add_argument("--registry", default="./models",
                   help="fit-registry root directory (default: ./models)")
    p.add_argument("--repo",
                   help="train on a stored campaign from this "
                   "ProfileRepository root (versions the fit by the "
                   "campaign's manifest digest) instead of profiling "
                   "afresh")
    p.add_argument("--tag", help="campaign tag (with --repo) and "
                   "registry tag of the published fit")
    p.add_argument("--sizes", help="comma-separated problem sizes for a "
                   "fresh campaign (default: the kernel's paper sweep)")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--trees", type=int, default=300)
    p.add_argument("--response", choices=("time", "power"), default="time")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (-1 = all cores)")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)

    p = sub.add_parser(
        "serve",
        help="serve predictions from a fit registry "
        "(line-delimited JSON-RPC)",
    )
    p.add_argument("--registry", default="./models",
                   help="fit-registry root directory (default: ./models)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="max requests coalesced into one stacked "
                   "predict_many pass (default: 32)")
    p.add_argument("--cache-size", type=int, default=8,
                   help="deserialized fits kept warm in the LRU "
                   "(default: 8)")
    p.add_argument("--socket", metavar="HOST:PORT",
                   help="listen on a local TCP socket instead of stdio; "
                   "prints 'repro-serve-ready host=H port=P' once bound "
                   "(port 0 picks a free port)")
    p.add_argument("--workers", type=int, default=4,
                   help="worker threads draining the request queue "
                   "(--socket only; default: 4)")
    p.add_argument("--queue-size", type=int, default=64,
                   help="bounded request queue; overflow is shed with a "
                   "typed 'overloaded' error (--socket only; default: 64)")
    p.add_argument("--linger-ms", type=float, default=0.0,
                   help="batching window: wait up to this long for more "
                   "lines before running a predict pass — trades latency "
                   "for cross-client batch depth (--socket only; "
                   "default: 0)")
    p.add_argument("--request-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="default per-request deadline; requests may "
                   "override with params.deadline_ms (default: none)")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive integrity failures that open a "
                   "model's circuit breaker (default: 5)")
    p.add_argument("--breaker-cooldown", type=int, default=8,
                   help="rejected requests between half-open breaker "
                   "probes (default: 8)")
    p.add_argument("--telemetry", metavar="PATH",
                   help="append periodic metric snapshots to this "
                   "rotating repro-telemetry/1 JSONL journal")
    p.add_argument("--telemetry-interval", type=float, default=5.0,
                   metavar="SECONDS",
                   help="seconds between telemetry samples (default: 5)")
    p.add_argument("--flight-recorder", metavar="PATH",
                   help="dump the server's ring of recent events to "
                   "PATH as repro-flightrec/1 on SIGTERM, worker "
                   "crash, or a breaker opening")

    p = sub.add_parser(
        "query",
        help="query a running 'repro serve' instance (retrying client)",
    )
    p.add_argument("method",
                   choices=("predict", "ping", "stats", "models",
                            "telemetry", "shutdown"))
    p.add_argument("kernel", nargs="?",
                   help="kernel name (predict only)")
    p.add_argument("--connect", default="127.0.0.1:7070",
                   metavar="HOST:PORT",
                   help="server address (default: 127.0.0.1:7070)")
    p.add_argument("--arch", default="GTX580")
    p.add_argument("--tag", help="registry tag of the fit")
    p.add_argument("--version", help="fit version (default: latest)")
    p.add_argument("--X", metavar="JSON",
                   help="feature matrix, e.g. '[[1024, 2.5, 0.9, 4096]]' "
                   "(column order: the fit's feature_names)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="server-side deadline for this request")
    p.add_argument("--retries", type=int, default=4,
                   help="client attempts for transient errors "
                   "(overloaded/draining/breaker_open/deadline_exceeded)")
    p.add_argument("--max-elapsed", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock cap across all retry attempts")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="socket timeout per read/write (default: 10)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the deterministic retry jitter")
    _add_format(p)

    p = sub.add_parser(
        "top",
        help="live dashboard over a running server's telemetry RPC",
    )
    p.add_argument("--connect", default="127.0.0.1:7070",
                   metavar="HOST:PORT",
                   help="server address (default: 127.0.0.1:7070)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between scrapes (default: 2)")
    p.add_argument("--once", action="store_true",
                   help="print a single frame and exit (scriptable "
                   "with --format json)")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="socket timeout per scrape (default: 10)")
    _add_format(p)

    p = sub.add_parser(
        "trace",
        help="run another subcommand under tracing, print its span tree",
    )
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text tree or Chrome-trace-compatible JSON")
    p.add_argument("--out", help="write the trace to a file")
    p.add_argument("wrapped", nargs=argparse.REMAINDER,
                   help="the subcommand (and its options) to trace")

    return parser


_COMMANDS = {
    "list-kernels": cmd_list_kernels,
    "list-archs": cmd_list_archs,
    "profile": cmd_profile,
    "analyze": cmd_analyze,
    "predict": cmd_predict,
    "transfer": cmd_transfer,
    "lint": cmd_lint,
    "bench": cmd_bench,
    "report": cmd_report,
    "chaos": cmd_chaos,
    "repo": cmd_repo,
    "publish": cmd_publish,
    "serve": cmd_serve,
    "query": cmd_query,
    "top": cmd_top,
    "trace": cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trace", False) and args.command != "trace":
        from repro.obs import collect, trace

        with trace() as tracer, collect() as registry:
            args._tracer = tracer
            args._registry = registry
            return _COMMANDS[args.command](args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
