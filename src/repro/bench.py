"""Micro-benchmark harness for the pipeline's hot paths (``repro bench``).

Times the hot paths the perf passes vectorized — trace coalescing /
cache replay (gpusim), forest fitting, prediction and partial
dependence (ml), and campaign sweeps (profiling) — **against the
retained pre-vectorization implementations** (the ``*_scalar``
oracles, :mod:`repro.ml._reference`, and the per-launch simulation
loop), so the recorded speedups compare real code rather than
remembered numbers. Results land in ``BENCH_core.json``.

Every benchmark first checks that fast and baseline paths agree on the
workload being timed; a divergence makes the harness fail loudly rather
than publish a meaningless speedup.

Run it as::

    python -m repro bench [--quick] [--ops cache_trace_replay,...]
    python -m repro bench --quick --check   # regression watchdog

Each run is appended to the bench-history journal
(``benchmarks/history.jsonl``, see :mod:`repro.obs.history`) with
manifest-style provenance; ``--check`` compares the fresh run's per-op
median speedups (of :data:`RUNS_PER_OP` runs) against the committed
``BENCH_core.json`` baseline, itself written the same way, and exits
non-zero when any op regressed past ``--threshold`` percent.

See docs/performance.md and docs/observability.md for how to read the
output.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.io import atomic_write

__all__ = [
    "BenchResult",
    "run_benchmarks",
    "write_report",
    "format_results",
    "check_regressions",
]

#: Default journal each bench run is appended to.
HISTORY_PATH = "benchmarks/history.jsonl"

#: Default committed baseline the watchdog compares against.
BASELINE_PATH = "BENCH_core.json"

#: Schema tag written into the JSON report.
SCHEMA = "repro-bench/1"

#: Runs of each op per bench run. The report keeps the run with the
#: median speedup: one quick run's ratio can spread past the ``--check``
#: threshold on a loaded machine with no code change.
RUNS_PER_OP = 3


@dataclass
class BenchResult:
    """One benchmarked operation: fast path vs. pre-PR baseline."""

    op: str
    n: int                      #: work items processed per timed call
    unit: str                   #: what one work item is
    wall_s: float               #: best wall time of the fast path
    throughput: float           #: items per second, fast path
    baseline_wall_s: float | None = None
    baseline_throughput: float | None = None
    speedup: float | None = None
    detail: dict = field(default_factory=dict)


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time over ``repeats`` calls (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _result(
    op: str,
    n: int,
    unit: str,
    fast_s: float,
    baseline_s: float | None,
    detail: dict,
) -> BenchResult:
    return BenchResult(
        op=op,
        n=n,
        unit=unit,
        wall_s=fast_s,
        throughput=n / fast_s if fast_s > 0 else float("inf"),
        baseline_wall_s=baseline_s,
        baseline_throughput=(
            n / baseline_s if baseline_s and baseline_s > 0 else None
        ),
        speedup=baseline_s / fast_s if baseline_s and fast_s > 0 else None,
        detail=detail,
    )


def _mixed_trace(rng: np.random.Generator, rows: int, segment_bytes: int) -> np.ndarray:
    """A (rows, 32) lane-address trace mixing locality regimes.

    Thirds of the requests are coalesced-sequential (1 segment),
    strided (several segments) and scattered-with-reuse (pressure on
    the replacement policy) — roughly the spread the kernel models
    produce, so neither path gets a best-case workload.
    """
    lanes = np.arange(32)
    trace = np.empty((rows, 32), dtype=np.int64)
    for i in range(rows):
        mode = i % 3
        if mode == 0:  # unit-stride: one segment per request
            base = int(rng.integers(0, 1 << 18)) * segment_bytes
            trace[i] = base + lanes * 4
        elif mode == 1:  # strided: several segments
            base = int(rng.integers(0, 1 << 14)) * segment_bytes
            trace[i] = base + lanes * segment_bytes // 2
        else:  # scattered over a reused window
            trace[i] = rng.integers(0, 64 * segment_bytes, size=32)
        if rng.random() < 0.2:  # partially active warps
            trace[i, rng.integers(1, 32):] = -1
    return trace


# -- individual benchmarks --------------------------------------------------


def bench_trace_transactions(quick: bool = False) -> BenchResult:
    """Per-request transaction counting: row-sort vs. per-row np.unique."""
    from repro.gpusim.memory import (
        transactions_from_trace,
        transactions_from_trace_scalar,
    )

    rows = 2_000 if quick else 20_000
    seg = 128
    trace = _mixed_trace(np.random.default_rng(0), rows, seg)

    fast = transactions_from_trace(trace, seg)
    base = transactions_from_trace_scalar(trace, seg)
    if not np.array_equal(fast, base):
        raise AssertionError("vectorized transaction counts diverge from oracle")

    fast_s = _best_of(lambda: transactions_from_trace(trace, seg), 5)
    base_s = _best_of(lambda: transactions_from_trace_scalar(trace, seg), 2)
    return _result(
        "trace_transactions", rows, "requests", fast_s, base_s,
        {"segment_bytes": seg},
    )


def bench_cache_trace_replay(quick: bool = False) -> BenchResult:
    """Warm L1 replay: set-partitioned batch sweep vs. per-probe access."""
    from repro.gpusim import GTX580
    from repro.gpusim.memory import CacheSim, coalesce_trace

    rows = 1_500 if quick else 6_000
    geometry = GTX580.l1
    trace = _mixed_trace(np.random.default_rng(1), rows, geometry.line_bytes)
    probes = int(coalesce_trace(trace, geometry.line_bytes).size)

    sim_fast = CacheSim(geometry)
    sim_base = CacheSim(geometry)
    rate_fast = sim_fast.warm_trace_hit_rate(trace)
    rate_base = sim_base.warm_trace_hit_rate_scalar(trace)
    if rate_fast != rate_base:
        raise AssertionError("batched cache replay diverges from oracle")

    def run_fast():
        sim_fast.reset()
        sim_fast.warm_trace_hit_rate(trace)

    def run_base():
        sim_base.reset()
        sim_base.warm_trace_hit_rate_scalar(trace)

    fast_s = _best_of(run_fast, 5)
    base_s = _best_of(run_base, 2)
    return _result(
        "cache_trace_replay", probes, "probes", fast_s, base_s,
        {
            "requests": rows,
            "hit_rate": rate_fast,
            "geometry": f"{geometry.size_bytes}B/{geometry.associativity}way",
        },
    )


def bench_forest_fit(quick: bool = False) -> BenchResult:
    """Paper-scale forest fit: block split scan + batched OOB importance
    vs. the per-feature / per-variable reference."""
    from repro.ml._reference import ReferenceRandomForestRegressor
    from repro.ml.forest import RandomForestRegressor

    # Paper scale: "tens to hundreds" of runs (129 in the use cases)
    # with a Table-1-sized predictor set.
    n, p = 129, 36
    trees = 20 if quick else 60
    rng = np.random.default_rng(2)
    X = rng.normal(size=(n, p))
    y = X[:, 0] * 2.0 + np.sin(X[:, 1]) + rng.normal(scale=0.3, size=n)

    def run_fast():
        RandomForestRegressor(
            n_trees=trees, importance=True, rng=np.random.default_rng(3)
        ).fit(X, y)

    def run_base():
        ReferenceRandomForestRegressor(
            n_trees=trees, importance=True, rng=np.random.default_rng(3)
        ).fit(X, y)

    fast_s = _best_of(run_fast, 3)
    base_s = _best_of(run_base, 1 if quick else 2)
    return _result(
        "forest_fit", trees, "trees", fast_s, base_s,
        {"n_samples": n, "n_features": p, "importance": True},
    )


def bench_campaign_sweep(quick: bool = False) -> BenchResult:
    """Needleman–Wunsch campaign: batched launches vs. the per-launch loop.

    The fast side is :meth:`repro.profiling.Campaign.run` as shipped,
    which simulates each run's :class:`~repro.gpusim.LaunchBatch` in one
    ``GPUSimulator.run_totals`` pass. The baseline is the same campaign
    under a per-attempt deadline (``RetryPolicy(timeout_s=3600)``), which
    makes the profiler launch one workload at a time so it can check the
    clock between launches.
    """
    from repro.faults import RetryPolicy
    from repro.gpusim import GTX580
    from repro.kernels import NeedlemanWunschKernel
    from repro.profiling import Campaign

    kernel = NeedlemanWunschKernel()
    problems = kernel.default_sweep()[: 6 if quick else 12]
    replicates = 2 if quick else 3

    def collect(retry=None):
        return Campaign(kernel, GTX580, rng=4).run(
            problems=problems, replicates=replicates, retry=retry
        )

    per_launch = RetryPolicy(timeout_s=3600)
    reference = collect(per_launch)
    batched = collect()
    for a, b in zip(reference.records, batched.records, strict=True):
        if a.time_s != b.time_s or a.counters != b.counters:
            raise AssertionError("batched campaign diverges from per-launch")

    runs = len(problems) * replicates
    fast_s = _best_of(collect, 3)
    base_s = _best_of(lambda: collect(per_launch), 2)
    return _result(
        "campaign_sweep", runs, "profiled runs", fast_s, base_s,
        {
            "kernel": kernel.name,
            "arch": "GTX580",
            "problems": len(problems),
            "replicates": replicates,
        },
    )


def bench_predict_many(quick: bool = False) -> BenchResult:
    """Batched serving path: one stacked, packed predict_many pass over
    many queued queries vs. the per-query, per-tree predict loop.

    The workload mirrors what ``repro serve`` coalesces — many small
    (often single-row) query matrices against one warm fit. The baseline
    is the scalar path both optimizations replaced: one forest walk per
    query, each a python-level loop over the trees
    (:func:`repro.ml._reference.forest_predict`). The two paths are
    checked bit-identical before timing (forest prediction maps rows
    independently and sums trees in the same order).
    """
    from repro.ml._reference import forest_predict
    from repro.ml.forest import RandomForestRegressor

    n, p = 200, 12
    trees = 40 if quick else 100
    n_queries = 64 if quick else 256
    rng = np.random.default_rng(5)
    X = rng.normal(size=(n, p))
    y = X[:, 0] * 1.5 + np.abs(X[:, 1]) + rng.normal(scale=0.2, size=n)
    forest = RandomForestRegressor(
        n_trees=trees, importance=False, rng=np.random.default_rng(6)
    ).fit(X, y)
    # Serving-shaped queries: mostly single rows, a few small batches.
    queries = [
        rng.normal(size=(1 if i % 4 else 8, p)) for i in range(n_queries)
    ]
    rows = sum(q.shape[0] for q in queries)

    def run_base():
        return [forest_predict(forest.trees_, q) for q in queries]

    for a, b in zip(forest.predict_many(queries), run_base()):
        if a.tobytes() != b.tobytes():
            raise AssertionError("batched predict diverges from per-query loop")

    fast_s = _best_of(lambda: forest.predict_many(queries), 5)
    base_s = _best_of(run_base, 2)
    return _result(
        "predict_many", n_queries, "queries", fast_s, base_s,
        {
            "rows": rows,
            "trees": trees,
            "n_features": p,
            "predictions_per_s": rows / fast_s if fast_s > 0 else None,
        },
    )


def bench_partial_dependence(quick: bool = False) -> BenchResult:
    """Stacked partial dependence vs. the per-grid, per-tree loop.

    The importance stage's dependence plots at paper scale: a
    reduce1-sized forest and the top features' grids, with confidence
    bands. The fast path stacks every (feature, grid value) copy of the
    data into one packed forest pass; the baseline walks each grid
    point, and for the band each tree, one predict at a time
    (:func:`repro.ml._reference.partial_dependence`). Grids, values and
    bands are checked bit-identical before timing.
    """
    from repro.ml import _reference
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.partial_dependence import partial_dependence

    n, p = 80, 24
    trees = 60 if quick else 300
    features = list(range(4 if quick else 8))
    rng = np.random.default_rng(7)
    X = rng.lognormal(size=(n, p))
    y = X[:, 0] * 2.0 + np.log(X[:, 1]) + rng.normal(scale=0.1, size=n)
    forest = RandomForestRegressor(
        n_trees=trees, importance=False, rng=np.random.default_rng(8)
    ).fit(X, y)

    def run_fast():
        return partial_dependence(forest, X, features, confidence=0.9)

    def run_base():
        return [
            _reference.partial_dependence(forest, X, j, confidence=0.9)
            for j in features
        ]

    grid_points = 0
    for a, b in zip(run_fast(), run_base()):
        grid_points += a.grid.size
        for name in ("grid", "values", "lower", "upper"):
            if getattr(a, name).tobytes() != getattr(b, name).tobytes():
                raise AssertionError(
                    f"stacked partial dependence {name} diverges from "
                    f"the per-grid loop"
                )

    fast_s = _best_of(run_fast, 3)
    base_s = _best_of(run_base, 1 if quick else 2)
    return _result(
        "partial_dependence", grid_points, "grid points", fast_s, base_s,
        {
            "features": len(features),
            "rows": n,
            "trees": trees,
            "confidence": 0.9,
        },
    )


def bench_serve_concurrent(quick: bool = False) -> BenchResult:
    """Concurrent serving frontend vs. the single-connection serial loop.

    Eight closed-loop TCP clients send single-row predicts. The fast
    path is the threaded ``serve_tcp`` frontend (bounded worker pool,
    cross-client batching); the baseline replicates the pre-hardening
    accept loop — one connection served to completion at a time — so
    the eight clients serialize. Both paths are checked byte-identical
    (per request id) against the serial stdio server before timing: the
    concurrency is a transport property, never a semantic one.
    """
    import socket
    import tempfile
    import threading

    from repro.ml.forest import RandomForestRegressor
    from repro.serve import FitRegistry, PredictionServer, ServableFit
    from repro.serve.server import serve_stdio, serve_tcp

    clients = 8
    per_client = 8 if quick else 20
    trees = 150  # deep forest: the per-pass tree loop is what batching amortizes
    rows = 1
    p = 8
    features = [f"f{i}" for i in range(p)]
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(120, p))
    y = X @ np.linspace(1.0, 2.0, p) + rng.normal(0, 0.01, 120)
    forest = RandomForestRegressor(
        n_trees=trees, importance=False, rng=np.random.default_rng(12)
    ).fit(X, y, feature_names=features)
    servable = ServableFit(
        kernel="benchServe", arch="volta", tag=None, forest=forest,
        feature_names=features, source={"n_runs": 120},
    )
    payloads = [
        [
            json.dumps(
                {
                    "id": f"c{c}-{i}",
                    "method": "predict",
                    "params": {
                        "kernel": "benchServe",
                        "arch": "volta",
                        "X": rng.uniform(size=(rows, p)).tolist(),
                    },
                },
                sort_keys=True,
            )
            for i in range(per_client)
        ]
        for c in range(clients)
    ]
    n_requests = clients * per_client

    def session(host: str, port: int, lines: list[str]) -> dict[str, str]:
        """One closed-loop client: send a line, wait for its response."""
        out = {}
        with socket.create_connection((host, port)) as conn:
            rf = conn.makefile("r")
            wf = conn.makefile("w")
            for line in lines:
                wf.write(line + "\n")
                wf.flush()
                resp = rf.readline()
                out[json.loads(resp)["id"]] = resp.rstrip("\n")
        return out

    def drive(host: str, port: int) -> dict[str, str]:
        results: dict[str, str] = {}
        lock = threading.Lock()

        def one(c: int) -> None:
            got = session(host, port, payloads[c])
            with lock:
                results.update(got)

        threads = [
            threading.Thread(target=one, args=(c,)) for c in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    def serial_tcp(server: PredictionServer, sock) -> None:
        # Replica of the pre-hardening frontend: one connection at a
        # time, served to completion over stdio framing.
        while not server._stop:
            try:
                conn, _ = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                serve_stdio(
                    server, stdin=conn.makefile("r"),
                    stdout=conn.makefile("w"),
                )

    with tempfile.TemporaryDirectory() as tmp:
        registry = FitRegistry(tmp)
        registry.publish(servable)

        # Ground truth: the serial stdio server, one request per batch.
        ref = PredictionServer(registry)
        expected: dict[str, str] = {}
        for lines in payloads:
            for line in lines:
                out = ref.handle_batch([line])[0]
                expected[json.loads(out)["id"]] = out

        # The telemetry exporter rides along on the fast path — the
        # acceptance bar is that live observability costs almost
        # nothing, so the timed configuration is the observed one.
        fast_server = PredictionServer(
            registry,
            telemetry_path=f"{tmp}/telemetry.jsonl",
            telemetry_interval_s=0.5,
        )
        ready = threading.Event()
        addr: dict = {}

        def on_ready(host, port):
            addr["fast"] = (host, port)
            ready.set()

        fast_thread = threading.Thread(
            target=serve_tcp,
            args=(fast_server, "127.0.0.1", 0),
            kwargs={
                # Two workers, not four: one handles while the other
                # collects the next cross-client batch; more workers
                # fragment batches and contend for the GIL.
                "workers": 2,
                "queue_size": 4 * n_requests,
                "on_ready": on_ready,
                "announce": False,
                # Batching window: closed-loop clients send in bursts
                # right after each response wave; a millisecond of
                # linger coalesces the burst into one stacked pass.
                "linger_s": 0.001,
            },
            daemon=True,
        )
        fast_thread.start()
        if not ready.wait(timeout=15):
            raise AssertionError("concurrent frontend never became ready")

        base_server = PredictionServer(registry)
        bsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        bsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        bsock.bind(("127.0.0.1", 0))
        bsock.listen(16)
        bsock.settimeout(0.05)
        base_thread = threading.Thread(
            target=serial_tcp, args=(base_server, bsock), daemon=True
        )
        base_thread.start()
        addr["base"] = bsock.getsockname()

        try:
            if drive(*addr["fast"]) != expected:
                raise AssertionError(
                    "concurrent responses diverge from the serial server"
                )
            if drive(*addr["base"]) != expected:
                raise AssertionError(
                    "baseline responses diverge from the serial server"
                )
            fast_s = _best_of(lambda: drive(*addr["fast"]), 4)
            base_s = _best_of(lambda: drive(*addr["base"]), 2)
        finally:
            shutdown = json.dumps({"id": "stop", "method": "shutdown"})
            for which in ("fast", "base"):
                try:
                    session(*addr[which], [shutdown])
                except OSError:
                    pass
            fast_thread.join(timeout=10)
            base_thread.join(timeout=10)
            bsock.close()

    return _result(
        "serve_concurrent", n_requests, "requests", fast_s, base_s,
        {
            "clients": clients,
            "per_client": per_client,
            "trees": trees,
            "workers": 2,
            "telemetry": True,
            "requests_per_s": (
                n_requests / fast_s if fast_s > 0 else None
            ),
        },
    )


def _synthetic_campaign(n_runs: int, seed: int):
    """A repository-scale synthetic campaign with real catalogue counters.

    Fabricates ``RunRecord`` rows directly (no simulator in the loop) so
    the benchmark times the storage layer, not profiling. Counter names
    come from the real GTX580 catalogue so ``predictor_names`` and the
    index's predictor subset resolve exactly as they do for profiled
    campaigns.
    """
    from repro.gpusim.counters import CATALOGUE, available_counters
    from repro.profiling.campaign import CampaignResult
    from repro.profiling.profiler import RunRecord

    names = [
        n for n in available_counters("fermi") if CATALOGUE[n].predictor
    ][:24]
    rng = np.random.default_rng(seed)
    values = rng.uniform(1.0, 1e6, size=(n_runs, len(names)))
    sizes = rng.integers(64, 4096, size=n_runs)
    times = rng.uniform(1e-4, 0.5, size=n_runs)
    records = [
        RunRecord(
            kernel="bench-synth",
            arch="GTX580",
            family="fermi",
            problem=int(sizes[i]),
            characteristics={"n": float(sizes[i])},
            counters=dict(zip(names, values[i].tolist())),
            time_s=float(times[i]),
            replicate=0,
        )
        for i in range(n_runs)
    ]
    return CampaignResult(
        kernel="bench-synth", arch="GTX580", family="fermi", records=records
    )


def bench_time_to_matrix(quick: bool = False) -> BenchResult:
    """Repository-scale ``matrix()``: columnar index vs. CSV re-parse.

    Saves one synthetic campaign at production scale (10^4 runs; 2·10^3
    in quick mode) and times the question every fit starts with — "give
    me the dense predictor matrix" — answered from the ``repro-matrix/1``
    sidecar versus re-parsing ``runs.csv`` through ``load()``. The two
    paths are checked bit-identical before timing.
    """
    import shutil
    import tempfile

    from repro.profiling.repository import CampaignKey, ProfileRepository

    n_runs = 2_000 if quick else 10_000
    tmp = tempfile.mkdtemp(prefix="repro-bench-repo-")
    try:
        repo = ProfileRepository(tmp)
        result = _synthetic_campaign(n_runs, seed=11)
        repo.save(result, seed=11)
        key = CampaignKey("bench-synth", "GTX580")

        X_fast, y_fast, names_fast = repo.matrix(key)
        X_base, y_base, names_base = repo.load(key).matrix()
        if (
            names_fast != names_base
            or not np.array_equal(X_fast, X_base)
            or not np.array_equal(y_fast, y_base)
        ):
            raise AssertionError("indexed matrix diverges from CSV parse")

        fast_s = _best_of(lambda: repo.matrix(key), 3)
        base_s = _best_of(lambda: repo.load(key).matrix(), 2)
        return _result(
            "time_to_matrix", n_runs, "stored runs", fast_s, base_s,
            {"n_predictors": X_fast.shape[1]},
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_fit_from_repo(quick: bool = False) -> BenchResult:
    """Incremental fit from a stored campaign vs. full parse-and-refit.

    Scenario: a 10^4-run campaign (2·10^3 quick) grows by a small
    append. The fast path resumes from serialized forest state
    (``repro-forest-state/1``) — matrix from the columnar index, stored
    trees restored, only the delta's worth of trees grown. The baseline
    re-parses the CSV and refits the full forest from scratch. The
    resumed forest is checked bit-identical to the in-process
    fit-then-refit replay before timing.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.ml.forest import RandomForestRegressor
    from repro.ml.incremental import fit_from_repo
    from repro.profiling.repository import CampaignKey, ProfileRepository

    n_base = 2_000 if quick else 10_000
    n_delta = max(n_base // 20, 50)
    trees = 8
    tmp = tempfile.mkdtemp(prefix="repro-bench-fit-")
    try:
        repo = ProfileRepository(Path(tmp) / "repo")
        full = _synthetic_campaign(n_base + n_delta, seed=13)
        base_result = _synthetic_campaign(n_base + n_delta, seed=13)
        base_result.records = base_result.records[:n_base]
        repo.save(base_result, seed=13)
        key = CampaignKey("bench-synth", "GTX580")
        cfg = dict(
            n_trees=trees, max_depth=6, importance=False, seed=21,
        )

        state0 = Path(tmp) / "state0.json"
        fit_from_repo(repo, key, state_path=state0, **cfg)

        delta = _synthetic_campaign(n_base + n_delta, seed=13)
        delta.records = delta.records[n_base:]
        repo.append(delta)

        # Bit-identity gate: resumed == in-process fit-then-refit replay.
        state_work = Path(tmp) / "state.json"
        shutil.copy(state0, state_work)
        resumed, info = fit_from_repo(
            repo, key, state_path=state_work, **cfg
        )
        if info["path"] != "resumed":
            raise AssertionError(
                f"expected the resumed path, got {info['path']!r}"
            )
        X, y, names = repo.matrix(key)
        replay = RandomForestRegressor(
            n_trees=trees, max_depth=6, importance=False, rng=21,
        ).fit(X[:n_base], y[:n_base], feature_names=list(names))
        replay.refit(X, y)
        probe = np.asarray(X[:64], dtype=float)
        if not np.array_equal(resumed.predict(probe), replay.predict(probe)):
            raise AssertionError("resumed fit diverges from fit+refit replay")

        def run_fast():
            shutil.copy(state0, state_work)
            fit_from_repo(repo, key, state_path=state_work, **cfg)

        def run_base():
            Xb, yb, nb = repo.load(key).matrix()
            RandomForestRegressor(
                n_trees=trees + info["n_new_trees"], max_depth=6,
                importance=False, rng=21,
            ).fit(Xb, yb, feature_names=list(nb))

        fast_s = _best_of(run_fast, 3)
        base_s = _best_of(run_base, 2)
        return _result(
            "fit_from_repo", n_base + n_delta, "stored runs",
            fast_s, base_s,
            {
                "n_appended": n_delta,
                "n_trees": trees,
                "n_new_trees": info["n_new_trees"],
            },
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


BENCHMARKS = {
    "trace_transactions": bench_trace_transactions,
    "cache_trace_replay": bench_cache_trace_replay,
    "forest_fit": bench_forest_fit,
    "campaign_sweep": bench_campaign_sweep,
    "predict_many": bench_predict_many,
    "partial_dependence": bench_partial_dependence,
    "serve_concurrent": bench_serve_concurrent,
    "time_to_matrix": bench_time_to_matrix,
    "fit_from_repo": bench_fit_from_repo,
}


def run_benchmarks(
    ops: list[str] | None = None,
    quick: bool = False,
    log=None,
) -> list[BenchResult]:
    """Run the selected benchmarks (default: all), in catalogue order;
    each op :data:`RUNS_PER_OP` times, reporting its median-speedup run."""
    selected = list(BENCHMARKS) if ops is None else list(ops)
    unknown = [op for op in selected if op not in BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmark op(s) {unknown}; choose from {list(BENCHMARKS)}"
        )
    results = []
    for op in selected:
        if log is not None:
            log(f"running {op} ({'quick' if quick else 'full'}, "
                f"{RUNS_PER_OP} runs)...")
        runs = [BENCHMARKS[op](quick=quick) for _ in range(RUNS_PER_OP)]
        runs.sort(key=lambda r: r.speedup or 0.0)
        median = runs[len(runs) // 2]
        median.detail["run_speedups"] = [r.speedup for r in runs]
        results.append(median)
    return results


def write_report(
    results: list[BenchResult], path: str, quick: bool = False
) -> dict:
    """Serialize results (plus environment metadata) to ``path``."""
    payload = {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": [asdict(r) for r in results],
    }
    atomic_write(path, json.dumps(payload, indent=2) + "\n")
    return payload


def format_results(results: list[BenchResult]) -> str:
    """Human-readable table of the per-op timings and speedups."""
    from repro.viz import table

    rows = []
    for r in results:
        rows.append((
            r.op,
            f"{r.n} {r.unit}",
            f"{r.wall_s * 1e3:.2f} ms",
            f"{r.throughput:,.0f}/s",
            f"{r.baseline_wall_s * 1e3:.2f} ms" if r.baseline_wall_s else "-",
            f"{r.speedup:.1f}x" if r.speedup else "-",
        ))
    return table(
        ["op", "workload", "fast", "throughput", "baseline", "speedup"],
        rows,
        title="repro bench (baselines: pre-vectorization scalar paths)",
    )


def check_regressions(
    payload: dict,
    baseline_path: str = BASELINE_PATH,
    threshold_pct: float | None = None,
):
    """Compare a fresh ``repro-bench/1`` payload to the committed baseline.

    Returns the list of :class:`repro.obs.history.Regression` findings
    (empty = no op slowed past the threshold). Raises ``OSError`` if the
    baseline file is absent — a watchdog with nothing to compare against
    must fail loudly, not pass vacuously.
    """
    from repro.obs.history import DEFAULT_THRESHOLD_PCT, compare_results

    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != SCHEMA:
        raise ValueError(
            f"{baseline_path}: unknown bench schema "
            f"{baseline.get('schema')!r} (expected {SCHEMA!r})"
        )
    if threshold_pct is None:
        threshold_pct = DEFAULT_THRESHOLD_PCT
    return compare_results(payload, baseline, threshold_pct=threshold_pct)
