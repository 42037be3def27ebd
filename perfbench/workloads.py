"""The benchmark's three workloads: two paper pipelines and live serving.

Each workload builds its inputs from the seed, measures untraced
passes, checks its outputs and returns a :class:`Pass`. The traced run
repeats the work under :func:`tracing.instrument` and must produce
byte-identical outputs (compared through :attr:`Pass.fingerprint`).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    GTX580,
    BlackForest,
    Campaign,
    MatMulKernel,
    NeedlemanWunschKernel,
    ProblemScalingPredictor,
    ReductionKernel,
)
from repro.core.store import CampaignKey
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import explained_variance
from repro.serve import FitRegistry, ServableFit, servable_from_fit
from repro.serve.client import parse_ready_line

import probes
import tracing
from stats import PeakMemory, Tally, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Unseen NW sequence lengths of Fig. 6b.
NW_UNSEEN = [96, 992, 2080, 4032, 6080, 7936]
#: After every workflow, single-caller closed-loop 1-row queries ask its
#: fit for as long as the workflow took. The VM the benchmark was built
#: on runs in fast and slow blocks lasting seconds, so a short burst of
#: queries sees one block; a phase as long as a workflow sees several ...
QUERY_SHARE = 1.0
#: ... and at least this many.
MIN_QUERIES = 100


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Solved:
    """One finished workflow: its final fit, the output parts its digest
    covers, and (problem scaling only) the unseen-size assessment."""

    fit: object
    parts: tuple
    unseen: object = None


@dataclass
class Pass:
    """What one untraced or traced pass of a workload produced."""

    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    checks: list[Check] = field(default_factory=list)
    fingerprint: str = ""
    #: Workflows run (pipelines) or server processes driven (serving).
    iterations: int = 0
    #: Workload-specific results the traced run compares or reports.
    extra: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(Check(name, bool(ok), detail))


def repeat_for(seconds: float, step, count: int | None = None) -> int:
    """Run ``step`` ``count`` times, or — without a count — at least
    once and again while another run fits in ``seconds``."""
    start = time.perf_counter()
    n = 0
    while True:
        step(n)
        n += 1
        if count is not None:
            if n >= count:
                return n
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return n


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _mre(pred: np.ndarray, measured: np.ndarray) -> float:
    return float(np.mean(np.abs(pred - measured) / measured))


def _latency_metrics(out: Pass, latencies_s: list[float], seconds: float,
                     who: str) -> None:
    """serve_rps / serve_p50_ms / serve_p99_ms with their sample counts."""
    ms = [1e3 * x for x in latencies_s]
    p50, p99 = percentile(ms, 50), percentile(ms, 99)
    out.metrics["serve_rps"] = len(ms) / seconds
    out.metrics["serve_p50_ms"] = p50.value
    out.metrics["serve_p99_ms"] = p99.value
    out.notes["serve_rps"] = f"{len(ms)} {who} in {seconds:.3f} s"
    out.notes["serve_p50_ms"] = p50.describe()
    out.notes["serve_p99_ms"] = p99.describe()


def _account_campaign(tally: Tally, campaign, problems: int) -> None:
    tally.record("campaign_runs", n=problems - len(campaign.quarantined))
    if campaign.quarantined:
        tally.record("campaign_runs", "quarantined", n=len(campaign.quarantined))


# -- pipelines ---------------------------------------------------------------


class Pipeline:
    """Shared measure loop of the two paper pipelines.

    Full workflows (each timed as ``workflow_s``), each followed by a
    closed loop of single-caller 1-row queries to its fit (each timed
    for the ``serve_*`` metrics).

    The seed drives the measurement noise of the campaigns and the
    query stream. The model seeds are fixed program settings,
    ``MODEL_SEED + 1`` for the forest and ``MODEL_SEED + 2`` for the
    problem-scaling predictor, as ``repro analyze`` sets them at its
    default ``--seed 0``: with model seeds that followed the seed,
    ``predict_mre`` on ``scale_nw`` ranged from 0.35 to 0.87 over
    fifteen seeds, almost all of it the error at length 96.
    """

    name = ""
    MODEL_SEED = 0
    #: Seed whose workflow output gates the paper claims: the CLI's and
    #: the figure benches' default. The claims at the run's own seed are
    #: reported, not gated — they miss on some seeds (see README.md).
    claim_seed = 0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def build_inputs(self) -> None:
        raise NotImplementedError

    def solve(self, seed: int, out: Pass, tag: str) -> Solved:
        """Run the workflow at ``seed``."""
        raise NotImplementedError

    def query_pool(self, solved: Solved) -> list:
        """The 1-row query inputs the seeded query stream draws from."""
        raise NotImplementedError

    def quality(self, solved: Solved, out: Pass) -> None:
        raise NotImplementedError

    def claims(self, solved: Solved) -> list[Check]:
        raise NotImplementedError

    def gated_claims(self, out: Pass, cache_dir: Path, key: str) -> list[Check]:
        """The paper claims at :attr:`claim_seed`, which fail the run.

        When the run's seed is not that seed, the reference workflow is
        run once untimed; its verdict is cached under ``cache_dir`` by
        ``key`` (a digest of the sources and library versions), because
        the workflow is deterministic for a given source tree.
        """
        path = cache_dir / f"claims-{self.name}-seed{self.claim_seed}-{key}.json"
        if self.claim_seed == self.seed:
            checks = self.claims(out.extra["solved"])
        elif path.is_file():
            checks = [Check(**d) for d in json.loads(path.read_text())]
            checks = [Check(c.name, c.ok, c.detail + " (cached verdict)")
                      for c in checks]
        else:
            checks = self.claims(self.solve(self.claim_seed, out, "ref"))
        if not path.is_file():
            path.write_text(json.dumps([vars(c) for c in checks]))
        return [Check(c.name, c.ok, f"at seed {self.claim_seed}: {c.detail}")
                for c in checks]

    def run(self, seconds: float, tracer=None, count: int | None = None) -> Pass:
        """Workflows for ``seconds`` (or ``count`` of them), each
        followed, untraced, by closed-loop queries to its fit."""
        out = Pass()
        times, digests, latencies, last = [], [], [], []
        self.query_rng = np.random.default_rng([self.seed, 1])
        self.query_mismatches = 0

        def step(i: int) -> None:
            t0 = time.perf_counter()
            solved = self.solve(self.seed, out, str(i))
            elapsed = time.perf_counter() - t0
            times.append(elapsed)
            digests.append(_digest(*solved.parts))
            last[:] = [solved]
            if tracer is None:
                latencies.extend(self.ask(solved, out, QUERY_SHARE * elapsed))

        if tracer is None:
            out.iterations = repeat_for(seconds, step, count)
            _latency_metrics(out, latencies, sum(latencies),
                             "1-row queries from one closed-loop caller")
            out.check("queries_match_batched", self.query_mismatches == 0,
                      f"{self.query_mismatches} of {len(latencies)} 1-row "
                      f"answers differ from the fit's batched predict_many")
        else:
            def traced_step(i: int) -> None:
                with tracer.span("bench.iteration", workload=self.name):
                    step(i)

            with tracing.instrument(tracer, probes.pipeline_probes()):
                out.iterations = repeat_for(seconds, traced_step, count)

        out.metrics["workflow_s"] = statistics.median(times)
        out.notes["workflow_s"] = (
            f"median of {len(times)} workflows: "
            + ", ".join(f"{t:.3f}" for t in times) + " s")
        out.extra["solved"] = last[0]
        out.extra["workflow_times"] = times
        self.quality(last[0], out)
        out.fingerprint = digests[0]
        out.check(
            "deterministic_iterations",
            len(set(digests)) == 1,
            f"{len(digests)} workflows at one seed gave "
            f"{len(set(digests))} distinct output digest(s)",
        )
        for claim in self.claims(last[0]):
            out.notes[f"claim {claim.name}"] = (
                ("holds: " if claim.ok else "MISSES: ") + claim.detail
            )
        return out

    def ask(self, solved: Solved, out: Pass, budget_s: float) -> list[float]:
        """Closed-loop 1-row queries to ``solved.fit`` for ``budget_s``
        (at least :data:`MIN_QUERIES`), drawn from the seeded query
        stream; returns their latencies. Every answer must be finite and
        bit-equal to the fit's batched ``predict_many`` of the same rows."""
        fit, pool = solved.fit, self.query_pool(solved)
        queries, answers, latencies = [], [], []
        start = time.perf_counter()
        while (len(queries) < MIN_QUERIES
               or time.perf_counter() - start < budget_s):
            query = pool[self.query_rng.integers(len(pool))]
            t0 = time.perf_counter()
            answer = fit.predict(query)
            latencies.append(time.perf_counter() - t0)
            queries.append(query)
            answers.append(answer)
        for answer, batched in zip(answers, fit.predict_many(queries)):
            ok = answer.shape == (1,) and bool(np.isfinite(answer).all())
            out.tally.record("queries", None if ok else "non_finite")
            self.query_mismatches += not np.array_equal(answer, batched)
        return latencies


class AnalyzeReduce1(Pipeline):
    """Fig. 2: ``repro analyze reduce1`` with its defaults, one process."""

    name = "analyze_reduce1"
    trees = 300

    def build_inputs(self) -> None:
        self.kernel = ReductionKernel(1)
        self.problems = self.kernel.default_sweep()

    def solve(self, seed: int, out: Pass, tag: str):
        campaign = Campaign(self.kernel, GTX580, rng=seed).run(
            problems=self.problems, n_jobs=1
        )
        _account_campaign(out.tally, campaign, len(self.problems))
        fit = BlackForest(
            n_trees=self.trees, importance_repeats=3, n_jobs=1,
            rng=self.MODEL_SEED + 1,
        ).fit(campaign)
        out.tally.record("fits")
        parts = (
            campaign.times(), fit.X_train, fit.importance.names,
            fit.importance.scores, fit.oob_explained_variance,
            fit.test_explained_variance, fit.predict(fit.X_test),
        )
        return Solved(fit, parts)

    def query_pool(self, solved: Solved) -> list:
        X_test = solved.fit.X_test
        return [X_test[r : r + 1] for r in range(len(X_test))]

    def quality(self, solved: Solved, out: Pass) -> None:
        # Every campaign run predicted by trees that never saw it: the
        # out-of-bag prediction for the training 80%, the forest for the
        # 20% test split. 80 runs vary less from seed to seed than 16.
        fit = solved.fit
        oob = fit.forest.oob_prediction_
        seen = ~np.isnan(oob)
        pred = np.concatenate([oob[seen], fit.predict(fit.X_test)])
        meas = np.concatenate([fit.y_train[seen], fit.y_test])
        out.metrics["heldout_ev"] = fit.test_explained_variance
        out.metrics["predict_mre"] = _mre(pred, meas)
        out.notes["heldout_ev"] = f"test split of {len(fit.y_test)} runs"
        out.notes["predict_mre"] = (
            f"{len(pred)} runs: out-of-bag for training, test split")

    def claims(self, solved: Solved) -> list[Check]:
        fit = solved.fit
        top5 = fit.importance.top(5)
        return [
            Check("fig2.bank_conflict_top5",
                  "l1_shared_bank_conflict" in top5, f"top 5 = {top5}"),
            Check("fig2.oob_ev", fit.oob_explained_variance > 0.85,
                  f"OOB EV {fit.oob_explained_variance:.4f} (> 0.85)"),
            Check("fig2.heldout_ev", fit.test_explained_variance > 0.85,
                  f"held-out EV {fit.test_explained_variance:.4f} (> 0.85)"),
        ]


class ScaleNW(Pipeline):
    """Fig. 6: NW problem scaling at ``n_jobs=2`` with a checkpoint journal."""

    name = "scale_nw"
    jobs = 2

    def build_inputs(self) -> None:
        self.kernel = NeedlemanWunschKernel()
        self.problems = self.kernel.default_sweep()
        self.work.mkdir(parents=True, exist_ok=True)

    def solve(self, seed: int, out: Pass, tag: str):
        journal = self.work / f"nw-seed{seed}-{tag}.ckpt.jsonl"
        campaign = Campaign(self.kernel, GTX580, rng=seed).run(
            problems=self.problems, n_jobs=self.jobs, checkpoint=journal
        )
        journal.unlink()
        _account_campaign(out.tally, campaign, len(self.problems))
        fit = ProblemScalingPredictor(
            BlackForest(importance_repeats=3, n_jobs=self.jobs,
                        rng=self.MODEL_SEED + 1),
            prefer_mars=True,
            rng=self.MODEL_SEED + 2,
        ).fit(campaign)
        out.tally.record("fits")
        unseen = Campaign(self.kernel, GTX580, rng=seed + 3).run(
            problems=NW_UNSEEN, n_jobs=self.jobs
        )
        _account_campaign(out.tally, unseen, len(NW_UNSEEN))
        report = fit.assess(unseen)
        bf = fit.blackforest_fit
        parts = (
            campaign.times(), bf.X_train, bf.importance.names,
            bf.importance.scores, bf.oob_explained_variance, fit.retained,
            report.predicted_s, report.measured_s,
        )
        return Solved(fit, parts, report)

    def query_pool(self, solved: Solved) -> list:
        return [np.array([float(n)]) for n in NW_UNSEEN]

    def quality(self, solved: Solved, out: Pass) -> None:
        bf = solved.fit.blackforest_fit
        out.metrics["heldout_ev"] = bf.test_explained_variance
        out.metrics["predict_mre"] = solved.unseen.mean_relative_error
        out.notes["heldout_ev"] = f"BlackForest test split of {len(bf.y_test)} runs"
        out.notes["predict_mre"] = f"{len(NW_UNSEEN)} unseen lengths"

    def claims(self, solved: Solved) -> list[Check]:
        bf = solved.fit.blackforest_fit
        rank = bf.importance.rank_of("l1_global_load_miss")
        return [
            Check("fig6.oob_ev", bf.oob_explained_variance > 0.97,
                  f"OOB EV {bf.oob_explained_variance:.4f} (> 0.97)"),
            Check("fig6.load_miss_rank", rank < 8,
                  f"rank_of(l1_global_load_miss) = {rank} (< 8)"),
        ]


# -- serving -----------------------------------------------------------------


@dataclass
class Fixtures:
    """Servable fits and their held-out rows, built from the seed."""

    reduce1: ServableFit
    reduce1_alt: ServableFit
    matmul: ServableFit
    heldout: dict  # kernel -> (X_test, y_test)

    def digest(self) -> str:
        return _digest(self.reduce1.digest, self.reduce1_alt.digest,
                       self.matmul.digest)


def build_fixtures(seed: int, tally: Tally) -> Fixtures:
    """Pipeline fits as ``repro publish`` makes them, plus a second,
    genuinely different reduce1 forest for the hot-reload writes."""
    fits = {}
    for kernel in (ReductionKernel(1), MatMulKernel()):
        campaign = Campaign(kernel, GTX580, rng=seed).run()
        problems = len(kernel.default_sweep())
        _account_campaign(tally, campaign, problems)
        fit = BlackForest(n_trees=300, rng=seed + 1).fit(campaign)
        tally.record("fits")
        source = {"trees": 300, "seed": seed, "n_runs": len(campaign)}
        fits[kernel.name] = (fit, servable_from_fit(fit, source=source))
    r1_fit, r1 = fits["reduce1"]
    alt = RandomForestRegressor(
        n_trees=300, min_samples_leaf=r1_fit.forest.min_samples_leaf,
        importance=False, rng=seed + 2,
    ).fit(r1_fit.X_train, r1_fit.y_train, feature_names=r1.feature_names)
    tally.record("fits")
    r1_alt = ServableFit(
        kernel=r1.kernel, arch=r1.arch, forest=alt,
        feature_names=list(r1.feature_names), response=r1.response,
        source={**r1.source, "variant": "refit", "refit_seed": seed + 2},
    )
    return Fixtures(
        reduce1=r1,
        reduce1_alt=r1_alt,
        matmul=fits["matrixMul"][1],
        heldout={name: (f.X_test, f.y_test) for name, (f, _) in fits.items()},
    )


class ServerProcess:
    """A ``repro serve --socket`` child started by the benchmark's launcher."""

    def __init__(self, registry: Path, work: Path,
                 trace_out: Path | None) -> None:
        self.telemetry = work / "telemetry.jsonl"
        self.flightrec = work / "flightrec.json"
        self.trace_out = trace_out
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += [
            "serve", "--registry", str(registry), "--socket", "127.0.0.1:0",
            "--telemetry", str(self.telemetry),
            "--flight-recorder", str(self.flightrec),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(work / "server.log", "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, env=env,
            cwd=str(ROOT),
        )
        self.addr = self._await_ready(timeout_s=120.0)

    def _await_ready(self, timeout_s: float) -> tuple[str, int]:
        found: list = []

        def read() -> None:
            for raw in self.proc.stdout:
                addr = parse_ready_line(raw.decode(errors="replace"))
                if addr is not None and not found:
                    found.append(addr)
                    # keep draining so the child never blocks on a full pipe

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        deadline = time.monotonic() + timeout_s
        while not found and time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        if not found:
            self.stop()
            raise RuntimeError("repro serve did not print its ready line")
        return found[0]

    def stop(self) -> None:
        """Graceful ``shutdown`` request, then wait; kill as a last resort."""
        if self.proc.poll() is None and getattr(self, "addr", None):
            try:
                with socket.create_connection(self.addr, timeout=10) as sock:
                    sock.sendall(b'{"id": "bench-shutdown", "method": "shutdown"}\n')
                    sock.makefile("rb").readline()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if not self.log.closed:
            self.log.close()


@dataclass
class Reply:
    thread: int
    index: int
    kernel: str
    X: np.ndarray
    y: np.ndarray
    latency_s: float
    version: str
    predictions: list[float]
    #: Digest of the fit that answered (filled in after the load).
    content: str = ""


class ServeMixed:
    """Closed-loop reads from two client threads plus scheduled publishes.

    Each thread holds one connection and waits for every reply before
    sending its next predict (1 or 16 held-out rows). Thread 0 also
    publishes, every ``PUBLISH_EVERY_S``, a new reduce1 version that
    alternates between the two different forests — each publish forces
    a hot reload in the server.

    The served fits are the registry's fixed state, built from
    ``FIXTURE_SEED`` whatever the run's seed; the seed drives the
    traffic (kernel, row count and held-out rows of every request).
    Fixtures that changed with the seed would make the cost of a pass —
    tree depths, feature counts — and so every serving figure move
    with the seed rather than with the code.
    """

    name = "serve_mixed"
    FIXTURE_SEED = 0
    #: The traffic mix is an assumption: the repository holds no recorded
    #: serving traffic and the task names no shares. Equal shares of the
    #: two kernels and of 1-row and 16-row requests, and one publish a
    #: second, are plain round choices; change them only when real
    #: traffic data is in the repository.
    REDUCE1_SHARE = 0.5
    SIXTEEN_ROW_SHARE = 0.5
    PUBLISH_EVERY_S = 1.0
    SETUPS = 3

    def __init__(self, seed: int, work: Path, import_s: float) -> None:
        self.seed = seed
        self.work = work
        self.import_s = import_s

    def setup(self, tally: Tally, tag: str, trace_out: Path | None):
        """Fixtures → publishes → server ready; returns the live state."""
        t0 = time.perf_counter()
        fixtures = build_fixtures(self.FIXTURE_SEED, tally)
        work = self.work / tag
        work.mkdir(parents=True)
        registry = FitRegistry(work / "registry")
        registry.publish(fixtures.reduce1, version="v0000")
        registry.publish(fixtures.matmul, version="v0000")
        tally.record("publishes", n=2)
        server = ServerProcess(registry.root, work, trace_out)
        return fixtures, registry, server, time.perf_counter() - t0

    def load(self, seconds: float, fixtures: Fixtures, registry: FitRegistry,
             server: ServerProcess, tally: Tally, tracer=None):
        """Drive the server for ``seconds``; return replies and timings."""
        kernels = {"reduce1": fixtures.heldout["reduce1"],
                   "matrixMul": fixtures.heldout["matrixMul"]}
        # (kernel, version) -> the servable published under it
        versions = {("reduce1", "v0000"): fixtures.reduce1,
                    ("matrixMul", "v0000"): fixtures.matmul}
        pending: dict[str, float] = {}
        live_s: list[float] = []
        lock = threading.Lock()
        replies: list[list[Reply]] = [[], []]
        tallies = [Tally(), Tally()]
        start = time.perf_counter()
        stop_at = start + seconds

        def publish(n: int) -> None:
            version = f"v{n:04d}"
            servable = fixtures.reduce1_alt if n % 2 else fixtures.reduce1
            with lock:
                versions["reduce1", version] = servable
                pending[version] = time.perf_counter()
            try:
                registry.publish(servable, version=version)
                tallies[0].record("publishes")
            except OSError as exc:
                tallies[0].record("publishes", type(exc).__name__)

        def client(tid: int) -> None:
            rng = np.random.default_rng([self.seed, 10 + tid])
            sock = socket.create_connection(server.addr, timeout=60)
            reader = sock.makefile("rb")
            next_publish, published = start + self.PUBLISH_EVERY_S, 0
            try:
                for k in itertools.count():
                    now = time.perf_counter()
                    if now >= stop_at:
                        return
                    if (tid == 0 and now >= next_publish
                            and now < stop_at - self.PUBLISH_EVERY_S):
                        published += 1
                        publish(published)
                        next_publish += self.PUBLISH_EVERY_S
                    kernel = ("reduce1" if rng.random() < self.REDUCE1_SHARE
                              else "matrixMul")
                    X_all, y_all = kernels[kernel]
                    n_rows = 16 if rng.random() < self.SIXTEEN_ROW_SHARE else 1
                    rows = rng.integers(0, len(X_all), n_rows)
                    X = X_all[rows]
                    rid = f"{tid}-{k}"
                    line = json.dumps({
                        "id": rid, "method": "predict",
                        "params": {"kernel": kernel, "arch": "GTX580",
                                   "X": X.tolist()},
                    }) + "\n"
                    with (tracer.span("bench.request", id=rid) if tracer
                          else contextlib.nullcontext()):
                        t0 = time.perf_counter()
                        sock.sendall(line.encode())
                        raw = reader.readline()
                        t1 = time.perf_counter()
                    if not raw:
                        tallies[tid].record("requests", "connection_closed")
                        return
                    resp = json.loads(raw)
                    if "error" in resp:
                        tallies[tid].record("requests", resp["error"].get("kind", "error"))
                        continue
                    result = resp["result"]
                    version = result["version"]
                    with lock:
                        if kernel == "reduce1" and version in pending:
                            live_s.append(t1 - pending.pop(version))
                    tallies[tid].record("requests")
                    replies[tid].append(Reply(
                        tid, k, kernel, X, y_all[rows], t1 - t0, version,
                        result["predictions"],
                    ))
            finally:
                reader.close()
                sock.close()

        threads = [threading.Thread(target=client, args=(t,), daemon=True)
                   for t in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 120)
        elapsed = time.perf_counter() - start
        for t_tally in tallies:
            tally.merge(t_tally)
        return [r for rs in replies for r in rs], versions, live_s, elapsed

    @staticmethod
    def published_digests(versions: dict) -> dict:
        """(kernel, version) -> digest of the fit published under it.

        A digest re-serialises the whole forest, so each distinct fit is
        hashed once.
        """
        by_fit: dict[int, str] = {}
        for fit in versions.values():
            if id(fit) not in by_fit:
                by_fit[id(fit)] = fit.digest
        return {key: by_fit[id(fit)] for key, fit in versions.items()}

    @staticmethod
    def mismatches(replies: list[Reply], published: dict,
                   registry: FitRegistry) -> tuple[int, list[str]]:
        """Replies that differ from in-process ``predict_many`` of the
        version they name, and versions that do not hold what was
        published under them (``published``: see
        :meth:`published_digests`)."""
        groups: dict[tuple, list[Reply]] = {}
        for r in replies:
            groups.setdefault((r.kernel, r.version), []).append(r)
        mismatched, wrong_content = 0, []
        for (kernel, version), group in sorted(groups.items()):
            served = registry.load(CampaignKey(kernel, "GTX580"), version)
            if served.digest != published[kernel, version]:
                wrong_content.append(f"{kernel}@{version}")
            expected = served.predict_many([r.X for r in group])
            for r, want in zip(group, expected):
                got = np.array(r.predictions, dtype=float)
                if got.shape != want.shape or not np.array_equal(got, want):
                    mismatched += 1
        return mismatched, wrong_content

    def run(self, seconds: float, tracer=None, setups: int = SETUPS) -> Pass:
        """``setups`` times: set up, drive the server for an equal share of
        ``seconds``, stop it. Spreading the load over several server
        processes and moments damps the machine's slow swings in speed.
        Traced, one set-up whose server runs under the probes takes the
        whole load."""
        out = Pass()
        windows = 1 if tracer is not None else setups
        replies, live_s, elapsed = [], [], 0.0
        setup_times, digests, mismatched, wrong, peaks = [], [], 0, [], []
        for k in range(windows):
            spans = self.work / "server-spans.jsonl.gz" if tracer else None
            fixtures, registry, server, setup_s = self.setup(
                out.tally, f"{'traced' if tracer else 'window'}{k}", spans)
            setup_times.append(self.import_s + setup_s)
            digests.append(fixtures.digest())
            probes_on = tracing.instrument(tracer, probes.client_probes()) \
                if tracer is not None else contextlib.nullcontext()
            try:
                with probes_on, PeakMemory(lambda: [server.proc.pid]) as memory:
                    got, versions, live, dt = self.load(
                        seconds / windows, fixtures, registry, server,
                        out.tally, tracer)
            finally:
                server.stop()
            peaks.append(memory.peak_mb)
            published = self.published_digests(versions)
            bad, wrong_content = self.mismatches(got, published, registry)
            mismatched += bad
            wrong += wrong_content
            for r in got:
                r.content = published[r.kernel, r.version]
            replies += [(k, r) for r in got]
            live_s += live
            elapsed += dt
        out.check("served_bit_equal", mismatched == 0,
                  f"{mismatched} of {len(replies)} replies differ from "
                  f"in-process predict_many of their version")
        out.check("served_versions_hold_published_fits", not wrong,
                  f"versions with unexpected content: {wrong}")
        out.check("deterministic_fixtures", len(set(digests)) == 1,
                  f"{len(digests)} set-ups gave {len(set(digests))} "
                  f"distinct fixture digest(s)")
        out.metrics["peak_rss_mb"] = statistics.median(peaks)
        out.notes["peak_rss_mb"] = (
            f"median over {len(peaks)} server process(es) of the server's "
            f"peak PSS: " + ", ".join(f"{p:.1f}" for p in peaks) + " MB")
        if tracer is None:
            out.metrics["setup_s"] = statistics.median(setup_times)
            out.notes["setup_s"] = (
                f"median of {len(setup_times)} set-ups (imports "
                f"{self.import_s:.3f} s + fixtures, publishes, server ready)")
        self.metrics(out, [r for _, r in replies], live_s, elapsed)
        out.iterations = windows
        out.notes["serve_rps"] += f" over {windows} server process(es)"
        out.fingerprint = digests[0]
        # (request, content of the fit that answered) -> prediction bytes:
        # two runs must agree wherever they answered a request alike.
        out.extra["replies"] = {
            (k, r.thread, r.index, r.content):
                _digest(np.array(r.predictions, dtype=float))
            for k, r in replies
        }
        out.extra["publish_to_live_s"] = live_s
        out.extra["telemetry"] = server.telemetry
        out.extra["server_spans"] = server.trace_out
        return out

    def metrics(self, out: Pass, replies: list[Reply], live_s: list[float],
                elapsed: float) -> None:
        _latency_metrics(out, [r.latency_s for r in replies], elapsed,
                         "predicts answered")
        out.metrics["workflow_s"] = statistics.median(live_s)
        out.notes["workflow_s"] = (
            f"publish → first reply naming the new version, median of "
            f"{len(live_s)} publishes")
        r1 = [r for r in replies if r.kernel == "reduce1"]
        pred = np.concatenate([np.array(r.predictions) for r in r1])
        meas = np.concatenate([r.y for r in r1])
        out.metrics["heldout_ev"] = explained_variance(meas, pred)
        out.notes["heldout_ev"] = f"{len(pred)} served reduce1 rows"
        out.metrics["predict_mre"] = _mre(pred, meas)
        out.notes["predict_mre"] = f"{len(pred)} served reduce1 rows"
