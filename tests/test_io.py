"""Crash-consistency matrix for repro.io, the one durable-I/O layer.

Whole-file artifacts (written by :func:`repro.io.atomic_write`) are
damaged three ways — a ``torn_file`` or ``corrupt_file`` fault at the
``io.write`` site, and a crash between the fsync and the rename — and
their reader must then either recover (the previous content survives,
the index is rebuilt, the refit falls back to a full fit) or refuse
with a typed error. It must never serve a hybrid.

Journals (:class:`repro.io.Journal`) are torn at every byte offset of
their last line, restarted after a tear, and fed garbage mid-file.
"""

import pytest

from repro.analysis.schemas import load_artifact, validate_artifact
from repro.faults import FaultPlan, FaultSpec, fault_injection
from repro.gpusim import GTX580
from repro.io import Journal, JournalCorruptError, atomic_write
from repro.kernels import VectorAddKernel
from repro.ml import fit_from_repo
from repro.obs import (
    EventLog,
    TelemetryExporter,
    append_history,
    read_events,
    read_flightrec,
    read_history,
    read_telemetry,
)
from repro.profiling import (
    Campaign,
    CampaignCheckpoint,
    CampaignKey,
    ProfileRepository,
    RepositoryIntegrityError,
)
from repro.serve import FitRegistry, RegistryIntegrityError

from .serve.conftest import make_servable

SWEEP = VectorAddKernel().default_sweep()
KEY = CampaignKey("vectorAdd", "GTX580")


@pytest.fixture(scope="module")
def campaigns():
    """Two disjoint slices of one sweep: the stored campaign and the
    runs a later write appends to it."""
    run = Campaign(VectorAddKernel(), GTX580, rng=0).run
    return run(problems=SWEEP[:6], replicates=3), run(problems=SWEEP[6:9],
                                                      replicates=3)


# -- whole-file artifacts -----------------------------------------------------


class _Repository:
    """A stored campaign, then an append that rewrites every file."""

    errors = (RepositoryIntegrityError,)

    def __init__(self, file):
        self.file = file

    def setup(self, root, campaigns):
        repo = ProfileRepository(root)
        repo.save(campaigns[0])
        return repo, campaigns[1]

    def write(self, ctx):
        repo, more = ctx
        repo.append(more, key=KEY)

    def read(self, ctx):
        repo, _ = ctx
        if self.file.startswith("matrix."):
            X, y, names = repo.matrix(KEY)
            return X.tobytes(), y.tobytes(), tuple(names)
        return [(r.problem, r.replicate, r.time_s)
                for r in repo.load(KEY).records]

    def fallbacks(self, ctx):
        return []


class _Registry:
    """One published fit, then a second version published over it."""

    errors = (RegistryIntegrityError,)

    def __init__(self, file):
        self.file = file

    def setup(self, root, campaigns):
        registry = FitRegistry(root)
        registry.publish(make_servable(kernel="vectorAdd", arch="GTX580"),
                         version="v1")
        return registry

    def write(self, registry):
        registry.publish(
            make_servable(kernel="vectorAdd", arch="GTX580", seed=1),
            version="v2",
        )

    def read(self, registry):
        return registry.load(KEY).to_json()

    def fallbacks(self, registry):
        return []


class _FlightRecorder:
    """A first dump of an event ring, then a second one replacing it."""

    file = "flightrec.json"
    errors = (ValueError,)

    def setup(self, root, campaigns):
        ring = EventLog(capacity=8)
        ring.emit("serve.request", method="predict")
        ring.dump(root / self.file, "first")
        return ring, root / self.file

    def write(self, ctx):
        ring, path = ctx
        ring.emit("serve.breaker", state="open")
        ring.dump(path, "second")

    def read(self, ctx):
        _, path = ctx
        doc = read_flightrec(path)
        return doc["reason"], [e["seq"] for e in doc["events"]]

    def fallbacks(self, ctx):
        return []


class _ForestState:
    """Incremental state saved for the stored runs, then rewritten by a
    refit after an append; the next fit either resumes or falls back to
    a full fit from the pinned seed."""

    file = "forest-state.json"
    errors = ()
    params = dict(n_trees=8, max_depth=4, importance=False, seed=0)

    def setup(self, root, campaigns):
        repo = ProfileRepository(root)
        repo.save(campaigns[0])
        state = root / self.file
        fit_from_repo(repo, KEY, state_path=state, **self.params)
        repo.append(campaigns[1], key=KEY)
        return repo, state

    def write(self, ctx):
        repo, state = ctx
        fit_from_repo(repo, KEY, state_path=state, **self.params)

    def read(self, ctx):
        repo, state = ctx
        forest, _ = fit_from_repo(repo, KEY, state_path=state, **self.params)
        return forest.predict(repo.matrix(KEY)[0]).tobytes()

    def fallbacks(self, ctx):
        repo, _ = ctx
        forest, info = fit_from_repo(repo, KEY, **self.params)
        assert info["path"] == "full"
        return [forest.predict(repo.matrix(KEY)[0]).tobytes()]


ARTIFACTS = {
    "repo-meta": _Repository("meta.json"),
    "repo-runs": _Repository("runs.csv"),
    "repo-index-payload": _Repository("matrix.npy"),
    "repo-index-header": _Repository("matrix.json"),
    "repo-manifest": _Repository("manifest.json"),
    "registry-fit": _Registry("fit.json"),
    "registry-manifest": _Registry("manifest.json"),
    "registry-index": _Registry("index.json"),
    "flightrec": _FlightRecorder(),
    "forest-state": _ForestState(),
}


class TestAtomicArtifacts:
    @pytest.mark.parametrize(
        "fault", ["torn_file", "corrupt_file", "crash_before_rename"]
    )
    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_reader_recovers_or_refuses(
        self, name, fault, tmp_path, campaigns, crash_before_rename
    ):
        kind = ARTIFACTS[name]
        # What an intact reader may return: the content before the
        # write, the content after it, or a documented fallback.
        before = kind.setup(tmp_path / "before", campaigns)
        after = kind.setup(tmp_path / "after", campaigns)
        kind.write(after)
        accepted = [kind.read(before), kind.read(after),
                    *kind.fallbacks(before)]

        ctx = kind.setup(tmp_path / "faulted", campaigns)
        if fault == "crash_before_rename":
            with crash_before_rename(kind.file):
                with pytest.raises(OSError, match="simulated crash"):
                    kind.write(ctx)
        else:
            plan = FaultPlan(
                [FaultSpec("io.write", fault, match={"file": kind.file})]
            )
            with fault_injection(plan):
                kind.write(ctx)
            assert plan.events, "the fault never fired"
        try:
            outcome = kind.read(ctx)
        except kind.errors:
            return  # refused with a typed error
        assert outcome in accepted

    def test_fault_context_names_file_and_campaign_dir(
        self, tmp_path, campaigns
    ):
        plan = FaultPlan([FaultSpec(
            "io.write", "torn_file",
            match={"file": "runs.csv", "dir": KEY.dirname},
        )])
        with fault_injection(plan):
            ProfileRepository(tmp_path).save(campaigns[0])
        assert [ctx for _, _, ctx in plan.events] == [
            {"file": "runs.csv", "dir": KEY.dirname}
        ]

    def test_atomic_write_encodes_text_as_utf8(self, tmp_path):
        atomic_write(tmp_path / "t.txt", "µs\n")
        assert (tmp_path / "t.txt").read_bytes() == "µs\n".encode()
        assert not (tmp_path / "t.txt.tmp").exists()


# -- journals -----------------------------------------------------------------


class _Checkpoint:
    fingerprint = {"kernel": "vectorAdd", "arch": "GTX580"}

    def append(self, path, ids):
        ckpt = CampaignCheckpoint.open(path, self.fingerprint)
        for i in ids:
            ckpt.record_quarantine(
                i, {"problem": i, "index": i, "stage": "launch", "error": "x"}
            )

    def read(self, path):
        return list(CampaignCheckpoint.open(path, self.fingerprint)
                    .quarantined)


class _Events:
    def append(self, path, ids):
        log = EventLog(path)
        for i in ids:
            log.emit("tick", i=i)

    def read(self, path):
        return [e.fields["i"] for e in read_events(path)]


class _History:
    def append(self, path, ids):
        for i in ids:
            append_history(path, {"schema": "repro-bench/1", "results": [],
                                  "run": i})

    def read(self, path):
        return [entry["bench"]["run"] for entry in read_history(path)]


class _Telemetry:
    def append(self, path, ids):
        exporter = TelemetryExporter(path, dict)
        for i in ids:
            exporter.export_once({"progress": {"run": i}})

    def read(self, path):
        return [r["progress"]["run"] for r in read_telemetry(path)]


JOURNALS = {
    "checkpoint": _Checkpoint(),
    "events": _Events(),
    "history": _History(),
    "telemetry": _Telemetry(),
}


def _last_line_start(data: bytes) -> int:
    return data.rstrip(b"\n").rfind(b"\n") + 1


@pytest.mark.parametrize("name", sorted(JOURNALS))
class TestJournals:
    def test_tear_anywhere_in_last_line_keeps_prefix(self, name, tmp_path):
        kind = JOURNALS[name]
        path = tmp_path / "journal.jsonl"
        kind.append(path, [0, 1, 2])
        data = path.read_bytes()
        start = _last_line_start(data)
        for cut in range(start + 1, len(data) - 1):
            path.write_bytes(data[:cut])
            assert kind.read(path) == [0, 1], f"tear at byte {cut}"
            assert load_artifact(path).torn_tail is not None

    def test_restart_after_tear_keeps_every_record(self, name, tmp_path):
        kind = JOURNALS[name]
        path = tmp_path / "journal.jsonl"
        kind.append(path, [0, 1, 2])
        data = path.read_bytes()
        path.write_bytes(data[: _last_line_start(data) + 7])
        kind.append(path, [3, 4, 5, 6, 7])
        assert kind.read(path) == [0, 1, 3, 4, 5, 6, 7]
        assert validate_artifact(path) == []

    def test_garbage_mid_file_is_refused(self, name, tmp_path):
        kind = JOURNALS[name]
        path = tmp_path / "journal.jsonl"
        kind.append(path, [0, 1, 2])
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + b"{garbage\n" + lines[-1])
        with pytest.raises(JournalCorruptError,
                           match=f"journal.jsonl:{len(lines)}:"):
            kind.read(path)


def test_journal_keeps_key_order(tmp_path):
    # A resumed campaign takes its feature-column order from the first
    # checkpointed record, so the journal must not sort keys.
    journal = Journal(tmp_path / "c.jsonl", "repro-checkpoint/1")
    journal.append({"schema": "repro-checkpoint/1", "fingerprint": {}})
    journal.append({"index": 0, "records": [{"z": 1.0, "a": 2.0}]})
    _, entry = journal.read()
    assert list(entry) == ["index", "records"]
    assert list(entry["records"][0]) == ["z", "a"]
