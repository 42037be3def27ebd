"""Checkpoint/resume: interrupted campaigns restart bit-identically."""

import json

import pytest

from repro.faults import FaultPlan, FaultSpec, RetryPolicy, fault_injection
from repro.gpusim import GTX580
from repro.kernels import VectorAddKernel
from repro.profiling import Campaign, CampaignCheckpoint, CheckpointMismatch

KERNEL = VectorAddKernel()
PROBLEMS = KERNEL.default_sweep()[:5]


def _campaign(rng=11):
    return Campaign(KERNEL, GTX580, rng=rng)


def _records_equal(a, b) -> bool:
    """Field-wise equality; the dict fields compare in key order, since
    a campaign takes its feature-column order from the first record."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (
            ra.problem != rb.problem
            or ra.replicate != rb.replicate
            or ra.time_s != rb.time_s
            or ra.power_w != rb.power_w
            or list(ra.counters.items()) != list(rb.counters.items())
            or list(ra.characteristics.items())
            != list(rb.characteristics.items())
            or list(ra.machine.items()) != list(rb.machine.items())
        ):
            return False
    return True


def _truncate_to_entries(path, n_entries: int) -> None:
    """Keep the header plus the first ``n_entries`` completion lines —
    i.e. reproduce the file as it looked mid-run."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: 1 + n_entries]) + "\n")


class TestResumeBitIdentity:
    @pytest.mark.parametrize("resume_jobs", [1, 2])
    def test_interrupted_run_resumes_bit_identically(self, tmp_path, resume_jobs):
        ckpt = tmp_path / "sweep.ckpt"
        full = _campaign().run(
            problems=PROBLEMS, replicates=2, checkpoint=ckpt
        )
        # Simulate the interruption: only 2 of 5 problems had completed.
        _truncate_to_entries(ckpt, 2)
        resumed = _campaign().run(
            problems=PROBLEMS, replicates=2, n_jobs=resume_jobs,
            checkpoint=ckpt,
        )
        assert _records_equal(resumed.records, full.records)

    def test_completed_checkpoint_skips_all_work(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        full = _campaign().run(problems=PROBLEMS, checkpoint=ckpt)
        # Everything would fail now — but nothing should be re-profiled.
        poison = FaultPlan([FaultSpec("profiler.launch", "raise")])
        with fault_injection(poison):
            resumed = _campaign().run(problems=PROBLEMS, checkpoint=ckpt)
        assert _records_equal(resumed.records, full.records)
        assert not resumed.quarantined

    def test_torn_trailing_line_is_discarded(self, tmp_path):
        # A crash mid-append, then a resume to completion: the resumed
        # run must not fuse its entries onto the fragment, so a second
        # resume finds every problem done and profiles nothing.
        ckpt = tmp_path / "sweep.ckpt"
        full = _campaign().run(problems=PROBLEMS, checkpoint=ckpt)
        _truncate_to_entries(ckpt, 2)
        with open(ckpt, "a") as fh:
            fh.write('{"index": 2, "records": [{"probl')  # torn append
        resumed = _campaign().run(problems=PROBLEMS, checkpoint=ckpt)
        assert _records_equal(resumed.records, full.records)
        poison = FaultPlan([FaultSpec("profiler.launch", "raise")])
        with fault_injection(poison):
            again = _campaign().run(problems=PROBLEMS, checkpoint=ckpt)
        assert _records_equal(again.records, full.records)
        assert not again.quarantined

    def test_quarantines_are_checkpointed_too(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        plan = FaultPlan([
            FaultSpec("profiler.launch", "raise", match={"problem": PROBLEMS[1]})
        ])
        with fault_injection(plan):
            first = _campaign().run(
                problems=PROBLEMS, checkpoint=ckpt,
                retry=RetryPolicy(max_attempts=1),
            )
        assert len(first.quarantined) == 1
        # Resume with no plan installed: the quarantine is replayed from
        # the journal, not healed by silently re-running the launch.
        resumed = _campaign().run(problems=PROBLEMS, checkpoint=ckpt)
        assert [q.to_dict() for q in resumed.quarantined] == [
            q.to_dict() for q in first.quarantined
        ]
        assert _records_equal(resumed.records, first.records)


class TestFingerprintRefusals:
    def test_different_seed_is_refused(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        _campaign(rng=11).run(problems=PROBLEMS, checkpoint=ckpt)
        with pytest.raises(CheckpointMismatch, match="different campaign"):
            _campaign(rng=12).run(problems=PROBLEMS, checkpoint=ckpt)

    def test_different_sweep_is_refused(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        _campaign().run(problems=PROBLEMS, checkpoint=ckpt)
        with pytest.raises(CheckpointMismatch):
            _campaign().run(problems=PROBLEMS[:3], checkpoint=ckpt)

    def test_different_replicates_is_refused(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        _campaign().run(problems=PROBLEMS, replicates=1, checkpoint=ckpt)
        with pytest.raises(CheckpointMismatch):
            _campaign().run(problems=PROBLEMS, replicates=2, checkpoint=ckpt)

    def test_reusing_the_campaign_object_is_refused(self, tmp_path):
        # run() advances the RNG spawn counter, so a second run() on the
        # same object would draw different streams — refuse rather than
        # silently breaking bit-identity.
        ckpt = tmp_path / "sweep.ckpt"
        campaign = _campaign()
        campaign.run(problems=PROBLEMS, checkpoint=ckpt)
        with pytest.raises(CheckpointMismatch):
            campaign.run(problems=PROBLEMS, checkpoint=ckpt)

    def test_non_checkpoint_file_is_refused(self, tmp_path):
        bogus = tmp_path / "notes.txt"
        bogus.write_text("shopping list\n")
        with pytest.raises(CheckpointMismatch, match="bad header"):
            _campaign().run(problems=PROBLEMS, checkpoint=bogus)


class TestCheckpointFile:
    def test_file_is_jsonl_with_schema_header(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        _campaign().run(problems=PROBLEMS, checkpoint=ckpt)
        lines = [json.loads(l) for l in ckpt.read_text().splitlines()]
        assert lines[0]["schema"] == "repro-checkpoint/1"
        assert lines[0]["fingerprint"]["n_problems"] == len(PROBLEMS)
        assert sorted(e["index"] for e in lines[1:]) == list(
            range(len(PROBLEMS))
        )

    def test_done_indices_union(self, tmp_path):
        ckpt = CampaignCheckpoint.open(tmp_path / "c.ckpt", {"k": 1})
        ckpt.record_result(0, [])
        ckpt.record_quarantine(2, {"problem": 1, "index": 2,
                                   "stage": "launch", "error": "x"})
        assert ckpt.done_indices == {0, 2}
