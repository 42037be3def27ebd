"""Checkpoint/resume for profiling campaigns.

A checkpoint is an append-only JSONL file: a header line identifying
the campaign (schema tag, kernel/arch, sweep fingerprint, RNG-state
digest) followed by one line per *completed* problem — either its
serialized run records or its quarantine record. It is a
:class:`repro.io.Journal`: appends are flushed and fsynced, so an
interrupted campaign loses at most the line being written, and a torn
trailing line is discarded on resume and truncated away before the
resumed run appends.

Resume is bit-identical to an uninterrupted run because (a) every
problem draws from its own pre-spawned RNG stream (so skipping finished
problems changes nothing for the rest) and (b) floats survive the JSON
round-trip exactly (``repr`` encoding). The header fingerprint refuses
to resume a checkpoint against a different sweep, kernel, architecture,
replicate count or campaign seed — a silent mixture of two experiments
is worse than an error.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.io import Journal, JournalCorruptError

from .profiler import RunRecord

__all__ = ["CampaignCheckpoint", "CheckpointMismatch", "campaign_fingerprint"]

#: Schema tag written into every checkpoint header.
SCHEMA = "repro-checkpoint/1"


class CheckpointMismatch(ValueError):
    """The checkpoint on disk belongs to a different campaign."""


def campaign_fingerprint(
    kernel: str,
    arch: str,
    problems: list,
    replicates: int,
    rng_state: object,
) -> dict:
    """Identity of one campaign run, as stored in the header.

    ``rng_state`` is the campaign generator's bit-generator state at
    ``run()`` entry; its digest pins the seed (and spawn history), so a
    resume with a different seed is refused rather than silently mixing
    two noise draws.
    """
    problems_sha = hashlib.sha256(
        repr([repr(p) for p in problems]).encode()
    ).hexdigest()
    rng_sha = hashlib.sha256(repr(rng_state).encode()).hexdigest()
    return {
        "kernel": kernel,
        "arch": arch,
        "n_problems": len(problems),
        "replicates": replicates,
        "problems_sha256": problems_sha,
        "rng_sha256": rng_sha,
    }


class CampaignCheckpoint:
    """Append-only completion log for one campaign run."""

    def __init__(self, path: str | Path, fingerprint: dict) -> None:
        self.path = Path(path)
        self._journal = Journal(self.path, SCHEMA)
        self.fingerprint = fingerprint
        #: index -> list of record dicts (see RunRecord.to_dict)
        self.completed: dict[int, list[dict]] = {}
        #: index -> quarantine dict (see QuarantinedRun.to_dict)
        self.quarantined: dict[int, dict] = {}

    @classmethod
    def open(cls, path: str | Path, fingerprint: dict) -> "CampaignCheckpoint":
        """Load (or create) the checkpoint for a campaign run.

        An existing file must carry a matching header; entry lines are
        replayed into :attr:`completed`/:attr:`quarantined`. A torn
        final append is discarded (and truncated away before the next
        append); damage before the last line raises
        :class:`repro.io.JournalCorruptError`.
        """
        ckpt = cls(path, fingerprint)
        if ckpt.path.exists() and ckpt.path.stat().st_size > 0:
            ckpt._load()
        else:
            header = {"schema": SCHEMA, "fingerprint": fingerprint}
            ckpt._journal.append(header)
        return ckpt

    def _load(self) -> None:
        bad_header = f"{self.path} is not a campaign checkpoint (bad header)"
        try:
            lines = self._journal.read()
        except JournalCorruptError:
            raise
        except ValueError as exc:  # a foreign, non-conforming header
            raise CheckpointMismatch(f"{bad_header}: {exc}") from None
        if not lines:  # nothing but a torn header
            raise CheckpointMismatch(bad_header)
        header, *entries = lines
        theirs = header["fingerprint"]
        if theirs != self.fingerprint:
            differing = sorted(
                k
                for k in set(theirs) | set(self.fingerprint)
                if theirs.get(k) != self.fingerprint.get(k)
            )
            raise CheckpointMismatch(
                f"{self.path} was written by a different campaign "
                f"(fields differing: {differing}); refusing to resume"
            )
        for entry in entries:
            index = int(entry["index"])
            if "records" in entry:
                self.completed[index] = entry["records"]
            elif "quarantined" in entry:
                self.quarantined[index] = entry["quarantined"]

    # -- recording -----------------------------------------------------------

    def record_result(self, index: int, records: list[RunRecord]) -> None:
        entry = [r.to_dict() for r in records]
        self.completed[index] = entry
        self._journal.append({"index": index, "records": entry})

    def record_quarantine(self, index: int, quarantined: dict) -> None:
        self.quarantined[index] = quarantined
        self._journal.append({"index": index, "quarantined": quarantined})

    # -- queries -------------------------------------------------------------

    @property
    def done_indices(self) -> set[int]:
        return set(self.completed) | set(self.quarantined)
