"""Structured on-disk repository for profiling campaigns.

The paper stores collected data "in either a database or a structured
repository (we used the latter)" (Section 4.3). This module implements
that structured repository: one directory per campaign holding a CSV
table of runs, a JSON metadata sidecar, a provenance manifest
(:mod:`repro.obs.manifest`) and a columnar counter-matrix index
(:mod:`repro.profiling.index`), addressable by :class:`CampaignKey` and
safely round-trippable.

The on-disk layout is sharded (layout 2, see docs/repository.md):
campaigns live under ``shards/<xx>/<dirname>/`` where ``xx`` is the
first two hex chars of SHA-256(dirname) (256 buckets), and each bucket
carries a ``shard.json`` manifest caching campaign metadata plus
file-stat snapshots. Listings are served from the shard manifests and
``verify_all`` re-hashes only campaigns whose files changed since their
last clean verify — O(changed), not O(all). A root that is not a
layout-2 repository (a flat tree of campaign directories, or a
``repo.json`` declaring another layout) is refused, never rewritten.

Writes are torn-proof: every artifact is written to a temp file, fsynced
and renamed into place, so a crash mid-save leaves either the old
campaign or the new one — never half of each. The manifest carries
SHA-256 checksums of its sibling files; :meth:`ProfileRepository.verify`
recomputes them (plus structural checks), and
:meth:`ProfileRepository.quarantine` moves a damaged campaign aside into
``_quarantine/`` instead of deleting evidence. Integrity failures raise
:class:`RepositoryIntegrityError` (a ``ValueError`` whose message always
says "corrupt"). Fault injection for all of this lives at the
``repository.write`` site (see :mod:`repro.faults`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import warnings
from pathlib import Path

import numpy as np

from repro.core.store import SHARD_DIR, CampaignKey, shard_of
from repro.faults.plan import should_inject
from repro.obs import Manifest, build_manifest
from repro.obs.log import emit as emit_event

from .campaign import CampaignResult
from .index import (
    MATRIX_DATA,
    MATRIX_META,
    MATRIX_SCHEMA,
    build_matrix_index,
    extend_matrix_index,
    select_matrix,
)
from .profiler import RunRecord

__all__ = ["CampaignKey", "ProfileRepository", "RepositoryIntegrityError"]

_META = "meta.json"
_DATA = "runs.csv"
_MANIFEST = "manifest.json"
#: Keys every ``meta.json`` carries; a campaign lacking one is corrupt.
_META_KEYS = ("kernel", "arch", "family", "tag", "n_runs", "counters",
              "characteristics", "machine_metrics")
#: Layout marker at the root of a v2 repository.
_REPO_MARKER = "repo.json"
#: Per-bucket manifest file inside ``shards/<xx>/``.
_SHARD_MANIFEST = "shard.json"
#: Schema tags (registered in repro.analysis.schemas).
REPO_SCHEMA = "repro-repo/1"
SHARD_SCHEMA = "repro-shard/1"
#: Sub-directory verify-failed campaigns are moved into (directly under
#: the root). Its campaigns sit outside the campaign enumeration, so
#: listing/loading never sees them.
_QUARANTINE = "_quarantine"
#: Files covered by shard-manifest stat snapshots.
_TRACKED = (_META, _DATA, _MANIFEST)


class RepositoryIntegrityError(ValueError):
    """A stored campaign failed an integrity check (torn or corrupt
    file, missing manifest or metadata key, checksum mismatch, row-count
    mismatch), or the root is not a layout-2 repository. Subclasses
    ``ValueError`` so pre-existing ``except ValueError`` handling — and
    tests matching "corrupt" — keep working."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_text(path: Path) -> str:
    """Read a repository file; undecodable bytes mean bit rot."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise RepositoryIntegrityError(
            f"repository corrupt: {path.parent.name}/{path.name} is not "
            f"valid UTF-8 ({exc}); see ProfileRepository.quarantine"
        ) from None


def _atomic_write(path: Path, text: str, campaign: str) -> None:
    """Write-then-rename with fsync; the ``repository.write`` fault site.

    An injected ``torn_file``/``corrupt_file`` rule damages the payload
    *after* the caller computed checksums from the intact text — exactly
    the disk-level damage :meth:`ProfileRepository.verify` exists to
    catch.
    """
    fault = should_inject("repository.write", file=path.name, campaign=campaign)
    if fault is not None:
        if fault.mode == "torn_file":
            fraction = float(fault.payload_dict.get("fraction", 0.5))
            text = text[: int(len(text) * fraction)]
        elif fault.mode == "corrupt_file":
            # Flip a byte mid-file: still the right length, wrong content.
            middle = len(text) // 2
            text = text[:middle] + "\x00" + text[middle + 1 :]
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _atomic_write_bytes(path: Path, data: bytes, campaign: str) -> None:
    """Binary sibling of :func:`_atomic_write` (same fault site).

    Used for the columnar index payload; injected damage makes the
    payload hash mismatch its header, which demotes the index to stale —
    rebuilt on the next ``matrix()``, never served.
    """
    fault = should_inject("repository.write", file=path.name, campaign=campaign)
    if fault is not None:
        if fault.mode == "torn_file":
            fraction = float(fault.payload_dict.get("fraction", 0.5))
            data = data[: int(len(data) * fraction)]
        elif fault.mode == "corrupt_file":
            middle = len(data) // 2
            data = data[:middle] + b"\x00" + data[middle + 1 :]
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _stat_of(path: Path) -> list[int]:
    """``[size, mtime_ns]`` — the cheap change detector shard manifests
    cache. A same-size same-mtime rewrite evades it (classic mtime
    caveat); ``verify_all(full=True)`` re-hashes everything."""
    st = path.stat()
    return [st.st_size, st.st_mtime_ns]


class ProfileRepository:
    """Filesystem-backed store of :class:`CampaignResult` objects.

    Implements the :class:`repro.core.RunStore` protocol. Opening a
    root that holds anything but a layout-2 repository raises
    :class:`RepositoryIntegrityError` and writes nothing.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        marker = self.root / _REPO_MARKER
        if marker.exists():
            try:
                layout = json.loads(_read_text(marker)).get("layout")
            except (json.JSONDecodeError, AttributeError):
                raise RepositoryIntegrityError(
                    f"repository corrupt: {_REPO_MARKER} is unreadable — "
                    f"cannot determine the on-disk layout"
                ) from None
            if layout != 2:
                raise RepositoryIntegrityError(
                    f"repository corrupt: {_REPO_MARKER} declares layout "
                    f"{layout!r}; only layout 2 (sharded) is supported"
                )
        elif any(self.root.glob(f"*/{_META}")):
            raise RepositoryIntegrityError(
                f"repository corrupt: {self.root} is a flat layout-1 tree "
                f"(campaign directories directly under the root); only "
                f"layout 2 (sharded) is supported"
            )
        else:
            _atomic_write(
                marker,
                json.dumps({"schema": REPO_SCHEMA, "layout": 2}, indent=2),
                "",
            )

    # -- path scheme ---------------------------------------------------------

    def _campaign_dir(self, dirname: str) -> Path:
        return self.root / SHARD_DIR / shard_of(dirname) / dirname

    def _campaign_dirnames(self) -> list[str]:
        """Every campaign dirname on disk (ground truth, sorted)."""
        shards = self.root / SHARD_DIR
        if not shards.is_dir():
            return []
        return sorted(
            d.name
            for bucket in shards.iterdir()
            if bucket.is_dir()
            for d in bucket.iterdir()
            if d.is_dir()
        )

    # -- shard manifests -----------------------------------------------------

    def _shard_manifest_path(self, dirname: str) -> Path:
        return self.root / SHARD_DIR / shard_of(dirname) / _SHARD_MANIFEST

    @staticmethod
    def _read_shard(path: Path) -> dict:
        """A bucket's manifest; a damaged one degrades to empty (the
        manifest is a cache — disk directories stay ground truth)."""
        if not path.exists():
            return {"schema": SHARD_SCHEMA, "campaigns": {}}
        try:
            data = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {"schema": SHARD_SCHEMA, "campaigns": {}}
        if data.get("schema") != SHARD_SCHEMA or not isinstance(
            data.get("campaigns"), dict
        ):
            return {"schema": SHARD_SCHEMA, "campaigns": {}}
        return data

    def _shard_cache(self) -> dict[str, dict]:
        """dirname → shard-manifest entry, merged over every bucket."""
        out: dict[str, dict] = {}
        shards = self.root / SHARD_DIR
        if not shards.is_dir():
            return out
        for path in shards.glob(f"*/{_SHARD_MANIFEST}"):
            out.update(self._read_shard(path).get("campaigns", {}))
        return out

    def _stat_snapshot(self, dirname: str) -> dict[str, list[int]]:
        cdir = self._campaign_dir(dirname)
        return {
            name: _stat_of(cdir / name)
            for name in _TRACKED
            if (cdir / name).exists()
        }

    def _stats_match(self, dirname: str, snapshot: dict | None) -> bool:
        if not snapshot:
            return False
        cdir = self._campaign_dir(dirname)
        for name in _TRACKED:
            path = cdir / name
            want = snapshot.get(name)
            if want is None or not path.exists():
                return False
            if _stat_of(path) != list(want):
                return False
        return True

    def _update_shard_entry(
        self, dirname: str, *, meta: dict | None, verified: dict | None
    ) -> None:
        path = self._shard_manifest_path(dirname)
        shard = self._read_shard(path)
        shard["campaigns"][dirname] = {
            "meta": meta,
            "stat": self._stat_snapshot(dirname),
            "verified": verified,
        }
        _atomic_write(
            path, json.dumps(shard, indent=2, sort_keys=True), dirname
        )

    def _drop_shard_entry(self, dirname: str) -> None:
        path = self._shard_manifest_path(dirname)
        shard = self._read_shard(path)
        if dirname in shard["campaigns"]:
            del shard["campaigns"][dirname]
            _atomic_write(
                path, json.dumps(shard, indent=2, sort_keys=True), dirname
            )

    def _record_verified(self, snapshots: dict[str, dict]) -> None:
        """Batch-record clean-verify snapshots, one write per bucket."""
        by_bucket: dict[Path, dict[str, dict]] = {}
        for dirname, snap in snapshots.items():
            by_bucket.setdefault(
                self._shard_manifest_path(dirname), {}
            )[dirname] = snap
        for path, group in by_bucket.items():
            shard = self._read_shard(path)
            for dirname, snap in group.items():
                entry = shard["campaigns"].setdefault(
                    dirname, {"meta": None, "stat": snap}
                )
                entry["verified"] = snap
            _atomic_write(
                path, json.dumps(shard, indent=2, sort_keys=True), ""
            )

    # -- write ---------------------------------------------------------------

    def save(
        self,
        result: CampaignResult,
        tag: str | None = None,
        *,
        key: CampaignKey | None = None,
        seed: int | None = None,
        config: dict | None = None,
    ) -> Path:
        """Persist a campaign; returns its directory.

        The campaign is addressed by ``key`` when given, else by a key
        derived from the result's own (kernel, arch) plus ``tag``. A
        provenance manifest (seed, config, git revision, SHA-256
        checksums of the data files, any active trace/metrics —
        :mod:`repro.obs.manifest`) is written alongside the data,
        together with the columnar matrix index. All files are written
        atomically (temp file + fsync + rename).
        """
        if not result.records:
            raise ValueError("refusing to save an empty campaign")
        if key is None:
            key = CampaignKey(kernel=result.kernel, arch=result.arch, tag=tag)
        elif tag is not None:
            raise TypeError("pass the tag inside the CampaignKey")
        cdir = self._campaign_dir(key.dirname)
        cdir.mkdir(parents=True, exist_ok=True)

        counter_names = result.counter_names
        char_names = result.characteristic_names
        machine_names = sorted(result.records[0].machine)

        meta = {
            "kernel": result.kernel,
            "arch": result.arch,
            "family": result.family,
            "tag": key.tag,
            "n_runs": len(result.records),
            "counters": counter_names,
            "characteristics": char_names,
            "machine_metrics": machine_names,
        }
        meta_text = json.dumps(meta, indent=2)
        data_text = self._encode_rows(
            result.records, counter_names, char_names, machine_names,
            header=True,
        )

        # Checksums are of the *intended* content; a write torn on the
        # way to disk (crash, injected fault) therefore fails verify().
        checksums = {_META: _sha256(meta_text), _DATA: _sha256(data_text)}
        _atomic_write(cdir / _META, meta_text, key.dirname)
        _atomic_write(cdir / _DATA, data_text, key.dirname)

        index_text, index_payload = build_matrix_index(
            result, data_text.encode()
        )
        # Payload before header: a crash in between leaves a header/
        # payload hash mismatch, i.e. a stale (rebuildable) index.
        _atomic_write_bytes(cdir / MATRIX_DATA, index_payload, key.dirname)
        _atomic_write(cdir / MATRIX_META, index_text, key.dirname)

        manifest = build_manifest(
            kernel=result.kernel,
            arch=result.arch,
            tag=key.tag,
            seed=seed,
            n_runs=len(result.records),
            config=config or {},
            checksums=checksums,
        )
        _atomic_write(cdir / _MANIFEST, manifest.to_json(), key.dirname)
        self._update_shard_entry(key.dirname, meta=meta, verified=None)
        emit_event(
            "repository.save",
            campaign=key.dirname,
            n_runs=len(result.records),
        )
        return cdir

    @staticmethod
    def _encode_rows(
        records: list[RunRecord],
        counter_names: list[str],
        char_names: list[str],
        machine_names: list[str],
        *,
        header: bool,
    ) -> str:
        buffer = io.StringIO()
        # "\n" terminators (not the csv default "\r\n") so the text —
        # and therefore its checksum — is identical whether read raw or
        # through universal-newline translation.
        writer = csv.writer(buffer, lineterminator="\n")
        if header:
            writer.writerow(
                ["problem", "replicate", "time_s", "power_w"]
                + [f"char:{c}" for c in char_names]
                + [f"counter:{c}" for c in counter_names]
                + [f"machine:{m}" for m in machine_names]
            )
        for r in records:
            writer.writerow(
                [json.dumps(r.problem), r.replicate, repr(r.time_s),
                 "" if r.power_w is None else repr(r.power_w)]
                + [repr(r.characteristics[c]) for c in char_names]
                + [repr(r.counters[c]) for c in counter_names]
                + [repr(r.machine[m]) for m in machine_names]
            )
        return buffer.getvalue()

    def append(
        self,
        result: CampaignResult,
        tag: str | None = None,
        *,
        key: CampaignKey | None = None,
        seed: int | None = None,
        config: dict | None = None,
    ) -> Path:
        """Append new runs to a stored campaign (streaming collection).

        The existing data file is integrity-checked first, the new rows
        are encoded with the stored column schema (every stored counter/
        characteristic/machine column must be present in the new
        records), and meta, manifest and the columnar index are updated
        in one pass — the index incrementally, without re-parsing the
        old rows. Saving a key that does not exist yet falls back to
        :meth:`save`.
        """
        if not result.records:
            raise ValueError("refusing to append an empty campaign")
        if key is None:
            key = CampaignKey(kernel=result.kernel, arch=result.arch, tag=tag)
        elif tag is not None:
            raise TypeError("pass the tag inside the CampaignKey")
        if not self.has(key):
            return self.save(result, key=key, seed=seed, config=config)

        cdir = self._campaign_dir(key.dirname)
        meta = self._parse_meta(key.dirname, _read_text(cdir / _META))
        if meta["kernel"] != result.kernel or meta["arch"] != result.arch:
            raise ValueError(
                f"cannot append {result.kernel!r}/{result.arch!r} runs to "
                f"campaign {key.dirname!r} "
                f"({meta['kernel']!r}/{meta['arch']!r})"
            )
        old_bytes = (cdir / _DATA).read_bytes()
        old_text = old_bytes.decode()
        manifest = self.load_manifest(key)
        self._check_checksums(
            key.dirname, manifest.checksums, {_DATA: old_text}
        )
        try:
            new_rows = self._encode_rows(
                result.records,
                meta["counters"],
                meta["characteristics"],
                meta["machine_metrics"],
                header=False,
            )
        except KeyError as exc:
            raise ValueError(
                f"cannot append to {key.dirname!r}: new records lack stored "
                f"column {exc.args[0]!r}"
            ) from None
        data_text = old_text + new_rows
        meta["n_runs"] += len(result.records)
        meta_text = json.dumps(meta, indent=2)
        checksums = {_META: _sha256(meta_text), _DATA: _sha256(data_text)}
        _atomic_write(cdir / _META, meta_text, key.dirname)
        _atomic_write(cdir / _DATA, data_text, key.dirname)

        loaded = self._load_index(key.dirname, expect_source=old_bytes)
        if loaded is not None:
            extended = extend_matrix_index(
                loaded[0], loaded[1], result, data_text.encode()
            )
        else:
            extended = None
        if extended is not None:
            _atomic_write_bytes(cdir / MATRIX_DATA, extended[1], key.dirname)
            _atomic_write(cdir / MATRIX_META, extended[0], key.dirname)
        else:
            # Stale or absent index: drop it; matrix() rebuilds lazily.
            for name in (MATRIX_META, MATRIX_DATA):
                (cdir / name).unlink(missing_ok=True)

        new_manifest = build_manifest(
            kernel=result.kernel,
            arch=result.arch,
            tag=key.tag,
            seed=seed if seed is not None else manifest.seed,
            n_runs=meta["n_runs"],
            config=config or dict(manifest.config),
            checksums=checksums,
        )
        _atomic_write(cdir / _MANIFEST, new_manifest.to_json(), key.dirname)
        self._update_shard_entry(key.dirname, meta=meta, verified=None)
        emit_event(
            "repository.append",
            campaign=key.dirname,
            n_new=len(result.records),
            n_runs=meta["n_runs"],
        )
        return cdir

    # -- read ----------------------------------------------------------------

    def list_campaigns(self) -> list[dict]:
        """Metadata of every stored campaign.

        In the sharded layout the answer is served from the per-bucket
        manifests whenever the cached entry's file stats still match the
        disk — only changed campaigns are re-parsed. Campaigns whose
        ``meta.json`` no longer parses are skipped with a warning (run
        :meth:`verify`/:meth:`quarantine` on them) so one damaged
        directory cannot take down enumeration of the rest.
        """
        cache = self._shard_cache()
        out = []
        for dirname in self._campaign_dirnames():
            meta_path = self._campaign_dir(dirname) / _META
            if not meta_path.exists():
                continue
            entry = cache.get(dirname)
            if (
                entry is not None
                and entry.get("meta") is not None
                and entry.get("stat", {}).get(_META) == _stat_of(meta_path)
            ):
                out.append(entry["meta"])
                continue
            try:
                out.append(json.loads(_read_text(meta_path)))
            except (json.JSONDecodeError, RepositoryIntegrityError):
                warnings.warn(
                    f"skipping campaign {dirname!r}: corrupt "
                    f"meta.json (see ProfileRepository.verify)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return out

    def keys(self) -> list[CampaignKey]:
        """The :class:`CampaignKey` of every stored campaign."""
        return [
            CampaignKey(
                kernel=m["kernel"], arch=m["arch"], tag=m.get("tag") or None
            )
            for m in self.list_campaigns()
        ]

    def iter_keys(self):
        """Iterate stored keys (:class:`repro.core.RunStore`)."""
        yield from self.keys()

    @staticmethod
    def _parse_meta(dirname: str, text: str) -> dict:
        """A campaign's parsed ``meta.json``; unparseable JSON or a
        missing required key raises :class:`RepositoryIntegrityError`."""
        try:
            meta = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RepositoryIntegrityError(
                f"repository corrupt: {dirname}/{_META} is not valid "
                f"JSON ({exc})"
            ) from None
        for name in _META_KEYS:
            if name not in meta:
                raise RepositoryIntegrityError(
                    f"repository corrupt: {dirname}/{_META} lacks the "
                    f"required key {name!r}"
                )
        return meta

    def load(self, key: CampaignKey) -> CampaignResult:
        """Load one campaign, verifying integrity on the way.

        The manifest must be present, its data-file checksums must
        match, the metadata must carry every required key and the row
        count must match it; any failure raises
        :class:`RepositoryIntegrityError`.
        """
        cdir = self._campaign_dir(key.dirname)
        meta_path = cdir / _META
        if not meta_path.exists():
            raise FileNotFoundError(
                f"no campaign stored for {key.kernel!r} on {key.arch!r}"
            )
        data_path = cdir / _DATA
        if not data_path.exists():
            raise RepositoryIntegrityError(
                f"repository corrupt: {key.dirname} has metadata but no "
                f"{_DATA}"
            )
        meta_text = _read_text(meta_path)
        data_text = _read_text(data_path)
        manifest = self.load_manifest(key)
        self._check_checksums(
            key.dirname,
            manifest.checksums,
            {_META: meta_text, _DATA: data_text},
        )
        meta = self._parse_meta(key.dirname, meta_text)
        result = CampaignResult(
            kernel=meta["kernel"], arch=meta["arch"], family=meta["family"]
        )
        reader = csv.reader(data_text.splitlines())
        header = next(reader)
        for row in reader:
            rec = dict(zip(header, row))
            result.records.append(
                RunRecord(
                    kernel=meta["kernel"],
                    arch=meta["arch"],
                    family=meta["family"],
                    problem=json.loads(rec["problem"]),
                    replicate=int(rec["replicate"]),
                    time_s=float(rec["time_s"]),
                    power_w=(
                        float(rec["power_w"])
                        if rec.get("power_w") not in (None, "")
                        else None
                    ),
                    characteristics={
                        c: float(rec[f"char:{c}"]) for c in meta["characteristics"]
                    },
                    counters={
                        c: float(rec[f"counter:{c}"]) for c in meta["counters"]
                    },
                    machine={
                        m: float(rec[f"machine:{m}"])
                        for m in meta["machine_metrics"]
                    },
                )
            )
        if len(result.records) != meta["n_runs"]:
            raise RepositoryIntegrityError(
                f"repository corrupt: expected {meta['n_runs']} runs, "
                f"found {len(result.records)}"
            )
        return result

    # -- columnar index ------------------------------------------------------

    def _load_index(
        self, dirname: str, expect_source: bytes | None = None
    ) -> tuple[dict, np.ndarray] | None:
        """The campaign's (header, table) when present *and fresh*.

        Freshness means the header's ``payload_sha256`` matches the
        ``.npy`` bytes and its ``source_sha256`` matches the current
        ``runs.csv`` bytes (or ``expect_source`` when given). Anything
        else — missing, unparseable, wrong schema, hash mismatch —
        returns ``None``: a stale index is rebuilt, never served.
        """
        cdir = self._campaign_dir(dirname)
        meta_path = cdir / MATRIX_META
        data_path = cdir / MATRIX_DATA
        src_path = cdir / _DATA
        if not meta_path.exists() or not data_path.exists():
            return None
        try:
            header = json.loads(meta_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if header.get("schema") != MATRIX_SCHEMA:
            return None
        payload = data_path.read_bytes()
        if _sha256_bytes(payload) != header.get("payload_sha256"):
            return None
        source = expect_source
        if source is None:
            if not src_path.exists():
                return None
            source = src_path.read_bytes()
        if _sha256_bytes(source) != header.get("source_sha256"):
            return None
        try:
            table = np.load(io.BytesIO(payload), allow_pickle=False)
        except (ValueError, OSError):
            return None
        n_cols = (
            len(header.get("counters", []))
            + len(header.get("characteristics", []))
            + len(header.get("machine_metrics", []))
            + 2
        )
        if table.ndim != 2 or table.shape != (header.get("n_runs"), n_cols):
            return None
        return header, table

    def rebuild_index(self, key: CampaignKey) -> Path:
        """(Re)build the columnar index from the stored CSV.

        Loads the campaign through the full integrity-checked path — a
        corrupt campaign raises instead of indexing damaged data — and
        persists a fresh ``repro-matrix/1`` sidecar. Returns the
        campaign directory.
        """
        result = self.load(key)
        cdir = self._campaign_dir(key.dirname)
        index_text, index_payload = build_matrix_index(
            result, (cdir / _DATA).read_bytes()
        )
        _atomic_write_bytes(cdir / MATRIX_DATA, index_payload, key.dirname)
        _atomic_write(cdir / MATRIX_META, index_text, key.dirname)
        return cdir

    def matrix(
        self,
        key: CampaignKey,
        counters=None,
        include_characteristics: bool = True,
        include_machine: bool = False,
        response: str = "time",
        missing: str = "raise",
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Predictor matrix X, response y and column names — served from
        the columnar index without re-parsing the CSV.

        Same semantics (and bit-identical values) as loading the
        campaign and calling :meth:`CampaignResult.matrix`. A missing or
        stale index is rebuilt first (through the integrity-checked load
        path); the staleness check hashes the current ``runs.csv``
        bytes, so a mutated campaign is never answered from its old
        index.
        """
        if not isinstance(key, CampaignKey):
            raise TypeError("matrix() is addressed by CampaignKey")
        if not self.has(key):
            raise FileNotFoundError(
                f"no campaign stored for {key.kernel!r} on {key.arch!r}"
            )
        loaded = self._load_index(key.dirname)
        if loaded is None:
            self.rebuild_index(key)
            loaded = self._load_index(key.dirname)
            if loaded is None:  # pragma: no cover - rebuild always lands
                raise RepositoryIntegrityError(
                    f"repository corrupt: could not rebuild matrix index "
                    f"for {key.dirname}"
                )
        header, table = loaded
        return select_matrix(
            header,
            table,
            counters=counters,
            include_characteristics=include_characteristics,
            include_machine=include_machine,
            response=response,
            missing=missing,
        )

    @staticmethod
    def _check_checksums(
        dirname: str, expected: dict, actual_texts: dict[str, str]
    ) -> None:
        for name, text in actual_texts.items():
            want = expected.get(name)
            if want is not None and _sha256(text) != want:
                raise RepositoryIntegrityError(
                    f"repository corrupt: checksum mismatch for "
                    f"{dirname}/{name} (file damaged after save — torn "
                    f"write or bit rot; see ProfileRepository.quarantine)"
                )

    def has(self, key: CampaignKey) -> bool:
        return (self._campaign_dir(key.dirname) / _META).exists()

    def _manifest_path(self, key: CampaignKey) -> Path:
        path = self._campaign_dir(key.dirname) / _MANIFEST
        if not path.exists():
            raise RepositoryIntegrityError(
                f"repository corrupt: {key.dirname}/{_MANIFEST} is missing "
                f"(save interrupted before the manifest landed)"
            )
        return path

    def load_manifest(self, key: CampaignKey) -> Manifest:
        """The provenance manifest of a stored campaign.

        Raises :class:`RepositoryIntegrityError` when the file is
        missing or no longer parses.
        """
        path = self._manifest_path(key)
        try:
            return Manifest.read(path)
        except (json.JSONDecodeError, ValueError) as exc:
            raise RepositoryIntegrityError(
                f"repository corrupt: {key.dirname}/{_MANIFEST} is "
                f"unreadable ({exc})"
            ) from None

    def manifest_digest(self, key: CampaignKey) -> str:
        """SHA-256 of a campaign's manifest file — its provenance identity.

        The fit registry (:mod:`repro.serve.registry`) uses this digest
        as the default version id of models trained on the campaign, so
        a served prediction traces back to the exact data it learned
        from.
        """
        return _sha256(_read_text(self._manifest_path(key)))

    # -- integrity -----------------------------------------------------------

    def verify(self, key: CampaignKey) -> list[str]:
        """Integrity findings for one stored campaign (empty = intact).

        Checks, without mutating anything: files present and parseable,
        manifest checksums match the bytes on disk, row count matches
        the metadata, matrix index fresh. Always a full check; the
        stat-based fast path belongs to :meth:`verify_all`.
        """
        return self._verify_dirname(key.dirname)

    def _verify_dirname(self, dirname: str) -> list[str]:
        cdir = self._campaign_dir(dirname)
        findings: list[str] = []
        if not cdir.is_dir():
            return [f"{dirname}: campaign directory missing"]
        texts: dict[str, str] = {}
        for name in (_META, _DATA):
            path = cdir / name
            if not path.exists():
                findings.append(f"{dirname}/{name}: missing")
            else:
                try:
                    texts[name] = path.read_text()
                except UnicodeDecodeError:
                    findings.append(
                        f"{dirname}/{name}: corrupt (not valid UTF-8)"
                    )
        meta = None
        if _META in texts:
            try:
                meta = json.loads(texts[_META])
            except json.JSONDecodeError:
                findings.append(f"{dirname}/{_META}: corrupt (not JSON)")
        manifest_path = cdir / _MANIFEST
        if not manifest_path.exists():
            findings.append(
                f"{dirname}/{_MANIFEST}: missing (no checksums to verify)"
            )
        else:
            try:
                manifest = Manifest.read(manifest_path)
            except (json.JSONDecodeError, ValueError):
                findings.append(f"{dirname}/{_MANIFEST}: corrupt")
            else:
                for name, want in sorted(manifest.checksums.items()):
                    have = texts.get(name)
                    if have is not None and _sha256(have) != want:
                        findings.append(
                            f"{dirname}/{name}: corrupt (checksum mismatch)"
                        )
        if meta is not None and _DATA in texts and meta.get("n_runs") is not None:
            n_rows = max(len(texts[_DATA].splitlines()) - 1, 0)
            if n_rows != meta["n_runs"]:
                findings.append(
                    f"{dirname}/{_DATA}: corrupt (row count {n_rows} != "
                    f"meta n_runs {meta['n_runs']})"
                )
        findings.extend(self._index_findings(cdir, dirname))
        findings.extend(self._schema_findings(cdir, dirname))
        return findings

    def _index_findings(self, cdir: Path, dirname: str) -> list[str]:
        """Freshness of the (optional, derived) columnar index.

        A stale or damaged index is *not* corruption of the campaign —
        ``matrix()`` rebuilds it from the CSV — so the finding is
        labelled legacy/drift and ``repro repo verify`` reports it
        without quarantining.
        """
        if not (cdir / MATRIX_META).exists() and not (
            cdir / MATRIX_DATA
        ).exists():
            # No index at all is normal (dropped after an append):
            # matrix() builds one lazily.
            return []
        if self._load_index(dirname) is None:
            return [
                f"{dirname}/{MATRIX_META}: legacy/drift (stale matrix "
                f"index; rebuilt on next matrix())"
            ]
        return []

    @staticmethod
    def _schema_findings(cdir: Path, dirname: str) -> list[str]:
        """Validate the JSON sidecars against the registered artifact
        schemas (rules BF6xx) — a renamed or mistyped field becomes a
        named finding here instead of a ``KeyError`` in some reader.

        ERROR findings read as corruption; WARNING-level drift
        (unrecognized fields a reader would silently skip) is labelled
        legacy/drift so ``repro repo verify`` reports without
        quarantining.
        """
        # Function-level import: repro.analysis pulls in gpusim, which
        # the profiling package must not require at import time.
        from repro.analysis import Severity, validate_artifact

        findings: list[str] = []
        for name in (_MANIFEST, _META):
            path = cdir / name
            if not path.exists():
                continue  # presence is the structural checks' concern
            for f in validate_artifact(path):
                if f.severity >= Severity.ERROR:
                    findings.append(
                        f"{dirname}/{name}: corrupt ({f.rule}: {f.message})"
                    )
                else:
                    findings.append(
                        f"{dirname}/{name}: legacy/drift "
                        f"({f.rule}: {f.message})"
                    )
        return findings

    def verify_all(self, full: bool = False) -> dict[str, list[str]]:
        """:meth:`verify` over every campaign directory (by dirname).

        Enumerates raw directories rather than :meth:`keys` so campaigns
        whose metadata is too damaged to list still get checked. The
        quarantine area is skipped — it holds known-bad data.

        In the sharded layout the check is O(changed): campaigns whose
        tracked files' (size, mtime) still match the snapshot recorded
        at their last *clean* verify are skipped, and a clean full check
        records a fresh snapshot. ``full=True`` re-hashes everything
        (catches same-size same-mtime rewrites the stat check cannot).
        """
        cache = {} if full else self._shard_cache()
        out: dict[str, list[str]] = {}
        clean_snapshots: dict[str, dict] = {}
        for dirname in self._campaign_dirnames():
            entry = cache.get(dirname)
            if (
                entry is not None
                and self._stats_match(dirname, entry.get("verified"))
            ):
                out[dirname] = []
                continue
            findings = self._verify_dirname(dirname)
            out[dirname] = findings
            if not findings:
                clean_snapshots[dirname] = self._stat_snapshot(dirname)
        if clean_snapshots:
            self._record_verified(clean_snapshots)
        return out

    def quarantine(self, key: CampaignKey) -> Path:
        """Move a damaged campaign into ``<root>/_quarantine/``.

        The data is preserved for post-mortem (nothing is deleted) but
        disappears from :meth:`keys`/:meth:`list_campaigns`/:meth:`load`.
        Returns the new location.
        """
        if not self._campaign_dir(key.dirname).is_dir():
            raise FileNotFoundError(
                f"no campaign stored for {key.kernel!r} on {key.arch!r}"
            )
        return self._quarantine_dirname(key.dirname)

    def _quarantine_dirname(self, dirname: str) -> Path:
        qdir = self.root / _QUARANTINE
        qdir.mkdir(exist_ok=True)
        target = qdir / dirname
        suffix = 1
        while target.exists():
            target = qdir / f"{dirname}.{suffix}"
            suffix += 1
        os.replace(self._campaign_dir(dirname), target)
        self._drop_shard_entry(dirname)
        return target

    def stats(self) -> dict:
        """Repository shape at a glance: layout, campaign/run counts,
        shard fill and index freshness (``repro repo stats``)."""
        dirnames = self._campaign_dirnames()
        runs = sum(
            int(m.get("n_runs") or 0) for m in self.list_campaigns()
        )
        fill: dict[str, int] = {}
        fresh = stale = missing = 0
        for dirname in dirnames:
            fill[shard_of(dirname)] = fill.get(shard_of(dirname), 0) + 1
            cdir = self._campaign_dir(dirname)
            if not (cdir / MATRIX_META).exists():
                missing += 1
            elif self._load_index(dirname) is None:
                stale += 1
            else:
                fresh += 1
        return {
            "layout": 2,
            "campaigns": len(dirnames),
            "runs": runs,
            "shards": {
                "used": len(fill),
                "total": 256,
                "max_fill": max(fill.values(), default=0),
            },
            "index": {"fresh": fresh, "stale": stale, "missing": missing},
        }

