"""Versioned model registry: fit once, serve forever.

Fit artifacts are addressed the way campaigns are — by
:class:`~repro.profiling.repository.CampaignKey` — plus a **version**:
by default the SHA-256 digest of the training campaign's
``repro-manifest/1`` sidecar (so a fit is versioned by the provenance
of the data it learned from), falling back to the artifact's own
content digest for fits without a stored campaign. Layout::

    <root>/stamp                                  # root change stamp
    <root>/<campaign_dirname>/index.json          # publish-ordered versions
    <root>/<campaign_dirname>/<version>/fit.json  # repro-fit/1 artifact
    <root>/<campaign_dirname>/<version>/manifest.json  # provenance sidecar

``stamp`` holds a random token that every :meth:`FitRegistry.publish`
(and every :meth:`FitRegistry.gc` that removes a version) rewrites as
its last step, after ``index.json``. A server reads it once per pass
and re-reads the indexes and manifests only when it moved.

Every write goes through :func:`repro.io.atomic_write` (temp file +
fsync + rename) and the sidecar manifest
records the SHA-256 of ``fit.json``. :meth:`FitRegistry.load`
recomputes it on the way in; a mismatch means the artifact on disk is
not the artifact that was published, and the load is **refused** with a
:class:`RegistryIntegrityError` — same contract as the profile
repository's corrupt-campaign handling, with a BF6xx-style named
finding in the message.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.core.store import CampaignKey
from repro.faults.plan import should_inject
from repro.io import atomic_write
from repro.obs import build_manifest
from repro.obs.log import emit as emit_event

from .artifact import ServableFit

__all__ = ["FitRegistry", "FitVersion", "RegistryIntegrityError"]

_FIT = "fit.json"
_MANIFEST = "manifest.json"
_INDEX = "index.json"
#: Root change stamp; a plain token file, not a JSON artifact.
_STAMP = "stamp"

#: Schema tag of the per-key version index.
INDEX_SCHEMA = "repro-fit-index/1"

#: Characters of the digest used as the version directory name.
_VERSION_CHARS = 16


class RegistryIntegrityError(ValueError):
    """A stored fit artifact failed an integrity check (digest mismatch,
    torn or unparseable file). Subclasses ``ValueError`` and always says
    "corrupt", mirroring :class:`RepositoryIntegrityError
    <repro.profiling.repository.RepositoryIntegrityError>`."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class FitVersion:
    """Address of one published artifact: campaign key + version id."""

    key: CampaignKey
    version: str
    digest: str  #: full SHA-256 of the fit.json payload

    def __str__(self) -> str:
        return f"{self.key.dirname}@{self.version}"


class FitRegistry:
    """Filesystem-backed store of versioned :class:`ServableFit`\\ s."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- write ---------------------------------------------------------

    def publish(
        self, servable: ServableFit, *, version: str | None = None
    ) -> FitVersion:
        """Store an artifact; returns its address.

        ``version`` defaults to the source campaign's manifest digest
        (``source["campaign_manifest_sha256"]``) when the servable
        carries one, else the artifact's own content digest — truncated
        to a directory-name-sized prefix either way. Re-publishing an
        identical artifact under the same version is idempotent.
        """
        key = CampaignKey(
            kernel=servable.kernel, arch=servable.arch, tag=servable.tag
        )
        payload = servable.to_json()
        digest = _sha256(payload)
        if version is None:
            version = servable.source.get("campaign_manifest_sha256") or digest
        version = version[:_VERSION_CHARS]
        vdir = self.root / key.dirname / version
        vdir.mkdir(parents=True, exist_ok=True)
        atomic_write(vdir / _FIT, payload)
        manifest = build_manifest(
            kernel=servable.kernel,
            arch=servable.arch,
            tag=servable.tag,
            n_runs=int(servable.source.get("n_runs") or 0),
            config={
                "version": version,
                "response": servable.response,
                "source": dict(servable.source),
            },
            checksums={_FIT: digest},
        )
        atomic_write(vdir / _MANIFEST, manifest.to_json())
        self._index_add(key, version)
        self._restamp()
        emit_event(
            "registry.publish", campaign=key.dirname, version=version
        )
        return FitVersion(key=key, version=version, digest=digest)

    def _index_add(self, key: CampaignKey, version: str) -> None:
        path = self.root / key.dirname / _INDEX
        index = self._read_index(path)
        if version in index["versions"]:
            # Latest-wins: a re-publish moves the version to the tail so
            # "latest" tracks publish order, not first-seen order.
            index["versions"].remove(version)
        index["versions"].append(version)
        atomic_write(path, json.dumps(index, sort_keys=True) + "\n")

    def _restamp(self) -> None:
        # A fresh random token, never a read-modify-write counter: two
        # concurrent publishers would both write the same next value and
        # a watcher that saw the first would miss the second.
        atomic_write(self.root / _STAMP, os.urandom(16).hex() + "\n")

    @staticmethod
    def _read_index(path: Path) -> dict:
        if not path.exists():
            return {"schema": INDEX_SCHEMA, "versions": []}
        try:
            index = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RegistryIntegrityError(
                f"registry corrupt: {path.parent.name}/{_INDEX} is not "
                f"valid JSON ({exc})"
            ) from None
        if index.get("schema") != INDEX_SCHEMA:
            raise RegistryIntegrityError(
                f"registry corrupt: {path.parent.name}/{_INDEX} has "
                f"unknown schema {index.get('schema')!r} "
                f"(expected {INDEX_SCHEMA!r})"
            )
        return index

    # -- read ----------------------------------------------------------

    def versions(self, key: CampaignKey) -> list[str]:
        """Version ids of one campaign's fits, in publish order."""
        return list(
            self._read_index(self.root / key.dirname / _INDEX)["versions"]
        )

    def resolve_version(
        self, key: CampaignKey, version: str | None = None
    ) -> str:
        """An explicit version verbatim; ``None`` means latest published."""
        if version is not None:
            return version[:_VERSION_CHARS]
        versions = self.versions(key)
        if not versions:
            raise FileNotFoundError(
                f"no fit published for {key.kernel!r} on {key.arch!r}"
                + (f" (tag {key.tag!r})" if key.tag else "")
            )
        return versions[-1]

    def has(self, key: CampaignKey, version: str | None = None) -> bool:
        try:
            resolved = self.resolve_version(key, version)
        except FileNotFoundError:
            return False
        return (self.root / key.dirname / resolved / _FIT).exists()

    def load(
        self, key: CampaignKey, version: str | None = None
    ) -> ServableFit:
        """Load one artifact, verifying its digest on the way.

        The sidecar manifest's recorded SHA-256 of ``fit.json`` is
        recomputed from the bytes on disk; a mismatch, or a manifest
        that records no digest at all, refuses the artifact with a
        :class:`RegistryIntegrityError` — a fit that does not checksum
        is not served, ever.
        """
        resolved = self.resolve_version(key, version)
        spec = should_inject(
            "registry.load", campaign=key.dirname, version=resolved
        )
        if spec is not None:
            if spec.mode == "missing":
                raise FileNotFoundError(
                    f"no fit stored for {key.dirname}@{resolved} "
                    f"(injected fault at registry.load)"
                )
            raise RegistryIntegrityError(
                f"BF610: registry corrupt: {key.dirname}/{resolved}/{_FIT} "
                f"digest mismatch (injected fault at registry.load) — "
                f"artifact refused"
            )
        if not (self.root / key.dirname / resolved / _FIT).exists():
            raise FileNotFoundError(
                f"no fit stored for {key.dirname}@{resolved}"
            )
        payload = self._verified_payload(key.dirname, resolved)
        try:
            servable = ServableFit.from_json(payload)
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise RegistryIntegrityError(
                f"registry corrupt: {key.dirname}/{resolved}/{_FIT} does "
                f"not parse as a {ServableFit.__name__} ({exc})"
            ) from None
        return servable

    def _verified_payload(self, dirname: str, version: str) -> str:
        """``fit.json`` text of one version, checked against the digest
        its manifest records; the one integrity check :meth:`load` and
        :meth:`verify` share. Raises :class:`RegistryIntegrityError`."""
        vdir = self.root / dirname / version
        try:
            payload = (vdir / _FIT).read_text()
        except UnicodeDecodeError as exc:
            raise RegistryIntegrityError(
                f"registry corrupt: {dirname}/{version}/{_FIT} is "
                f"not valid UTF-8 ({exc})"
            ) from None
        try:
            manifest = json.loads((vdir / _MANIFEST).read_text())
        except FileNotFoundError:
            manifest = {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RegistryIntegrityError(
                f"registry corrupt: {dirname}/{version}/{_MANIFEST} "
                f"is unreadable ({exc})"
            ) from None
        expected = (manifest.get("checksums") or {}).get(_FIT)
        if expected is None:
            # No manifest (a publish that crashed before it landed) or
            # no digest in it: damage, never a license to serve.
            raise RegistryIntegrityError(
                f"registry corrupt: {dirname}/{version}/{_MANIFEST} "
                f"records no {_FIT} digest"
            )
        actual = _sha256(payload)
        if actual != expected:
            raise RegistryIntegrityError(
                f"BF610: registry corrupt: {dirname}/{version}/{_FIT} "
                f"digest mismatch (manifest records {expected[:12]}…, disk "
                f"has {actual[:12]}…) — artifact refused; re-publish the fit"
            )
        return payload

    def keys(self) -> list[CampaignKey]:
        """The :class:`CampaignKey` of every campaign with published fits."""
        out = []
        for index_path in sorted(self.root.glob(f"*/{_INDEX}")):
            versions = self._read_index(index_path)["versions"]
            if not versions:
                continue
            fit_path = index_path.parent / versions[-1] / _FIT
            try:
                data = json.loads(fit_path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            out.append(
                CampaignKey(
                    kernel=data["kernel"],
                    arch=data["arch"],
                    tag=data.get("tag") or None,
                )
            )
        return out

    def iter_keys(self) -> Iterator[CampaignKey]:
        """Iterate published campaign keys (the :class:`RunStore` spelling
        of :meth:`keys`)."""
        yield from self.keys()

    # -- integrity -----------------------------------------------------

    def _dirnames(self) -> list[str]:
        return sorted(p.parent.name for p in self.root.glob(f"*/{_INDEX}"))

    def verify(self, key: CampaignKey) -> list[str]:
        """Integrity findings for every published version of one key.

        Checks what :meth:`load` would check — index parses, each
        indexed version has its artifact, the artifact's SHA-256 matches
        the manifest's record — without deserializing the forests.
        Returns human-readable findings; empty means clean.
        """
        return self._verify_dirname(key.dirname)

    def _verify_dirname(self, dirname: str) -> list[str]:
        try:
            index = self._read_index(self.root / dirname / _INDEX)
        except RegistryIntegrityError as exc:
            return [str(exc)]
        findings: list[str] = []
        for version in index["versions"]:
            if not (self.root / dirname / version / _FIT).exists():
                findings.append(
                    f"registry corrupt: {dirname}/{version}/{_FIT} is "
                    f"indexed but missing on disk"
                )
                continue
            try:
                self._verified_payload(dirname, version)
            except RegistryIntegrityError as exc:
                findings.append(str(exc))
        return findings

    def verify_all(self) -> dict[str, list[str]]:
        """Findings for every campaign with damage; clean registry → ``{}``."""
        out: dict[str, list[str]] = {}
        for dirname in self._dirnames():
            findings = self._verify_dirname(dirname)
            if findings:
                out[dirname] = findings
        return out

    # -- change watching ----------------------------------------------

    def change_stamp(self) -> str | None:
        """The root change stamp; ``None`` before any publish or gc.

        Every :meth:`publish`, and every :meth:`gc` that removes a
        version, writes a new value as its last step, so an unchanged
        stamp means neither happened since it was read. Hand edits do
        not move it. Raises ``OSError`` only when the file exists but
        cannot be read.
        """
        try:
            return (self.root / _STAMP).read_text()
        except FileNotFoundError:
            return None

    def watch_digests(self) -> dict[str, str]:
        """Per-campaign content digests for hot-reload watching; a
        server computes them only when :meth:`change_stamp` moved.

        Each campaign's digest covers its ``repro-fit-index/1`` bytes
        *plus* every indexed version's ``manifest.json`` bytes — the
        index alone is not enough, because re-publishing the same
        version leaves the index byte-identical while the manifest (and
        artifact checksum) move. Any publish, gc, or on-disk edit of a
        served artifact therefore changes its campaign's digest;
        unreadable files hash as markers rather than raising, so a
        corrupt republish still registers as a change.
        """
        out: dict[str, str] = {}
        for index_path in sorted(self.root.glob(f"*/{_INDEX}")):
            hasher = hashlib.sha256()
            try:
                index_bytes = index_path.read_bytes()
            except OSError:
                index_bytes = b"<unreadable>"
            hasher.update(index_bytes)
            try:
                versions = json.loads(index_bytes).get("versions") or []
            except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                versions = []
            for version in versions:
                hasher.update(b"\x00" + str(version).encode() + b"\x00")
                manifest_path = index_path.parent / str(version) / _MANIFEST
                try:
                    hasher.update(manifest_path.read_bytes())
                except OSError:
                    hasher.update(b"<missing>")
            out[index_path.parent.name] = hasher.hexdigest()
        return out

    # -- retention -----------------------------------------------------

    def gc(self, keep_latest: int = 1) -> dict[str, list[str]]:
        """Drop all but the newest ``keep_latest`` versions of every key.

        Removes the version directories, rewrites each index to its
        retained tail (publish order preserved) and moves the change
        stamp when anything was removed, so running servers reload the
        affected campaigns and drop the removed versions. Returns
        ``{dirname: [removed versions...]}``.
        """
        if keep_latest < 1:
            raise ValueError(
                f"keep_latest must be >= 1; got {keep_latest}"
            )
        removed: dict[str, list[str]] = {}
        for dirname in self._dirnames():
            index_path = self.root / dirname / _INDEX
            index = self._read_index(index_path)
            versions = index["versions"]
            drop = versions[:-keep_latest]
            if not drop:
                continue
            for version in drop:
                shutil.rmtree(self.root / dirname / version, ignore_errors=True)
            index["versions"] = versions[-keep_latest:]
            atomic_write(index_path, json.dumps(index, sort_keys=True) + "\n")
            removed[dirname] = drop
        if removed:
            self._restamp()
        emit_event(
            "registry.gc",
            keep_latest=keep_latest,
            removed=sum(len(v) for v in removed.values()),
        )
        return removed
