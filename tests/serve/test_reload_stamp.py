"""The registry's root change stamp and the server's stamp-gated watch.

A serve pass reads one small file while nothing was published; the
per-campaign digests and the "latest" versions are re-read only after
a publish or gc moved the stamp.
"""

import json

import numpy as np

from repro.profiling import CampaignKey
from repro.serve import FitRegistry, PredictionServer

from .conftest import FEATURES, make_servable

KEY = CampaignKey("gemm", "volta")


def _predict(server, rid, version=None):
    params = {
        "kernel": "gemm",
        "arch": "volta",
        "X": np.random.default_rng(7).uniform(size=(1, len(FEATURES))).tolist(),
    }
    if version is not None:
        params["version"] = version
    line = json.dumps({"id": rid, "method": "predict", "params": params})
    return json.loads(server.handle_batch([line])[0])


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(FitRegistry, name)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FitRegistry, name, counted)
    return calls


class TestStamp:
    def test_publish_writes_the_stamp_last(self, tmp_path, monkeypatch):
        import repro.serve.registry as registry_mod

        written = []
        real = registry_mod.atomic_write

        def recording(path, data):
            written.append(path.name)
            real(path, data)

        monkeypatch.setattr(registry_mod, "atomic_write", recording)
        FitRegistry(tmp_path).publish(make_servable(trees=4))
        assert written == ["fit.json", "manifest.json", "index.json", "stamp"]

    def test_every_publish_moves_the_stamp(self, tmp_path, servable):
        reg = FitRegistry(tmp_path)
        assert reg.change_stamp() is None
        seen = set()
        for _ in range(3):
            reg.publish(servable)  # idempotent re-publish still moves it
            seen.add(reg.change_stamp())
        assert len(seen) == 3 and None not in seen

    def test_gc_moves_the_stamp_only_when_it_removes(self, tmp_path):
        reg = FitRegistry(tmp_path)
        reg.publish(make_servable(seed=0, trees=4))
        before = reg.change_stamp()
        assert reg.gc(keep_latest=1) == {}
        assert reg.change_stamp() == before
        reg.publish(make_servable(seed=1, trees=4))
        before = reg.change_stamp()
        assert reg.gc(keep_latest=1)
        assert reg.change_stamp() != before


class TestStampGatedWatch:
    def test_idle_passes_touch_no_digest_or_index(
        self, tmp_path, monkeypatch
    ):
        reg = FitRegistry(tmp_path)
        reg.publish(make_servable(seed=0))
        watches = _count_calls(monkeypatch, "watch_digests")
        resolves = _count_calls(monkeypatch, "resolve_version")
        server = PredictionServer(reg)
        for i in range(200):
            assert "result" in _predict(server, i)
        # Both happen once, on the priming pass ("latest" lookups only:
        # the one cache-miss load resolves its explicit version too).
        assert len(watches) == 1
        assert [args for args in resolves if len(args) == 1] == [(KEY,)]

    def test_missing_stamp_is_a_value_like_any_other(
        self, tmp_path, monkeypatch
    ):
        reg = FitRegistry(tmp_path)
        reg.publish(make_servable(seed=0))
        (tmp_path / "stamp").unlink()
        watches = _count_calls(monkeypatch, "watch_digests")
        server = PredictionServer(reg)
        for i in range(20):
            assert "result" in _predict(server, i)
        assert len(watches) == 1
        v2 = reg.publish(make_servable(seed=1))
        assert _predict(server, "after")["result"]["version"] == v2.version
        assert len(watches) == 2

    def test_publish_between_stamp_and_digest_read_is_seen(
        self, tmp_path, monkeypatch
    ):
        reg = FitRegistry(tmp_path)
        reg.publish(make_servable(seed=0))
        server = PredictionServer(reg)
        _predict(server, "prime")
        v2 = reg.publish(make_servable(seed=1))  # moves the stamp

        real = FitRegistry.watch_digests
        late, watches = [], []

        def publish_then_digest(self):
            # The pass has read v2's stamp; v3 lands before the digests.
            watches.append(1)
            if not late:
                late.append(reg.publish(make_servable(seed=2)))
            return real(self)

        monkeypatch.setattr(FitRegistry, "watch_digests", publish_then_digest)
        first = _predict(server, "racing")
        assert first["result"]["version"] in (v2.version, late[0].version)
        # The stamp recorded is v2's, read before the digests, so the
        # next pass sees v3's stamp as a change and watches again.
        second = _predict(server, "next")
        assert second["result"]["version"] == late[0].version
        assert len(watches) == 2
        _predict(server, "settled")
        assert len(watches) == 2

    def test_gc_without_cache_drops_removed_versions(self, tmp_path):
        reg = FitRegistry(tmp_path)
        v1 = reg.publish(make_servable(seed=0))
        v2 = reg.publish(make_servable(seed=1))
        server = PredictionServer(reg)
        assert _predict(server, "new")["result"]["version"] == v2.version
        old = _predict(server, "old", version=v1.version)
        assert old["result"]["version"] == v1.version  # v1 now cached
        reg.gc(keep_latest=1)  # the server must notice alone
        gone = _predict(server, "gone", version=v1.version)
        assert gone["error"]["kind"] == "model_not_found"
        assert _predict(server, "kept")["result"]["version"] == v2.version

    def test_hand_edit_without_publish_is_not_watched(self, tmp_path):
        reg = FitRegistry(tmp_path)
        v1 = reg.publish(make_servable(seed=0))
        server = PredictionServer(reg)
        assert "result" in _predict(server, "warm")
        vdir = tmp_path / KEY.dirname / v1.version
        manifest = json.loads((vdir / "manifest.json").read_text())
        manifest["config"]["note"] = "edited by hand"
        (vdir / "manifest.json").write_text(json.dumps(manifest))
        fit = vdir / "fit.json"
        fit.write_text(fit.read_text().replace("0.", "1.", 1))

        assert "result" in _predict(server, "still-warm")
        assert server.metrics.counters.get(("serve.reloads",), 0) == 0
        # A forced re-load re-verifies and refuses the damaged artifact.
        server.cache.invalidate_key(KEY.dirname)
        refused = _predict(server, "forced")
        assert refused["error"]["kind"] == "registry_corrupt"
        assert "BF610" in refused["error"]["message"]
        assert reg.verify(KEY)
