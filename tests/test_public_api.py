"""Snapshot of the public API surface.

The exported-name lists below are a deliberate contract: adding a name
is fine (update the snapshot in the same PR, with review), but a name
disappearing or moving is an API break and must fail loudly here rather
than in a downstream import.
"""

import warnings

import pytest

import repro
import repro.core
import repro.faults
import repro.obs
import repro.profiling

CORE_EXPORTS = [
    "BlackForest",
    "BlackForestFit",
    "BottleneckFinding",
    "BottleneckPattern",
    "CampaignKey",
    "CounterModel",
    "CounterModelSet",
    "FitArtifact",
    "HardwareScalingFit",
    "HardwareScalingPredictor",
    "HardwareScalingResult",
    "HeterogeneousPartitioner",
    "ImportanceRanking",
    "PATTERNS",
    "PartitionPlan",
    "PredictionReport",
    "Predictor",
    "ProblemScalingFit",
    "ProblemScalingPredictor",
    "RunStore",
    "bottleneck_report",
    "common_predictors",
    "detect_bottlenecks",
    "fit_summary",
    "importance_similarity",
    "induced_counter_ranking",
    "mixed_variable_set",
    "per_arch_importance",
    "predict_many",
    "prediction_report_text",
    "rank_importance",
    "rank_similarity",
    "reduced_model_check",
    "safe_component",
    "shard_of",
    "stacked_predict",
]

PROFILING_EXPORTS = [
    "Campaign",
    "CampaignCheckpoint",
    "CampaignKey",
    "CampaignResult",
    "CheckpointMismatch",
    "ProfileRepository",
    "Profiler",
    "QuarantinedRun",
    "RepositoryIntegrityError",
    "RunRecord",
]

FAULTS_EXPORTS = [
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "LaunchTimeout",
    "RetryPolicy",
    "SITES",
    "WorkerCrash",
    "active_plan",
    "call_with_retry",
    "fault_injection",
    "should_inject",
]

OBS_EXPORTS = [
    "Event",
    "EventLog",
    "FlightRecorder",
    "LogHistogram",
    "Manifest",
    "MetricsRegistry",
    "Report",
    "ReportSection",
    "SpanRecord",
    "TelemetryExporter",
    "Tracer",
    "append_history",
    "build_manifest",
    "build_report",
    "child_event_log",
    "child_trace",
    "collect",
    "compare_results",
    "current_event_log",
    "current_metrics",
    "current_tracer",
    "emit",
    "event_log",
    "event_log_enabled",
    "git_revision",
    "inc",
    "metrics_enabled",
    "observe",
    "read_events",
    "read_flightrec",
    "read_history",
    "read_telemetry",
    "render_prometheus",
    "render_text_tree",
    "set_gauge",
    "snapshot_doc",
    "span",
    "span_totals",
    "timer",
    "to_chrome_trace",
    "trace",
    "tracing_enabled",
]


class TestExportSnapshots:
    def test_core_exports(self):
        assert sorted(repro.core.__all__) == CORE_EXPORTS

    def test_profiling_exports(self):
        assert sorted(repro.profiling.__all__) == PROFILING_EXPORTS

    def test_obs_exports(self):
        assert sorted(repro.obs.__all__) == OBS_EXPORTS

    def test_faults_exports(self):
        assert sorted(repro.faults.__all__) == FAULTS_EXPORTS

    @pytest.mark.parametrize("module,names", [
        (repro.core, CORE_EXPORTS),
        (repro.profiling, PROFILING_EXPORTS),
        (repro.obs, OBS_EXPORTS),
        (repro.faults, FAULTS_EXPORTS),
    ], ids=["core", "profiling", "obs", "faults"])
    def test_every_export_resolves(self, module, names):
        for name in names:
            assert getattr(module, name) is not None, name

    def test_top_level_reexports_protocol_types(self):
        for name in ("Predictor", "FitArtifact", "CampaignKey",
                     "ProfileRepository", "ProblemScalingFit",
                     "HardwareScalingFit"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_no_deprecated_names_in_all(self):
        import repro.profiling.repository

        for module in (repro, repro.profiling, repro.profiling.repository):
            assert "Repository" not in getattr(module, "__all__", [])
            with pytest.raises(AttributeError):
                module.Repository


class TestProtocolConformance:
    """Every pipeline predictor satisfies the unified protocol shape."""

    @pytest.mark.parametrize("cls", [
        repro.BlackForest,
        repro.ProblemScalingPredictor,
        repro.HardwareScalingPredictor,
    ])
    def test_predictor_surface(self, cls):
        for method in ("fit", "predict", "assess"):
            assert callable(getattr(cls, method)), (cls.__name__, method)

    @pytest.mark.parametrize("cls", [
        repro.BlackForestFit,
        repro.ProblemScalingFit,
        repro.HardwareScalingFit,
    ])
    def test_fit_artifact_surface(self, cls):
        for method in ("predict", "assess", "report"):
            assert callable(getattr(cls, method)), (cls.__name__, method)

    def test_star_import_emits_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            namespace: dict = {}
            exec("from repro import *", namespace)
        assert "BlackForest" in namespace
        assert "Repository" not in namespace

    def test_removed_spellings_raise(self, tmp_path):
        with pytest.raises(TypeError):
            repro.BlackForest().fit(None, True)
        with pytest.raises(TypeError):
            repro.ProblemScalingPredictor(None, "size")
        with pytest.raises(TypeError):
            repro.HardwareScalingPredictor().fit(None, ["size"])
        with pytest.raises(TypeError):
            repro.ProfileRepository(tmp_path).load("vectorAdd", "GTX580")
        for alias in ("fit_", "retained_", "forest_", "counter_models_"):
            assert not hasattr(repro.ProblemScalingFit, alias)
