"""Profiling layer: the nvprof-equivalent data-collection toolchain.

:class:`Profiler` plays nvprof's role over the simulator,
:class:`Campaign` drives problem-characteristic sweeps, and
:class:`ProfileRepository` is the paper's "structured repository" for
the collected data, addressed by :class:`CampaignKey`.
"""

from .campaign import Campaign, CampaignResult, QuarantinedRun
from .checkpoint import CampaignCheckpoint, CheckpointMismatch
from .profiler import Profiler, RunRecord
from .repository import CampaignKey, ProfileRepository, RepositoryIntegrityError

__all__ = [
    "Campaign",
    "CampaignCheckpoint",
    "CampaignResult",
    "CheckpointMismatch",
    "Profiler",
    "QuarantinedRun",
    "RunRecord",
    "CampaignKey",
    "ProfileRepository",
    "RepositoryIntegrityError",
]

