"""Shared campaign fixtures for the figure/table regeneration benches.

Every bench regenerates one table or figure of the paper from scratch:
collect the campaign (cached on disk in ``benchmarks/.cache`` — the
paper's "structured repository"), run the statistical pipeline, print
the figure's rows/series, and assert the paper's qualitative claims.

Run with:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import (
    GTX480,
    GTX580,
    K20M,
    Campaign,
    CampaignKey,
    MatMulKernel,
    NeedlemanWunschKernel,
    ProfileRepository,
    ReductionKernel,
)

_CACHE = Path(__file__).parent / ".cache"


def cached_campaign(kernel, arch, rng, problems=None, replicates=1, tag=None):
    """Collect (or reload) a campaign through the on-disk repository."""
    repo = ProfileRepository(_CACHE)
    key = CampaignKey(kernel.name, arch.name, tag=tag)
    if repo.has(key):
        return repo.load(key)
    campaign = Campaign(kernel, arch, rng=rng).run(
        problems=problems, replicates=replicates
    )
    repo.save(campaign, key=key)
    return campaign


@pytest.fixture(scope="session")
def reduce1_campaign():
    """reduce1 on GTX580 over the default ~80-length sweep."""
    return cached_campaign(ReductionKernel(1), GTX580, rng=0)


@pytest.fixture(scope="session")
def reduce2_campaign():
    return cached_campaign(ReductionKernel(2), GTX580, rng=0)


@pytest.fixture(scope="session")
def reduce6_campaign():
    return cached_campaign(ReductionKernel(6), GTX580, rng=0)


@pytest.fixture(scope="session")
def mm_campaign():
    """The paper's 24 matrix sizes, profiled three times each."""
    return cached_campaign(MatMulKernel(), GTX580, rng=0, replicates=3)


@pytest.fixture(scope="session")
def mm_campaign_gtx480():
    return cached_campaign(MatMulKernel(), GTX480, rng=7, replicates=3)


@pytest.fixture(scope="session")
def mm_campaign_k20m():
    return cached_campaign(MatMulKernel(), K20M, rng=1, replicates=3)


@pytest.fixture(scope="session")
def nw_campaign():
    """The paper's 129 sequence lengths (64..8256, pitch 64)."""
    return cached_campaign(NeedlemanWunschKernel(), GTX580, rng=0)


@pytest.fixture(scope="session")
def nw_campaign_gtx480():
    return cached_campaign(NeedlemanWunschKernel(), GTX480, rng=7)


@pytest.fixture(scope="session")
def nw_campaign_k20m():
    return cached_campaign(NeedlemanWunschKernel(), K20M, rng=1)
