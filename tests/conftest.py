"""Shared fixtures.

Campaign collection is the expensive part of most end-to-end tests, so
small representative campaigns are built once per session.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import GTX480, GTX580, K20M, Campaign, MatMulKernel, NeedlemanWunschKernel, ReductionKernel


@pytest.fixture()
def crash_before_rename(monkeypatch):
    """Context-manager factory: inside ``crash_before_rename(name)``,
    :func:`repro.io.atomic_write` dies after writing and fsyncing
    ``name.tmp`` but before renaming it over ``name`` — the state a
    power cut at that instant leaves on disk."""

    @contextmanager
    def crash(name):
        real = os.replace

        def replace(src, dst):
            if Path(dst).name == name:
                raise OSError(f"simulated crash before {name} was renamed")
            real(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", replace)
            yield

    return crash


@pytest.fixture(scope="session")
def reduce1_campaign():
    sizes = [int(s) for s in np.round(np.logspace(14, 24, 44, base=2.0))]
    return Campaign(ReductionKernel(1), GTX580, rng=0).run(problems=sizes)


@pytest.fixture(scope="session")
def reduce2_campaign():
    sizes = [int(s) for s in np.round(np.logspace(14, 24, 44, base=2.0))]
    return Campaign(ReductionKernel(2), GTX580, rng=0).run(problems=sizes)


@pytest.fixture(scope="session")
def matmul_campaign():
    sizes = [32, 48, 80, 128, 176, 256, 368, 512, 640, 768, 896, 1024]
    return Campaign(MatMulKernel(), GTX580, rng=0).run(problems=sizes, replicates=3)


@pytest.fixture(scope="session")
def matmul_campaign_gtx480():
    sizes = [32, 48, 80, 128, 176, 256, 368, 512, 640, 768, 896, 1024]
    return Campaign(MatMulKernel(), GTX480, rng=7).run(problems=sizes, replicates=3)


@pytest.fixture(scope="session")
def matmul_campaign_k20m():
    sizes = [32, 48, 80, 128, 176, 256, 368, 512, 640, 768, 896, 1024]
    return Campaign(MatMulKernel(), K20M, rng=1).run(problems=sizes, replicates=3)


@pytest.fixture(scope="session")
def nw_campaign():
    sizes = list(range(64, 2049, 128))
    return Campaign(NeedlemanWunschKernel(), GTX580, rng=0).run(problems=sizes)


@pytest.fixture(scope="session")
def nw_campaign_k20m():
    sizes = list(range(64, 2049, 128))
    return Campaign(NeedlemanWunschKernel(), K20M, rng=1).run(problems=sizes)
