"""Roofline analysis over simulated profiles.

A complement to the statistical pipeline: the roofline model places a
kernel by its *operational intensity* (flops per DRAM byte) against the
architecture's compute and bandwidth ceilings, giving an immediate
visual answer to "is this kernel compute- or bandwidth-limited and how
far from the ceiling does it run?". BlackForest's counters contain
everything needed to compute it, so the roofline doubles as a sanity
check on the bottleneck patterns the forest detects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import GPUArchitecture
from .simulator import GPUSimulator

__all__ = ["RooflinePoint", "roofline_point", "attainable_gflops", "roofline_chart"]


@dataclass
class RooflinePoint:
    """One kernel's position under the roofline."""

    name: str
    operational_intensity: float   # flops / DRAM byte
    achieved_gflops: float
    attainable_gflops: float
    peak_gflops: float
    ridge_intensity: float         # where bandwidth meets compute

    @property
    def bound(self) -> str:
        """'bandwidth' left of the ridge, 'compute' right of it."""
        return (
            "bandwidth"
            if self.operational_intensity < self.ridge_intensity
            else "compute"
        )

    @property
    def ceiling_fraction(self) -> float:
        """Achieved fraction of the attainable ceiling at this intensity."""
        if self.attainable_gflops <= 0:
            return 0.0
        return self.achieved_gflops / self.attainable_gflops


def attainable_gflops(arch: GPUArchitecture, intensity: float) -> float:
    """min(peak compute, intensity x bandwidth) — the roofline itself."""
    if intensity < 0:
        raise ValueError("operational intensity must be >= 0")
    return float(min(arch.peak_gflops_sp, intensity * arch.mem_bandwidth_gbs))


def roofline_point(
    kernel, problem, arch: GPUArchitecture, name: str | None = None
) -> RooflinePoint:
    """Place one kernel/problem on the architecture's roofline.

    Flops are taken from the workload's FMA count (2 flops each) plus
    one flop per other arithmetic warp instruction; DRAM bytes from the
    simulated memory traffic.
    """
    workloads = kernel.workloads(problem, arch)
    total = GPUSimulator(arch).run_totals(workloads)

    flops = 0.0
    for wl in workloads:
        lanes = wl.avg_active_threads
        flops += wl.fma_instructions * 2.0 * lanes
        flops += (wl.arithmetic_instructions - wl.fma_instructions) * lanes
    dram_bytes = total["dram_read_bytes"] + total["dram_write_bytes"]
    time_s = total["time_s"]

    intensity = flops / dram_bytes if dram_bytes > 0 else np.inf
    achieved = flops / time_s / 1e9 if time_s > 0 else 0.0
    ridge = arch.peak_gflops_sp / arch.mem_bandwidth_gbs
    return RooflinePoint(
        name=name if name is not None else getattr(kernel, "name", "kernel"),
        operational_intensity=float(intensity),
        achieved_gflops=float(achieved),
        attainable_gflops=attainable_gflops(
            arch, min(intensity, 1e9)
        ),
        peak_gflops=arch.peak_gflops_sp,
        ridge_intensity=float(ridge),
    )


def roofline_chart(
    points: list[RooflinePoint], arch: GPUArchitecture, width: int = 64,
    height: int = 16,
) -> str:
    """ASCII log-log roofline with kernel markers."""
    if not points:
        raise ValueError("no points to chart")
    xs = [max(p.operational_intensity, 1e-3) for p in points]
    x_lo = min(min(xs) / 2, 0.1)
    x_hi = max(max(xs) * 2, arch.peak_gflops_sp / arch.mem_bandwidth_gbs * 4)
    y_hi = arch.peak_gflops_sp * 1.5
    y_lo = min(min(max(p.achieved_gflops, 1e-2) for p in points) / 2,
               x_lo * arch.mem_bandwidth_gbs)

    def col(x):
        return int((np.log10(x) - np.log10(x_lo))
                   / (np.log10(x_hi) - np.log10(x_lo)) * (width - 1))

    def row(y):
        return height - 1 - int(
            (np.log10(y) - np.log10(y_lo))
            / (np.log10(y_hi) - np.log10(y_lo)) * (height - 1)
        )

    grid = [[" "] * width for _ in range(height)]
    # the roof
    for c in range(width):
        x = 10 ** (np.log10(x_lo) + c / (width - 1)
                   * (np.log10(x_hi) - np.log10(x_lo)))
        y = attainable_gflops(arch, x)
        r = row(max(min(y, y_hi), y_lo))
        if 0 <= r < height:
            grid[r][c] = "-" if y >= arch.peak_gflops_sp else "/"
    # the kernels
    markers = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    for i, p in enumerate(points):
        c = min(max(col(max(p.operational_intensity, x_lo)), 0), width - 1)
        r = min(max(row(max(p.achieved_gflops, y_lo)), 0), height - 1)
        grid[r][c] = markers[i % len(markers)]

    lines = [f"Roofline: {arch.name} "
             f"(peak {arch.peak_gflops_sp:.0f} GF/s, "
             f"{arch.mem_bandwidth_gbs:.0f} GB/s)"]
    lines.extend("|" + "".join(r) for r in grid)
    lines.append("+" + "-" * width)
    lines.append("  intensity (flops/byte, log) ->")
    for i, p in enumerate(points):
        lines.append(
            f"  {markers[i % len(markers)]}: {p.name}  "
            f"I={p.operational_intensity:.2f}  "
            f"{p.achieved_gflops:.1f}/{p.attainable_gflops:.1f} GF/s "
            f"({p.bound}-bound, {100 * p.ceiling_fraction:.0f}% of ceiling)"
        )
    return "\n".join(lines)
