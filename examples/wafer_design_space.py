#!/usr/bin/env python
"""Design-space exploration: how HDPAT's benefit scales with the wafer.

Sweeps mesh sizes from a 4-GPM MCM up to a 7x12 wafer and reports the
HDPAT speedup and IOMMU offload at each point — reproducing the paper's
core scaling argument (conventional IOMMUs handle 1-4 GPUs fine; the
bottleneck, and HDPAT's value, appears at wafer scale).

Run:
    python examples/wafer_design_space.py [scale]
"""

import sys

from repro import HDPATConfig, SystemConfig, run_benchmark
from repro.config.scaling import capacity_scaled

MESHES = [(5, 1), (3, 3), (5, 5), (7, 7), (7, 12)]
WORKLOAD = "spmv"


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.08
    print(f"{'mesh':>7} {'GPMs':>5} {'baseline cyc':>13} {'HDPAT cyc':>11} "
          f"{'speedup':>8} {'offload':>8} {'peak IOMMU queue':>17}")
    for width, height in MESHES:
        base_config = capacity_scaled(
            SystemConfig(mesh_width=width, mesh_height=height), scale
        )
        hdpat_config = base_config.with_hdpat(HDPATConfig.full())
        baseline = run_benchmark(
            base_config, WORKLOAD, scale=scale, sample_buffer_every=2000
        )
        hdpat = run_benchmark(hdpat_config, WORKLOAD, scale=scale)
        series = baseline.extras["buffer_series"]
        peak = max((value for _cycle, value in series), default=0.0)
        print(
            f"{width}x{height:<4} {base_config.num_gpms:>5} "
            f"{baseline.exec_cycles:>13,} {hdpat.exec_cycles:>11,} "
            f"{hdpat.speedup_over(baseline):>7.2f}x "
            f"{hdpat.offload_fraction():>7.1%} "
            f"{peak:>17.0f}"
        )
    print("\nThe IOMMU backlog grows superlinearly with GPM count — and "
          "so does HDPAT's payoff.")


if __name__ == "__main__":
    main()
