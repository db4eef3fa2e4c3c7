#!/usr/bin/env python
"""Translation-trace characterisation (the paper's observations O3/O4).

Runs a benchmark on the baseline wafer, then analyses the stream of
translation requests the IOMMU saw: per-page translation counts (Fig. 6),
reuse distances (Fig. 7), and spatial locality (Fig. 8).  Use it to
understand *why* a workload does or doesn't benefit from each HDPAT
mechanism before running the full ablation.

Run:
    python examples/trace_analysis.py [benchmark] [scale]
"""

import sys

from repro import run_benchmark, wafer_7x7_config
from repro.config.scaling import capacity_scaled
from repro.stats.histogram import BucketHistogram
from repro.stats.locality import fraction_within
from repro.stats.reuse import (
    REUSE_DISTANCE_BOUNDARIES,
    fraction_short,
    fraction_single_translation,
    mean_translations_per_page,
    repeated_requests,
    reuse_fractions,
    unique_pages,
)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "pr"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.1

    config = capacity_scaled(wafer_7x7_config(), scale)
    result = run_benchmark(config, workload, scale=scale)
    # JSON summaries of the IOMMU's request-stream recorders.
    summaries = result.extras["iommu_analyzers"]

    counts = summaries["translation_counts"]
    mean = mean_translations_per_page(counts)
    single = fraction_single_translation(counts)
    print(f"=== {workload.upper()}: IOMMU translation characterisation ===")
    print(f"requests: {counts['total_requests']:,} over "
          f"{unique_pages(counts):,} pages ({mean:.2f} translations/page)")
    print(f"pages translated exactly once: {single:.1%}")

    reuse = summaries["reuse_distance"]
    labels = BucketHistogram(REUSE_DISTANCE_BOUNDARIES).labels()
    print(f"\nReuse distances ({repeated_requests(reuse):,} repeats):")
    for label, fraction in zip(labels, reuse_fractions(reuse)):
        bar = "#" * int(fraction * 40)
        print(f"  {label:>14}: {fraction:6.1%} {bar}")

    locality = summaries["spatial_locality"]
    print("\nNext-request page distance (cumulative):")
    for pages in (1, 2, 4, 16):
        print(f"  within {pages:>2} pages: {fraction_within(locality, pages):6.1%}")

    print("\nReading the tea leaves:")
    if mean > 5:
        print("  - hot shared pages re-translated many times: peer caching "
              "and redirection will serve the repeats.")
    if single > 0.8:
        print("  - single-touch pages: caching won't help, prefetch might.")
    if fraction_short(reuse, 10) > 0.2:
        print("  - many short-distance repeats: PW-queue revisit "
              "(coalescing) will catch these.")
    if fraction_within(locality, 4) > 0.15:
        print("  - strong spatial locality: proactive N+1..N+3 delivery "
              "will pay off.")
    if reuse["max"] > 10_000:
        print("  - very long reuse distances exist: small tables will "
              "evict before reuse (the MT failure mode).")


if __name__ == "__main__":
    main()
