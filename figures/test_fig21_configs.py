"""Figure 21 — HDPAT across GPU memory-system configurations."""

from conftest import run_experiment

from repro.experiments import fig21_gpu_configs


def test_fig21_gpu_configs(cache):
    result = run_experiment(fig21_gpu_configs.run, cache)
    speedups = dict(result.rows)
    # Paper: gains on every configuration; the large-memory NVIDIA parts
    # benefit at least as much as the MI-class parts.
    for gpu, speedup in speedups.items():
        assert speedup > 1.1, gpu
    assert speedups["H100"] > speedups["MI100"] - 0.15
