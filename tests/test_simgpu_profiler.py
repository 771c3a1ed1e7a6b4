"""Tests for the noisy measurement front-end."""

import numpy as np
import pytest

from repro.models import kv_cache_bytes, weight_storage_bytes
from repro.simgpu import LatencySample, Profiler, layer_time
from repro.simgpu.profiler import LATENCY_NOISE_SIGMA


def test_measurements_near_truth(opt13b, v100):
    prof = Profiler(seed=0)
    truth = layer_time(v100, opt13b, 16, "prefill", 8, 512)
    vals = [
        prof.measure_layer(v100, opt13b, 16, "prefill", 8, 512)
        for _ in range(30)
    ]
    assert abs(np.mean(vals) - truth) / truth < 0.05
    assert np.std(vals) > 0  # it is actually noisy


def test_deterministic_per_seed(opt13b, v100):
    a = Profiler(seed=42).measure_layer(v100, opt13b, 4, "decode", 4, 256)
    b = Profiler(seed=42).measure_layer(v100, opt13b, 4, "decode", 4, 256)
    assert a == b


def test_different_seeds_differ(opt13b, v100):
    a = Profiler(seed=1).measure_layer(v100, opt13b, 4, "decode", 4, 256)
    b = Profiler(seed=2).measure_layer(v100, opt13b, 4, "decode", 4, 256)
    assert a != b


def test_profile_grid_covers_cartesian(opt13b, t4):
    prof = Profiler(seed=0)
    samples = prof.profile_grid(
        t4, opt13b, 16, "prefill", batches=(1, 2), seqs=(64, 128, 256)
    )
    assert len(samples) == 6
    assert {(s.batch, s.seq) for s in samples} == {
        (1, 64), (1, 128), (1, 256), (2, 64), (2, 128), (2, 256)
    }
    assert all(isinstance(s, LatencySample) and s.time_s > 0 for s in samples)


@pytest.mark.parametrize("phase", ["prefill", "decode"])
@pytest.mark.parametrize("bit_kv", [8, 16])
def test_profile_grid_equals_measure_layer_loop(opt13b, t4, phase, bit_kv):
    """The grid draws its noise in one call, yet returns the per-point
    measurements draw for draw and leaves the stream where they do; each
    measurement is the roofline time times the median of three draws."""
    batches, seqs = (1, 4, 32), (64, 256, 2048)
    grid, loop = Profiler(seed=5), Profiler(seed=5)
    ref = np.random.default_rng(5)
    samples = grid.profile_grid(t4, opt13b, 4, phase, batches, seqs, bit_kv)
    points = [(4, v, s) for v in batches for s in seqs] + [(8, 2, 128)]
    measured = [
        loop.measure_layer(t4, opt13b, b, phase, v, s, bit_kv)
        for b, v, s in points
    ]
    assert measured == [
        float(
            layer_time(t4, opt13b, b, phase, v, s, bit_kv)
            * np.median(ref.lognormal(0.0, LATENCY_NOISE_SIGMA, 3))
        )
        for b, v, s in points
    ]
    assert samples == [
        LatencySample(phase, b, v, s, t)
        for (b, v, s), t in zip(points[:-1], measured)
    ]
    after = grid.measure_layer(t4, opt13b, 8, phase, 2, 128, bit_kv)
    assert after == measured[-1]


def test_measure_memory_close_to_ideal(opt13b):
    prof = Profiler(seed=0)
    bits = [16, 8, 4, 3] * 3
    measured = prof.measure_memory(opt13b, bits, batch=4, context=600)
    ideal = sum(weight_storage_bytes(opt13b, b) for b in bits) + len(
        bits
    ) * kv_cache_bytes(opt13b, 4, 600)
    assert 0 <= (measured - ideal) / ideal < 0.001  # page rounding only


def test_measure_memory_monotone_in_context(opt13b):
    prof = Profiler(seed=0)
    a = prof.measure_memory(opt13b, [8] * 4, batch=4, context=300)
    b = prof.measure_memory(opt13b, [8] * 4, batch=4, context=600)
    assert b > a
