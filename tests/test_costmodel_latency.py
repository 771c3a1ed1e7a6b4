"""Tests for the phase-aware latency regression (Sec. IV-A)."""

import numpy as np
import pytest

from repro.costmodel import (
    LatencyCostModel,
    decode_features,
    fit_phase,
    prefill_features,
    relative_errors,
)
from repro.simgpu import LatencySample, Profiler, layer_time


def test_feature_vectors():
    f = prefill_features(4, 128)
    assert np.allclose(f, [1, 4, 128, 512, 65536])
    g = decode_features(4, 600)
    assert np.allclose(g, [1, 4, 2400, 600])


def test_fit_requires_enough_samples():
    samples = [LatencySample("prefill", 16, 1, 64, 0.01)] * 4
    with pytest.raises(ValueError):
        fit_phase(samples, "prefill")


def test_fitted_keys(cost_model_13b, t4, v100):
    keys = cost_model_13b.fitted_keys()
    assert (t4.name, 4, "prefill") in keys
    assert (v100.name, 16, "decode") in keys
    assert len(keys) == 2 * 4 * 2  # gpus x bits x phases


def test_missing_key_raises(cost_model_13b, opt13b, a100):
    with pytest.raises(KeyError, match="no fitted model"):
        cost_model_13b.prefill_time(a100, 16, 4, 128)


def test_refit_of_fitted_entry_rejected(opt13b, t4, v100):
    """A fitted entry never changes: the simulators memoize durations
    per cost model, so a refit in place would serve stale timings."""
    cm = LatencyCostModel(opt13b).fit([t4], (4,), Profiler(seed=0))
    before = cm.prefill_time(t4, 4, 8, 512)
    with pytest.raises(ValueError, match="already fitted"):
        cm.fit([t4], (4,), Profiler(seed=1))
    assert cm.prefill_time(t4, 4, 8, 512) == before
    # A new GPU (or bitwidth) still fits into the fitted model.
    cm.fit([v100], (4,), Profiler(seed=1))
    cm.fit([t4], (8,), Profiler(seed=1))
    assert cm.fitted_keys() == sorted(
        (g.name, b, ph)
        for g, b in ((t4, 4), (v100, 4), (t4, 8))
        for ph in ("prefill", "decode")
    )
    assert cm.prefill_time(t4, 4, 8, 512) == before


def test_in_grid_accuracy(cost_model_13b, opt13b, v100):
    truth = layer_time(v100, opt13b, 16, "prefill", 8, 512)
    pred = cost_model_13b.prefill_time(v100, 16, 8, 512)
    assert abs(pred - truth) / truth < 0.05


def test_off_grid_accuracy(cost_model_13b, opt13b, v100):
    """Workloads never profiled (paper's 50 unseen workloads)."""
    for v, s in ((3, 384), (5, 768), (7, 384)):
        for phase in ("prefill", "decode"):
            truth = layer_time(v100, opt13b, 16, phase, v, s)
            pred = (
                cost_model_13b.prefill_time(v100, 16, v, s)
                if phase == "prefill"
                else cost_model_13b.decode_time(v100, 16, v, s)
            )
            assert abs(pred - truth) / truth < 0.08, (v, s, phase)


def test_relative_errors_under_paper_threshold(cost_model_13b, v100):
    """Fig. 8: mean latency error below 6%."""
    rng = np.random.default_rng(0)
    wl = [(int(rng.choice([3, 5, 7])), int(rng.choice([384, 768])))
          for _ in range(50)]
    prof = Profiler(seed=77)
    for phase in ("prefill", "decode"):
        errs = relative_errors(cost_model_13b, v100, 16, phase, wl, prof)
        assert errs.mean() < 0.06


def test_decode_extrapolates_to_long_context(cost_model_13b, opt13b, v100):
    """Contexts past the grid must stay accurate (LooGLE regime)."""
    truth = layer_time(v100, opt13b, 16, "decode", 4, 40_000)
    pred = cost_model_13b.decode_time(v100, 16, 4, 40_000)
    assert abs(pred - truth) / truth < 0.15


def test_predictions_non_negative(cost_model_13b, v100):
    assert cost_model_13b.prefill_time(v100, 16, 1, 1) >= 0.0
    assert cost_model_13b.decode_time(v100, 16, 1, 1) >= 0.0


def test_prediction_monotone_in_batch(cost_model_13b, v100):
    a = cost_model_13b.prefill_time(v100, 16, 2, 512)
    b = cost_model_13b.prefill_time(v100, 16, 16, 512)
    assert b > a


def test_quantized_decode_predicted_faster(cost_model_13b, v100):
    fp16 = cost_model_13b.decode_time(v100, 16, 8, 512)
    four = cost_model_13b.decode_time(v100, 4, 8, 512)
    assert four < fp16
