"""Unit tests for the arrival predictor: EWMA rate, idle decay, and
the nearest-rank inter-arrival percentile."""

import pytest

from repro.warmpath.predictor import GAP_BUCKETS, ArrivalPredictor


def test_unknown_function_predicts_zero():
    predictor = ArrivalPredictor()
    assert predictor.predicted_rps("ghost", now=10.0) == 0.0
    assert predictor.gap_percentile("ghost", 99.0) is None
    assert predictor.stats("ghost") is None


def test_single_arrival_has_no_rate_yet():
    predictor = ArrivalPredictor()
    predictor.observe("f", 1.0)
    assert predictor.predicted_rps("f", now=1.0) == 0.0
    assert predictor.gap_percentile("f", 50.0) is None


def test_ewma_converges_to_steady_rate():
    predictor = ArrivalPredictor(alpha=0.3)
    for i in range(30):
        predictor.observe("f", i * 0.1)  # 10 rps
    assert predictor.predicted_rps("f", now=2.9) == pytest.approx(10.0)


def test_prediction_decays_once_idle():
    predictor = ArrivalPredictor()
    for i in range(30):
        predictor.observe("f", i * 0.1)
    last = 2.9
    # Idle for many gap lengths: the prediction caps at 2 / idle.
    assert predictor.predicted_rps("f", now=last + 10.0) == pytest.approx(0.2)
    # Within one gap of the last arrival the full EWMA still applies.
    assert predictor.predicted_rps("f", now=last) == pytest.approx(10.0)


def test_same_timestep_arrivals_skip_degenerate_gap():
    predictor = ArrivalPredictor()
    predictor.observe("f", 5.0)
    predictor.observe("f", 5.0)  # gap == 0: no 1/0 sample
    stats = predictor.stats("f")
    assert stats.count == 2
    assert stats.ewma_rate == 0.0
    assert stats.gaps.count == 0


def test_gap_percentile_nearest_rank():
    predictor = ArrivalPredictor()
    now = 0.0
    predictor.observe("f", now)
    # Nine short gaps of 0.1s, then one long gap of 10s.
    for _ in range(9):
        now += 0.1
        predictor.observe("f", now)
    now += 10.0
    predictor.observe("f", now)
    # 0.1 lands in the bucket bounded by 0.1; 10.0 in the one by 10.0.
    assert predictor.gap_percentile("f", 50.0) == 0.1
    assert predictor.gap_percentile("f", 99.0) == 10.0


def test_gap_beyond_largest_bucket_reports_largest_bound():
    predictor = ArrivalPredictor()
    predictor.observe("f", 0.0)
    predictor.observe("f", 1000.0)  # far past the 120s bound
    assert predictor.gap_percentile("f", 99.0) == GAP_BUCKETS[-1]


def test_functions_listed_in_first_seen_order():
    predictor = ArrivalPredictor()
    predictor.observe("b", 0.0)
    predictor.observe("a", 1.0)
    predictor.observe("b", 2.0)
    assert predictor.functions() == ["b", "a"]


def test_invalid_alpha_rejected():
    with pytest.raises(ValueError):
        ArrivalPredictor(alpha=0.0)
    with pytest.raises(ValueError):
        ArrivalPredictor(alpha=1.5)
