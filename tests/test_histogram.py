"""Tests for fixed-bucket histograms and their RunRecord integration."""

import pytest

from repro import obs
from repro.obs import Histogram, RunRecord
from repro.obs.histogram import DEFAULT_BOUNDS


class TestBucketMath:
    def test_bounds_are_a_1_2_5_ladder(self):
        assert DEFAULT_BOUNDS == tuple(sorted(DEFAULT_BOUNDS))
        assert 1e-3 in DEFAULT_BOUNDS
        assert 2e-3 in DEFAULT_BOUNDS
        assert 5e-3 in DEFAULT_BOUNDS

    def test_observation_lands_in_first_bucket_at_or_above(self):
        h = Histogram()
        h.observe(3e-3)  # between 2e-3 and 5e-3 -> the 5e-3 bucket
        data = h.to_dict()
        filled = [(bound, n) for bound, n in data["buckets"] if n]
        assert filled == [[5e-3, 1]] or filled == [(5e-3, 1)]

    def test_boundary_value_goes_to_its_own_bucket(self):
        h = Histogram()
        h.observe(1e-3)  # exactly a bound -> counted in that bucket
        filled = [bound for bound, n in h.to_dict()["buckets"] if n]
        assert filled == [1e-3]

    def test_overflow_bucket_is_unbounded(self):
        h = Histogram()
        h.observe(1e9)
        filled = [bound for bound, n in h.to_dict()["buckets"] if n]
        assert filled == [None]

    def test_count_sum_min_max_mean(self):
        h = Histogram()
        for value in (0.01, 0.02, 0.03):
            h.observe(value)
        data = h.to_dict()
        assert data["count"] == 3
        assert data["sum"] == pytest.approx(0.06)
        assert data["min"] == 0.01
        assert data["max"] == 0.03
        assert data["mean"] == pytest.approx(0.02)


class TestQuantiles:
    def test_single_observation_is_exact(self):
        h = Histogram()
        h.observe(0.042)
        data = h.to_dict()
        assert data["p50"] == 0.042
        assert data["p99"] == 0.042

    def test_single_observation_exact_at_every_q(self):
        # Exactness must be structural, not an artifact of min == max
        # clamping: every quantile of one sample *is* that sample, even at
        # q = 0 and q = 1 and for values far inside a wide bucket.
        h = Histogram()
        h.observe(3.7e3)  # deep inside the (2e3, 5e3] bucket
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert h.quantile(q) == 3.7e3

    def test_zero_observations_raise(self):
        with pytest.raises(ValueError, match="empty"):
            Histogram().quantile(0.5)

    def test_two_observations_stay_within_range(self):
        h = Histogram()
        h.observe(1e-6)
        h.observe(4e3)  # opposite ends of the bucket ladder
        for q in (0.0, 0.5, 1.0):
            assert 1e-6 <= h.quantile(q) <= 4e3

    def test_quantile_fraction_is_validated(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError, match="fraction"):
            h.quantile(-0.1)
        with pytest.raises(ValueError, match="fraction"):
            h.quantile(1.5)

    def test_quantiles_clamp_to_observed_range(self):
        h = Histogram()
        for value in (0.011, 0.019):
            h.observe(value)
        data = h.to_dict()
        assert 0.011 <= data["p50"] <= 0.019
        assert 0.011 <= data["p99"] <= 0.019

    def test_p99_dominates_p50_on_skewed_data(self):
        h = Histogram()
        for _ in range(90):
            h.observe(1e-4)
        for _ in range(10):
            h.observe(1.0)
        data = h.to_dict()
        assert data["p50"] < 1e-3
        assert data["p99"] > 1e-2

    def test_empty_histogram_has_null_summaries(self):
        data = Histogram().to_dict()
        assert data["count"] == 0
        assert data["p50"] is None
        assert data["p99"] is None


class TestMergeAndRoundTrip:
    def test_round_trip(self):
        h = Histogram()
        for value in (0.001, 0.5, 30.0):
            h.observe(value)
        clone = Histogram.from_dict(h.to_dict())
        assert clone.to_dict() == h.to_dict()

    def test_merge_sums_counts(self):
        a, b = Histogram(), Histogram()
        a.observe(0.01)
        b.observe(10.0)
        a.merge(b)
        data = a.to_dict()
        assert data["count"] == 2
        assert data["min"] == 0.01
        assert data["max"] == 10.0


class TestRecordingIntegration:
    def test_observe_feeds_the_active_recording(self):
        with obs.record("run") as recording:
            obs.observe("latency_s", 0.002)
            obs.observe("latency_s", 0.004)
        record = recording.to_run_record()
        data = record.histograms["latency_s"]
        assert data["count"] == 2
        assert data["p50"] is not None and data["p99"] is not None

    def test_observe_is_noop_when_disabled(self):
        obs.observe("latency_s", 1.0)  # must not raise, must not record
        assert obs.active() is None

    def test_schema_v2_round_trip(self):
        with obs.record("run") as recording:
            obs.observe("x_s", 0.1)
        record = recording.to_run_record()
        data = record.to_dict()
        assert data["schema_version"] == 2
        assert data["trace_id"]
        clone = RunRecord.from_dict(data)
        assert clone.histograms == record.histograms
        assert clone.trace_id == record.trace_id

    def test_unknown_schema_version_rejected(self):
        for version in (1, 99):
            with pytest.raises(ValueError, match="schema version"):
                RunRecord.from_dict({"schema_version": version, "name": "x",
                                     "duration_s": 0.0})

    def test_summary_renders_histogram_lines(self):
        with obs.record("run") as recording:
            obs.observe("slow_s", 0.25)
            obs.observe("sizes", 12)
        text = recording.to_run_record().summary()
        assert "histograms:" in text
        assert "slow_s" in text and "ms" in text
        assert "sizes" in text
