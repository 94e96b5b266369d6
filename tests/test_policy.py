"""The :class:`PolicyMetrics` stub: its merge stays additive.

The class survives only as a benchmark probe target (DESIGN.md §13);
controllers themselves are tested in ``test_core_controller.py``.
"""

from repro.policy import PolicyMetrics


class TestMetricsMerge:
    def test_merge_is_additive(self):
        left = PolicyMetrics(samples=4, disabled_samples=1,
                             band_mismatches=1, band_samples=3,
                             transitions=2,
                             prefetcher_disabled={"l1_stride": 1})
        right = PolicyMetrics(samples=6, disabled_samples=2,
                              band_mismatches=0, band_samples=5,
                              transitions=1,
                              prefetcher_disabled={"l1_stride": 2,
                                                   "l2_stream": 1})
        left.merge(right)
        assert left.samples == 10
        assert left.band_samples == 8
        assert left.prefetcher_disabled == {"l1_stride": 3, "l2_stream": 1}
