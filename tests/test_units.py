"""Tests for repro.units."""

import pytest

from repro import units


class TestSizes:
    def test_kb_mb_gb_ratios(self):
        assert units.MB == 1024 * units.KB
        assert units.GB == 1024 * units.MB

    def test_cache_line_is_64_bytes(self):
        assert units.CACHE_LINE_BYTES == 64


class TestTime:
    def test_second_in_ns(self):
        assert units.SECOND == 1e9

    def test_seconds_round_trip(self):
        assert units.seconds(2.5) / units.SECOND == pytest.approx(2.5)

    def test_minute(self):
        assert units.MINUTE == 60 * units.SECOND


class TestCacheLines:
    def test_exact_multiple(self):
        assert units.cache_lines(128) == 2

    def test_rounds_up(self):
        assert units.cache_lines(1) == 1
        assert units.cache_lines(65) == 2

    def test_zero_bytes_is_zero_lines(self):
        assert units.cache_lines(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            units.cache_lines(-1)

    def test_custom_line_size(self):
        assert units.cache_lines(256, line_bytes=128) == 2


class TestLineAddress:
    def test_aligned_address_unchanged(self):
        assert units.line_address(0x1000) == 0x1000

    def test_rounds_down(self):
        assert units.line_address(0x1001) == 0x1000
        assert units.line_address(0x103F) == 0x1000
        assert units.line_address(0x1040) == 0x1040
