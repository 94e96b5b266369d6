"""Tests for the calibration bridge between micro and fleet levels."""

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    DEFAULT_RESPONSES,
    FunctionResponse,
    ResponseTable,
    calibrate_from_simulator,
)
from repro.workloads import FUNCTION_ROSTER, FunctionCategory, TAX_CATEGORIES


class TestDefaultTable:
    def test_covers_whole_roster(self):
        for name in FUNCTION_ROSTER:
            assert name in DEFAULT_RESPONSES

    def test_tax_functions_regress_nontax_do_not(self):
        for response in DEFAULT_RESPONSES:
            if response.is_tax:
                assert response.cycle_penalty_off > 0
            elif response.name == "misc_streaming":
                # The modelled long tail of prefetch-friendly-but-cold
                # code regresses without being a Soft target (§4.1).
                assert response.cycle_penalty_off > 0
                assert response.soft_recovery == 0.0
            else:
                assert response.cycle_penalty_off <= 0

    def test_mpki_off_never_below_on(self):
        for response in DEFAULT_RESPONSES:
            assert response.mpki_off >= response.mpki_on

    def test_soft_recovery_only_for_tax(self):
        for response in DEFAULT_RESPONSES:
            if not response.is_tax:
                assert response.soft_recovery == 0.0

    def test_effective_penalty_with_soft(self):
        memcpy = DEFAULT_RESPONSES["memcpy"]
        assert memcpy.effective_penalty(soft_deployed=True) \
            < 0.2 * memcpy.effective_penalty(soft_deployed=False)

    def test_mpki_under_configurations(self):
        memcpy = DEFAULT_RESPONSES["memcpy"]
        assert memcpy.mpki(True, False) == memcpy.mpki_on
        assert memcpy.mpki(False, False) == memcpy.mpki_off
        soft = memcpy.mpki(False, True)
        assert memcpy.mpki_on <= soft < 0.2 * memcpy.mpki_off

    def test_weighted_helpers(self):
        shares = (("memcpy", 0.5), ("pointer_chase", 0.5))
        penalty, soft_penalty, overfetch = DEFAULT_RESPONSES.weighted(shares)
        assert 0 < penalty < DEFAULT_RESPONSES["memcpy"].cycle_penalty_off
        assert soft_penalty < penalty
        assert overfetch > 0

    def test_unknown_function_raises(self):
        with pytest.raises(ConfigError):
            DEFAULT_RESPONSES["nope"]

    def test_duplicate_rejected(self):
        entry = DEFAULT_RESPONSES["memcpy"]
        with pytest.raises(ConfigError):
            ResponseTable([entry, entry])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ResponseTable([])

    def test_validation(self):
        with pytest.raises(ConfigError):
            FunctionResponse("x", FunctionCategory.NON_TAX, 2.0, 0.0, 0.0,
                             1.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            FunctionResponse("x", FunctionCategory.NON_TAX, 0.1, 0.0, 0.0,
                             -1.0, 1.0, 0.0)


class TestRecalibration:
    """The default constants must agree with a fresh simulator run in
    sign and ordering (absolute values drift with simulator tuning)."""

    @pytest.fixture(scope="class")
    def fresh(self):
        return calibrate_from_simulator(seed=42)

    def test_signs_agree_with_defaults(self, fresh):
        for response in fresh:
            default = DEFAULT_RESPONSES[response.name]
            if default.is_tax or response.name == "misc_streaming":
                assert response.cycle_penalty_off > 0, response.name
            else:
                assert response.cycle_penalty_off < 0.05, response.name

    def test_tax_mpki_explodes_without_prefetchers(self, fresh):
        for response in fresh:
            if response.category in TAX_CATEGORIES \
                    and response.name not in ("memmove", "memset"):
                assert response.mpki_off > 3 * response.mpki_on, response.name

    def test_soft_recovery_high_for_streaming_tax(self, fresh):
        for name in ("memcpy", "compress", "hash", "crc32", "serialize",
                     "deserialize"):
            assert fresh[name].soft_recovery > 0.7, name

    def test_categories_match_roster(self, fresh):
        for response in fresh:
            assert response.category is FUNCTION_ROSTER[response.name].category
