"""Suite-wide pytest setup.

Importing :mod:`tests.hypothesis_profiles` registers the hypothesis
example-budget profiles and loads the one named by
``HYPOTHESIS_PROFILE`` (default: ``default``) before any test module
is collected, so every ``@settings`` decorator resolves its budget
against the active profile. The ``hardened_config`` fixture is the
daemon configuration the faulted-study tests run the fail-safe under.
"""

import pytest

import tests.hypothesis_profiles  # noqa: F401


@pytest.fixture(scope="session")
def hardened_config():
    """The hardened daemon configuration faulted studies exercise:
    actuation retries bounded with exponential backoff, and the
    telemetry fail-safe engaged after three dark 10 s sampling periods.
    The stock default retries every tick forever and has no fail-safe.
    """
    from repro.core.config import LimoncelloConfig, RetryPolicy
    from repro.units import SECOND

    epoch_ns = 10 * SECOND
    return LimoncelloConfig(
        sample_period_ns=epoch_ns,
        sustain_duration_ns=3 * epoch_ns,
        retry_policy=RetryPolicy.exponential(
            max_attempts=6, initial_backoff_ns=epoch_ns),
        telemetry_failsafe_deadline_ns=3 * epoch_ns,
    )
