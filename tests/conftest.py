"""Shared pytest configuration for the suite."""

from hypothesis import HealthCheck, Phase, settings

# Numeric property tests occasionally cross hypothesis' default per-example
# deadline on loaded CI machines; wall-clock budgets are enforced per test
# module instead.  A failure is reported as first found, unshrunk: shrinking
# is unbounded, and a property whose every example raises (a solver guard
# tripping on every scan) would stall the run for minutes before it printed.
# The printed blob replays the failing example with ``@reproduce_failure``.
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    print_blob=True,
)
settings.load_profile("suite")
