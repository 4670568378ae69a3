"""Hypothesis when it is installed; stand-ins that skip without it.

Tier-1 collection must not depend on hypothesis.  Test modules import
``given``, ``settings``, ``strategies`` and ``HealthCheck`` from here
instead of from hypothesis: with hypothesis installed these *are*
hypothesis's; without it, strategy and settings expressions evaluate to
inert placeholders, every ``@given`` test skips through
``pytest.importorskip("hypothesis")``, and the module's plain tests run
as usual.
"""

import pytest

try:
    from hypothesis import HealthCheck, given, settings, strategies
except ImportError:

    class _Absent:
        """Absorbs the strategy and health-check expressions a module
        builds at import time (``st.integers(0, 5).map(f)``, ...)."""

        def __getattr__(self, name):
            if name.startswith("__"):
                raise AttributeError(name)
            return self

        def __call__(self, *args, **kwargs):
            return self

    HealthCheck = strategies = _Absent()

    def settings(*args, **kwargs):
        return lambda test: test

    def given(*args, **kwargs):
        def decorate(test):
            # A parameterless stand-in, so pytest asks for no fixtures
            # named after the strategy arguments.
            def skipped():
                pytest.importorskip("hypothesis")

            skipped.__name__ = test.__name__
            skipped.__qualname__ = test.__qualname__
            skipped.__module__ = test.__module__
            skipped.__doc__ = test.__doc__
            return skipped

        return decorate
