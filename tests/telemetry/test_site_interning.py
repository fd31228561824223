"""Span sites are interned per instrumentation point, never per span.

Each instrumented component interns its span sites once
(:meth:`Telemetry.site`) and then opens spans by site code.  A traced
run twice as long must therefore make exactly as many ``site`` calls:
the count is read from :mod:`cProfile` (not host time), so it is exact
and noise-free.
"""

import cProfile
import pstats

from repro.cluster import run_cluster_load
from repro.telemetry.spans import Telemetry


def _site_calls(n_requests: int):
    """``Telemetry.site`` calls and spans of one traced sharded load."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_cluster_load(n_shards=2, n_clients=3,
                                  n_requests=n_requests, n_server_hosts=3,
                                  seed=2, telemetry=True)
    finally:
        profile.disable()
    code = Telemetry.site.__code__
    calls = sum(row[1] for (filename, line, function), row
                in pstats.Stats(profile).stats.items()
                if (filename, line, function)
                == (code.co_filename, code.co_firstlineno, code.co_name))
    return calls, result.telemetry


def test_site_is_called_per_site_not_per_span():
    short_calls, short = _site_calls(20)
    long_calls, long = _site_calls(40)
    assert short.dropped == long.dropped == 0
    assert len(long.spans) > 1.9 * len(short.spans)
    assert short_calls > 0
    assert long_calls == short_calls
