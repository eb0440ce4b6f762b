"""The shared wall-clock time base for non-simulated worlds.

Every wall-clock transport (:class:`~repro.transport.socket.SocketWorld`
and the per-process :class:`~repro.runtime.cluster.DaemonWorld` built on
it) must measure time on the *same* monotonic clock: GC leases,
heartbeat deadlines and reconnect backoff all compare timestamps
produced by different components, and a
mixture of ``time.monotonic`` / ``time.time`` / per-world clocks makes
those comparisons silently wrong (wall time jumps on NTP steps;
monotonic clocks from different epochs are not comparable).

``monotime`` is the one sanctioned helper.  It is intentionally
trivial -- the point is the single import site, so an audit of
"who reads the clock?" is a grep for ``monotime``.
"""

from __future__ import annotations

import time

__all__ = ["monotime"]


def monotime() -> float:
    """Seconds on the process-wide monotonic clock (epoch arbitrary,
    never steps backwards; comparable across all threads of the
    process, NOT across processes)."""
    return time.monotonic()
