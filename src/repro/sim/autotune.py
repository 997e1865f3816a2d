"""Compatibility stub for the end-to-end benchmark's ``serve-2lane`` runner.

The execution policy needs no machine measurement:
:func:`~repro.sim.workerpool.resolve_execution` decides every tier and
thread count from the request and the usable core count.  The benchmark
still builds ``JobService(profile=static_profile(), ...)``; this module
and ``JobService``'s ``profile`` parameter are removable once it stops.
"""

from __future__ import annotations


def static_profile() -> None:
    """``None``: there is no machine profile to pass."""
    return None
