"""``repro.obs``: the zero-dependency observability subsystem.

Two pieces, both stdlib-only:

* :mod:`~repro.obs.tracer` — span-based tracing with nesting, wall/CPU
  time, JSONL export and deterministic normalization for golden tests;
* :mod:`~repro.obs.report` — the text flame summary behind
  ``scripts/trace_report.py``.

Counts live on spans and on the returned result objects.  A span's
count and wall time say how often a phase ran and for how long; its
attributes carry the counts of one run (events, requests completed or
rejected, the re-schedule action), and the results carry the rest
(``PlannerResult.search``, ``ResultCache.hits``,
``FleetSchedule.pool_stats``).

Library code traces through the module-level :data:`trace` dispatcher::

    from repro.obs import trace

    with trace.span("sim.online", requests=n) as sp:
        result = ...
        sp.set(completed=result.completed, rejected=result.rejected)

By default no tracer is installed and ``trace.enabled`` is ``False``:
``trace.span`` returns a shared no-op and hot loops skip entirely on the
one-attribute check.  Enable by installing a tracer
(:func:`install_tracer` / the :func:`use_tracer` context manager — what
:class:`repro.api.Session` does) or by setting the environment variable
``SPLITQUANT_TRACE=/path/to/trace.jsonl``, which activates tracing at
import and writes the JSONL at interpreter exit.
"""

from __future__ import annotations

import atexit
import contextlib
import os
from typing import Any, Iterator, Optional

from .report import flame_summary
from .tracer import NOOP_SPAN, Span, Tracer, normalize_trace, parse_trace

__all__ = [
    "NOOP_SPAN",
    "Span",
    "TRACE_ENV",
    "Tracer",
    "current_tracer",
    "flame_summary",
    "install_from_env",
    "install_tracer",
    "normalize_trace",
    "parse_trace",
    "trace",
    "uninstall_tracer",
    "use_tracer",
]

#: Environment variable holding the JSONL output path.
TRACE_ENV = "SPLITQUANT_TRACE"


class _TraceDispatch:
    """The process-wide tracing entry point library code imports.

    Holds at most one active :class:`Tracer`.  ``enabled`` is a plain
    attribute kept in sync with the installed tracer so hot paths pay a
    single attribute check when tracing is off.
    """

    __slots__ = ("enabled", "tracer")

    def __init__(self) -> None:
        self.enabled: bool = False
        self.tracer: Optional[Tracer] = None

    def span(self, name: str, **attrs: Any):
        t = self.tracer
        if t is None or not self.enabled:
            return NOOP_SPAN
        return t.span(name, **attrs)


#: The singleton dispatcher (import this, never a Tracer, in library code).
trace = _TraceDispatch()


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, if any."""
    return trace.tracer


def install_tracer(tracer: Tracer) -> Optional[Tracer]:
    """Install ``tracer`` globally; returns the previously installed one."""
    previous = trace.tracer
    trace.tracer = tracer
    trace.enabled = bool(tracer.enabled)
    return previous


def uninstall_tracer() -> Optional[Tracer]:
    """Remove the installed tracer (tracing disabled); returns it."""
    previous = trace.tracer
    trace.tracer = None
    trace.enabled = False
    return previous


@contextlib.contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Scoped install: activate ``tracer`` for the block, then restore.

    ``None`` disables tracing for the block.  Re-entrant — nested
    ``use_tracer`` blocks restore the outer tracer on exit.
    """
    prev_tracer, prev_enabled = trace.tracer, trace.enabled
    trace.tracer = tracer
    trace.enabled = bool(tracer is not None and tracer.enabled)
    try:
        yield tracer
    finally:
        trace.tracer, trace.enabled = prev_tracer, prev_enabled


def install_from_env(
    environ: Optional[dict] = None, register_atexit: bool = True
) -> Optional[Tracer]:
    """Activate tracing when ``SPLITQUANT_TRACE`` names an output path.

    Installs a fresh global tracer and (by default) registers an atexit
    hook that writes the JSONL trace when the interpreter exits.  Returns
    the tracer, or ``None`` when the variable is unset/empty.
    """
    env = os.environ if environ is None else environ
    path = env.get(TRACE_ENV, "").strip()
    if not path:
        return None
    tracer = Tracer(enabled=True)
    install_tracer(tracer)
    if register_atexit:
        owner_pid = os.getpid()

        def _dump() -> None:
            # Forked children (e.g. parallel experiment-runner workers)
            # inherit this hook; only the registering process may write,
            # or exiting workers would clobber the parent's trace.
            if os.getpid() != owner_pid:
                return
            tracer.write(path)

        atexit.register(_dump)
    return tracer


#: Auto-activation: importing repro with SPLITQUANT_TRACE set turns the
#: whole process into a traced run (used by the CI fault-demo job).
_env_tracer = install_from_env()
