"""Deterministic discrete-event serving: loop + proxy frontend.

The paper measures response time at a browser emulator replaying one
query at a time; the heavy-traffic north star needs *thousands* of
closed-loop clients hitting one proxy.  Real threads cannot do that
deterministically (or cheaply), so this package provides:

* :class:`~repro.sched.loop.EventLoop` — a seedable discrete-event
  scheduler with its own virtual time axis (``now_ms``).  It never
  touches the proxy's :class:`~repro.network.clock.SimulatedClock`:
  the work clock keeps charging per-query costs exactly as before,
  while the loop decides *when* each client's next arrival happens.
* :class:`~repro.sched.frontend.ProxyFrontend` — the bridge: it
  rebinds the proxy's bundle clock to the loop, so telemetry and the
  :class:`~repro.admission.AdmissionController` read event time;
  arrivals enter the controller's bounded accept queue, dispatch
  first in, first out as serve slots free up (queue wait charged to
  the query's ``admit.queue`` step), and turn into structured
  ``shed`` / ``queued-timeout`` records when admission turns them
  away (a full queue sheds the arrival; queued work past the 15 s
  deadline times out at dispatch).

Determinism: with the same seeds, client mix, and config, a run
produces the same dispatch order, the same records, and the same
saturation curve — the property the benchmarks and the CI smoke job
rely on.
"""

from repro.sched.frontend import ProxyFrontend
from repro.sched.loop import EventLoop

__all__ = ["EventLoop", "ProxyFrontend"]
