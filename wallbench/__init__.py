"""wallbench: a calibrated wall-clock benchmark of the serve path.

Everything under ``BENCH_*.json`` is simulated milliseconds from the
cost models; this package reads the real clock.  It replays five named
workloads through the program's public API, reports end-to-end metrics
in *calibrated time* (see :mod:`wallbench.calibrate`), checks answers
against the origin, and in separate traced passes times the calls into
each layer's public functions from outside.

Run it from the repository root::

    python3 -m wallbench --workload all --seed 339

``README.md`` beside this file defines every workload and metric.
"""

#: The nominal duration of one calibration kernel run.  A query's
#: calibrated latency is its raw latency times ``CALIB_NOMINAL_US``
#: over the kernel time measured around its window, so on a machine
#: where the kernel takes exactly this long calibration is the
#: identity.
CALIB_NOMINAL_US = 3000.0

#: Metrics that are a function of the generated queries and the
#: program's decisions, not of the clock: they repeat exactly for a seed
#: (``--selfcheck`` fails if they do not).
EXACT_METRICS = (
    "cache_efficiency",
    "origin_contact_ratio",
    "sim_response_ms",
    "failed_ratio",
    "pkg.total.calls_per_query",
)

#: Query time between two kernel readings in a timed pass.  The box's
#: speed wanders on every timescale; 75 ms follows it closely enough
#: while the ~3 ms readings stay a few percent of a pass.
CALIB_WINDOW_NS = 75_000_000
