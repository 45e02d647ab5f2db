"""Discrete-event validation simulator.

The Section II cost model is analytic; this package replays an assignment
event-by-event over the modelled links and processors, so the analytic
formulas can be *checked* rather than trusted:

- without contention (each transfer gets the dedicated link the analytic
  model assumes), realized latencies must equal the formulas exactly — the
  integration tests assert this;
- with contention (FIFO sharing of device radios and station CPUs), the
  replay shows the queueing the analytic model abstracts away — an
  extension the ablation benches exercise.

One event engine executes the replay: the closure-chained simulator in
:mod:`repro.des.replay`, which every contended or outage replay runs.  A
dedicated replay with no outage windows has no shared state, so outside
reference mode :mod:`repro.des.engine` evaluates it in closed form; the
two are differentially tested to produce bit-identical
:class:`RealizedMetrics`.  ``HAVE_NUMBA`` is always ``False``: there is
no jit backend, and the constant stays only for the benchmark regime
stamps that read it.
"""

from repro.des.kernel import EventSimulator
from repro.des.resources import FIFOResource
from repro.des.replay import RealizedMetrics, replay_assignment

#: The replay has no compiled backend; kept as a constant because
#: benchmark regime stamps import it.
HAVE_NUMBA = False

__all__ = [
    "EventSimulator",
    "FIFOResource",
    "HAVE_NUMBA",
    "RealizedMetrics",
    "replay_assignment",
]
