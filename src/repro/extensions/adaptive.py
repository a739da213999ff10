"""Adaptive overlap handling: learning the paper's conclusion online.

The paper's evaluation found that handling cache-intersecting queries
(probe + remainder query + merge) "may not be worthwhile" — on their
testbed the remainder's extra server cost outweighed the transfer it
saved.  But the balance is a property of the deployment: a slow network
with a fast origin flips it.

:class:`AdaptiveProxy` makes the decision empirically instead of
statically.  It runs the full-semantic machinery but gates the overlap
path on a running cost comparison:

* every query that goes to the origin *whole* updates the average
  forward cost (origin + transfer time);
* every overlap handled via remainder updates the average remainder
  cost (origin + transfer + probe + merge);
* after a warm-up of ``explore_overlaps`` handled overlaps, new
  overlaps are only handled when the measured remainder average beats
  the forward average; one in every ``exploration_period`` overlaps is
  still handled regardless, so the estimate keeps tracking a changing
  environment.

Declined overlaps fall back exactly as the paper's Second/Third schemes:
region containment is still consolidated (when the scheme allows), and
the query is forwarded whole and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.proxy import FunctionProxy, ProxyResponse
from repro.core.stats import QueryStatus

# Steps that constitute the cost of getting an answer from the origin.
_FORWARD_STEPS = ("origin", "transfer")
_OVERLAP_STEPS = ("origin", "transfer", "read", "local_eval", "merge")


@dataclass
class _RunningMean:
    total: float = 0.0
    count: int = 0

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class AdaptiveState:
    """The estimator's observable state (exposed for tests/diagnostics)."""

    forward_cost: _RunningMean = field(default_factory=_RunningMean)
    overlap_cost: _RunningMean = field(default_factory=_RunningMean)
    overlaps_seen: int = 0
    overlaps_handled: int = 0
    overlaps_declined: int = 0

    @property
    def remainder_pays_off(self) -> bool:
        if not self.overlap_cost.count or not self.forward_cost.count:
            return True  # no evidence yet: explore
        return self.overlap_cost.mean <= self.forward_cost.mean


class AdaptiveProxy(FunctionProxy):
    """A function proxy that learns whether remainders are worthwhile."""

    def __init__(
        self,
        *args,
        explore_overlaps: int = 15,
        exploration_period: int = 20,
        **kwargs,
    ) -> None:
        if explore_overlaps < 1 or exploration_period < 2:
            raise ValueError(
                "need at least 1 exploration overlap and a period >= 2"
            )
        super().__init__(*args, **kwargs)
        self.adaptive = AdaptiveState()
        self.explore_overlaps = explore_overlaps
        self.exploration_period = exploration_period

    # ------------------------------------------------------- decision
    def _attempt_overlap(self, bound, subsumed, overlapping) -> bool:
        if not self.scheme.policy.handles_overlap:
            return False
        state = self.adaptive
        state.overlaps_seen += 1
        if state.overlaps_handled < self.explore_overlaps:
            return True
        if state.overlaps_seen % self.exploration_period == 0:
            return True  # periodic re-exploration
        return state.remainder_pays_off

    # ------------------------------------------------------ observation
    def serve(self, bound) -> ProxyResponse:
        response = super().serve(bound)
        record = response.record
        steps = record.steps_ms
        if record.status in (
            QueryStatus.OVERLAP, QueryStatus.REGION_CONTAINMENT
        ):
            self.adaptive.overlap_cost.add(
                sum(steps.get(name, 0.0) for name in _OVERLAP_STEPS)
            )
            self.adaptive.overlaps_handled += 1
        elif record.status in (
            QueryStatus.DISJOINT, QueryStatus.FORWARDED,
        ):
            self.adaptive.forward_cost.add(
                sum(steps.get(name, 0.0) for name in _FORWARD_STEPS)
            )
            if record.status is QueryStatus.FORWARDED:
                self.adaptive.overlaps_declined += 1
        return response
