"""The failpoint registry: deterministic fault injection.

A *failpoint* is a named site in the tree (``device.write``,
``objstore.commit_snapshot``, …; the catalogue lives in
:mod:`repro.fault.names`).  Instrumented code calls
:meth:`FailpointRegistry.fire` at the site and interprets the
:class:`FaultAction` it gets back — or, in the overwhelmingly common
case, gets ``None`` and proceeds.  The design mirrors ``repro.obs``:

- **zero-cost when disarmed** — a site guards with ``if faults is not
  None and faults.active``, a plain attribute that is true while any
  point is armed, so a disarmed plane builds no labels and makes no
  call; ``fire`` on an empty registry is a single truthiness test as
  well, and arming nothing changes no behaviour and no benchmark
  number;
- **deterministic** — probabilistic failpoints draw from named
  :mod:`repro.sim.rng` streams derived from the registry seed and the
  failpoint name, so adding a new armed point never perturbs another's
  sequence, and a fixed seed always injects the same faults;
- **keyed by the virtual clock** — every trigger is recorded with the
  simulated time at which it fired (``registry.log``), so a run's
  fault log reads like a trace.

Sites select faults by *count* (``after`` skips the first N matching
hits, ``count`` limits how many times it fires) and by *label match*
(``device="nvme0"`` arms only that device), which is how a test
expresses "fail this device's Nth write".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import FaultError
from repro.sim.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import SimClock

#: action kinds a failpoint may inject; each site documents (FAULTS.md)
#: which subset it honours.
ACTION_KINDS = ("fail", "torn", "drop", "timeout")


@dataclass(frozen=True)
class FaultAction:
    """What an armed failpoint does when it fires.

    ``fail``     raise the site's native error (I/O error, store error…)
    ``torn``     apply only ``fraction`` of a write, then continue
    ``drop``     acknowledge a write/flush without touching the media
    ``timeout``  the operation times out (remote backend retries)
    """

    kind: str
    #: for ``torn``: portion of the payload that reaches the media
    fraction: float = 0.5
    #: free-text detail carried into the injected error message
    reason: str = ""

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise FaultError(
                f"unknown fault action {self.kind!r} (one of {ACTION_KINDS})"
            )
        if not 0.0 <= self.fraction < 1.0:
            raise FaultError("torn fraction must be in [0, 1)")


@dataclass
class Failpoint:
    """One armed failpoint: action + trigger predicate + counters."""

    name: str
    action: FaultAction
    #: skip the first ``after`` matching hits before firing
    after: int = 0
    #: fire at most this many times (None = unlimited)
    count: Optional[int] = None
    #: fire with this probability per matching hit (drawn deterministically)
    probability: float = 1.0
    #: labels the site's call must carry for this point to match
    match: dict = field(default_factory=dict)
    #: matching hits seen so far (fired or not)
    seen: int = 0
    #: times this point actually fired
    fired: int = 0

    def exhausted(self) -> bool:
        return self.count is not None and self.fired >= self.count


@dataclass(frozen=True)
class FaultRecord:
    """One fired fault, for the registry's deterministic log."""

    at_ns: int
    name: str
    kind: str
    labels: tuple


class FailpointRegistry:
    """All failpoints of one simulated machine."""

    def __init__(self, clock: Optional["SimClock"] = None, seed: int = 0xFA17):
        self.clock = clock
        self.seed = seed
        self._rng = RngFactory(seed)
        self._armed: dict[str, list[Failpoint]] = {}
        #: true while any point is armed (``arm``/``disarm`` keep it):
        #: the guard a site checks before it builds labels for ``fire``
        self.active = False
        #: every fired fault, in virtual-time order
        self.log: list[FaultRecord] = []

    # -- arming ----------------------------------------------------------

    def arm(
        self,
        name: str,
        action: FaultAction,
        after: int = 0,
        count: Optional[int] = 1,
        probability: float = 1.0,
        **match,
    ) -> Failpoint:
        """Arm ``name`` to inject ``action``.

        By default a point fires exactly once (``count=1``) on its
        first matching hit; ``after=N`` skips the first N hits, which
        is how "fail write N+1" is expressed.  ``match`` keywords
        must be a subset of the labels the site passes to ``fire``.
        """
        if not 0.0 <= probability <= 1.0:
            raise FaultError("probability must be within [0, 1]")
        if after < 0:
            raise FaultError("after must be non-negative")
        point = Failpoint(
            name=name, action=action, after=after, count=count,
            probability=probability, match=dict(match),
        )
        self._armed.setdefault(name, []).append(point)
        self.active = True
        return point

    def disarm(self, name: Optional[str] = None) -> int:
        """Disarm every point under ``name`` (or everything); returns
        how many were removed."""
        if name is None:
            removed = sum(len(points) for points in self._armed.values())
            self._armed.clear()
        else:
            removed = len(self._armed.pop(name, []))
        self.active = bool(self._armed)
        return removed

    def armed(self, name: Optional[str] = None) -> list[Failpoint]:
        if name is not None:
            return list(self._armed.get(name, []))
        return [p for points in self._armed.values() for p in points]

    # -- the hot path ----------------------------------------------------

    def fire(self, name: str, **labels) -> Optional[FaultAction]:
        """Evaluate failpoint ``name``; returns the action to inject.

        Disarmed (the common case): one truthiness test, no
        allocation.  Armed points are evaluated in arming order; the
        first that matches, has passed its ``after`` threshold, is not
        exhausted, and wins its probability draw fires.
        """
        if not self._armed:
            return None
        points = self._armed.get(name)
        if not points:
            return None
        for point in points:
            if point.exhausted():
                continue
            if any(labels.get(k) != v for k, v in point.match.items()):
                continue
            point.seen += 1
            if point.seen <= point.after:
                continue
            if point.probability < 1.0:
                draw = self._rng.stream(f"fault:{name}").random()
                if draw >= point.probability:
                    continue
            point.fired += 1
            now = self.clock.now if self.clock is not None else 0
            self.log.append(
                FaultRecord(
                    at_ns=now,
                    name=name,
                    kind=point.action.kind,
                    labels=tuple(sorted(labels.items())),
                )
            )
            return point.action
        return None

    def fired_total(self, name: Optional[str] = None) -> int:
        if name is None:
            return len(self.log)
        return sum(1 for record in self.log if record.name == name)

    def __repr__(self) -> str:
        return (
            f"<FailpointRegistry armed={len(self.armed())}"
            f" fired={len(self.log)} seed={self.seed:#x}>"
        )
