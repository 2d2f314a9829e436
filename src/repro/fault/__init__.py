"""``repro.fault`` — deterministic failpoint-driven fault injection.

Aurora's value proposition is that state survives crashes; this
package is the machinery that checks it.  A per-machine
:class:`~repro.fault.registry.FailpointRegistry` (``kernel.faults``)
arms named failpoints threaded through the device, object store,
backends, and SLSFS layers — torn and dropped writes, I/O errors,
remote-backend timeouts, and whole-machine power cuts — and the crash
harness in :mod:`repro.fault.crashtest` sweeps "power cut at write N"
across a full checkpoint/restore workload, asserting after every
crash that recovery yields a prefix-consistent snapshot history with
no leaked extents and a restorable latest image.

Design rules, mirroring ``repro.obs``:

- zero-cost when disarmed (a site fires only when its registry is
  attached and ``registry.active`` — true while anything is armed — so
  a disarmed plane builds no labels and makes no call; an empty
  registry's ``fire`` is one truthiness test);
- deterministic (probability draws come from named
  :mod:`repro.sim.rng` streams; a fixed seed injects the same faults);
- keyed by the virtual clock (``registry.log`` records when each fault
  fired, in simulated time).

The failpoint catalogue lives in :mod:`repro.fault.names` and is
pinned to ``FAULTS.md`` by a docs test.
"""

from __future__ import annotations

from repro.fault import names
from repro.fault.registry import (
    ACTION_KINDS,
    FailpointRegistry,
    Failpoint,
    FaultAction,
    FaultRecord,
)

__all__ = [
    "ACTION_KINDS",
    "FailpointRegistry",
    "Failpoint",
    "FaultAction",
    "FaultRecord",
    "names",
]
