"""Unit tests for the failpoint registry (repro.fault.registry)."""

import pytest

from repro.errors import FaultError
from repro.fault import ACTION_KINDS, FailpointRegistry, FaultAction
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def reg(clock):
    return FailpointRegistry(clock=clock)


class TestArming:
    def test_disarmed_fire_returns_none(self, reg):
        assert reg.fire("device.write", nbytes=4096) is None
        assert reg.log == []

    def test_armed_point_fires_once_by_default(self, reg):
        reg.arm("device.write", FaultAction("fail"))
        assert reg.fire("device.write").kind == "fail"
        assert reg.fire("device.write") is None  # count=1 exhausted

    def test_unlimited_count(self, reg):
        reg.arm("device.write", FaultAction("fail"), count=None)
        for _ in range(5):
            assert reg.fire("device.write") is not None

    def test_after_skips_hits(self, reg):
        reg.arm("device.write", FaultAction("torn"), after=2)
        assert reg.fire("device.write") is None
        assert reg.fire("device.write") is None
        assert reg.fire("device.write").kind == "torn"

    def test_label_match(self, reg):
        reg.arm("device.write", FaultAction("fail"), device="nvme1")
        assert reg.fire("device.write", device="nvme0") is None
        assert reg.fire("device.write", device="nvme1") is not None

    def test_disarm_by_name_and_all(self, reg):
        reg.arm("a", FaultAction("fail"))
        reg.arm("a", FaultAction("drop"))
        reg.arm("b", FaultAction("fail"))
        assert reg.disarm("a") == 2
        assert reg.fire("a") is None
        assert reg.disarm() == 1
        assert reg.armed() == []

    def test_fire_log_keyed_by_virtual_clock(self, reg, clock):
        reg.arm("device.write", FaultAction("fail"))
        clock.advance(1234)
        reg.fire("device.write", device="nvme0")
        (record,) = reg.log
        assert record.at_ns == 1234
        assert record.name == "device.write"
        assert record.kind == "fail"
        assert record.labels == (("device", "nvme0"),)

    def test_fired_total(self, reg):
        reg.arm("a", FaultAction("fail"), count=2)
        reg.arm("b", FaultAction("drop"))
        reg.fire("a"), reg.fire("a"), reg.fire("b")
        assert reg.fired_total("a") == 2
        assert reg.fired_total() == 3


class TestValidation:
    def test_unknown_action_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultAction("explode")

    def test_torn_fraction_bounds(self):
        with pytest.raises(FaultError):
            FaultAction("torn", fraction=1.0)
        assert FaultAction("torn", fraction=0.0).fraction == 0.0

    def test_probability_bounds(self, reg):
        with pytest.raises(FaultError):
            reg.arm("a", FaultAction("fail"), probability=1.5)

    def test_negative_after_rejected(self, reg):
        with pytest.raises(FaultError):
            reg.arm("a", FaultAction("fail"), after=-1)

    def test_action_kinds_catalogue(self):
        assert set(ACTION_KINDS) == {"fail", "torn", "drop", "timeout"}


class TestDeterminism:
    def run_probabilistic(self, seed):
        reg = FailpointRegistry(clock=SimClock(), seed=seed)
        reg.arm("device.write", FaultAction("fail"),
                probability=0.3, count=None)
        return [reg.fire("device.write") is not None for _ in range(64)]

    def test_same_seed_same_injections(self):
        assert self.run_probabilistic(7) == self.run_probabilistic(7)

    def test_different_seed_different_injections(self):
        assert self.run_probabilistic(7) != self.run_probabilistic(8)

    def test_streams_isolated_per_failpoint(self):
        """Arming a second probabilistic point must not perturb the
        first one's draw sequence (named streams, like repro.sim.rng)."""
        solo = FailpointRegistry(clock=SimClock(), seed=7)
        solo.arm("a", FaultAction("fail"), probability=0.5, count=None)
        solo_fires = [solo.fire("a") is not None for _ in range(32)]

        both = FailpointRegistry(clock=SimClock(), seed=7)
        both.arm("a", FaultAction("fail"), probability=0.5, count=None)
        both.arm("b", FaultAction("fail"), probability=0.5, count=None)
        both_fires = []
        for _ in range(32):
            both_fires.append(both.fire("a") is not None)
            both.fire("b")
        assert solo_fires == both_fires
