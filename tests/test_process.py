"""Unit tests for simulated processes (generator coroutines)."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Condition, Simulator
from repro.sim.process import (Charge, Compute, ExecutionContext,
                               ProcessGroup, Sleep, Wait)


class FakeCtx(ExecutionContext):
    """Minimal execution context: charges advance the clock."""

    def __init__(self):
        self.clock = 0.0
        self.charges = []
        self.polls = 0

    def charge(self, us, bucket):
        self.clock += us
        self.charges.append((us, bucket))

    def run_compute(self, cpu_us, mem_bytes):
        self.charge(cpu_us, "user")

    def service_requests(self):
        self.polls += 1


def run_one(gen, ctx=None):
    sim = Simulator()
    ctx = ctx or FakeCtx()
    group = ProcessGroup(sim)
    proc = group.spawn(ctx, gen, "test")
    group.run()
    return proc, ctx


class TestInstructions:
    def test_compute_advances_clock(self):
        def prog():
            yield Compute(5.0)
            yield Compute(3.0)

        proc, ctx = run_one(prog())
        assert ctx.clock == 8.0
        assert proc.done

    def test_charge_uses_named_bucket(self):
        def prog():
            yield Charge(4.0, "protocol")

        _, ctx = run_one(prog())
        assert ctx.charges == [(4.0, "protocol")]

    def test_sleep_charges_bucket(self):
        def prog():
            yield Sleep(7.0, "comm_wait")

        _, ctx = run_one(prog())
        assert ctx.charges == [(7.0, "comm_wait")]

    def test_negative_compute_rejected(self):
        with pytest.raises(SimulationError):
            Compute(-1.0)

    def test_unknown_instruction_fails_process(self):
        def prog():
            yield "nonsense"

        sim = Simulator()
        group = ProcessGroup(sim)
        group.spawn(FakeCtx(), prog(), "bad")
        with pytest.raises(SimulationError):
            group.run()

    def test_foreign_instruction_with_drive_method_fails_loudly(self):
        """An object that merely looks drivable is not an instruction:
        the process fails with an error naming it, and the object is
        never handed the process."""
        driven = []

        class Drivable:
            def drive(self, sp):
                driven.append(sp)

        def prog():
            yield Drivable()

        sim = Simulator()
        group = ProcessGroup(sim)
        group.spawn(FakeCtx(), prog(), "foreign")
        with pytest.raises(SimulationError,
                           match="process foreign yielded unknown "
                                 "instruction"):
            group.run()
        assert driven == []

    def test_return_value_captured(self):
        def prog():
            yield Compute(1.0)
            return 42

        proc, _ = run_one(prog())
        assert proc.result == 42


class TestWait:
    def test_wait_already_satisfied_continues_immediately(self):
        def prog():
            got = yield Wait(cond, lambda: "ready")
            assert got == "ready"

        sim = Simulator()
        cond = Condition(sim, "c")
        group = ProcessGroup(sim)
        group.spawn(FakeCtx(), prog(), "w")
        group.run()

    def test_wait_blocks_until_fired(self):
        sim = Simulator()
        cond = Condition(sim, "c")
        state = {"ready": False}
        log = []

        def waiter():
            got = yield Wait(cond, lambda: state["ready"])
            log.append(got)

        def setter():
            yield Compute(10.0)
            state["ready"] = True
            cond.fire(ctx2.clock)

        group = ProcessGroup(sim)
        ctx1, ctx2 = FakeCtx(), FakeCtx()
        group.spawn(ctx1, waiter(), "waiter")
        group.spawn(ctx2, setter(), "setter")
        group.run()
        assert log == [True]
        assert ctx1.clock == 10.0  # woken at the setter's time

    def test_wait_charges_bucket_for_blocked_time(self):
        sim = Simulator()
        cond = Condition(sim, "c")
        state = {"ready": False}

        def waiter():
            yield Wait(cond, lambda: state["ready"], bucket="comm_wait")

        def setter():
            yield Compute(25.0)
            state["ready"] = True
            cond.fire(25.0)

        group = ProcessGroup(sim)
        ctx1 = FakeCtx()
        group.spawn(ctx1, waiter(), "waiter")
        group.spawn(FakeCtx(), setter(), "setter")
        group.run()
        assert (25.0, "comm_wait") in ctx1.charges

    def test_spurious_wake_reparks(self):
        sim = Simulator()
        cond = Condition(sim, "c")
        state = {"n": 0}

        def waiter():
            yield Wait(cond, lambda: state["n"] >= 2)

        def setter():
            for _ in range(2):
                yield Compute(5.0)
                state["n"] += 1
                cond.fire(ctx2.clock)

        group = ProcessGroup(sim)
        ctx1, ctx2 = FakeCtx(), FakeCtx()
        group.spawn(ctx1, waiter(), "waiter")
        group.spawn(ctx2, setter(), "setter")
        group.run()
        assert ctx1.clock == 10.0

    def test_polling_happens_at_yield_points(self):
        def prog():
            yield Compute(1.0)
            yield Compute(1.0)

        _, ctx = run_one(prog())
        assert ctx.polls >= 2


class TestDeadlockDetection:
    def test_parked_forever_raises_deadlock(self):
        sim = Simulator()
        cond = Condition(sim, "never")

        def prog():
            yield Wait(cond, lambda: False)

        group = ProcessGroup(sim)
        group.spawn(FakeCtx(), prog(), "stuck")
        with pytest.raises(DeadlockError, match="deadlock"):
            group.run()

    def test_exception_in_process_propagates(self):
        def prog():
            yield Compute(1.0)
            raise ValueError("app bug")

        sim = Simulator()
        group = ProcessGroup(sim)
        group.spawn(FakeCtx(), prog(), "boom")
        with pytest.raises(ValueError, match="app bug"):
            group.run()

    def test_all_complete_normally(self):
        sim = Simulator()
        group = ProcessGroup(sim)
        for i in range(5):
            def prog(i=i):
                yield Compute(float(i + 1))
            group.spawn(FakeCtx(), prog(), f"p{i}")
        group.run()
        assert all(p.done for p in group.processes)
