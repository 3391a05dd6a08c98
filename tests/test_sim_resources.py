"""Unit tests for Resource / Store."""

import pytest

from repro.sim import Resource, SimulationError, Store


class TestResource:
    def test_capacity_enforced(self, sim):
        res = Resource(sim, capacity=2)
        log = []

        def worker(sim, name):
            req = res.request()
            yield req
            log.append((name, "in", sim.now))
            yield sim.timeout(1.0)
            res.release(req)

        for n in "abcd":
            sim.process(worker(sim, n))
        sim.run()
        starts = [t for _, _, t in log]
        assert starts == [0.0, 0.0, 1.0, 1.0]

    def test_fifo_admission(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(sim, name):
            req = res.request()
            yield req
            order.append(name)
            yield sim.timeout(1.0)
            res.release(req)

        for n in "xyz":
            sim.process(worker(sim, n))
        sim.run()
        assert order == ["x", "y", "z"]

    def test_release_unqueued_request_rejected(self, sim):
        res = Resource(sim, capacity=1)
        other = Resource(sim, capacity=1)
        req = other.request()
        with pytest.raises(SimulationError):
            res.release(req)

    def test_cancel_queued_request(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()  # granted
        waiting = res.request()  # queued
        assert res.queued == 1
        res.release(waiting)  # cancel before grant
        assert res.queued == 0
        res.release(holder)
        assert res.count == 0

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_count_property(self, sim):
        res = Resource(sim, capacity=3)
        reqs = [res.request() for _ in range(2)]
        assert res.count == 2
        for r in reqs:
            res.release(r)
        assert res.count == 0


class TestStore:
    def test_fifo_order(self, sim):
        st = Store(sim)
        got = []

        def getter(sim):
            for _ in range(3):
                got.append((yield st.get()))

        sim.process(getter(sim))
        for x in (1, 2, 3):
            st.put(x)
        sim.run()
        assert got == [1, 2, 3]

    def test_get_blocks_until_put(self, sim):
        st = Store(sim)
        times = []

        def getter(sim):
            yield st.get()
            times.append(sim.now)

        def putter(sim):
            yield sim.timeout(4.0)
            st.put("late")

        sim.process(getter(sim))
        sim.process(putter(sim))
        sim.run()
        assert times == [4.0]

    def test_filtered_get_skips_nonmatching(self, sim):
        st = Store(sim)
        got = []

        def getter(sim):
            got.append((yield st.get(lambda v: v % 2 == 0)))

        sim.process(getter(sim))
        st.put(1)
        st.put(3)
        st.put(4)
        sim.run()
        assert got == [4]
        assert st.items == [1, 3]

    def test_blocked_filter_does_not_block_others(self, sim):
        st = Store(sim)
        got = []

        def picky(sim):
            got.append(("picky", (yield st.get(lambda v: v == "never"))))

        def easy(sim):
            got.append(("easy", (yield st.get())))

        sim.process(picky(sim))
        sim.process(easy(sim))
        st.put("anything")
        sim.run(until=10.0)
        assert got == [("easy", "anything")]

    def test_try_get(self, sim):
        st = Store(sim)
        assert st.try_get() == (False, None)
        st.put("a")
        sim.run()
        assert st.try_get() == (True, "a")

    def test_bounded_capacity_blocks_put(self, sim):
        st = Store(sim, capacity=1)
        accepted = []

        def producer(sim):
            for i in range(3):
                yield st.put(i)
                accepted.append((i, sim.now))

        def consumer(sim):
            for _ in range(3):
                yield sim.timeout(1.0)
                yield st.get()

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert [i for i, _ in accepted] == [0, 1, 2]
        # third put only after a slot freed
        assert accepted[2][1] >= 1.0

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_len(self, sim):
        st = Store(sim)
        st.put("x")
        st.put("y")
        sim.run()
        assert len(st) == 2
