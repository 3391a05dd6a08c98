"""Unit tests for Store."""

from repro.sim import Store


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

    def test_put_schedules_no_event(self, sim):
        """A put never waits, so it returns nothing and leaves the
        calendar as it was; only the getter it serves fires."""
        st = Store(sim)
        assert st.put("x") is None
        sim.run()
        assert sim.processed_events == 0
        got = []

        def getter(sim):
            got.append((yield st.get()))
            got.append((yield st.get()))

        sim.process(getter(sim))
        sim.run()
        before = sim.processed_events
        assert st.put("y") is None
        sim.run()
        assert got == ["x", "y"]
        assert sim.processed_events == before + 2  # the getter, then the process end

    def test_len(self, sim):
        st = Store(sim)
        st.put("x")
        st.put("y")
        sim.run()
        assert len(st) == 2
