"""Unit tests for proxy internals: counter board, park protocol, queues."""

import pytest

from tests.helpers import pattern, proxy_engine_of, run_procs
from repro.hw import Cluster, ClusterSpec
from repro.offload import OffloadError, OffloadFramework
from repro.offload.proxy import PARK, CounterBoard
from repro.sim import Simulator


class TestCounterBoard:
    def test_wait_after_write_is_immediate(self):
        sim = Simulator()
        board = CounterBoard(sim)
        board.write(("k",), 3)
        ev = board.wait(("k",), 2)
        assert ev.triggered  # already satisfied

    def test_wait_before_write_blocks_until_epoch(self):
        sim = Simulator()
        board = CounterBoard(sim)
        woke = []

        def waiter(sim):
            yield board.wait(("k",), 2)
            woke.append(sim.now)

        def writer(sim):
            yield sim.timeout(1.0)
            board.write(("k",), 1)  # not enough
            yield sim.timeout(1.0)
            board.write(("k",), 2)  # satisfies

        sim.process(waiter(sim))
        sim.process(writer(sim))
        sim.run()
        assert woke == [2.0]

    def test_counters_are_monotone(self):
        sim = Simulator()
        board = CounterBoard(sim)
        board.write(("k",), 5)
        board.write(("k",), 3)  # stale write must not regress
        assert board.wait(("k",), 5).triggered

    def test_keys_are_independent(self):
        sim = Simulator()
        board = CounterBoard(sim)
        board.write(("a",), 10)
        assert not board.wait(("b",), 1).triggered

    def test_clear_resets_key(self):
        sim = Simulator()
        board = CounterBoard(sim)
        board.write(("k",), 7)
        board.clear(("k",))
        assert not board.wait(("k",), 1).triggered

    def test_multiple_waiters_same_key(self):
        sim = Simulator()
        board = CounterBoard(sim)
        woke = []

        def waiter(sim, epoch):
            yield board.wait(("k",), epoch)
            woke.append((epoch, sim.now))

        sim.process(waiter(sim, 1))
        sim.process(waiter(sim, 3))

        def writer(sim):
            yield sim.timeout(1.0)
            board.write(("k",), 1)
            yield sim.timeout(1.0)
            board.write(("k",), 3)

        sim.process(writer(sim))
        sim.run()
        assert sorted(woke) == [(1, 1.0), (3, 2.0)]
        assert board.pending_waits == 0

    def test_stale_write_to_unseen_key_initialises(self):
        """Regression: a non-advancing write (epoch 0 -- e.g. a replayed
        duplicate) to a never-seen key used to KeyError on read-back."""
        sim = Simulator()
        board = CounterBoard(sim)
        board.write(("fresh",), 0)  # must not raise
        assert not board.wait(("fresh",), 1).triggered
        board.write(("fresh",), 1)
        assert board.wait(("fresh",), 1).triggered


class TestParkProtocol:
    def test_parked_executor_does_not_block_other_work(self):
        """One proxy serving two host ranks: rank A's pattern waits on a
        counter that only rank B's pattern produces -- Algorithm 1's
        deadlock-avoidance case (single proxy, both sides of the
        dependence)."""
        cl = Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=1))
        fw = OffloadFramework(cl)
        size = 2048
        data = pattern(size, seed=8)
        # ranks 0,1 on node 0 share ONE proxy; 0 receives from 2, then
        # 1 sends to 3 -- independent patterns through the same proxy.
        done = {}

        def rank0(sim):
            ep = fw.endpoint(0)
            buf = ep.ctx.space.alloc(size)
            g = ep.group_start()
            ep.group_recv(g, buf, size, src=2, tag=1)
            ep.group_end(g)
            yield from ep.group_call(g)
            yield from ep.group_wait(g)
            assert (ep.ctx.space.read(buf, size) == data).all()
            done[0] = sim.now

        def rank1(sim):
            ep = fw.endpoint(1)
            buf = ep.ctx.space.alloc_like(data)
            yield sim.timeout(5e-6)
            g = ep.group_start()
            ep.group_send(g, buf, size, dst=3, tag=2)
            ep.group_end(g)
            yield from ep.group_call(g)
            yield from ep.group_wait(g)
            done[1] = sim.now

        def rank2(sim):
            ep = fw.endpoint(2)
            buf = ep.ctx.space.alloc_like(data)
            # delay so rank 0's executor parks on the counter first
            yield sim.timeout(60e-6)
            g = ep.group_start()
            ep.group_send(g, buf, size, dst=0, tag=1)
            ep.group_end(g)
            yield from ep.group_call(g)
            yield from ep.group_wait(g)
            done[2] = sim.now

        def rank3(sim):
            ep = fw.endpoint(3)
            buf = ep.ctx.space.alloc(size)
            g = ep.group_start()
            ep.group_recv(g, buf, size, src=1, tag=2)
            ep.group_end(g)
            yield from ep.group_call(g)
            yield from ep.group_wait(g)
            done[3] = sim.now

        run_procs(cl, [rank0(cl.sim), rank1(cl.sim), rank2(cl.sim), rank3(cl.sim)])
        fw.assert_quiescent()
        # rank 1's transfer must NOT have waited for rank 0's (which was
        # parked until 60us): it finishes first.
        assert done[1] < done[0]

    def test_park_sentinel_shape(self):
        assert PARK == "park"


class TestProxyDiagnostics:
    def test_unmatched_rts_visible(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)

        def sender(sim):
            ep = fw.endpoint(0)
            addr = ep.ctx.space.alloc(64)
            yield from ep.send_offload(addr, 64, dst=1, tag=9)
            yield sim.timeout(50e-6)

        proc = tiny_cluster.sim.process(sender(tiny_cluster.sim))
        tiny_cluster.sim.run(until=proc)
        engine = proxy_engine_of(fw, 0)
        assert engine.queued_rts == 1
        with pytest.raises(OffloadError, match="unmatched RTS"):
            fw.assert_quiescent()

    def test_unknown_inbox_item_raises(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        engine = proxy_engine_of(fw, 0)
        engine.ctx.inbox.put(("who_knows", {}))
        with pytest.raises(OffloadError, match="unknown inbox item"):
            tiny_cluster.sim.run()

    def test_extra_handler_dispatch(self, tiny_cluster):
        fw = OffloadFramework(tiny_cluster)
        engine = proxy_engine_of(fw, 0)
        seen = []

        def handler(eng, payload):
            seen.append(payload)
            yield eng.ctx.consume(1e-6)

        engine.extra_handlers["custom"] = handler
        engine.ctx.inbox.put(("custom", {"x": 1}))
        tiny_cluster.sim.run()
        assert seen == [{"x": 1}]
