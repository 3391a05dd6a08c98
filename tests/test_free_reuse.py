"""Free-then-reuse regression tests: the stale-mkey epoch protocol.

The seed bug: ``AddressSpace.free`` dropped the buffer but left every
covering KeyTable entry live, so an RDMA through a key registered over
freed (and possibly recycled) memory silently moved garbage.  Now free
revokes covering keys; a stale WQE faults with ProtectionError at post
time, and resilient runs recover by re-registering the buffer's current
incarnation and re-posting (docs/RESOURCES.md).
"""

import pytest

from tests.helpers import pattern, run_proc, run_procs
from repro.hw import Cluster, ClusterSpec, MachineParams, RetryPolicy
from repro.offload import OffloadError, OffloadFramework
from repro.verbs import rdma_write, reg_mr
from repro.verbs.mr import ProtectionError
from repro.verbs.rdma import verbs_state


def _cluster(**overrides) -> Cluster:
    params = MachineParams().with_overrides(reuse_freed_addresses=True,
                                            **overrides)
    return Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                               params=params))


RETRY = RetryPolicy(timeout=500e-6)


# ---------------------------------------------------------------------------
# the direct regression: stale keys must fault, not move bytes
# ---------------------------------------------------------------------------

class TestStaleKeyFaults:
    def test_rdma_through_freed_registration_faults(self):
        cl = _cluster()
        src, dst = cl.rank_ctx(0), cl.rank_ctx(1)
        size = 4096
        sa = src.space.alloc_like(pattern(size))
        da = dst.space.alloc(size)

        def prog(sim):
            hs = yield from reg_mr(src, sa, size)
            hd = yield from reg_mr(dst, da, size)
            return hs, hd

        hs, hd = run_proc(cl, prog(cl.sim))
        src.free(sa)

        def write(sim):
            yield from rdma_write(src, lkey=hs.lkey, src_addr=sa,
                                  rkey=hd.rkey, dst_addr=da, size=size)

        with pytest.raises(ProtectionError, match="revoked"):
            run_proc(cl, write(cl.sim))

    def test_recycled_address_not_reachable_through_old_key(self):
        """free + same-size alloc hands back the same address; the old
        key must not grant access to the new incarnation."""
        cl = _cluster()
        src, dst = cl.rank_ctx(0), cl.rank_ctx(1)
        size = 4096
        old_data = pattern(size, seed=1)
        new_data = pattern(size, seed=2)
        sa = src.space.alloc_like(old_data)
        da = dst.space.alloc(size)

        def prog(sim):
            hs = yield from reg_mr(src, sa, size)
            hd = yield from reg_mr(dst, da, size)
            return hs, hd

        hs, hd = run_proc(cl, prog(cl.sim))
        src.free(sa)
        sa2 = src.space.alloc_like(new_data)
        assert sa2 == sa  # recycled

        def stale_write(sim):
            yield from rdma_write(src, lkey=hs.lkey, src_addr=sa2,
                                  rkey=hd.rkey, dst_addr=da, size=size)

        with pytest.raises(ProtectionError):
            run_proc(cl, stale_write(cl.sim))
        assert (dst.space.read(da, size) == 0).all()  # nothing leaked through

        def fresh_write(sim):
            hs2 = yield from reg_mr(src, sa2, size)
            t = yield from rdma_write(src, lkey=hs2.lkey, src_addr=sa2,
                                      rkey=hd.rkey, dst_addr=da, size=size)
            yield t.completed

        run_proc(cl, fresh_write(cl.sim))
        assert (dst.space.read(da, size) == new_data).all()


# ---------------------------------------------------------------------------
# offload-path recovery: free racing an in-flight basic pair
# ---------------------------------------------------------------------------

def _free_race_exchange(cl, fw, size=8192):
    """Sender posts, then frees + recycles + rewrites before the proxy
    moves bytes; returns what the receiver observed."""
    new_data = pattern(size, seed=22)
    got = {}

    def sender(sim):
        ep = fw.endpoint(0)
        addr = ep.ctx.space.alloc_like(pattern(size, seed=21))
        req = yield from ep.send_offload(addr, size, dst=1, tag=9)
        # The race: the buffer dies (and is recycled with fresh bytes)
        # while the RTS is still in flight.
        ep.ctx.free(addr)
        addr2 = ep.ctx.space.alloc_like(new_data)
        assert addr2 == addr
        yield from ep.wait(req)

    def receiver(sim):
        ep = fw.endpoint(1)
        yield sim.timeout(100e-6)
        addr = ep.ctx.space.alloc(size)
        req = yield from ep.recv_offload(addr, size, src=0, tag=9)
        yield from ep.wait(req)
        got["data"] = ep.ctx.space.read(addr, size)

    run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
    return new_data, got["data"]


class TestBasicPairRecovery:
    def test_gvmi_free_then_reuse_recovers(self):
        cl = _cluster()
        fw = OffloadFramework(cl, retry=RETRY)
        want, got = _free_race_exchange(cl, fw)
        assert (got == want).all()
        m = cl.metrics
        assert m.get("proxy.stale_keys") >= 1
        assert m.get("proxy.stale_nacks") >= 1
        assert m.get("offload.stale_reposts") >= 1
        fw.assert_quiescent()

    def test_staged_free_then_reuse_recovers(self):
        cl = _cluster()
        fw = OffloadFramework(cl, mode="staged", retry=RETRY)
        want, got = _free_race_exchange(cl, fw)
        assert (got == want).all()
        assert cl.metrics.get("proxy.stale_keys") >= 1
        assert cl.metrics.get("offload.stale_reposts") >= 1

    def test_receiver_side_free_recovers(self):
        cl = _cluster()
        fw = OffloadFramework(cl, retry=RETRY)
        size = 4096
        data = pattern(size, seed=31)
        got = {}

        def sender(sim):
            ep = fw.endpoint(0)
            yield sim.timeout(100e-6)
            addr = ep.ctx.space.alloc_like(data)
            req = yield from ep.send_offload(addr, size, dst=1, tag=4)
            yield from ep.wait(req)

        def receiver(sim):
            ep = fw.endpoint(1)
            addr = ep.ctx.space.alloc(size)
            req = yield from ep.recv_offload(addr, size, src=0, tag=4)
            # Kill the posted landing zone, then recycle it.
            ep.ctx.free(addr)
            addr2 = ep.ctx.space.alloc(size)
            assert addr2 == addr
            yield from ep.wait(req)
            got["data"] = ep.ctx.space.read(addr2, size)

        run_procs(cl, [sender(cl.sim), receiver(cl.sim)])
        assert (got["data"] == data).all()
        assert cl.metrics.get("proxy.stale_keys") >= 1
        assert cl.metrics.get("offload.stale_reposts") >= 1

    def test_non_resilient_fails_loudly(self):
        """Without recovery armed the race is an error, never silent
        corruption."""
        cl = _cluster()
        fw = OffloadFramework(cl)  # no retry policy: not resilient
        with pytest.raises((OffloadError, ProtectionError)):
            _free_race_exchange(cl, fw)

    def test_no_leaked_keys_after_recovery(self):
        cl = _cluster()
        fw = OffloadFramework(cl, retry=RETRY)
        _free_race_exchange(cl, fw)
        keys = verbs_state(cl).keys
        host0 = cl.rank_ctx(0)
        for _key, info in keys.live_owned_by(host0):
            assert host0.space.contains(info.addr, info.size)


# ---------------------------------------------------------------------------
# group plans: a cached plan faulting on freed memory is rebuilt
# ---------------------------------------------------------------------------

class TestGroupPlanRecovery:
    def test_cached_plan_rebuilds_after_free(self):
        cl = _cluster()
        fw = OffloadFramework(cl, retry=RETRY)
        size = 4096
        rounds = {}

        def make(rank, peer):
            def prog(sim):
                ep = fw.endpoint(rank)
                sbuf = ep.ctx.space.alloc_like(pattern(size, seed=50 + rank))
                rbuf = ep.ctx.space.alloc(size)
                greq = ep.group_start()
                ep.group_send(greq, sbuf, size, dst=peer, tag=7)
                ep.group_recv(greq, rbuf, size, src=peer, tag=7)
                ep.group_end(greq)
                # Round 1: build + cache.
                yield from ep.group_call(greq)
                yield from ep.group_wait(greq)
                # Round 2: rank 0 frees its send buffer with the
                # plan-ID-only call already in flight.
                yield from ep.group_call(greq)
                if rank == 0:
                    ep.ctx.free(sbuf)
                    sbuf2 = ep.ctx.space.alloc_like(pattern(size, seed=60))
                    assert sbuf2 == sbuf
                yield from ep.group_wait(greq)
                rounds[rank] = ep.ctx.space.read(rbuf, size)
                return True

            return prog

        run_procs(cl, [make(0, 1)(cl.sim), make(1, 0)(cl.sim)])
        # Rank 1 received rank 0's *recycled* payload via the rebuilt plan.
        assert (rounds[1] == pattern(size, seed=60)).all()
        assert (rounds[0] == pattern(size, seed=51)).all()
        m = cl.metrics
        assert m.get("proxy.stale_plans") >= 1
        assert m.get("offload.group_rebuilds") >= 1
