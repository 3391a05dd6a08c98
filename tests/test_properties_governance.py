"""Stateful property test: random governance op sequences never leak.

Hypothesis drives random interleavings of alloc / register / offload /
free against one cluster with bounded caches and address recycling, and
checks after every step that no live key grants access to freed memory.
Teardown frees everything still allocated and demands the fully
reclaimed end state: zero live host-owned keys and the allocation
counter back at its baseline -- the resource-governance contract of
docs/RESOURCES.md, under adversarial schedules instead of the scripted
ones in test_resource_governance.py.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from tests.helpers import pattern, run_proc, run_procs
from repro.hw import Cluster, ClusterSpec, MachineParams
from repro.offload import OffloadFramework
from repro.verbs import reg_mr
from repro.verbs.rdma import verbs_state

_SIZES = st.sampled_from([4096, 8192, 16384])


class GovernanceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        params = MachineParams().with_overrides(
            reuse_freed_addresses=True,
            gvmi_cache_capacity=3,
            ib_cache_capacity=3,
        )
        self.cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1,
                                      params=params))
        self.fw = OffloadFramework(self.cl)
        self.keys = verbs_state(self.cl).keys
        self.ctx = self.cl.rank_ctx(0)
        self.peer = self.cl.rank_ctx(1)
        self.baseline = self.ctx.space.allocated_bytes
        self.peer_baseline = self.peer.space.allocated_bytes
        #: live rank-0 buffers as (addr, size)
        self.bufs: list[tuple[int, int]] = []
        self.tag = 0

    # -- rules ---------------------------------------------------------
    @rule(size=_SIZES)
    def alloc(self, size):
        self.bufs.append((self.ctx.space.alloc(size), size))

    @precondition(lambda self: self.bufs)
    @rule(data=st.data())
    def register(self, data):
        """A raw reg_mr outside any cache: the most leak-prone shape."""
        addr, size = data.draw(st.sampled_from(self.bufs))

        def prog(sim):
            return (yield from reg_mr(self.ctx, addr, size))

        run_proc(self.cl, prog(self.cl.sim))

    @precondition(lambda self: self.bufs)
    @rule(data=st.data())
    def offload(self, data):
        """A full send/recv exchange through the bounded caches."""
        addr, size = data.draw(st.sampled_from(self.bufs))
        self.tag += 1
        tag = self.tag
        payload = pattern(size, seed=tag)
        self.ctx.space.write(addr, payload)
        raddr = self.peer.space.alloc(size)

        def sender(sim):
            ep = self.fw.endpoint(0)
            req = yield from ep.send_offload(addr, size, dst=1, tag=tag)
            yield from ep.wait(req)

        def receiver(sim):
            ep = self.fw.endpoint(1)
            req = yield from ep.recv_offload(raddr, size, src=0, tag=tag)
            yield from ep.wait(req)

        run_procs(self.cl, [sender(self.cl.sim), receiver(self.cl.sim)])
        assert (self.peer.space.read(raddr, size) == payload).all()
        self.peer.free(raddr)

    @precondition(lambda self: self.bufs)
    @rule(data=st.data())
    def free(self, data):
        i = data.draw(st.integers(0, len(self.bufs) - 1))
        addr, _ = self.bufs.pop(i)
        self.ctx.free(addr)

    # -- invariants ----------------------------------------------------
    @invariant()
    def no_key_over_freed_memory(self):
        for key, info in self.keys.live_owned_by(self.ctx):
            assert self.ctx.space.contains(info.addr, info.size), (
                f"live key {key:#x} covers freed range "
                f"[{info.addr:#x}, +{info.size})")

    @invariant()
    def peer_has_no_extra_allocations(self):
        assert self.peer.space.allocated_bytes == self.peer_baseline

    def teardown(self):
        for addr, _ in self.bufs:
            self.ctx.free(addr)
        leaked = self.keys.live_owned_by(self.ctx)
        assert not leaked, f"{len(leaked)} key(s) outlived all buffers"
        assert self.ctx.space.allocated_bytes == self.baseline


TestGovernanceStateful = GovernanceMachine.TestCase
TestGovernanceStateful.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None)
