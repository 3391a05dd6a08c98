"""Property-based tests (hypothesis) on protocol invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import blocking, run_procs, waitall
from repro.apps.harness import dims_create
from repro.hw import Cluster, ClusterSpec
from repro.mpi import MpiWorld
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Envelope, MpiRequest
from repro.mpi.matching import MatchingEngine, UnexpectedMessage


# ---------------------------------------------------------------------------
# matching engine vs a reference model
# ---------------------------------------------------------------------------

def _reference_match(posted, env):
    """Oldest posted receive accepting env (the MPI rule)."""
    for i, (peer, tag, comm) in enumerate(posted):
        if env.matches_recv(peer, tag, comm):
            return i
    return None


@settings(max_examples=200, deadline=None)
@given(
    events=st.lists(
        st.one_of(
            st.tuples(st.just("recv"), st.integers(-1, 3), st.integers(-1, 3)),
            st.tuples(st.just("msg"), st.integers(0, 3), st.integers(0, 3)),
        ),
        max_size=40,
    )
)
def test_matching_engine_equals_reference_model(events):
    engine = MatchingEngine()
    model_posted: list = []   # [(peer, tag, comm)]
    model_unexpected: list = []  # [Envelope]

    for ev in events:
        if ev[0] == "recv":
            _, peer, tag = ev
            req = MpiRequest(kind="recv", rank=9, peer=peer, tag=tag,
                             comm_id=0, addr=0, size=0)
            # model: match against unexpected first (FIFO)
            hit = None
            for i, env in enumerate(model_unexpected):
                if env.matches_recv(peer, tag, 0):
                    hit = i
                    break
            got = engine.post_recv(req)
            if hit is not None:
                assert got is not None and got.envelope == model_unexpected.pop(hit)
            else:
                assert got is None
                model_posted.append((peer, tag, 0, req))
        else:
            _, src, tag = ev
            env = Envelope(src=src, dst=9, tag=tag, comm_id=0)
            idx = _reference_match([(p, t, c) for p, t, c, _ in model_posted], env)
            got = engine.match_arrival(env)
            if idx is not None:
                assert got is model_posted.pop(idx)[3]
            else:
                assert got is None
                engine.add_unexpected(UnexpectedMessage(env, "eager", b"", 0, 0.0))
                model_unexpected.append(env)

    assert engine.posted_count == len(model_posted)
    assert engine.unexpected_count == len(model_unexpected)


# ---------------------------------------------------------------------------
# end-to-end payload integrity under random traffic
# ---------------------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(
    msgs=st.lists(
        st.tuples(
            st.integers(0, 3),            # src
            st.integers(0, 3),            # dst
            st.integers(0, 7),            # tag
            st.sampled_from([64, 1024, 20_000, 70_000]),  # size
        ),
        min_size=1,
        max_size=8,
    ).filter(lambda ms: all(s != d for s, d, _, _ in ms)),
    seed=st.integers(0, 2**16),
)
def test_random_traffic_delivers_every_byte(msgs, seed):
    """Arbitrary send/recv sets complete and deliver exact payloads."""
    cluster = Cluster(ClusterSpec(nodes=2, ppn=2))
    world = MpiWorld(cluster)
    rng = np.random.default_rng(seed)
    payloads = {
        i: rng.integers(0, 255, size=size, dtype=np.uint8)
        for i, (_s, _d, _t, size) in enumerate(msgs)
    }

    def program(rt):
        comm = world.comm_world
        reqs = []
        # Post receives first (deterministic order), then sends.
        for i, (src, dst, tag, size) in enumerate(msgs):
            if rt.rank == dst:
                addr = rt.ctx.space.alloc(size)
                req = yield from rt.irecv(comm, src, addr, size, tag=100 + i)
                reqs.append(("recv", i, addr, req))
        for i, (src, dst, tag, size) in enumerate(msgs):
            if rt.rank == src:
                addr = rt.ctx.space.alloc_like(payloads[i])
                req = yield from rt.isend(comm, dst, addr, size, tag=100 + i)
                reqs.append(("send", i, addr, req))
        yield from waitall(rt, [r for *_xs, r in reqs])
        for kind, i, addr, _req in reqs:
            if kind == "recv":
                got = rt.ctx.space.read(addr, len(payloads[i]))
                assert (got == payloads[i]).all(), f"msg {i} corrupted"
        return True

    assert all(world.run(program))
    world.assert_quiescent()


# ---------------------------------------------------------------------------
# offload framework: random scatter patterns stay correct
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(
    block=st.sampled_from([256, 4096, 40_000]),
    seed=st.integers(0, 1000),
    mode=st.sampled_from(["gvmi", "staged"]),
)
def test_offload_alltoall_any_block_size(block, seed, mode):
    from repro.offload import OffloadFramework

    cluster = Cluster(ClusterSpec(nodes=2, ppn=2, proxies_per_dpu=2))
    fw = OffloadFramework(cluster, mode=mode, group_caching=True)
    P = cluster.world_size
    rng = np.random.default_rng(seed)
    fills = rng.integers(1, 250, size=P)

    def make(rank):
        def prog(sim):
            ep = fw.endpoint(rank)
            sbuf = ep.ctx.space.alloc(P * block, fill=int(fills[rank]))
            rbuf = ep.ctx.space.alloc(P * block)
            greq = ep.group_start()
            for d in range(1, P):
                dst = (rank + d) % P
                src = (rank - d) % P
                ep.group_send(greq, sbuf + dst * block, block, dst=dst, tag=3)
                ep.group_recv(greq, rbuf + src * block, block, src=src, tag=3)
            ep.group_end(greq)
            yield from ep.group_call(greq)
            yield from ep.group_wait(greq)
            for s in range(P):
                if s != rank:
                    assert (ep.ctx.space.read(rbuf + s * block, block)
                            == fills[s]).all()
            return True

        return prog

    assert all(run_procs(cluster, [make(r)(cluster.sim) for r in range(P)]))
    fw.assert_quiescent()


# ---------------------------------------------------------------------------
# misc invariants
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4096), d=st.integers(1, 4))
def test_dims_create_invariants(n, d):
    dims = dims_create(n, d)
    assert len(dims) == d
    assert math.prod(dims) == n
    assert all(x >= 1 for x in dims)
    assert dims == sorted(dims, reverse=True)


@settings(max_examples=60, deadline=None)
@given(
    src=st.integers(0, 5), tag=st.integers(0, 5),
    rsrc=st.integers(-1, 5), rtag=st.integers(-1, 5),
)
def test_wildcard_matching_is_superset_of_exact(src, tag, rsrc, rtag):
    env = Envelope(src=src, dst=0, tag=tag, comm_id=0)
    if env.matches_recv(rsrc, rtag, 0):
        # widening any selector must keep it matching
        assert env.matches_recv(ANY_SOURCE, rtag, 0)
        assert env.matches_recv(rsrc, ANY_TAG, 0)
        assert env.matches_recv(ANY_SOURCE, ANY_TAG, 0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100))
def test_simulation_is_deterministic(seed):
    """Same configuration -> bit-identical event counts and final time."""
    def one_run():
        cluster = Cluster(ClusterSpec(nodes=2, ppn=2, seed=seed))
        world = MpiWorld(cluster)
        from repro.mpi import collectives as coll

        def program(rt):
            cw = world.comm_world
            P = world.size
            sa = rt.ctx.space.alloc(P * 512, fill=rt.rank + 1)
            ra = rt.ctx.space.alloc(P * 512)
            yield from blocking(rt, coll.ialltoall(rt, cw, sa, ra, 512))
            return rt.sim.now

        world.run(program)
        return cluster.sim.processed_events, cluster.sim.now

    assert one_run() == one_run()


# ---------------------------------------------------------------------------
# group offload: relay chains of arbitrary length stay correct
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(
    ranks=st.integers(3, 6),
    size=st.sampled_from([512, 8192, 40_000]),
    seed=st.integers(0, 500),
)
def test_offload_relay_chain_any_length(ranks, size, seed):
    """A barrier-gated relay 0 -> 1 -> ... -> last: every hop forwards the
    bytes it received, so any barrier-ordering bug corrupts the tail."""
    from repro.offload import OffloadFramework

    cluster = Cluster(ClusterSpec(nodes=ranks, ppn=1, proxies_per_dpu=1))
    fw = OffloadFramework(cluster)
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 255, size=size, dtype=np.uint8)
    bufs = {}

    def make(rank):
        def prog(sim):
            ep = fw.endpoint(rank)
            if rank == 0:
                buf = ep.ctx.space.alloc_like(payload)
            else:
                buf = ep.ctx.space.alloc(size)
            bufs[rank] = buf
            g = ep.group_start()
            if rank == 0:
                ep.group_send(g, buf, size, dst=1, tag=70)
                ep.group_barrier(g)
            else:
                ep.group_recv(g, buf, size, src=rank - 1, tag=70)
                ep.group_barrier(g)
                if rank + 1 < ranks:
                    ep.group_send(g, buf, size, dst=rank + 1, tag=70)
            ep.group_end(g)
            yield from ep.group_call(g)
            yield from ep.group_wait(g)
            return True

        return prog

    assert all(run_procs(cluster, [make(r)(cluster.sim) for r in range(ranks)]))
    fw.assert_quiescent()
    for k in range(1, ranks):
        got = cluster.rank_ctx(k).space.read(bufs[k], size)
        assert (got == payload).all(), f"hop {k} corrupted"
