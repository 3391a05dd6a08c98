#!/usr/bin/env python
"""A second programming model on the same framework: OpenSHMEM-style PGAS.

The paper claims its offload framework is *programming model agnostic*
(Section I-A).  This example backs that up: the exact same DPU proxies,
GVMI caches and cross-GVMI transfers that served MPI-style traffic in
the other examples here drive a partitioned-global-address-space API --
symmetric heap, one-sided put/get, quiet, wait_until, barrier_all --
with **zero receiver involvement**: PE 1 below never posts a receive;
the put lands in its symmetric heap while it is busy computing, and a
``wait_until`` on a flag variable wakes it the moment the data is there.
PE 0 then reads the payload back out of PE 1's heap with a ``get``, and
both PEs leave through the put-based dissemination ``barrier_all``.

Run:  python examples/shmem_pgas.py
"""

import numpy as np

from repro.hw import Cluster, ClusterSpec
from repro.offload.shmem import ShmemWorld

SIZE = 64 * 1024


def main() -> None:
    cluster = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
    world = ShmemWorld(cluster)
    payload = (np.arange(SIZE) % 249).astype(np.uint8)

    def pe0(sim):
        ep = world.endpoint(0)
        dst = yield from ep.symmetric_alloc(SIZE)
        flag = yield from ep.symmetric_alloc(1, fill=0)
        yield from ep.barrier_init()
        src = ep.ctx.space.alloc_like(payload)
        one = ep.ctx.space.alloc(1, fill=1)
        print(f"[PE 0] putting {SIZE} bytes into PE 1's heap at {sim.now * 1e6:6.1f} us")
        yield from ep.put(dst, src, SIZE, pe=1)       # data
        yield from ep.quiet()
        yield from ep.put(flag, one, 1, pe=1)         # then the flag
        yield from ep.quiet()
        print(f"[PE 0] put + flag complete at          {sim.now * 1e6:6.1f} us")
        back = ep.ctx.space.alloc(SIZE)
        yield from ep.get(back, dst, SIZE, pe=1)      # read it back, one-sided
        yield from ep.quiet()
        assert (ep.ctx.space.read(back, SIZE) == payload).all()
        print(f"[PE 0] get of PE 1's heap verified at   {sim.now * 1e6:6.1f} us")
        yield from ep.barrier_all()
        print(f"[PE 0] left barrier_all at              {sim.now * 1e6:6.1f} us")

    def pe1(sim):
        ep = world.endpoint(1)
        dst = yield from ep.symmetric_alloc(SIZE)
        flag = yield from ep.symmetric_alloc(1, fill=0)
        yield from ep.barrier_init()
        print("[PE 1] computing; no receive posted, ever")
        yield ep.ctx.consume(20e-6)
        yield from ep.wait_until(flag, lambda v: v == 1)
        print(f"[PE 1] wait_until(flag==1) woke at      {sim.now * 1e6:6.1f} us")
        got = ep.ctx.space.read(dst, SIZE)
        assert (got == payload).all()
        print(f"[PE 1] payload verified: {SIZE} bytes bit-exact")
        yield from ep.barrier_all()
        print(f"[PE 1] left barrier_all at              {sim.now * 1e6:6.1f} us")

    procs = [cluster.sim.process(pe0(cluster.sim)),
             cluster.sim.process(pe1(cluster.sim))]
    cluster.sim.run(until=cluster.sim.all_of(procs))
    print("\ncounters:")
    for key in ("shmem.puts", "proxy.shmem_puts", "shmem.gets", "proxy.shmem_gets",
                "gvmi.cross_registrations", "gvmi_cache.host.hit"):
        print(f"  {key:28s} {cluster.metrics.get(key):.0f}")


if __name__ == "__main__":
    main()
