#!/usr/bin/env python
"""Quickstart: offload a point-to-point transfer to the DPU.

Builds a two-node simulated cluster (each node: host CPUs + a
BlueField-2-like DPU behind one HCA), starts the offload framework
(``Init_Offload``), and moves real bytes from rank 0 to rank 1 with the
Basic primitives -- while rank 1's CPU is busy computing the whole
time.  The receive completes *during* the compute because the DPU proxy
progresses it; the host only observes the completion counter.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.hw import Cluster, ClusterSpec
from repro.offload import OffloadFramework

SIZE = 128 * 1024
COMPUTE = 300e-6  # 300 us of "application work" on the receiver


def main() -> None:
    # 1. A simulated cluster: 2 nodes x 1 rank, 1 DPU worker per node.
    cluster = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))

    # 2. Init_Offload(): launches the proxy processes, assigns ranks,
    #    exchanges GVMI-IDs.
    framework = OffloadFramework(cluster)

    payload = np.arange(SIZE, dtype=np.uint8) % 251

    def sender(sim):
        ep = framework.endpoint(0)
        addr = ep.ctx.space.alloc_like(payload)
        # Send_Offload: GVMI-register the buffer, RTS to my proxy.
        req = yield from ep.send_offload(addr, SIZE, dst=1, tag=7)
        yield from ep.wait(req)
        print(f"[rank 0] send complete at {sim.now * 1e6:8.1f} us")

    def receiver(sim):
        ep = framework.endpoint(1)
        addr = ep.ctx.space.alloc(SIZE)
        # Recv_Offload: IB-register the buffer, RTR to the sender's proxy.
        req = yield from ep.recv_offload(addr, SIZE, src=0, tag=7)
        print(f"[rank 1] recv posted at  {sim.now * 1e6:8.1f} us; computing...")
        yield ep.ctx.consume(COMPUTE)  # no MPI/offload calls in here!
        t0 = sim.now
        yield from ep.wait(req)
        print(
            f"[rank 1] Wait() returned after {(sim.now - t0) * 1e9:.0f} ns "
            f"-- the transfer finished during the compute"
        )
        got = ep.ctx.space.read(addr, SIZE)
        assert (got == payload).all(), "payload corrupted!"
        print(f"[rank 1] payload verified: {SIZE} bytes bit-exact")

    procs = [cluster.sim.process(sender(cluster.sim)),
             cluster.sim.process(receiver(cluster.sim))]
    cluster.sim.run(until=cluster.sim.all_of(procs))

    print("\ncounters:")
    for key in ("gvmi.host_registrations", "gvmi.cross_registrations",
                "proxy.basic_pairs", "proxy.fin_writes", "rdma.write.dpu"):
        print(f"  {key:32s} {cluster.metrics.get(key):.0f}")
    # 3. Finalize_Offload().  Nothing runs after this point, so use the end
    #    of life that takes effect now: finalize() only asks the proxies to
    #    stop the next time the simulation runs.
    framework.close()
    cluster.close()


if __name__ == "__main__":
    main()
