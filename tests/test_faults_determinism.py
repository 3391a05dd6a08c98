"""Determinism guard: one seed, one fault sequence, one trace.

The acceptance bar for the chaos machinery is reproducibility -- a
seeded FaultPlan scenario run twice must produce byte-identical fault
traces, metrics, and completion times, or chaos bugs become
unreproducible heisenbugs.
"""

from tests.test_faults_recovery import (
    _chaos_cluster,
    _group_exchange,
    _pingpong,
)
from repro.hw import OFFLOAD_CONTROL_KINDS, FaultSpec, ProxyKillPlan
from repro.offload import OffloadFramework


def _run_chaos_pingpong(seed):
    cl, plan = _chaos_cluster(FaultSpec(
        drop_prob=0.05, dup_prob=0.05, delay_prob=0.1,
        error_cqe_prob=0.2, error_initiators=("dpu",),
        control_kinds=OFFLOAD_CONTROL_KINDS), seed=seed)
    fw = OffloadFramework(cl)
    finish = _pingpong(cl, fw, iters=6, size=8192)
    return {
        "trace": plan.trace(),
        "stats": dict(plan.stats),
        "metrics": dict(cl.metrics),
        "finish": tuple(finish),
        "fallback_log": tuple(fw.fallback_log),
    }


def _run_chaos_group(seed):
    cl, plan = _chaos_cluster(
        FaultSpec(drop_prob=0.05, control_kinds=OFFLOAD_CONTROL_KINDS),
        kills=[ProxyKillPlan(proxy_gid=0, at=50e-6, restart_after=60e-6)],
        seed=seed)
    fw = OffloadFramework(cl)
    finish = _group_exchange(cl, fw, size=128 * 1024)
    return {
        "trace": plan.trace(),
        "stats": dict(plan.stats),
        "metrics": dict(cl.metrics),
        "finish": tuple(finish),
    }


class TestSeededReruns:
    def test_pingpong_trace_is_byte_identical(self):
        a, b = _run_chaos_pingpong(23), _run_chaos_pingpong(23)
        assert a["trace"] == b["trace"]
        assert a == b

    def test_group_kill_trace_is_byte_identical(self):
        a, b = _run_chaos_group(31), _run_chaos_group(31)
        assert a["trace"] == b["trace"]
        assert a == b

    def test_different_seed_different_faults(self):
        a, b = _run_chaos_pingpong(23), _run_chaos_pingpong(24)
        assert a["trace"] != b["trace"]

    def test_trace_is_immutable_tuple(self):
        run = _run_chaos_pingpong(23)
        assert isinstance(run["trace"], tuple)
        assert all(isinstance(ev, tuple) and len(ev) == 3
                   for ev in run["trace"])


class TestCleanRunUnaffected:
    def test_clean_runs_identical_with_module_loaded(self):
        """Importing/arming nothing: two plan-free runs stay identical."""
        def clean():
            from repro.hw import Cluster, ClusterSpec

            cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
            fw = OffloadFramework(cl)
            finish = _pingpong(cl, fw, iters=3, size=4096)
            return tuple(finish), dict(cl.metrics)

        assert clean() == clean()

    def test_inert_plan_changes_nothing(self):
        """An installed all-zero-probability plan must not perturb timing."""
        from repro.hw import Cluster, ClusterSpec, FaultPlan

        def run(with_plan):
            cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
            if with_plan:
                cl.install_faults(FaultPlan(FaultSpec(), seed=1))
            fw = OffloadFramework(cl)
            return tuple(_pingpong(cl, fw, iters=3, size=4096))

        assert run(False) == run(True)
