"""Unit tests for the fault-injection plan and its fabric hooks."""

import pytest

from tests.helpers import pattern, proxy_engine_of, run_proc
from repro.hw import (
    OFFLOAD_CONTROL_KINDS,
    Cluster,
    ClusterSpec,
    FaultPlan,
    FaultSpec,
    ProxyKillPlan,
    RetryPolicy,
)
from repro.verbs import post_control, rdma_write, reg_mr


def _drain(cluster):
    """Run the simulator dry so in-flight fabric processes finish."""
    cluster.sim.run()


class TestSpecValidation:
    @pytest.mark.parametrize("knob", [
        "drop_prob", "dup_prob", "delay_prob", "error_cqe_prob",
    ])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_probabilities_bounded(self, knob, value):
        with pytest.raises(ValueError, match="not a probability"):
            FaultSpec(**{knob: value})

    def test_control_fates_cannot_sum_above_one(self):
        """One draw picks drop, then dup: their thresholds must fit in
        [0, 1], or the dup share silently shrinks to 1 - drop_prob."""
        with pytest.raises(ValueError, match="drop_prob \\+ dup_prob"):
            FaultSpec(drop_prob=0.8, dup_prob=0.5)
        FaultSpec(drop_prob=0.5, dup_prob=0.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_max"):
            FaultSpec(delay_max=-1e-6)

    def test_defaults_are_inert(self):
        spec = FaultSpec()
        assert spec.drop_prob == spec.dup_prob == spec.error_cqe_prob == 0.0

    def test_offload_kinds_exclude_baseline_ctrl(self):
        assert "ctrl" not in OFFLOAD_CONTROL_KINDS
        assert {"rts", "rtr", "fin", "group_plan"} <= OFFLOAD_CONTROL_KINDS


class TestPlanBinding:
    def test_unbound_plan_refuses_draws(self):
        plan = FaultPlan(FaultSpec(drop_prob=0.5))
        with pytest.raises(RuntimeError, match="not bound"):
            plan.control_fate("rts", 0, 1)
        with pytest.raises(RuntimeError, match="not bound"):
            plan.transfer_fate("data", "dpu", 0, 1)

    def test_install_binds_and_hands_to_fabric(self, tiny_cluster):
        plan = FaultPlan(FaultSpec(drop_prob=0.1))
        tiny_cluster.install_faults(plan)
        assert tiny_cluster.fault_plan is plan
        assert tiny_cluster.fabric.fault_plan is plan
        assert plan.sim is tiny_cluster.sim

    def test_same_seed_same_decision_sequence(self):
        def draws(seed):
            cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
            plan = FaultPlan(
                FaultSpec(drop_prob=0.3, dup_prob=0.2, delay_prob=0.25),
                seed=seed,
            )
            cl.install_faults(plan)
            return [plan.control_fate("rts", 0, 1) for _ in range(64)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)


class TestControlFate:
    def _bound(self, cluster, spec):
        plan = FaultPlan(spec, seed=11)
        cluster.install_faults(plan)
        return plan

    def test_certain_drop_counts_and_records(self, tiny_cluster):
        plan = self._bound(tiny_cluster, FaultSpec(drop_prob=1.0))
        for _ in range(5):
            action, extra = plan.control_fate("fin", 0, 1)
            assert (action, extra) == ("drop", 0.0)
        assert plan.stats["drops"] == 5
        assert all(cat == "drop" for _, cat, _ in plan.trace())

    def test_kind_filter_limits_eligibility(self, tiny_cluster):
        plan = self._bound(
            tiny_cluster,
            FaultSpec(drop_prob=1.0, control_kinds=frozenset({"rts"})),
        )
        assert plan.control_fate("ctrl", 0, 1) == ("deliver", 0.0)
        assert plan.control_fate("rts", 0, 1)[0] == "drop"
        assert plan.stats["drops"] == 1

    def test_error_cqe_respects_initiator_filter(self, tiny_cluster):
        plan = self._bound(
            tiny_cluster,
            FaultSpec(error_cqe_prob=1.0, error_initiators=("dpu",)),
        )
        assert plan.transfer_fate("data", "host", 0, 1) == ("ok", 0.0)
        assert plan.transfer_fate("data", "dpu", 0, 1)[0] == "error"
        assert plan.stats["error_cqes"] == 1


class TestFabricControlHooks:
    def _send(self, cluster, kind="rts"):
        a = cluster.rank_ctx(0)
        b = cluster.rank_ctx(1)

        def prog(sim):
            yield from post_control(a, b, ("probe", kind), kind=kind)

        run_proc(cluster, prog(cluster.sim))
        _drain(cluster)
        return b.inbox

    def test_dropped_message_never_lands(self, tiny_cluster):
        tiny_cluster.install_faults(FaultPlan(FaultSpec(drop_prob=1.0)))
        inbox = self._send(tiny_cluster)
        assert len(inbox) == 0
        assert tiny_cluster.metrics.get("fabric.faults.drop") == 1

    def test_duplicate_delivered_twice(self, tiny_cluster):
        tiny_cluster.install_faults(FaultPlan(FaultSpec(dup_prob=1.0)))
        inbox = self._send(tiny_cluster)
        assert inbox.items == [("probe", "rts"), ("probe", "rts")]
        assert tiny_cluster.metrics.get("fabric.faults.dup") == 1

    def test_kind_filter_spares_baseline_traffic(self, tiny_cluster):
        tiny_cluster.install_faults(FaultPlan(
            FaultSpec(drop_prob=1.0, control_kinds=OFFLOAD_CONTROL_KINDS)
        ))
        inbox = self._send(tiny_cluster, kind="ctrl")
        assert len(inbox) == 1
        assert tiny_cluster.metrics.get("fabric.faults.drop") == 0

    def test_delay_postpones_delivery(self):
        def arrival(spec):
            cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
            if spec is not None:
                cl.install_faults(FaultPlan(spec, seed=3))
            a, b = cl.rank_ctx(0), cl.rank_ctx(1)
            times = {}

            def prog(sim):
                yield from post_control(a, b, "x", kind="rts")
                yield b.inbox.get()
                times["t"] = sim.now

            run_proc(cl, prog(cl.sim))
            return times["t"]

        clean = arrival(None)
        delayed = arrival(FaultSpec(delay_prob=1.0, delay_max=40e-6))
        assert delayed > clean


class TestFabricTransferHooks:
    def test_error_cqe_moves_no_bytes(self, tiny_cluster):
        tiny_cluster.install_faults(FaultPlan(
            FaultSpec(error_cqe_prob=1.0, error_initiators=("host",))
        ))
        src = tiny_cluster.rank_ctx(0)
        dst = tiny_cluster.rank_ctx(1)
        data = pattern(4096, seed=5)
        sa = src.space.alloc_like(data)
        da = dst.space.alloc(4096)
        out = {}

        def prog(sim):
            hs = yield from reg_mr(src, sa, 4096)
            hd = yield from reg_mr(dst, da, 4096)
            t = yield from rdma_write(
                src, lkey=hs.lkey, src_addr=sa, rkey=hd.rkey,
                dst_addr=da, size=4096)
            out["dv"] = yield t.completed

        run_proc(tiny_cluster, prog(tiny_cluster.sim))
        assert out["dv"].status == "error"
        assert (dst.space.read(da, 4096) == 0).all()  # nothing landed
        assert tiny_cluster.fault_plan.stats["error_cqes"] == 1


class TestKillScheduling:
    def test_kill_plan_arms_on_framework_build(self, tiny_cluster):
        from repro.offload import OffloadFramework

        plan = FaultPlan(kills=[ProxyKillPlan(proxy_gid=0, at=5e-6,
                                              restart_after=10e-6)])
        tiny_cluster.install_faults(plan)
        fw = OffloadFramework(tiny_cluster)
        engine = proxy_engine_of(fw, 0)
        tiny_cluster.sim.run(until=tiny_cluster.sim.timeout(8e-6))
        assert engine.alive is False
        tiny_cluster.sim.run(until=tiny_cluster.sim.timeout(20e-6))
        assert engine.alive is True and engine.incarnation == 1
        assert plan.stats["kills"] == 1 and plan.stats["restarts"] == 1
        assert [cat for _, cat, _ in plan.trace()] == ["kill", "restart"]
        assert tiny_cluster.metrics.get("proxy.kills") == 1
        assert tiny_cluster.metrics.get("proxy.restarts") == 1

    def test_retry_policy_implied_by_plan(self, tiny_cluster):
        from repro.offload import OffloadFramework

        tiny_cluster.install_faults(FaultPlan())
        fw = OffloadFramework(tiny_cluster)
        assert fw.resilient and isinstance(fw.retry, RetryPolicy)

    def test_clean_framework_not_resilient(self, tiny_cluster):
        from repro.offload import OffloadFramework

        fw = OffloadFramework(tiny_cluster)
        assert not fw.resilient and fw.retry is None


class TestInstallOrder:
    def test_plan_installed_after_the_framework_is_refused(self):
        """Init_Offload reads ``cluster.fault_plan`` once: a plan installed
        later would drop messages with no recovery layer to resend them."""
        from repro.offload import OffloadFramework

        cl = Cluster(ClusterSpec(nodes=2, ppn=1, proxies_per_dpu=1))
        OffloadFramework(cl)
        with pytest.raises(ValueError, match="install the fault plan first"):
            cl.install_faults(FaultPlan(FaultSpec(drop_prob=0.3)))
        assert cl.fault_plan is None and cl.fabric.fault_plan is None
