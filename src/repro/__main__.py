"""Command-line entry point: ``python -m repro <command>``.

Commands:
    run [--all | figNN ...] [--jobs N]
                          regenerate paper figures, optionally sharded
                          across N worker processes (see experiments.runall)
    ablations             run the ablation studies
    soak [--iters N ...]  chaos-soak SLO harness: exchange workloads under
                          seeded fault plans with checkpointed iterations
                          (see experiments.soak / docs/RESILIENCE.md)
    info                  print package / inventory summary
"""

from __future__ import annotations

import sys


def _info() -> int:
    import repro
    from repro.experiments import ALL_FIGURES

    print(f"repro {repro.__version__} -- IPDPS'23 BlueField offload reproduction")
    print()
    print("paper figures reproduced:")
    for name in ALL_FIGURES:
        print(f"  {name}")
    print()
    print("entry points:")
    print("  python -m repro run --all --jobs 4   # parallel figure regen")
    print("  python -m repro run [figNN ...] [--scale quick|paper] [--jobs N]")
    print("  python -m repro run --all --resume results/campaign  # crash-safe")
    print("  python -m repro ablations")
    print("  python -m repro soak --iters 10  # chaos-soak SLO harness")
    print("  pytest tests/                 # unit/integration/property tests")
    print("  python examples/quickstart.py")
    return 0


def _ablations() -> int:
    from repro.experiments import ablations

    ok = True
    for fn in (
        ablations.run_reg_cache_ablation,
        ablations.run_group_cache_ablation,
        ablations.run_proxy_sweep,
        ablations.run_dpu_generation,
    ):
        fig = fn()
        print(fig.render())
        print()
        ok = ok and fig.all_passed
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] in ("info", "--help", "-h"):
        return _info()
    if args[0] == "run":
        from repro.experiments.runall import main as runall_main

        return runall_main(args[1:])
    if args[0] == "ablations":
        return _ablations()
    if args[0] == "soak":
        from repro.experiments.soak import main as soak_main

        return soak_main(args[1:])
    print(f"unknown command {args[0]!r}; try `python -m repro info`")
    return 2


if __name__ == "__main__":
    sys.exit(main())
