"""Smoke tests: every shipped example runs end to end and says so."""

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(f"example_{name}",
                                                  EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run_example("quickstart", capsys)
    assert "payload verified" in out
    assert "finished during the compute" in out


def test_ring_broadcast(capsys):
    out = _run_example("ring_broadcast", capsys)
    assert "proposed cross-GVMI offload" in out
    assert "hides the ring" in out


def test_fft_transpose(capsys):
    out = _run_example("fft_transpose", capsys)
    assert out.count("OK") == 3
    assert "normalised to IntelMPI" in out


def test_shmem_pgas(capsys):
    out = _run_example("shmem_pgas", capsys)
    assert "bit-exact" in out
    assert "get of PE 1's heap verified" in out
    assert out.count("left barrier_all") == 2


def test_timeline_trace(capsys):
    out = _run_example("timeline_trace", capsys)
    assert "dpu0" in out and "#" in out
    path = Path(out.rsplit("Perfetto trace: ", 1)[1].strip())
    assert path.parent == Path(tempfile.gettempdir())
    assert json.loads(path.read_text())["traceEvents"]


@pytest.mark.slow
def test_hpl_lookahead(capsys):
    out = _run_example("hpl_lookahead", capsys)
    assert out.count("OK") == 3
    assert "Proposed" in out


def test_runall_single_figure(capsys):
    from repro.experiments.runall import main

    assert main(["fig05"]) == 0
    out = capsys.readouterr().out
    assert "all shape checks passed" in out
