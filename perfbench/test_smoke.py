"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# spans each workload must call; the per-layer metrics of the rest read 0
LAYERS_CALLED = {
    "momentum": [
        "lattice.assemble_bloch", "models.build_model", "models.central_gap",
        "greens.bloch_band_grid", "chern.transfer_matrix", "chern.chern_transfer",
        "chern.berry_flux_chern", "chern.transition_winding", "chern.pauli_decompose",
        "chern.fermi_projector", "chern.real_space_chern",
    ],
    "ensemble": [
        "lattice.assemble_finite_volume", "lattice.eigenvalues",
        "disorder.sample_realization", "disorder.build_random_hamiltonian",
        "spectral.ids_estimate", "spectral.ids_squared_estimate",
        "spectral.dos_histogram", "parallel_map",
    ],
    "localization": [
        "lattice.assemble_finite_volume", "lattice.eigenvalues",
        "disorder.sample_realization", "disorder.build_random_hamiltonian",
        "greens.ResolventSolver", "greens.ResolventSolver.columns",
        "greens.fractional_moment_scan", "greens.localization_phase_diagram",
    ],
}
CLI_CALLED = {
    "momentum": ["bands", "gap-scan", "chern", "verify"],
    "ensemble": ["ids", "dos"],
    "localization": ["fmm-decay", "phase-diagram", "run_manifest"],
}
WORK_COUNTERS = (".calls", ".items", ".n3_sum", ".reuse_ratio", ".fail_ratio")


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_counters_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert first["correct"] and second["correct"]
    metrics = {name: m["value"] for name, m in first["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for span in LAYERS_CALLED[workload]:
        called = [k for k in (f"{span}.calls", f"{span}.self_s") if k in metrics]
        assert called and all(metrics[k] > 0 for k in called), span
    for cmd in CLI_CALLED[workload]:
        assert metrics[f"cli.{cmd}.wall_s"] > 0, cmd
    repeat = {name: m["value"] for name, m in second["metrics"].items()}
    for name in metrics:
        if name.endswith(WORK_COUNTERS):
            assert metrics[name] == repeat[name], name


def test_no_wrapper_installed_when_untraced_timing_starts(monkeypatch):
    sys.path.insert(0, str(HERE))
    import run
    import spans

    installed = []
    timed_passes = run.timed_passes

    def spy(cli, exps, out_dir, seconds, tracer=None):
        installed.append((tracer is not None, spans.installed_wrappers()))
        return timed_passes(cli, exps, out_dir, seconds, tracer)

    monkeypatch.setattr(run, "timed_passes", spy)
    args = ["--workload", "localization", "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny"]
    assert run.main(args) == 0
    (traced, during), (untraced, before) = installed
    assert traced and during, "the traced passes ran without wrappers"
    assert not untraced and before == [], f"wrappers left installed: {before}"
    assert spans.installed_wrappers() == []
