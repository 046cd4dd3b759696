"""Command-line driver: subcommand outputs, manifest replay, exit codes,
and the verify suite's sensitivity to injected defects."""

from __future__ import annotations

import csv
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from bdgtools import models
from bdgtools.cli import (
    ExperimentManifest,
    _build_parser,
    _manifest_from_args,
    main,
    run_manifest,
)
from bdgtools.lattice import assemble_bloch, tight_binding
from bdgtools.models import ModelParams, build_pairing, central_gap, example_bands


def _rows(text: str) -> list[list[str]]:
    data = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(data))))


def _comments(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln.startswith("#")]


def test_bands_match_closed_form(tmp_path):
    out = tmp_path / "bands.csv"
    assert (
        main(
            [
                "bands",
                "--model",
                "pip+",
                "--params",
                "delta=0.3,mu=-0.5,n=7",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    text = out.read_text()
    rows = _rows(text)
    assert rows[0] == ["k1", "k2", "E_minus", "E_plus"]
    assert len(rows) == 1 + 49
    params = ModelParams(0.3, -0.5)
    for row in rows[1:]:
        k1, k2, lo, hi = map(float, row)
        bp = example_bands("pip+", params, (k1, k2))
        assert abs(lo - bp.E_minus) < 1e-12 and abs(hi - bp.E_plus) < 1e-12
    (gap_line,) = _comments(text)
    gap = float(gap_line.split("=")[1])
    assert abs(gap - central_gap("pip+", params)) < 1e-8


def test_bands_chiral_d_uses_both_sectors(tmp_path, capsys):
    assert main(["bands", "--model", "did+", "--params", "delta=1,mu=2,n=5"]) == 0
    rows = _rows(capsys.readouterr().out)
    params = ModelParams(1.0, 2.0)
    for row in rows[1:]:
        k1, k2, lo, hi = map(float, row)
        bp = example_bands("did+", params, (k1, k2))
        assert abs(lo - bp.E_minus) < 1e-12 and abs(hi - bp.E_plus) < 1e-12


@pytest.mark.parametrize("model, delta, mu, n", [("pip+", 0.3, -0.5, 9), ("did+", 1.0, 2.0, 6)])
def test_bands_csv_is_byte_identical_to_the_per_point_loop(model, delta, mu, n, capsys):
    assert main(["bands", "--model", model, "--params", f"delta={delta},mu={mu},n={n}"]) == 0
    text = capsys.readouterr().out
    op = models.build_model(model, delta=delta, mu=mu)
    ks = np.linspace(-np.pi, np.pi, n)
    fmt = lambda x: "%.17g" % float(x)
    lines = ["k1,k2,E_minus,E_plus"]
    for k1 in ks:
        for k2 in ks:
            w = np.linalg.eigvalsh(assemble_bloch(op, (float(k1), float(k2))).matrix)
            lines.append(",".join([fmt(k1), fmt(k2), fmt(w[0]), fmt(w[-1])]))
    assert text.splitlines()[:-1] == lines


def test_gap_scan_tracks_small_mu(capsys):
    assert (
        main(
            [
                "gap-scan",
                "--model",
                "pip+",
                "--params",
                "delta=0.3,mu_min=-0.1,mu_max=0.1,n=5",
            ]
        )
        == 0
    )
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["mu", "gap"]
    for row in rows[1:]:
        mu, gap = map(float, row)
        assert abs(gap - abs(mu)) < 1e-6


def test_chern_scan_rows_and_gap_closure(capsys):
    assert (
        main(
            [
                "chern",
                "--model",
                "pip+",
                "--params",
                "delta=0.3,mus=-0.5:0:0.01",
            ]
        )
        == 0
    )
    rows = _rows(capsys.readouterr().out)
    assert [r[3] for r in rows[1:]] == ["-1", "", "1"]
    assert "gap-closed" in rows[2][5]


def test_chern_contour_on_a_chirality_sector(capsys):
    assert (
        main(
            [
                "chern",
                "--model",
                "did+",
                "--params",
                "delta=1,sector=1,mus=2,method=contour",
            ]
        )
        == 0
    )
    rows = _rows(capsys.readouterr().out)
    assert rows[1][1] == "contour" and rows[1][3] == "-2"


def test_manifest_replay_is_byte_identical(tmp_path):
    out = tmp_path / "ids.csv"
    args = [
        "ids",
        "--model",
        "pip+",
        "--params",
        "delta=0.3,mu=-0.5,energies=0.5:1.0,lam=0.1",
        "--disorder",
        "W00",
        "--L",
        "8",
        "--realizations",
        "4",
        "--seed",
        "7",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    manifest_path = tmp_path / "ids.csv.manifest.json"
    doc = json.loads(manifest_path.read_text())
    assert doc["command"] == "ids" and doc["model"]["name"] == "pip+"
    assert doc["params"]["seed"] == 7 and doc["artifact_version"]
    replay = run_manifest(manifest_path, out=tmp_path / "replay.csv")
    assert replay.encode() == out.read_bytes()
    assert (tmp_path / "replay.csv").read_bytes() == out.read_bytes()


def test_manifest_json_roundtrip():
    man = ExperimentManifest(
        command="dos",
        model={"name": "pip+", "delta": 0.3, "mu": -0.5},
        disorder=None,
        params={"L": 8, "bins": 32, "seed": 0, "threads": 1, "realizations": 1},
    )
    assert ExperimentManifest.from_json(man.to_json()) == man


def test_dos_layout(capsys):
    assert (
        main(
            [
                "dos",
                "--model",
                "pip+",
                "--params",
                "delta=0.3,mu=-0.5,bins=16,erange=-2:2",
                "--L",
                "8",
            ]
        )
        == 0
    )
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["bin_lo", "bin_hi", "rho"]
    assert len(rows) == 1 + 16
    assert float(rows[1][0]) == -2.0 and float(rows[-1][1]) == 2.0


def test_fmm_decay_reports_fit(capsys):
    assert (
        main(
            [
                "fmm-decay",
                "--model",
                "pip+",
                "--params",
                "delta=0.3,mu=-0.5,E=0,eps=0.001,s=0.3",
                "--L",
                "16",
            ]
        )
        == 0
    )
    text = capsys.readouterr().out
    rows = _rows(text)
    assert rows[0] == ["d", "tau", "stderr"]
    tags = [c.split("=")[0].strip("# ") for c in _comments(text)]
    assert tags == ["rate", "rate_err", "r_squared", "fit_window", "n_realizations"]
    rate = float(_comments(text)[0].split("=")[1])
    assert rate > 0.0  # in-gap clean decay


def test_phase_diagram_marks_threshold(capsys):
    assert (
        main(
            [
                "phase-diagram",
                "--model",
                "pip+",
                "--params",
                "delta=0.3,mu=0.5,lambdas=0:0.4,energies=0:3",
                "--L",
                "12",
                "--realizations",
                "4",
            ]
        )
        == 0
    )
    text = capsys.readouterr().out
    rows = _rows(text)
    clean = [r for r in rows[1:] if float(r[0]) == 0.0]
    assert clean and all(r[2] == "outside-spectrum" for r in clean)
    (line,) = _comments(text)
    assert float(line.split("=")[1]) == pytest.approx(0.5)


def test_verify_passes_on_clean_build(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out and "FAIL" not in out


def test_verify_flags_sign_defect_in_pairing(monkeypatch, capsys):
    def broken(kind, delta, **kwargs):
        op = build_pairing(kind, delta, **kwargs)
        terms = {j: np.array(b) for j, b in op.terms.items()}
        for j in terms:
            if j > (0, 0):  # one-sided flip breaks Delta* = -conj(Delta)
                terms[j] = -terms[j]
        return tight_binding(op.fiber, terms)

    monkeypatch.setattr("bdgtools.cli.build_pairing", broken)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL bdg-equation-catalog" in out and "verify: FAIL" in out


def test_usage_errors_exit_2(capsys):
    assert main(["chern", "--model", "nope"]) == 2
    assert "unknown model" in capsys.readouterr().err
    assert main(["chern", "--model", "pip+", "--params", "delta=0.3"]) == 2
    assert "mus" in capsys.readouterr().err
    assert main(["frobnicate"]) == 2
    assert main(["ids", "--model", "pip+", "--params", "delta=0.3,mu=1,energies=1,lam=0.5"]) == 2
    assert "--disorder" in capsys.readouterr().err


def test_explicit_zero_realizations_is_kept_and_refused(capsys):
    args = [
        "ids", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,energies=1,lam=0.5",
        "--disorder", "W00", "--L", "6", "--realizations", "0",
    ]
    assert _manifest_from_args(_build_parser().parse_args(args)).params["realizations"] == 0
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_realizations" in err


@pytest.mark.parametrize("count", ["0", "-5"])
def test_clean_ensemble_refuses_a_realization_count_below_one(count, tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = [
        "ids", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,energies=1",
        "--L", "6", "--realizations", count, "--out", str(out),
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_realizations" in err
    assert not out.exists()


def test_phase_diagram_negative_realizations_exits_2(capsys):
    args = [
        "phase-diagram", "--model", "pip+", "--params",
        "delta=0.3,mu=0.5,lambdas=0:0.2,energies=0", "--L", "8", "--realizations", "-2",
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_non_converged_gap_refinement_exits_2(monkeypatch, capsys):
    def stalled(fun, x0, **kwargs):
        return OptimizeResult(
            x=np.asarray(x0), fun=fun(x0), success=False, nit=4000,
            message="Maximum number of iterations has been exceeded.",
        )

    monkeypatch.setattr(models, "minimize", stalled)
    args = ["gap-scan", "--model", "pip+", "--params", "delta=0.3,mu_min=0.5,mu_max=0.5,n=1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: central_gap:") and "'pip+'" in err
    assert "did not converge" in err and "Traceback" not in err


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("bdgtools "):
                lines.append(line)
    return lines


def test_readme_cli_examples_parse():
    commands = _readme_commands()
    assert len(commands) >= 7
    parser = _build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        man = _manifest_from_args(args)
        assert man.command == args.command, line
