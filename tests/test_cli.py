"""Command-line driver: subcommand outputs, manifest replay, exit codes,
and the verify suite's sensitivity to injected defects."""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import bdgtools
from bdgtools import lattice, models
from bdgtools.cli import (
    _COMMANDS,
    VERIFY_CHECKS,
    ExperimentManifest,
    _build_parser,
    _manifest_from_args,
    main,
    run_manifest,
)
from bdgtools.disorder import default_spec, spec_to_json
from bdgtools.lattice import assemble_bloch, model_to_json, tight_binding
from bdgtools.models import (
    ModelParams,
    build_model,
    build_pairing,
    central_gap,
    example_bands,
    reduce_su2,
)


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


@pytest.mark.parametrize(
    "model, params, extra, message",
    [
        ("pip+", "delta=0.3,mus=-0.5:0.5,method=berry,grid_n=5", [], "grid_n must be >= 24, got 5"),
        ("pip+", "delta=0.3,mus=-0.5:0.5,n_k=4", [], "n_k must be >= 8, got 4"),
        ("pip+", "delta=0.3,mus=-0.5:0.5,method=realspace", ["--L", "3"],
         "torus side L must be >= 4, got 3"),
        ("did+", "delta=1,mus=2,method=contour", [], "needs a 2x2 fiber"),  # no sector
    ],
    ids=["berry-grid_n", "transfer-n_k", "realspace-L", "contour-fiber"],
)
def test_chern_setting_refused_at_every_mu_exits_2(model, params, extra, message, tmp_path, capsys):
    out = tmp_path / "chern.csv"
    argv = ["chern", "--model", model, "--params", params, *extra, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err, captured.err
    assert "Traceback" not in captured.err and captured.out == "" and not out.exists()


def test_chern_replay_refuses_a_setting_refused_at_every_mu(tmp_path):
    out = tmp_path / "chern.csv"
    assert main(["chern", "--model", "pip+", "--params", "delta=0.3,mus=-0.5",
                 "--out", str(out)]) == 0
    path = Path(str(out) + ".manifest.json")
    doc = json.loads(path.read_text())
    doc["params"]["n_k"] = 4
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="n_k must be >= 8, got 4"):
        run_manifest(path)


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


def test_verify_times_every_check_on_stderr_only(tmp_path, capsys):
    assert main(["verify"]) == 0
    out, err = capsys.readouterr()
    timed = [line.split(" ") for line in err.splitlines()]
    assert [t[1] for t in timed] == [name for name, _ in VERIFY_CHECKS]
    assert all(len(t) == 4 and t[0] == "verify:" and t[3] == "s" and float(t[2]) >= 0.0
               for t in timed)
    assert [line for line in out.splitlines() if line.startswith("verify:")] == ["verify: PASS"]
    report = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(report)]) == 0
    again = capsys.readouterr()
    assert again.out == "" and report.read_text() == out
    assert [line.split(" ")[1] for line in again.err.splitlines()] == [t[1] for t in timed]


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


def test_verify_flags_a_bloch_route_off_the_dense_one(monkeypatch, capsys):
    def transposed(model, L):  # the fibers of the L2 x L1 box: an index mix-up
        return lattice._box_fibers(model, (L[1], L[0])).transpose(1, 0, 2, 3)

    for module in ("spectral", "greens", "chern"):
        monkeypatch.setattr(f"bdgtools.{module}._box_fibers", transposed)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    # pip+ is symmetric under k1 <-> k2, so its spectrum cannot tell; the
    # certification of the columns against the assembled box does
    assert "FAIL clean-bloch-routes: resolvent solve at z = (0.3+0.0001j) rejected" in out
    assert out.splitlines()[-1] == "verify: FAIL"


def _loaded_by_cli(module: str, *argvs: list[str]) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after ``import bdgtools.cli``
    and a successful ``main`` call on each of ``argvs``."""
    code = (
        f"import sys, bdgtools.cli\n"
        f"for argv in {argvs!r}:\n"
        f"    assert bdgtools.cli.main(argv) == 0, argv\n"
        f"print({module!r} in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bdgtools.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip().splitlines()[-1] == "True"


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    assert not _loaded_by_cli("scipy.stats")


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    assert not _loaded_by_cli("scipy.optimize")


def test_gap_scan_contour_chern_and_verify_leave_scipy_optimize_unloaded():
    assert not _loaded_by_cli(
        "scipy.optimize",
        ["gap-scan", "--model", "pip+", "--params", "delta=0.3,mu_min=-1,mu_max=1,n=3"],
        ["chern", "--model", "did+", "--params", "delta=1,sector=1,mus=2,method=contour"],
        ["verify"],
    )


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


@pytest.mark.parametrize(
    "extra, flags, named",
    [
        (",s=1.2", [], "fractional power"),
        ("", ["--realizations", "4"], "n_realizations = 4"),
        ("", ["--L", "3"], "max_dist = 0"),
        ("", ["--L", "4"], "max_dist = 1"),
    ],
    ids=["s", "realizations", "L3", "L4"],
)
def test_phase_diagram_setting_its_scans_refuse_exits_2(extra, flags, named, tmp_path, capsys):
    out = tmp_path / "pd.csv"
    argv = ["phase-diagram", "--model", "pip+", "--params",
            "delta=0.3,mu=0.5,lambdas=0.2,energies=0:1" + extra, *flags, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("name, extra", [("s-star", ""), ("s", ",sector=1")])
def test_gap_scan_without_closed_form_bands_uses_the_built_operator(name, extra, capsys):
    argv = ["gap-scan", "--model", name, "--params", "delta=0.4,mu_min=-1,mu_max=1,n=3" + extra]
    assert main(argv) == 0
    rows = _rows(capsys.readouterr().out)
    for mu, gap in rows[1:]:
        model = build_model(name, delta=0.4, mu=float(mu))
        if extra:
            model = reduce_su2(model)[0]
        assert gap == "%.17g" % central_gap(model, ModelParams(0.0, 0.0))


def test_non_converged_gap_refinement_exits_2(monkeypatch, capsys):
    def stalled(fun, x0, **kwargs):
        return OptimizeResult(
            x=np.asarray(x0), fun=fun(x0), success=False, nit=4000,
            message="Maximum number of iterations has been exceeded.",
        )

    monkeypatch.setattr(models, "_nelder_mead", stalled)
    args = ["gap-scan", "--model", "pip+", "--params", "delta=0.3,mu_min=0.5,mu_max=0.5,n=1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: central_gap:") and "'pip+'" in err
    assert "did not converge" in err and "Traceback" not in err


ROOT = Path(__file__).resolve().parents[1]


def _readme_commands() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("bdgtools "):
                lines.append(line)
    return lines


def _bench_argvs(spec_dir: Path) -> dict[str, list[str]]:
    """Every CLI argv of the benchmark's three workloads at their tiny sizes."""
    module = "perfbench_workloads"
    if module not in sys.modules:  # the module's dataclass needs it registered
        found = importlib.util.spec_from_file_location(module, ROOT / "perfbench" / "workloads.py")
        sys.modules[module] = importlib.util.module_from_spec(found)
        found.loader.exec_module(sys.modules[module])
    workloads = sys.modules[module]
    argvs = {}
    for name in ("momentum", "ensemble", "localization"):
        workloads.write_inputs(name, spec_dir)
        for exp in workloads.experiments(name, 0, tiny=True, threads=1):
            if exp.argv is not None:
                spec = str(spec_dir / "spec.json")
                argvs[f"{name}: {exp.label}"] = [spec if a == "{spec}" else a for a in exp.argv]
    return argvs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the manifest JSON of each input, pinned from the code that built
# manifests command by command: valid inputs keep these bytes.  README lines
# are keyed by subcommand, benchmark argvs by "workload: label".
README_MANIFESTS = {
    "bands": "df5913080cb3adff31fec3ea15635c0c0d699e46a1c19441621cb1caff9b56c8",
    "gap-scan": "6e91d7ff441d8fb35627c840241c29e07bbeb3afbe4efaf44182780fb6ddbbe2",
    "ids": "a93c39bb2c74f6558d313eea422109a537daeb2ed5f08d6c635cbed039822bef",
    "chern": "369c9f630b236e6cdbf3d16bc4e822c3e2e86c646e0e4d7f132efdeb47b63be6",
    "fmm-decay": "9973aec04946cf4ef8c03e705a292bd7c8218f24a2b5a313ab78ce416ea64b7d",
    "phase-diagram": "03b2e3023d906008defac3813b6483b0832d23b097ad182b2e6be3ceba9f1b9a",
    "verify": "0217eaf9e1bf1ea5811626bbf39ca70150c47036e89cf1667497d38ffdb6f5f9",
}
BENCH_MANIFESTS = {
    "momentum: bands pip+": "12c6891e5178443798378ea08bd32a367f3b7beccf0ca79e5c1e1d18781ec84c",
    "momentum: bands did+": "6a2c54f4217d6b73f911f61b24351c32ff912ba793fac0a3aafeab1d28a5d8e2",
    "momentum: gap-scan pip+": "b0098852d8fde8e9f9750dce6634ecda817110099269339b5efb170544e451bb",
    "momentum: chern pip+ transfer": "1bd77d699ad7e4a1ade6a6dd85207a6a6b85996d1fe33aa3ad61002d5f49b787",
    "momentum: chern pip+ berry": "488f0fe8e06e904db9c149d56124dd7fc433f08ab9c9130cb5e6f80aa38ef4ac",
    "momentum: chern did+ berry": "04728d0445d4aa672e0500cf401fd823232582e88da95db42ec9dad418dd2edc",
    "momentum: chern did+ contour": "8567f820750dd4bda2865beb57f7c60d2f550b918bfd6bd0bdbd2b1dc4b2532c",
    "momentum: chern pip+ realspace": "4c178b79adaf5a53ecad0078c157a8a7bc48a361ab88751b4b3ef2af278fb0b8",
    "momentum: verify": "0217eaf9e1bf1ea5811626bbf39ca70150c47036e89cf1667497d38ffdb6f5f9",
    "ensemble: ids E": "32abde9161f0f41370ed83d0d0cdcbae3e995431ca9562545dd5b81ac148cbce",
    "ensemble: ids -E": "a868b751d4f1b2dd9a7a457e6faaa5d55fe3f4f28274fbe545a8ccaf3fccd4de",
    "ensemble: ids squared E^2": "4a8b7ae61c13c224d58e983be7fbdc775cacdf79c8664a4d070fc58ce4df54b2",
    "ensemble: dos pip+ squared": "da7a7575f1799aa97879989349ff2de2c98f3e535179d9b2929f8662425aa9cd",
    "ensemble: dos did+": "fd7de9f3cb514e5967ab029b2006d4572d6e114395715e871b498dc12ffac149",
    "ensemble: dos pip+ W00+W10": "8b3c5721ba5c0cc1963fdcf3f90d37daaf613f5a806d57e3a329330f50c3200a",
    "ensemble: dos pip+ clean": "5e041834650bbaef373deef1ad57a28f48db08bef03b2de3189475faeb269f6c",
    "localization: fmm-decay": "54a4ec13692a462ecd1f31e4830eb6c1eea7695614cf44705866da448a87dca3",
    "localization: phase-diagram": "0ef364d94665bf4fc18e466c1f762a3ee8949e7a36d81478e83382401a5261ae",
}


def test_readme_cli_examples_parse(tmp_path):
    commands = _readme_commands()
    assert len(commands) >= 7
    parser = _build_parser()
    pinned = {}
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        man = _manifest_from_args(args)
        assert man.command == args.command, line
        pinned[args.command] = _sha256(man.to_json())
    assert pinned == README_MANIFESTS
    bench = {}
    for label, argv in _bench_argvs(tmp_path).items():  # written manifests replay exactly
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0, label
        manifest = Path(str(out) + ".manifest.json")
        bench[label] = _sha256(manifest.read_text())
        assert run_manifest(manifest) == out.read_text(), label
    assert bench == BENCH_MANIFESTS


@pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
def test_replay_keeps_a_64_bit_seed_exact(seed, tmp_path):
    out = tmp_path / "dos.csv"  # one realization: the histogram tells the seeds apart
    assert main(["dos", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,lam=0.5",
                 "--disorder", "W00", "--L", "6", "--realizations", "1", "--seed", str(seed),
                 "--out", str(out)]) == 0
    manifest = Path(str(out) + ".manifest.json")
    assert json.loads(manifest.read_text())["params"]["seed"] == seed
    assert run_manifest(manifest) == out.read_text()


def _exit_2(argv, capsys, command: str, *named: str) -> None:
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}:") and "Traceback" not in err, err
    for word in named:
        assert word in err, err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["chern", "--model", "pip+", "--params",
          "delta=0.3,mus=-0.5,method=berry,grid=24,gridn=30"], "'grid'"),
        (["bands", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,lam=2"], "'lam'"),
        (["gap-scan", "--model", "pip+", "--params", "delta=0.3,mu=0,mu_min=0,mu_max=1"], "'mu'"),
        (["chern", "--model", "pip+", "--params", "delta=0.3,mus=0.5,method=wilson"], "method"),
    ],
)
def test_unknown_or_refused_params_key_exits_2(argv, key, capsys):
    _exit_2(argv, capsys, argv[0], key)


@pytest.mark.parametrize("erange", ["1", "2:-2", "-1:0:1"])
def test_dos_erange_needs_two_increasing_values(erange, tmp_path, capsys):
    out = tmp_path / "dos.csv"
    argv = ["dos", "--model", "pip+", "--params", f"delta=0.3,mu=-0.5,erange={erange}",
            "--L", "4", "--out", str(out)]
    _exit_2(argv, capsys, "dos", "erange")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["dos", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,erange=-inf:inf", "--L", "4"],
         "erange="),
        (["phase-diagram", "--model", "pip+", "--params",
          "delta=0.3,mu=0.5,lambdas=0.1,energies=nan", "--L", "6", "--realizations", "2"],
         "energies="),
        (["ids", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,lam=inf,energies=0.5",
          "--disorder", "W00", "--L", "4"], "lam="),
        (["fmm-decay", "--model", "pip+", "--params", '{"delta": 0.3, "mu": -0.5, "E": NaN}'],
         "E="),
        (["gap-scan", "--model", "pip+", "--params", "delta=Infinity,mu_min=0,mu_max=1"],
         "delta="),
        (["chern", "--model", "pip+", "--params", "delta=0.3,mus=-0.5:-inf"], "mus="),
    ],
    ids=["dos-erange", "phase-diagram-energies", "ids-lam", "fmm-decay-E", "gap-scan-delta",
         "chern-mus"],
)
def test_non_finite_reals_exit_2(argv, key, tmp_path, capsys):
    out = tmp_path / "x.csv"
    _exit_2(argv + ["--out", str(out)], capsys, argv[0], key, "finite")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("energies", [0.5, math.nan]), ("lam", math.inf)])
def test_replay_refuses_non_finite_reals(key, value, tmp_path):
    out = tmp_path / "fmm.csv" if key == "lam" else tmp_path / "ids.csv"
    argv = (["fmm-decay", "--model", "pip+", "--params", "delta=0.3,mu=-0.5", "--L", "16",
             "--realizations", "1"] if key == "lam" else
            ["ids", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,energies=0.5", "--L", "4",
             "--realizations", "1"])
    assert main(argv + ["--out", str(out)]) == 0
    manifest = Path(str(out) + ".manifest.json")
    doc = json.loads(manifest.read_text())
    doc["params"][key] = value  # written as NaN or Infinity
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{key}=.*finite"):
        run_manifest(manifest)


def test_spec_file_with_an_infinite_lambda_exits_2(tmp_path, capsys):
    doc = json.loads(spec_to_json(default_spec(r=1)))
    doc["lambda"] = math.inf
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    argv = ["ids", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,energies=1",
            "--disorder", str(spec), "--L", "4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lam" in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "command, params", [("ids", "energies=0.5"), ("phase-diagram", "lambdas=1,energies=0.5")]
)
def test_spec_accepted_but_not_hermitian_once_assembled_exits_2(command, params, tmp_path, capsys):
    # the closure defect, 9e-13, passes DisorderSpec's absolute 1e-12 test;
    # couplings up to 50 scale it in V to about 4e-11, which _assemble refuses
    def diag(a, b):
        return [[{"re": a, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                [{"re": 0.0, "im": 0.0}, {"re": b, "im": 0.0}]]

    nu = {"kind": "uniform", "params": {"r_support": 50}}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lambda": 1, "terms": [
        {"j": [1, 0], "W": diag(0.01, 0.01), "nu": nu},
        {"j": [-1, 0], "W": diag(0.0100000000009, 0.01), "nu": nu},
        {"j": [0, 0], "W": diag(0.01, -0.01), "nu": nu},
    ]}))
    argv = [command, "--model", "pip+", "--params", f"delta=0.3,mu=-0.5,{params}",
            "--disorder", str(spec), "--L", "6", "--realizations", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lost hermiticity" in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["bands", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,n=2.7"], "n="),
        (["bands", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,n=0"], "n="),
        (["gap-scan", "--model", "pip+", "--params", "delta=0.3,mu_min=0,mu_max=1,n=0"], "n="),
        (["chern", "--model", "did+", "--params",
          "delta=1,mus=2,method=contour,sector=0"], "sector="),
        (["bands", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,n=3,n=5"], "'n' given twice"),
        (["chern", "--model", "pip+", "--params", '{"delta": 0.3, "mus": 1, "mus": 2}'],
         "'mus' given twice"),
    ],
)
def test_integer_sector_and_duplicate_keys_are_refused(argv, key, capsys):
    _exit_2(argv, capsys, argv[0], key)


def test_catalog_keys_are_refused_with_a_model_file(tmp_path, capsys):
    path = tmp_path / "pip.json"
    path.write_text(model_to_json(models.build_model("pip+", delta=0.3, mu=-0.5)))
    base = ["bands", "--model", str(path)]
    assert main(base + ["--params", "n=3"]) == 0
    capsys.readouterr()
    for key in ("delta=0.3", "mu=-0.5", "sector=1"):
        _exit_2(base + ["--params", f"n=3,{key}"], capsys, "bands", repr(key.split("=")[0]))


def _spec_run(tmp_path, capsys, command, params, *extra):
    argv = [command, "--model", "pip+", "--params", "delta=0.3,mu=-0.5" + params, *extra]
    out = tmp_path / f"{len(list(tmp_path.iterdir()))}.csv"
    assert main(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
    return out.read_text(), json.loads(Path(str(out) + ".manifest.json").read_text())


@pytest.mark.parametrize(
    "command, extra",
    [
        ("ids", (",energies=0.5:1", "--L", "6", "--realizations", "4")),
        ("dos", ("", "--L", "6", "--realizations", "4")),
        ("fmm-decay", ("", "--L", "16", "--realizations", "8")),
    ],
)
def test_spec_file_coupling_is_lam_else_the_specs_lambda(command, extra, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_to_json(default_spec(r=1, lam=0.3)))
    keys, flags = extra[0], list(extra[1:])
    run = lambda params, *disorder: _spec_run(tmp_path, capsys, command, keys + params,
                                              *disorder, *flags)
    own, own_man = run("", "--disorder", str(spec))
    assert own_man["disorder"]["lambda"] == 0.3
    assert own == run(",lam=0.3", "--disorder", str(spec))[0]
    assert own != run("")[0]  # the spec's own coupling is not the clean operator
    clean = run(",lam=0", "--disorder", str(spec))
    assert clean[0] == run("")[0] and clean[1]["disorder"]["lambda"] == 0.0
    other, other_man = run(",lam=0.7", "--disorder", str(spec))
    assert other not in (own, clean[0]) and other_man["disorder"]["lambda"] == 0.7
    if command == "fmm-decay":
        assert own_man["params"]["lam"] == 0.3 and other_man["params"]["lam"] == 0.7
    else:
        assert "lam" not in own_man["params"]


_MINIMAL_ARGV = {
    "bands": ["--model", "pip+", "--params", "delta=0.3,mu=-0.5"],
    "gap-scan": ["--model", "pip+", "--params", "delta=0.3,mu_min=0,mu_max=1"],
    "ids": ["--model", "pip+", "--params", "delta=0.3,mu=-0.5,energies=1,lam=0.2",
            "--disorder", "W00", "--L", "6", "--realizations", "2"],
    "dos": ["--model", "pip+", "--params", "delta=0.3,mu=-0.5", "--L", "4"],
    "chern": ["--model", "pip+", "--params", "delta=0.3,mus=-0.5"],
    "fmm-decay": ["--model", "pip+", "--params", "delta=0.3,mu=-0.5"],
    "phase-diagram": ["--model", "pip+", "--params", "delta=0.3,mu=0.5,lambdas=0:0.2,energies=0"],
    "verify": [],
}


def test_minimal_argvs_cover_every_subcommand():
    assert set(_MINIMAL_ARGV) == set(_COMMANDS)


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
def test_threads_below_one_exit_2(command, threads, tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = [command, *_MINIMAL_ARGV[command], "--threads", threads, "--out", str(out)]
    _exit_2(argv, capsys, command, f"threads={threads}")
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    ["[1]", '{"lambda": 0.3}', '{"terms": [{"j": [0, 0]}]}'],
    ids=["list", "no-terms", "term-without-W"],
)
@pytest.mark.parametrize("command", ["ids", "dos", "fmm-decay"])
def test_disorder_file_that_is_not_a_spec_exits_2(command, doc, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(doc)
    argv = [command, "--model", "pip+", "--params", "delta=0.3,mu=-0.5" +
            (",energies=1" if command == "ids" else ""), "--disorder", str(spec)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err and "term" in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["chern", "--model", "pip+", "--params", "delta=0.3,mus=-0.5", "--disorder", "W00"],
        ["chern", "--model", "pip+", "--params", "delta=0.3,mus=-0.5", "--realizations", "9"],
        ["bands", "--model", "pip+", "--params", "delta=0.3,mu=-0.5", "--L", "99"],
        ["bands", "--model", "pip+", "--params", "delta=0.3,mu=-0.5", "--disorder", "W00"],
        ["gap-scan", "--model", "pip+", "--params", "delta=0.3,mu_min=0,mu_max=1", "--L", "8"],
        ["verify", "--model", "pip+"],
        ["verify", "--params", "n=3"],
        ["verify", "--L", "8"],
    ],
)
def test_flags_a_subcommand_does_not_read_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_subcommand_help_lists_its_keys_and_shared_flags(capsys):
    for name, cmd in _COMMANDS.items():
        assert main([name, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag in ("--seed", "--threads", "--out"):
            assert flag in text, (name, flag)
        for key in cmd.keys:
            assert f" {key} (" in text, (name, key)


@pytest.mark.parametrize(
    "edit, key",
    [
        pytest.param(lambda doc: doc["params"].update(grid=24), "'grid'", id="unknown"),
        pytest.param(lambda doc: doc["params"].update(n=2.7), "n=", id="fraction"),
        pytest.param(lambda doc: doc["params"].update(n="many"), "n=", id="text"),
        pytest.param(lambda doc: doc["params"].pop("n"), "needs n", id="missing"),
        pytest.param(lambda doc: doc["params"].update(seed=[1]), "seed=", id="list-seed"),
        pytest.param(lambda doc: doc["params"].update(threads=0), "threads=", id="zero-threads"),
        pytest.param(lambda doc: doc["model"].update(sector=0), "sector=", id="sector-0"),
        pytest.param(lambda doc: doc["model"].update(delta=math.inf), "delta=", id="infinite-delta"),
        pytest.param(lambda doc: doc["model"].update(mu=math.nan), "mu=", id="nan-mu"),
        pytest.param(lambda doc: doc["model"].update(lam=1), "'lam'", id="model-key"),
        pytest.param(lambda doc: doc["model"].pop("name"), "model", id="model-no-name"),
        pytest.param(lambda doc: doc.update(command=[]), "command", id="list-command"),
        pytest.param(lambda doc: doc.update(params=[1]), "params", id="list-params"),
        pytest.param(lambda doc: doc.update(model="did+"), "model", id="text-model"),
        pytest.param(lambda doc: doc.update(model=None), "model", id="no-model"),
        pytest.param(lambda doc: doc.update(disorder={}), "disorder", id="unread-disorder"),
    ],
)
def test_replay_refuses_unknown_or_ill_typed_keys(edit, key, tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["bands", "--model", "did+", "--params", "delta=1,mu=2,n=3", "--out", str(out)]) == 0
    manifest = Path(str(out) + ".manifest.json")
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(key)):
        run_manifest(manifest)


def test_replay_refuses_a_params_lam_unlike_the_disorders(tmp_path):
    argv = ["fmm-decay", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,lam=0.2",
            "--disorder", "W00"]
    man = _manifest_from_args(_build_parser().parse_args(argv))
    assert man.params["lam"] == man.disorder["lambda"] == 0.2
    path = tmp_path / "fmm.manifest.json"
    path.write_text(ExperimentManifest(man.command, man.model, man.disorder,
                                       {**man.params, "lam": 0.5}).to_json())
    with pytest.raises(ValueError, match="lam=0.5"):
        run_manifest(path)


def test_phase_diagram_refuses_a_negative_coupling(capsys):
    argv = ["phase-diagram", "--model", "pip+", "--params",
            "delta=0.3,mu=0.5,lambdas=-0.6,energies=0:1", "--disorder", "W00",
            "--L", "8", "--realizations", "8"]
    assert main(argv) == 2
    assert "coupling lam must be finite and >= 0" in capsys.readouterr().err
