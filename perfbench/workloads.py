"""The three benchmark workloads and the checks on their outputs.

Every experiment is one call of the public entry point, either
``bdgtools.cli.main(argv)`` or ``bdgtools.cli.run_manifest(path)``; every
output is written with ``--out`` into a scratch directory and read back.

Why these workloads:

* ``momentum`` is clean, translation-invariant work: Bloch assembly, the
  central gap and all four Chern routes.  Apart from a few small checks
  inside ``verify`` it samples no disorder and factors no sparse matrix, so
  changes to the disorder ensemble or to the edge statistics should leave
  it unchanged.  It has no disordered experiment and so uses no seed.
* ``ensemble`` is disorder-averaged spectra: field sampling, finite-volume
  assembly and dense ``eigvalsh``, on a two-thread pool.  The three ``ids``
  calls share their realizations on purpose, because the identities
  N(E) = -N(-E) and N(E) = N2(E^2)/2 are exact only on a shared ensemble.
* ``localization`` is sparse-LU resolvents, fractional-moment scans and the
  phase diagram, which redraws the same realizations for every lambda row
  and every cell.

Sizes were chosen so that one pass takes a few seconds on a 2-core box;
``tiny`` sizes exist only for the smoke test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

THREADS = {"momentum": 1, "ensemble": 2, "localization": 1}

PIP = "delta=0.3,mu=-0.5"
DID = "delta=1.0,mu=2.0"
ENERGIES = (0.25, 0.5, 1.0, 1.5)

# Chern numbers of the program at the commit that defined this benchmark.
# pip+ at mu = -+0.5 must give -+1 by the paper; the did+ values are pinned.
CHERN_EXPECTED = {
    "chern pip+ transfer": {-1.0: -1, -0.5: -1, 0.5: 1, 1.0: 1},
    "chern pip+ berry": {-0.5: -1, 0.5: 1},
    "chern did+ berry": {2.0: -4},
    "chern did+ contour": {2.0: -2},
    "chern pip+ realspace": {-0.5: -1},
}
GAP_CLOSED_MU = {"chern pip+ transfer": 0.0}

SIZES = {
    False: {  # full
        "bands_pip": 33, "bands_did": 13, "berry_pip": 32, "berry_did": 48, "realspace_L": 16,
        "ens_L": 20, "ens_R": 8, "did_L": 12, "spec_L": 16, "clean_L": 24,
        "fmm_L": 32, "fmm_R": 16, "pd_L": 16, "pd_R": 8,
    },
    True: {  # tiny, for the smoke test
        "bands_pip": 5, "bands_did": 5, "berry_pip": 24, "berry_did": 48, "realspace_L": 12,
        "ens_L": 8, "ens_R": 8, "did_L": 6, "spec_L": 8, "clean_L": 8,
        "fmm_L": 16, "fmm_R": 8, "pd_L": 12, "pd_R": 8,
    },
}


@dataclass(frozen=True)
class Experiment:
    """One call into the program; ``argv`` is None for the manifest replay."""

    label: str
    argv: tuple | None
    replay_of: str | None = None

    @property
    def subcommand(self) -> str:
        return "run_manifest" if self.argv is None else self.argv[0]


def _floats(values) -> str:
    return ":".join("%g" % v for v in values)


PD_LAMBDAS = (0.2, 0.6, 1.2)
PD_ENERGIES = (0.0, 1.0, 2.5)
PD_PARAMS = f"delta=0.3,mu=0.5,lambdas={_floats(PD_LAMBDAS)},energies={_floats(PD_ENERGIES)}"


def experiments(workload: str, seed: int, tiny: bool, threads: int) -> list[Experiment]:
    """The fixed experiment list of one pass over ``workload``."""
    z = SIZES[tiny]
    s = str(seed)
    if workload == "momentum":
        return [
            Experiment("bands pip+", ("bands", "--model", "pip+", "--params", f"{PIP},n={z['bands_pip']}")),
            Experiment("bands did+", ("bands", "--model", "did+", "--params", f"{DID},n={z['bands_did']}")),
            # n=21 puts mu = -0.1, 0, 0.1 on the grid, where gap = |mu| is checked
            Experiment("gap-scan pip+", ("gap-scan", "--model", "pip+", "--params", "delta=0.3,mu_min=-1,mu_max=1,n=21")),
            Experiment("chern pip+ transfer", ("chern", "--model", "pip+", "--params", "delta=0.3,mus=-1:-0.5:0:0.5:1")),
            Experiment("chern pip+ berry", ("chern", "--model", "pip+", "--params", f"delta=0.3,mus=-0.5:0.5,method=berry,grid_n={z['berry_pip']}")),
            Experiment("chern did+ berry", ("chern", "--model", "did+", "--params", f"delta=1.0,mus=2,method=berry,grid_n={z['berry_did']}")),
            Experiment("chern did+ contour", ("chern", "--model", "did+", "--params", "delta=1.0,mus=2,method=contour,sector=1")),
            Experiment("chern pip+ realspace", ("chern", "--model", "pip+", "--params", "delta=0.3,mus=-0.5,method=realspace", "--L", str(z["realspace_L"]))),
            Experiment("verify", ("verify",)),
        ]
    if workload == "ensemble":
        pool = ("--seed", s, "--threads", str(threads))
        ens = ("--disorder", "W00", "--L", str(z["ens_L"]), "--realizations", str(z["ens_R"])) + pool
        R = str(z["ens_R"])
        return [
            Experiment("ids E", ("ids", "--model", "pip+", "--params", f"{PIP},lam=0.3,energies={_floats(ENERGIES)}") + ens),
            Experiment("ids -E", ("ids", "--model", "pip+", "--params", f"{PIP},lam=0.3,energies={_floats(-e for e in ENERGIES)}") + ens),
            Experiment("ids squared E^2", ("ids", "--model", "pip+", "--params", f"{PIP},lam=0.3,squared=1,energies={_floats(e * e for e in ENERGIES)}") + ens),
            Experiment("dos pip+ squared", ("dos", "--model", "pip+", "--params", f"{PIP},lam=0.3,squared=1") + ens),
            Experiment("dos did+", ("dos", "--model", "did+", "--params", f"{DID},lam=0.3", "--disorder", "W00", "--L", str(z["did_L"]), "--realizations", R) + pool),
            Experiment("dos pip+ W00+W10", ("dos", "--model", "pip+", "--params", PIP, "--disorder", "{spec}", "--L", str(z["spec_L"]), "--realizations", R) + pool),
            Experiment("dos pip+ clean", ("dos", "--model", "pip+", "--params", PIP, "--L", str(z["clean_L"]), "--threads", str(threads))),
        ]
    if workload == "localization":
        return [
            Experiment("fmm-decay", ("fmm-decay", "--model", "pip+", "--params", f"{PIP},lam=0.5,E=0,eps=1e-3", "--disorder", "W00", "--L", str(z["fmm_L"]), "--realizations", str(z["fmm_R"]), "--seed", s)),
            Experiment("phase-diagram", ("phase-diagram", "--model", "pip+", "--params", PD_PARAMS, "--L", str(z["pd_L"]), "--realizations", str(z["pd_R"]), "--seed", s)),
            Experiment("fmm-decay replay", None, replay_of="fmm-decay"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, out_dir: Path) -> None:
    """Files the experiments read: the W00+W10 disorder spec of ``ensemble``.

    W10 is written as an explicit matrix.  Under its catalog name the spec
    does not read back: ``spec_to_json`` writes the completed (-1, 0) term
    under the name W10 too, and ``spec_from_json`` then rejects the pair as
    violating W_-j = W_j*.
    """
    if workload != "ensemble":
        return
    from bdgtools.disorder import DisorderSpec, DisorderTerm, Distribution, spec_to_json, standard_W

    spec = DisorderSpec(
        (
            DisorderTerm((0, 0), standard_W("W00", 1), Distribution(), "W00"),
            DisorderTerm((1, 0), standard_W("W10", 1), Distribution()),
        ),
        lam=0.3,
    )
    (out_dir / "spec.json").write_text(spec_to_json(spec))


def resolve_argv(exp: Experiment, out_dir: Path) -> list[str]:
    argv = [str(out_dir / "spec.json") if a == "{spec}" else a for a in exp.argv]
    return argv + ["--out", str(out_path(exp.label, out_dir))]


def out_path(label: str, out_dir: Path) -> Path:
    return out_dir / (label.replace(" ", "_").replace("+", "p").replace("^", "") + ".csv")


# ---------------------------------------------------------------------------
# checks: each takes the outputs of one pass (label -> text) and raises
# AssertionError with a message when the program's output is wrong


def _rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(lines[1:]))


def _comment(text: str, key: str) -> str:
    for ln in text.splitlines():
        if ln.startswith(f"# {key} = "):
            return ln.split(" = ", 1)[1]
    raise AssertionError(f"no '# {key}' line in the output")


def _check_bands(name: str, params: tuple[float, float]):
    def check(out: dict) -> None:
        from bdgtools.models import ModelParams, example_bands

        worst = 0.0
        for k1, k2, lo, hi in _rows(out[f"bands {name}"]):
            bp = example_bands(name, ModelParams(*params), (float(k1), float(k2)))
            worst = max(worst, abs(float(lo) - bp.E_minus), abs(float(hi) - bp.E_plus))
        assert worst <= 1e-12, f"{name} bands off the closed form by {worst:.3e}"
    return check


def _check_gap_law(out: dict) -> None:
    near = [(float(m), float(g)) for m, g in _rows(out["gap-scan pip+"]) if abs(float(m)) <= 0.1 + 1e-9]
    assert len(near) >= 3, f"only {len(near)} scan points with |mu| <= 0.1"
    for mu, gap in near:
        assert abs(gap - abs(mu)) <= 1e-6, f"gap({mu}) = {gap}, expected |mu|"


def _check_chern(label: str):
    def check(out: dict) -> None:
        rows = {float(r[0]): r for r in _rows(out[label])}
        for mu, expect in CHERN_EXPECTED[label].items():
            got = rows[mu][3]
            assert got == str(expect), f"{label} at mu={mu}: {got or rows[mu][5]}, expected {expect}"
        if label in GAP_CLOSED_MU:
            row = rows[GAP_CLOSED_MU[label]]
            assert row[3] == "" and row[5].startswith("error: gap-closed"), (
                f"{label} at mu=0 is not a recorded gap-closed row: {row}"
            )
    return check


def _check_verify(out: dict) -> None:
    last = out["verify"].strip().splitlines()[-1]
    assert last == "verify: PASS", f"verify reports {last!r}"


def _ids(text: str) -> list[tuple[float, float, float]]:
    return [tuple(float(x) for x in r) for r in _rows(text)]


def _check_ids_odd(out: dict) -> None:
    for (e, n, se), (me, mn, mse) in zip(_ids(out["ids E"]), _ids(out["ids -E"])):
        tol = 3.0 * (se + mse) + 1e-10
        assert abs(n + mn) <= tol, f"N({e}) + N({me}) = {n + mn:.3e} beyond {tol:.3e}"


def _check_ids_squared(out: dict) -> None:
    for (e, n, se), (e2, n2, se2) in zip(_ids(out["ids E"]), _ids(out["ids squared E^2"])):
        tol = 3.0 * (se + 0.5 * se2) + 1e-10
        assert abs(n - 0.5 * n2) <= tol, f"N({e}) - N2({e2})/2 = {n - 0.5 * n2:.3e} beyond {tol:.3e}"


def _check_dos_weight(label: str, fiber: int):
    def check(out: dict) -> None:
        total = math.fsum((float(hi) - float(lo)) * float(rho) for lo, hi, rho in _rows(out[label]))
        assert abs(total - fiber) <= 1e-9 * fiber, f"{label} integrates to {total!r}, not {fiber}"
    return check


def _check_fmm(out: dict) -> None:
    text = out["fmm-decay"]
    rate, r2 = float(_comment(text, "rate")), float(_comment(text, "r_squared"))
    assert rate > 0.0 and r2 > 0.8, f"fmm-decay rate {rate:.4g}, r^2 {r2:.4g}"


def _check_replay(out: dict) -> None:
    assert out["fmm-decay replay"] == out["fmm-decay"], "manifest replay differs from the recorded output"


def _check_outside_cells(out: dict) -> None:
    verdict = {(float(r[0]), float(r[1])): r[2] for r in _rows(out["phase-diagram"])}
    for E in (0.0, 2.5):
        got = verdict[(0.2, E)]
        assert got == "outside-spectrum", f"phase-diagram cell (0.2, {E}) is {got}"


CHECKS = {
    "momentum": [
        ("bands pip+ closed form", _check_bands("pip+", (0.3, -0.5))),
        ("bands did+ closed form", _check_bands("did+", (1.0, 2.0))),
        ("gap-scan gap = |mu|", _check_gap_law),
        *[(f"{label} values", _check_chern(label)) for label in CHERN_EXPECTED],
        ("verify passes", _check_verify),
    ],
    "ensemble": [
        ("N(E) + N(-E) = 0", _check_ids_odd),
        ("N(E) = N2(E^2)/2", _check_ids_squared),
        ("dos pip+ squared weight", _check_dos_weight("dos pip+ squared", 2)),
        ("dos did+ weight", _check_dos_weight("dos did+", 4)),
        ("dos pip+ W00+W10 weight", _check_dos_weight("dos pip+ W00+W10", 2)),
        ("dos pip+ clean weight", _check_dos_weight("dos pip+ clean", 2)),
    ],
    "localization": [
        ("fmm-decay rate > 0, r^2 > 0.8", _check_fmm),
        ("manifest replay byte-identical", _check_replay),
        ("phase-diagram outside cells at lambda=0.2", _check_outside_cells),
    ],
}


def run_level_checks(workload: str, seed: int, tiny: bool) -> list:
    """Checks that need more than the CLI prints; run once, outside timing.

    The phase-diagram CSV carries no spectral edges, so the diagram is
    computed again through ``localization_phase_diagram`` with the same
    inputs: its CSV must equal the CLI's, and its upper edges must grow
    with lambda.
    """
    if workload != "localization":
        return []

    def edges_grow(out: dict) -> None:
        from bdgtools.disorder import default_spec
        from bdgtools.greens import localization_phase_diagram
        from bdgtools.models import build_model

        z = SIZES[tiny]
        diagram = localization_phase_diagram(
            build_model("pip+", delta=0.3, mu=0.5),
            default_spec(r=1),
            PD_LAMBDAS,
            PD_ENERGIES,
            L=z["pd_L"],
            n_realizations=z["pd_R"],
            seed=seed,
        )
        assert out["phase-diagram"].startswith(diagram.to_csv()), (
            "localization_phase_diagram disagrees with the CLI output"
        )
        his = [e.hi for e in diagram.edges]
        assert all(a < b for a, b in zip(his, his[1:])), f"upper edges {his} do not grow with lambda"

    return [("phase-diagram upper edges grow with lambda", edges_grow)]
