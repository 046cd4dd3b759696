"""Command-line driver: reproducible experiment runs with manifest sidecars.

Subcommands
-----------
* ``bands``          — Bloch band extremes on a k grid plus a central-gap line.
* ``gap-scan``       — central gap across a chemical-potential window.
* ``ids``            — Monte-Carlo integrated density of states (or the H^2 variant).
* ``dos``            — eigenvalue histogram, states per site per energy.
* ``chern``          — Chern numbers along a chemical-potential scan, any method.
* ``fmm-decay``      — fractional-moment decay profile with its exponential fit.
* ``phase-diagram``  — localization verdicts over the (lambda, E) plane.
* ``verify``         — the full invariant suite; nonzero exit on any failure.

Common flags: ``--model`` (catalog name or a model JSON file), ``--params``
(comma-separated ``key=value`` pairs; ``:``-separated values form lists; a
JSON object is also accepted), ``--disorder`` (``none``, ``W00``, or a spec
JSON file), ``--L``, ``--seed``, ``--realizations``, ``--out``, ``--threads``.

Every run with ``--out`` writes the result plus a ``<out>.manifest.json``
sidecar recording the resolved inputs; :func:`run_manifest` replays a
manifest and reproduces the output byte for byte.  All tables are CSV with
17-significant-digit floats.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .chern import (
    berry_flux_chern,
    chern_mu_scan,
    chern_transfer,
    contracting_subspace,
    fermi_projector,
    real_space_chern,
    scan_csv,
    transfer_matrix,
    u_matrix,
)
from .disorder import (
    DisorderSpec,
    DisorderTerm,
    Distribution,
    build_random_hamiltonian,
    default_spec,
    gap_closure_threshold,
    sample_realization,
    spec_from_json,
    spec_to_json,
    standard_W,
)
from .greens import (
    EPS_DEFAULT,
    S_DEFAULT,
    fractional_moment_scan,
    green_matrix,
    localization_phase_diagram,
    tmatrix_update,
)
from .lattice import (
    assemble_bloch,
    assemble_finite_volume,
    check_bdg_equation,
    check_phs,
    model_from_json,
    spectrum_symmetry_check,
)
from .models import (
    _CLOSED_FORM_TAGS,
    MODEL_NAMES,
    ModelParams,
    _resolve_band_tag,
    build_model,
    build_pairing,
    central_gap,
    example_bands,
    pairing_kind,
    reduce_su2,
)
from .spectral import dos_histogram, ids_estimate, ids_squared_estimate

__all__ = ["ExperimentManifest", "main", "run_manifest"]


def _fmt(x) -> str:
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# manifest

@dataclass(frozen=True)
class ExperimentManifest:
    """Resolved inputs of one run: enough to reproduce the output exactly.

    ``model`` is either ``{"name", "delta"[, "mu"][, "sector"]}`` for a
    catalog model or ``{"operator": <model JSON>}`` for an explicit term
    table; ``disorder`` is a disorder-spec JSON document or None; ``params``
    carries every numeric input (grids, seeds, realization counts, ...).
    """

    command: str
    model: dict | None
    disorder: dict | None
    params: dict
    artifact_version: str = __version__

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "artifact_version": self.artifact_version,
            "model": self.model,
            "disorder": self.disorder,
            "params": self.params,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "ExperimentManifest":
        doc = json.loads(text)
        return ExperimentManifest(
            command=doc["command"],
            model=doc.get("model"),
            disorder=doc.get("disorder"),
            params=doc.get("params", {}),
            artifact_version=doc.get("artifact_version", __version__),
        )


# ---------------------------------------------------------------------------
# flag parsing helpers

def _parse_params(text: str) -> dict:
    """``key=value`` pairs (or one JSON object) to a parameter dict."""
    if not text:
        return {}
    if text.lstrip().startswith("{"):
        return json.loads(text)
    out: dict = {}
    for part in text.split(","):
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"--params entries are key=value, got {part!r}")
        out[key.strip()] = _parse_value(val.strip())
    return out


def _parse_value(val: str):
    if ":" in val:
        return [float(x) for x in val.split(":")]
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            continue
    return val


def _need(params: dict, key: str, command: str):
    if key not in params:
        raise ValueError(f"{command} needs --params {key}=...")
    return params[key]


def _as_floats(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(value)]


def _model_doc(args, params: dict, *, needs_mu: bool = True) -> dict:
    if not args.model:
        raise ValueError(
            f"{args.command} needs --model (a catalog name or a model JSON file)"
        )
    if args.model in MODEL_NAMES:
        doc = {
            "name": args.model,
            "delta": float(_need(params, "delta", args.command)),
        }
        if needs_mu:
            doc["mu"] = float(_need(params, "mu", args.command))
        if "sector" in params:
            doc["sector"] = int(params["sector"])
        return doc
    path = Path(args.model)
    if not path.is_file():
        names = ", ".join(sorted(MODEL_NAMES))
        raise ValueError(
            f"unknown model {args.model!r}: neither a catalog name ({names}) "
            f"nor an existing JSON file"
        )
    return {"operator": json.loads(path.read_text())}


def _build_from_doc(doc: dict, mu: float | None = None):
    if "operator" in doc:
        if mu is not None:
            raise ValueError(
                "chemical-potential scans need a catalog model name, not an "
                "operator file"
            )
        return model_from_json(json.dumps(doc["operator"]))
    model = build_model(
        doc["name"],
        delta=doc["delta"],
        mu=doc["mu"] if mu is None else float(mu),
    )
    if "sector" in doc:
        model = reduce_su2(model)[0 if doc["sector"] >= 0 else 1]
    return model


def _disorder_doc(choice: str | None, model, lam: float) -> dict | None:
    if choice in (None, "none"):
        if lam != 0.0:
            raise ValueError(
                "a nonzero coupling needs --disorder (W00 or a spec JSON file)"
            )
        return None
    if choice == "W00":
        return json.loads(spec_to_json(default_spec(r=model.fiber.r, lam=lam)))
    return json.loads(Path(choice).read_text())


def _spec_from_doc(doc: dict | None, model) -> DisorderSpec | None:
    if doc is None:
        return None
    return spec_from_json(json.dumps(doc), r=model.fiber.r)


# ---------------------------------------------------------------------------
# command implementations (manifest -> output text)

def _run_bands(man: ExperimentManifest) -> str:
    model = _build_from_doc(man.model)
    n = int(man.params["n"])
    ks = np.linspace(-math.pi, math.pi, n)
    lines = ["k1,k2,E_minus,E_plus"]
    for k1 in ks:
        for k2 in ks:
            w = np.linalg.eigvalsh(
                assemble_bloch(model, (float(k1), float(k2))).matrix
            )
            lines.append(
                ",".join([_fmt(k1), _fmt(k2), _fmt(w[0]), _fmt(w[-1])])
            )
    gap = central_gap(model, ModelParams(0.0, 0.0))
    lines.append("# central gap = " + _fmt(gap))
    return "\n".join(lines) + "\n"


def _run_gap_scan(man: ExperimentManifest) -> str:
    doc = man.model
    if "name" not in doc:
        raise ValueError("gap-scan needs a catalog model name")
    p = man.params
    mus = np.linspace(float(p["mu_min"]), float(p["mu_max"]), int(p["n"]))
    if _resolve_band_tag(doc["name"]) in _CLOSED_FORM_TAGS:
        gap_of = lambda mu: central_gap(
            doc["name"], ModelParams(doc["delta"], float(mu))
        )
    else:
        gap_of = lambda mu: central_gap(
            _build_from_doc(doc, mu=mu), ModelParams(0.0, 0.0)
        )
    lines = ["mu,gap"]
    for mu in mus:
        lines.append(_fmt(mu) + "," + _fmt(gap_of(mu)))
    return "\n".join(lines) + "\n"


def _run_ids(man: ExperimentManifest) -> str:
    model = _build_from_doc(man.model)
    spec = _spec_from_doc(man.disorder, model)
    p = man.params
    estimator = ids_squared_estimate if p.get("squared") else ids_estimate
    curve = estimator(
        model,
        spec,
        L=p["L"],
        n_realizations=p["realizations"],
        energies=_as_floats(p["energies"]),
        seed=p["seed"],
        threads=p["threads"],
    )
    return curve.to_csv()


def _run_dos(man: ExperimentManifest) -> str:
    model = _build_from_doc(man.model)
    spec = _spec_from_doc(man.disorder, model)
    p = man.params
    hist = dos_histogram(
        model,
        spec,
        L=p["L"],
        n_realizations=p["realizations"],
        bins=p["bins"],
        seed=p["seed"],
        energy_range=tuple(p["erange"]) if "erange" in p else None,
        squared=bool(p.get("squared")),
        threads=p["threads"],
    )
    return hist.to_csv()


def _run_chern(man: ExperimentManifest) -> str:
    doc = man.model
    if "name" not in doc:
        raise ValueError("chern needs a catalog model name")
    p = man.params
    entries = chern_mu_scan(
        lambda mu: _build_from_doc(doc, mu=mu),
        _as_floats(p["mus"]),
        method=p.get("method", "transfer"),
        grid_n=int(p.get("grid_n", 48)),
        n_k=int(p.get("n_k", 64)),
        L=p["L"],
        threads=p["threads"],
    )
    return scan_csv(entries)


def _run_fmm_decay(man: ExperimentManifest) -> str:
    model = _build_from_doc(man.model)
    spec = _spec_from_doc(man.disorder, model)
    p = man.params
    est = fractional_moment_scan(
        model,
        spec,
        float(p["lam"]),
        complex(float(p["E"]), float(p["eps"])),
        s=float(p["s"]),
        L=p["L"],
        n_realizations=p["realizations"],
        max_dist=p.get("max_dist"),
        seed=p["seed"],
        threads=p["threads"],
    )
    lines = ["d,tau,stderr"]
    for d, t, e in zip(est.distances, est.tau, est.tau_stderr):
        lines.append("%d,%s,%s" % (d, _fmt(t), _fmt(e)))
    lines += [
        "# rate = " + _fmt(est.rate),
        "# rate_err = " + _fmt(est.rate_err),
        "# r_squared = " + _fmt(est.r_squared),
        "# fit_window = " + ":".join(str(d) for d in est.fit_window),
        "# n_realizations = %d" % est.n_realizations,
    ]
    return "\n".join(lines) + "\n"


def _run_phase_diagram(man: ExperimentManifest) -> str:
    model = _build_from_doc(man.model)
    spec = _spec_from_doc(man.disorder, model)
    if spec is None:
        raise ValueError("phase-diagram needs --disorder (W00 or a spec file)")
    p = man.params
    diagram = localization_phase_diagram(
        model,
        spec,
        _as_floats(p["lambdas"]),
        _as_floats(p["energies"]),
        s=float(p["s"]),
        eps=float(p["eps"]),
        L=p["L"],
        n_realizations=p["realizations"],
        seed=p["seed"],
        threads=p["threads"],
    )
    text = diagram.to_csv()
    mu = (man.model or {}).get("mu")
    if mu is not None and mu > 0 and spec.terms:
        radius = max(t.nu.support_radius for t in spec.terms)
        text += (
            "# gap_closure_threshold lambda = "
            + _fmt(gap_closure_threshold(float(mu), radius))
            + "\n"
        )
    return text


# ---------------------------------------------------------------------------
# verify suite

def _check_phs_catalog() -> None:
    for name in sorted(MODEL_NAMES):
        rep = check_phs(build_model(name, delta=0.7, mu=1.3), parity="even")
        assert rep.holds, f"{name}: PHS violation {rep.max_violation:.3e}"


def _check_bdg_equation_catalog() -> None:
    for name in sorted(MODEL_NAMES):
        defect = check_bdg_equation(build_pairing(pairing_kind(name), 0.7))
        assert defect == 0.0, f"{name}: Delta* + conj(Delta) defect {defect:.3e}"


def _check_spectrum_pairing() -> None:
    spec = default_spec(r=1, lam=0.3)
    for tag, H in (
        ("pip clean", assemble_finite_volume(build_model("pip+", 0.3, -0.5), (8, 8))),
        ("did clean", assemble_finite_volume(build_model("did+", 1.0, 2.0), (6, 6))),
        (
            "pip disordered",
            build_random_hamiltonian(
                build_model("pip+", 0.3, -0.5),
                spec,
                spec.lam,
                sample_realization(spec, (8, 8), seed=5),
            ),
        ),
    ):
        defect = spectrum_symmetry_check(H.eigenvalues())
        assert defect <= 1e-10, f"{tag}: pairing defect {defect:.3e}"


def _check_closed_form_bands() -> None:
    for name, params in (("pip+", ModelParams(0.3, -0.5)), ("did+", ModelParams(1.0, 2.0))):
        model = build_model(name, delta=params.delta, mu=params.mu)
        for k1 in (-2.0, 0.3, 1.7):
            for k2 in (-1.1, 0.0, 2.5):
                w = np.linalg.eigvalsh(assemble_bloch(model, (k1, k2)).matrix)
                bp = example_bands(name, params, (k1, k2))
                err = max(abs(w[0] - bp.E_minus), abs(w[-1] - bp.E_plus))
                assert err <= 1e-12, f"{name} at ({k1}, {k2}): band error {err:.3e}"


def _check_gap_law() -> None:
    for mu in (0.02, 0.1):
        g = central_gap("pip+", ModelParams(0.3, mu))
        assert abs(g - mu) <= 1e-6, f"pip gap({mu}) = {g:.8f}, expected {mu}"
    for mu in (0.5, 2.0, 3.5):
        g = central_gap("did+", ModelParams(1.0, mu))
        bound = abs(4.0 - abs(mu))
        assert g <= bound + 1e-9, f"did gap({mu}) = {g:.8f} above bound {bound}"


def _check_ids_identities() -> None:
    model = build_model("pip+", delta=0.3, mu=-0.5)
    spec = default_spec(r=1, lam=0.1)
    energies = (0.3, 0.8, 1.5)
    kw = dict(L=8, n_realizations=8, seed=0)
    direct = ids_estimate(model, spec, energies=energies, **kw)
    mirror = ids_estimate(model, spec, energies=[-e for e in energies], **kw)
    squared = ids_squared_estimate(model, spec, energies=[e * e for e in energies], **kw)
    for i, e in enumerate(energies):
        odd = direct.values[i] + mirror.values[i]
        tol = 3.0 * (direct.stderr[i] + mirror.stderr[i]) + 1e-10
        assert abs(odd) <= tol, f"N({e}) + N(-{e}) = {odd:.3e} beyond {tol:.3e}"
        half = direct.values[i] - 0.5 * squared.values[i]
        tol = 3.0 * (direct.stderr[i] + 0.5 * squared.stderr[i]) + 1e-10
        assert abs(half) <= tol, f"N({e}) - N2({e}^2)/2 = {half:.3e} beyond {tol:.3e}"
    diffs = np.diff(direct.values)
    assert (diffs >= -1e-12).all(), "IDS must be nondecreasing in E"


def _check_resolvent_dense_agreement() -> None:
    H = assemble_finite_volume(build_model("pip+", 0.3, -0.5), (6, 6))
    z = 0.3 + 0.2j
    dense = np.linalg.inv(z * np.eye(H.dim) - H.dense())
    for n, m in (((0, 0), (2, 3)), ((1, 4), (1, 4))):
        ref = dense[H.site_slice(n), H.site_slice(m)]
        err = float(np.abs(green_matrix(H, z, n, m) - ref).max())
        assert err <= 1e-10, f"G({n},{m}) off dense inverse by {err:.3e}"


def _check_tmatrix_oracle() -> None:
    model = build_model("pip+", delta=0.3, mu=-0.5)
    spec = DisorderSpec(
        (
            DisorderTerm((0, 0), standard_W("W00", 1), Distribution(), "W00"),
            DisorderTerm((1, 0), standard_W("W10", 1), Distribution(), "W10"),
        )
    )
    H = build_random_hamiltonian(
        model, spec, 0.2, sample_realization(spec, (5, 5), seed=11)
    )
    z = 0.3 + 0.1j
    rng = np.random.default_rng(2)
    for _ in range(3):
        l = (int(rng.integers(5)), int(rng.integers(5)))
        j, wname = ((0, 0), "W00") if rng.integers(2) else ((1, 0), "W10")
        v = float(rng.uniform(-1, 1))
        W = standard_W(wname, 1)
        upd = tmatrix_update(H, 0.2, v, W, l, j, z)
        A = np.zeros((H.dim, H.dim), dtype=complex)
        if j == (0, 0):
            A[H.site_slice(l), H.site_slice(l)] = W
        else:
            lp = ((l[0] + j[0]) % 5, (l[1] + j[1]) % 5)
            A[H.site_slice(lp), H.site_slice(l)] = W
            A[H.site_slice(l), H.site_slice(lp)] = np.asarray(W).conj().T
        dense = np.linalg.inv(z * np.eye(H.dim) - (H.dense() + 0.2 * v * A))
        for n, m in ((l, (2, 2)), ((0, 0), (3, 1))):
            ref = dense[H.site_slice(n), H.site_slice(m)]
            err = float(np.abs(upd.block(n, m) - ref).max())
            scale = max(float(np.abs(ref).max()), 1.0)
            assert err <= 1e-10 * scale, f"T-matrix update off by {err:.3e}"


def _check_transfer_plane_defects() -> None:
    model = build_model("pip+", delta=0.3, mu=-0.5)
    form = np.block(
        [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    )
    for k1 in (-2.1, -0.4, 0.9, 2.8):
        data = transfer_matrix(model, k1)
        T = np.asarray(data.T)
        conserve = float(np.linalg.norm(T.conj().T @ form @ T - form, 2))
        assert conserve <= 1e-10 * np.linalg.norm(T, 2) ** 2, (
            f"form defect {conserve:.3e} at k1 = {k1}"
        )
        phi = contracting_subspace(data)
        lagr = float(np.linalg.norm(phi.conj().T @ form @ phi, 2))
        assert lagr <= 1e-8, f"Lagrangian defect {lagr:.3e} at k1 = {k1}"
        u = np.asarray(u_matrix(phi, k1).U)
        unit = float(np.linalg.norm(u.conj().T @ u - np.eye(2), 2))
        assert unit <= 1e-8, f"unitarity defect {unit:.3e} at k1 = {k1}"


def _check_winding_grid_stability() -> None:
    model = build_model("pip+", delta=0.3, mu=-0.5)
    coarse = chern_transfer(model, n_k=32)
    fine = chern_transfer(model, n_k=64)
    assert coarse.value == fine.value == -1, (
        f"winding unstable: {coarse.value} at 32 vs {fine.value} at 64 samples"
    )


def _check_method_cross_agreement() -> None:
    model = build_model("pip+", delta=0.3, mu=-0.5)
    transfer = chern_transfer(model).value
    berry = berry_flux_chern(
        lambda k: assemble_bloch(model, k), grid_n=24
    ).value
    marker = real_space_chern(
        fermi_projector(assemble_finite_volume(model, (12, 12))), (12, 12)
    ).value
    assert transfer == berry == marker == -1, (
        f"methods disagree: transfer {transfer}, berry {berry}, marker {marker}"
    )
    for idx, expect in ((0, -2), (1, 2)):
        sector = reduce_su2(build_model("did+", delta=1.0, mu=2.0))[idx]
        got = berry_flux_chern(
            lambda k: assemble_bloch(sector, k), grid_n=48
        ).value
        assert got == expect, f"chiral d sector {idx}: {got}, expected {expect}"


def _check_disorder_reproducibility() -> None:
    spec = DisorderSpec(
        (
            DisorderTerm((0, 0), standard_W("W00", 1), Distribution(), "W00"),
            DisorderTerm((1, 0), standard_W("W10", 1), Distribution(), "W10"),
        )
    )
    first = sample_realization(spec, (6, 6), seed=3)
    second = sample_realization(spec, (6, 6), seed=3)
    assert first.values == second.values, "same seed must reproduce the field"
    for (j, l), v in first.values.items():
        mirror = (
            (-j[0], -j[1]),
            ((l[0] + j[0]) % 6, (l[1] + j[1]) % 6),
        )
        assert first.values[mirror] == v, (
            f"covariance v(j,l) = v(-j,l+j) broken at j={j}, l={l}"
        )


VERIFY_CHECKS = (
    ("phs-even-catalog", _check_phs_catalog),
    ("bdg-equation-catalog", _check_bdg_equation_catalog),
    ("spectrum-pairing", _check_spectrum_pairing),
    ("closed-form-bands", _check_closed_form_bands),
    ("gap-law", _check_gap_law),
    ("ids-identities", _check_ids_identities),
    ("resolvent-dense-agreement", _check_resolvent_dense_agreement),
    ("tmatrix-oracle", _check_tmatrix_oracle),
    ("transfer-plane-defects", _check_transfer_plane_defects),
    ("winding-grid-stability", _check_winding_grid_stability),
    ("method-cross-agreement", _check_method_cross_agreement),
    ("disorder-reproducibility", _check_disorder_reproducibility),
)


def _verify_report() -> tuple[str, bool]:
    lines = []
    ok = True
    for name, check in VERIFY_CHECKS:
        try:
            check()
            lines.append("ok   " + name)
        except Exception as err:  # a crash is a failure, not an abort
            ok = False
            lines.append(f"FAIL {name}: {err}")
    lines.append("verify: PASS" if ok else "verify: FAIL")
    return "\n".join(lines) + "\n", ok


def _run_verify(man: ExperimentManifest) -> str:
    return _verify_report()[0]


_RUNNERS = {
    "bands": _run_bands,
    "gap-scan": _run_gap_scan,
    "ids": _run_ids,
    "dos": _run_dos,
    "chern": _run_chern,
    "fmm-decay": _run_fmm_decay,
    "phase-diagram": _run_phase_diagram,
    "verify": _run_verify,
}


# ---------------------------------------------------------------------------
# wiring

def _manifest_from_args(args) -> ExperimentManifest:
    params = _parse_params(args.params)
    cmd = args.command
    common = {
        "seed": int(args.seed),
        "threads": int(args.threads),
    }
    model_doc: dict | None = None
    disorder_doc: dict | None = None
    if cmd == "bands":
        model_doc = _model_doc(args, params)
        run = {"n": int(params.get("n", 33))}
    elif cmd == "gap-scan":
        model_doc = _model_doc(args, params, needs_mu=False)
        run = {
            "mu_min": float(_need(params, "mu_min", cmd)),
            "mu_max": float(_need(params, "mu_max", cmd)),
            "n": int(params.get("n", 21)),
        }
    elif cmd in ("ids", "dos"):
        model_doc = _model_doc(args, params)
        lam = float(params.get("lam", 0.0))
        disorder_doc = _disorder_doc(args.disorder, _build_from_doc(model_doc), lam)
        run = {
            "L": int(args.L),
            "realizations": int(args.realizations or 32),
            "squared": int(bool(params.get("squared", 0))),
        }
        if cmd == "ids":
            run["energies"] = _as_floats(_need(params, "energies", cmd))
        else:
            run["bins"] = int(params.get("bins", 64))
            if "erange" in params:
                run["erange"] = _as_floats(params["erange"])
    elif cmd == "chern":
        model_doc = _model_doc(args, params, needs_mu=False)
        run = {
            "mus": _as_floats(_need(params, "mus", cmd)),
            "method": str(params.get("method", "transfer")),
            "grid_n": int(params.get("grid_n", 48)),
            "n_k": int(params.get("n_k", 64)),
            "L": int(args.L),
        }
    elif cmd == "fmm-decay":
        model_doc = _model_doc(args, params)
        lam = float(params.get("lam", 0.0))
        disorder_doc = _disorder_doc(args.disorder, _build_from_doc(model_doc), lam)
        run = {
            "lam": lam,
            "E": float(params.get("E", 0.0)),
            "eps": float(params.get("eps", EPS_DEFAULT)),
            "s": float(params.get("s", S_DEFAULT)),
            "L": int(args.L),
            "realizations": int(args.realizations or 64),
        }
        if "max_dist" in params:
            run["max_dist"] = int(params["max_dist"])
    elif cmd == "phase-diagram":
        model_doc = _model_doc(args, params)
        disorder_doc = _disorder_doc(
            args.disorder or "W00", _build_from_doc(model_doc), 0.0
        )
        run = {
            "lambdas": _as_floats(_need(params, "lambdas", cmd)),
            "energies": _as_floats(_need(params, "energies", cmd)),
            "s": float(params.get("s", S_DEFAULT)),
            "eps": float(params.get("eps", EPS_DEFAULT)),
            "L": int(args.L),
            "realizations": int(args.realizations or 16),
        }
    elif cmd == "verify":
        run = {}
    else:  # pragma: no cover — argparse restricts choices
        raise ValueError(f"unknown command {cmd!r}")
    return ExperimentManifest(
        command=cmd,
        model=model_doc,
        disorder=disorder_doc,
        params={**common, **run},
    )


def _emit(text: str, out: str | None, manifest: ExperimentManifest) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text)
    Path(str(path) + ".manifest.json").write_text(manifest.to_json())


def run_manifest(path, out: str | None = None) -> str:
    """Re-run a recorded manifest; returns (and optionally writes) the output.

    Replaying a manifest produced by a previous run reproduces that run's
    output byte for byte: every estimator is deterministic given the
    recorded seeds and the number formats are fixed.
    """
    man = ExperimentManifest.from_json(Path(path).read_text())
    text = _RUNNERS[man.command](man)
    if out is not None:
        Path(out).write_text(text)
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdgtools",
        description="BdG tight-binding models: bands, DOS, localization "
        "diagnostics and Chern numbers.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("bands", "Bloch band extremes on a k grid", None),
        ("gap-scan", "central gap across a mu window", None),
        ("ids", "integrated density of states", 16),
        ("dos", "density-of-states histogram", 16),
        ("chern", "Chern numbers along a mu scan", 20),
        ("fmm-decay", "fractional-moment decay profile", 32),
        ("phase-diagram", "localization verdicts over (lambda, E)", 16),
        ("verify", "run the invariant suite", None),
    )
    for name, help_text, L_default in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--model", help="catalog name or model JSON file")
        sp.add_argument(
            "--params", default="", help="key=value pairs, ':' separates lists"
        )
        sp.add_argument("--disorder", help="none, W00, or a spec JSON file")
        sp.add_argument("--L", type=int, default=L_default, help="torus side")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--realizations", type=int)
        sp.add_argument("--out", help="output file (manifest written alongside)")
        sp.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        man = _manifest_from_args(args)
        if args.command == "verify":
            text, ok = _verify_report()
            _emit(text, args.out, man)
            return 0 if ok else 1
        text = _RUNNERS[man.command](man)
        _emit(text, args.out, man)
        return 0
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
