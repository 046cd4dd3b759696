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

Flags: ``--model`` (catalog name or a model JSON file), ``--params``
(comma-separated ``key=value`` pairs; ``:``-separated values form lists; a
JSON object is also accepted), ``--disorder`` (``none``, ``W00``, or a spec
JSON file), ``--L``, ``--seed``, ``--realizations``, ``--out``, ``--threads``
(worker threads of the disorder ensembles; recorded by all).  One table,
``_COMMANDS``, gives each subcommand its flags and ``--params`` keys (with
validators and defaults); an unknown or refused key, a key given twice, or
a flag the subcommand does not read exits 2.

Every run with ``--out`` writes the result plus a ``<out>.manifest.json``
sidecar recording the resolved inputs; :func:`run_manifest` replays a
manifest and reproduces the output byte for byte.  All tables are CSV with
17-significant-digit floats.  Exit codes: 0 success, 1 verification
failure, 2 usage error or a refused input or computation (``ValueError``,
``ArithmeticError``, I/O errors), reported as ``error: ...`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .chern import (
    _METHODS,
    _bloch_fermi_action,
    _bloch_fermi_projector,
    _chern_marker,
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
    _Ensemble,
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
    ResolventSolver,
    _bloch_columns,
    fractional_moment_scan,
    green_matrix,
    localization_phase_diagram,
    tmatrix_update,
)
from .lattice import (
    _hermitian_bloch_points,
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
from .spectral import _realization_spectra, dos_histogram, ids_estimate, ids_squared_estimate

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
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "ExperimentManifest":
        try:
            man = ExperimentManifest(**json.loads(text))
        except TypeError as err:  # a missing, unknown or non-object entry
            raise ValueError(f"not a manifest: {err}") from None
        for key, kind in (("command", str), ("params", dict), ("model", (dict, type(None))),
                          ("disorder", (dict, type(None)))):
            if not isinstance(getattr(man, key), kind):
                raise ValueError(f"not a manifest: {key} is {type(getattr(man, key)).__name__}")
        return man


# ---------------------------------------------------------------------------
# flag parsing helpers

def _parse_params(command: str, text: str) -> dict:
    """``key=value`` pairs (or one JSON object) to a dict; no key twice."""
    if not text:
        return {}
    if text.lstrip().startswith("{"):
        pairs = json.loads(text, object_pairs_hook=list)
    else:
        pairs = []
        for part in text.split(","):
            key, eq, val = part.partition("=")
            if not eq:
                raise ValueError(f"{command}: --params entries are key=value, got {part!r}")
            pairs.append((key.strip(), _parse_value(val.strip())))
    params: dict = {}
    for key, val in pairs:
        if key in params:
            raise ValueError(f"{command}: --params key {key!r} given twice")
        params[key] = val
    return params


def _parse_value(val: str):
    if ":" in val:
        return [float(x) for x in val.split(":")]
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            continue
    return val


# Validators of --params values: each returns the value to record, or raises
# ValueError or TypeError, which refuses the key.

def _integer(value) -> int:
    # an int is taken as it is: a 64-bit seed does not survive a float
    if not isinstance(value, int) and not float(value).is_integer():
        raise ValueError("must be an integer")
    return int(value)


def _count(value) -> int:
    number = _integer(value)
    if number < 1:
        raise ValueError("must be at least 1")
    return number


def _one_of(*choices):
    def check(value):
        if value not in choices:
            raise ValueError("must be one of " + ", ".join(map(str, choices)))
        return choices[choices.index(value)]
    return check


def _real(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("must be a finite number")
    return number


def _reals(value) -> list[float]:
    values = [_real(v) for v in (value if isinstance(value, (list, tuple)) else [value])]
    if not values:
        raise ValueError("needs at least one value")
    return values


def _interval(value) -> list[float]:
    bounds = _reals(value)
    if len(bounds) != 2 or not bounds[0] < bounds[1]:
        raise ValueError("must be two increasing values lo:hi")
    return bounds


class _Default(str):
    """A key default that is not a value; the help shows its text."""


_REQUIRED = _Default("required")
# ``lam`` resolves against --disorder (see _disorder_doc) into the disorder
# document's "lambda"
_COUPLING = _Default("the --disorder spec's lambda")
# recorded in the model document; a model JSON file takes none of them
_MODEL_KEYS = ("delta", "mu", "sector")
_CATALOG = {"delta": (_real, _REQUIRED), "mu": (_real, _REQUIRED), "sector": (_one_of(-1, 1), None)}
_SCANNED = {k: _CATALOG[k] for k in ("delta", "sector")}  # mu is scanned


def _resolve(command: str, keys: dict, given: dict, *, fill: bool = True) -> dict:
    """Check ``given`` against a key table ``{key: (validator, default)}``: every
    key known and accepted.  Default None marks an optional key.  With ``fill``
    (a command line) missing keys take their defaults; without it (a manifest)
    every non-optional key must be there."""
    for key in given:
        if key not in keys:
            raise ValueError(f"{command}: unknown key {key!r}; it takes {', '.join(keys)}")
    values = {}
    for key, (check, default) in keys.items():
        if key in given:
            try:
                values[key] = check(given[key])
            except (TypeError, ValueError) as err:
                raise ValueError(f"{command}: {key}={given[key]!r}: {err}") from None
        elif default is _REQUIRED or default is not None and not fill:
            raise ValueError(f"{command}: needs {key}=...")
        elif default is not None and not isinstance(default, _Default):
            values[key] = default
    return values


def _model_doc(choice: str) -> dict:
    if choice in MODEL_NAMES:
        return {"name": choice}
    path = Path(choice)
    if not path.is_file():
        names = ", ".join(sorted(MODEL_NAMES))
        raise ValueError(f"unknown model {choice!r}: neither a catalog name ({names}) "
                         "nor an existing JSON file")
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


def _disorder_doc(choice: str, model, lam: float | None) -> tuple[dict | None, float]:
    """The ``--disorder`` document and its coupling: ``lam`` when given,
    else the spec file's own ``lambda`` (0 for ``W00`` and ``none``)."""
    if choice == "none":
        if lam:
            raise ValueError("a nonzero coupling needs --disorder (W00 or a spec JSON file)")
        return None, 0.0
    if choice == "W00":
        lam = 0.0 if lam is None else lam
        return json.loads(spec_to_json(default_spec(r=model.fiber.r, lam=lam))), lam
    text = Path(choice).read_text()
    spec = spec_from_json(text, r=model.fiber.r)  # refuses a non-spec document
    doc = json.loads(text)
    if lam is None:
        return doc, spec.lam
    doc["lambda"] = lam
    return doc, lam


# ---------------------------------------------------------------------------
# command implementations (manifest -> output text)

def _run_bands(man: ExperimentManifest) -> str:
    model = _build_from_doc(man.model)
    ks = np.linspace(-math.pi, math.pi, man.params["n"])
    w = np.linalg.eigvalsh(
        _hermitian_bloch_points(model, ks[:, None], ks[None, :], "bands")
    )
    lines = ["k1,k2,E_minus,E_plus"]
    for a, k1 in enumerate(ks):
        for b, k2 in enumerate(ks):
            lines.append(
                ",".join([_fmt(k1), _fmt(k2), _fmt(w[a, b, 0]), _fmt(w[a, b, -1])])
            )
    gap = central_gap(model, ModelParams(0.0, 0.0))
    lines.append("# central gap = " + _fmt(gap))
    return "\n".join(lines) + "\n"


def _run_gap_scan(man: ExperimentManifest) -> str:
    doc = man.model
    if "name" not in doc:
        raise ValueError("gap-scan needs a catalog model name")
    p = man.params
    mus = np.linspace(p["mu_min"], p["mu_max"], p["n"])
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


def _ensemble(man: ExperimentManifest):
    """The model and disorder spec of a run, and its ensemble keywords."""
    model, doc, p = _build_from_doc(man.model), man.disorder, man.params
    spec = None if doc is None else spec_from_json(json.dumps(doc), r=model.fiber.r)
    ensemble = dict(L=p["L"], n_realizations=p["realizations"], seed=p["seed"],
                    threads=p["threads"])
    return model, spec, ensemble


def _run_ids(man: ExperimentManifest) -> str:
    model, spec, ensemble = _ensemble(man)
    estimator = ids_squared_estimate if man.params["squared"] else ids_estimate
    return estimator(model, spec, energies=man.params["energies"], **ensemble).to_csv()


def _run_dos(man: ExperimentManifest) -> str:
    model, spec, ensemble = _ensemble(man)
    p = man.params
    hist = dos_histogram(model, spec, bins=p["bins"], energy_range=p.get("erange"),
                         squared=bool(p["squared"]), **ensemble)
    return hist.to_csv()


def _run_chern(man: ExperimentManifest) -> str:
    doc = man.model
    if "name" not in doc:
        raise ValueError("chern needs a catalog model name")
    p = man.params
    entries = chern_mu_scan(
        lambda mu: _build_from_doc(doc, mu=mu), p["mus"], method=p["method"],
        grid_n=p["grid_n"], n_k=p["n_k"], L=p["L"],
    )
    return scan_csv(entries)


def _run_fmm_decay(man: ExperimentManifest) -> str:
    model, spec, ensemble = _ensemble(man)
    p = man.params
    est = fractional_moment_scan(model, spec, p["lam"], complex(p["E"], p["eps"]), s=p["s"],
                                 max_dist=p.get("max_dist"), **ensemble)
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
    model, spec, ensemble = _ensemble(man)
    if spec is None:
        raise ValueError("phase-diagram needs --disorder (W00 or a spec file)")
    p = man.params
    diagram = localization_phase_diagram(
        model, spec, p["lambdas"], p["energies"], s=p["s"], eps=p["eps"], **ensemble
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
    # transfer_matrix, contracting_subspace and u_matrix refuse the form defect
    # (1e-10 ||T||^2), the Lagrangian defect and the unitarity defect (1e-8)
    model = build_model("pip+", delta=0.3, mu=-0.5)
    for k1 in (-2.1, -0.4, 0.9, 2.8):
        u_matrix(contracting_subspace(transfer_matrix(model, k1)), k1)


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
    berry = berry_flux_chern(model, grid_n=24).value
    # the route of `chern --method realspace`, which clean-bloch-routes pins to the dense one
    marker = _chern_marker(_bloch_fermi_action(model, (12, 12)), (12, 12), model.fiber.dim).value
    assert transfer == berry == marker == -1, (
        f"methods disagree: transfer {transfer}, berry {berry}, marker {marker}"
    )
    for idx, expect in ((0, -2), (1, 2)):
        sector = reduce_su2(build_model("did+", delta=1.0, mu=2.0))[idx]
        got = berry_flux_chern(sector, grid_n=48).value
        assert got == expect, f"chiral d sector {idx}: {got}, expected {expect}"


def _check_clean_bloch_routes() -> None:
    # the clean periodic box through its Bloch fibers against the dense and LU
    # routes; the non-square box would catch an L1/L2 transposition
    z = 0.3 + 1e-4j
    for name, params, box in (("pip+", (0.3, -0.5), (8, 10)), ("did+", (1.0, 2.0), (6, 6))):
        model = build_model(name, *params)
        H = assemble_finite_volume(model, box)
        (eigs,) = _realization_spectra(_Ensemble(model, None, 0.0, box, 1, 0, 1))
        err = float(np.abs(eigs - H.eigenvalues()).max())
        assert err <= 1e-12, f"{name} {box}: Bloch spectrum off the dense one by {err:.3e}"
        n0 = (box[0] // 2, box[1] // 2)
        ref = ResolventSolver(H, z).columns(n0)
        err = float(np.abs(_bloch_columns(model, H, z, n0) - ref).max() / np.abs(ref).max())
        assert err <= 1e-12, f"{name} {box}: Bloch columns off the LU ones by {err:.3e} (relative)"
        P = fermi_projector(H)
        err = float(np.abs(_bloch_fermi_projector(model, box) - P).max())
        assert err <= 1e-12, f"{name} {box}: Bloch projector off the dense one by {err:.3e}"
        raw = _chern_marker(_bloch_fermi_action(model, box), box, model.fiber.dim).raw
        err = abs(raw - real_space_chern(P, box).raw)
        assert err <= 1e-12, f"{name} {box}: Bloch-action marker off the dense one by {err:.3e}"


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
    ("clean-bloch-routes", _check_clean_bloch_routes),
    ("disorder-reproducibility", _check_disorder_reproducibility),
)


def _verify_report() -> tuple[str, bool]:
    """The suite's report and whether every check passed.  Each check's time
    goes to stderr as ``verify: <name> <seconds> s``, so the report's bytes
    do not depend on the machine."""
    import time

    lines = []
    ok = True
    for name, check in VERIFY_CHECKS:
        start = time.perf_counter()
        try:
            check()
            lines.append("ok   " + name)
        except Exception as err:  # a crash is a failure, not an abort
            ok = False
            lines.append(f"FAIL {name}: {err}")
        print(f"verify: {name} {time.perf_counter() - start:.3f} s", file=sys.stderr)
    lines.append("verify: PASS" if ok else "verify: FAIL")
    return "\n".join(lines) + "\n", ok


# ---------------------------------------------------------------------------
# wiring: one table per subcommand drives the parser, the manifest and replay

@dataclass(frozen=True)
class _Command:
    """A subcommand.  With keys it takes --model and --params; None for ``L``,
    ``realizations`` or ``disorder`` leaves that flag out."""

    help: str
    run: Callable[[ExperimentManifest], str]
    keys: dict  # --params key -> (validator, default)
    L: int | None = None
    realizations: int | None = None
    disorder: str | None = None
    lam_in_params: bool = False  # params echo the coupling; replay checks it

    def flags(self) -> list[str]:
        """The shared flags recorded in params."""
        optional = {"L": self.L, "realizations": self.realizations}
        return ["seed", "threads"] + [f for f, d in optional.items() if d is not None]

    def flag_keys(self) -> dict:
        """The key table of the shared flags: integers, and at least 1 thread."""
        return {flag: (_count if flag == "threads" else _integer, _REQUIRED)
                for flag in self.flags()}

    def recorded(self) -> dict:
        """The key table of a manifest's params."""
        keys = {k: v for k, v in self.keys.items()
                if k not in _MODEL_KEYS and (k != "lam" or self.lam_in_params)}
        return {**keys, **self.flag_keys()}


_ENSEMBLE = dict(L=16, realizations=32, disorder="none")
_COMMANDS = {
    "bands": _Command("Bloch band extremes on a k grid", _run_bands, {
        **_CATALOG, "n": (_count, 33),
    }),
    "gap-scan": _Command("central gap across a mu window", _run_gap_scan, {
        **_SCANNED, "mu_min": (_real, _REQUIRED), "mu_max": (_real, _REQUIRED), "n": (_count, 21),
    }),
    "ids": _Command("integrated density of states", _run_ids, {
        **_CATALOG, "lam": (_real, _COUPLING), "energies": (_reals, _REQUIRED),
        "squared": (_one_of(0, 1), 0),
    }, **_ENSEMBLE),
    "dos": _Command("density-of-states histogram", _run_dos, {
        **_CATALOG, "lam": (_real, _COUPLING), "bins": (_count, 64), "erange": (_interval, None),
        "squared": (_one_of(0, 1), 0),
    }, **_ENSEMBLE),
    "chern": _Command("Chern numbers along a mu scan", _run_chern, {
        **_SCANNED, "mus": (_reals, _REQUIRED), "method": (_one_of(*_METHODS), "transfer"),
        "grid_n": (_count, 48), "n_k": (_count, 64),
    }, L=20),
    "fmm-decay": _Command("fractional-moment decay profile", _run_fmm_decay, {
        **_CATALOG, "lam": (_real, _COUPLING), "E": (_real, 0.0),
        "eps": (_real, EPS_DEFAULT), "s": (_real, S_DEFAULT), "max_dist": (_count, None),
    }, L=32, realizations=64, disorder="none", lam_in_params=True),
    "phase-diagram": _Command("localization verdicts over (lambda, E)", _run_phase_diagram, {
        **_CATALOG, "lambdas": (_reals, _REQUIRED), "energies": (_reals, _REQUIRED),
        "s": (_real, S_DEFAULT), "eps": (_real, EPS_DEFAULT),
    }, L=16, realizations=16, disorder="W00"),
    "verify": _Command("run the invariant suite", lambda man: _verify_report()[0], {}),
}


def _manifest_from_args(args) -> ExperimentManifest:
    cmd = _COMMANDS[args.command]
    model = disorder = None
    values: dict = {}
    if cmd.keys:
        model = _model_doc(args.model)
        keys = {k: v for k, v in cmd.keys.items() if "name" in model or k not in _MODEL_KEYS}
        values = _resolve(args.command, keys, _parse_params(args.command, args.params))
        model.update((k, values.pop(k)) for k in _MODEL_KEYS if k in values)
    if cmd.disorder:
        lam = values.pop("lam", None)
        disorder, lam = _disorder_doc(args.disorder, _build_from_doc(model), lam)
        if cmd.lam_in_params:
            values["lam"] = lam
    flags = {flag: getattr(args, flag) for flag in cmd.flags()}
    params = {**values, **_resolve(args.command, cmd.flag_keys(), flags)}
    return ExperimentManifest(args.command, model, disorder, params)


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
    recorded seeds and the number formats are fixed.  The params and the
    catalog model keys are checked against the command's key table first;
    an unknown, missing, refused or ill-typed entry, or a recorded ``lam``
    other than the disorder's ``lambda``, raises ``ValueError``.
    """
    man = ExperimentManifest.from_json(Path(path).read_text())
    if man.command not in _COMMANDS:
        raise ValueError(f"unknown command {man.command!r}")
    cmd, model = _COMMANDS[man.command], man.model
    if (model is None) == bool(cmd.keys) or man.disorder is not None and not cmd.disorder:
        raise ValueError(f"{man.command}: its model or disorder entry does not fit it")
    if "name" in (model or {}):
        keys = {k: cmd.keys[k] for k in _MODEL_KEYS if k in cmd.keys}
        given = {k: v for k, v in model.items() if k != "name"}
        model = {"name": model["name"], **_resolve(man.command, keys, given, fill=False)}
    elif model is not None and set(model) != {"operator"}:
        raise ValueError(f"{man.command}: model needs a name or an operator")
    params = _resolve(man.command, cmd.recorded(), man.params, fill=False)
    lam = (man.disorder or {}).get("lambda", 0.0)
    if params.get("lam", lam) != lam:
        raise ValueError(f"{man.command}: lam={params['lam']!r} is not the disorder's lambda")
    text = cmd.run(replace(man, model=model, params=params))
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
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        if cmd.keys:
            keys = ", ".join(f"{k} ({'optional' if d is None else d})"
                             for k, (_, d) in cmd.keys.items())
            sp.add_argument("--model", required=True, help="catalog name or model JSON file")
            sp.add_argument("--params", default="", help="key=value pairs, ':' separates list "
                            "items; keys: " + keys)
        if cmd.disorder:
            sp.add_argument("--disorder", default=cmd.disorder,
                            help="none, W00, or a spec JSON file")
        if cmd.L is not None:
            sp.add_argument("--L", type=int, default=cmd.L, help="torus side")
        if cmd.realizations is not None:
            sp.add_argument("--realizations", type=int, default=cmd.realizations)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="output file (manifest written alongside)")
        sp.add_argument("--threads", type=int, default=1, help="worker threads for "
                        "disorder ensembles; other subcommands only record it")
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
        else:
            text, ok = _COMMANDS[man.command].run(man), True
        _emit(text, args.out, man)
        return 0 if ok else 1
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
