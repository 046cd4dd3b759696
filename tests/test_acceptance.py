"""Acceptance gate: twelve end-to-end checks of the artifact's headline
claims, one test (one pass/fail line under ``pytest -v``) per criterion.

Each test pins its tolerances and runtime budget explicitly; nothing is
loosened to accommodate finite-size effects.  A failing line here means the
claim is not reproduced as stated, and the assertion message carries the
measured numbers.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from bdgtools.chern import (
    berry_flux_chern,
    chern_transfer,
    fermi_projector,
    real_space_chern,
    transition_winding,
)
from bdgtools.cli import main
from bdgtools.disorder import (
    DisorderSpec,
    DisorderTerm,
    Distribution,
    build_random_hamiltonian,
    default_spec,
    gap_closure_threshold,
    sample_realization,
    standard_W,
)
from bdgtools.greens import (
    OUTSIDE,
    combes_thomas_probe,
    fractional_moment_scan,
    localization_phase_diagram,
    tmatrix_update,
)
from bdgtools.lattice import (
    assemble_finite_volume,
    spectrum_symmetry_check,
)
from bdgtools.models import ModelParams, build_model, central_gap, reduce_su2
from bdgtools.spectral import ids_estimate, ids_squared_estimate


def test_criterion_01_chern_transfer_chiral_p_triple():
    """Transfer-matrix Chern numbers -1, -1, +1 across the mu = 0 transition."""
    for mu, expect in ((-0.5, -1), (-0.01, -1), (0.01, 1)):
        start = time.monotonic()
        res = chern_transfer(build_model("pip+", delta=0.3, mu=mu))
        elapsed = time.monotonic() - start
        assert res.value == expect, f"mu={mu}: got {res.value}, expected {expect}"
        assert res.residual < 0.1, f"mu={mu}: raw residual {res.residual:.3e}"
        assert elapsed < 10.0, f"mu={mu}: took {elapsed:.1f} s (budget 10 s)"


def test_criterion_02_chern_berry_contour_chiral_d():
    """Berry flux and contour winding give -2 / +2 per chirality sector,
    and the trivial value 0 outside the band."""
    plus, minus = reduce_su2(build_model("did+", delta=1.0, mu=2.0))
    for sector, expect in ((plus, -2), (minus, 2)):
        start = time.monotonic()
        flux = berry_flux_chern(sector, grid_n=48)
        assert flux.value == expect, f"berry: {flux.value}, expected {expect}"
        contour = transition_winding(sector, mu=2.0)
        assert contour.value == expect, f"contour: {contour.value}, expected {expect}"
        assert time.monotonic() - start < 20.0  # two evaluations, 10 s each
    for mu in (5.0, -5.0):
        start = time.monotonic()
        sector = reduce_su2(build_model("did+", delta=1.0, mu=mu))[0]
        flux = berry_flux_chern(sector, grid_n=48)
        assert flux.value == 0, f"mu={mu}: berry {flux.value}, expected 0"
        assert time.monotonic() - start < 10.0
        # the two-section contour construction requires 0 < |mu| < 4; the
        # trivial side is certified by the flux method alone
        with pytest.raises(ValueError, match="mu"):
            transition_winding(sector, mu=mu)


def test_criterion_03_method_cross_agreement_mu_scan():
    """Transfer, Berry flux and the L = 20 real-space marker agree on a
    six-point chemical-potential scan; marker raw within 0.15."""
    for mu in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5):
        model = build_model("pip+", delta=0.3, mu=mu)
        transfer = chern_transfer(model).value
        berry = berry_flux_chern(model, grid_n=24).value
        marker = real_space_chern(
            fermi_projector(assemble_finite_volume(model, (20, 20))), (20, 20)
        )
        assert transfer == berry == marker.value, (
            f"mu={mu}: transfer {transfer}, berry {berry}, marker {marker.value}"
        )
        assert marker.residual < 0.15, (
            f"mu={mu}: marker raw {marker.raw:+.4f} off by {marker.residual:.3f}"
        )


def test_criterion_04_central_gap_law():
    """g = |mu| near half filling, with the band-edge bounds g <= |mu|
    (chiral p) and g <= |4 - |mu|| (chiral d) never violated."""
    for mu in (0.02, 0.05, 0.1):
        g = central_gap("pip+", ModelParams(0.3, mu))
        assert abs(g - mu) <= 1e-6, f"gap({mu}) = {g:.9f}, expected {mu}"
    assert central_gap("pip+", ModelParams(0.3, 0.0)) <= 1e-8
    for mu in np.linspace(-3.0, 3.0, 20):
        g = central_gap("pip+", ModelParams(0.3, float(mu)))
        assert g <= abs(mu) + 1e-9, f"pip gap({mu:.3f}) = {g:.6f} above |mu|"
    for mu in np.linspace(-6.0, 6.0, 20):
        g = central_gap("did+", ModelParams(1.0, float(mu)))
        bound = abs(4.0 - abs(mu))
        assert g <= bound + 1e-9, f"did gap({mu:.3f}) = {g:.6f} above {bound:.6f}"


def test_criterion_05_spectrum_pairing_symmetry():
    """Eigenvalues pair as (E, -E) to 1e-10 on both examples, clean and
    with on-site disorder, L = 12, five seeds."""
    cases = (build_model("pip+", 0.3, -0.5), build_model("did+", 1.0, 2.0))
    for model in cases:
        clean = assemble_finite_volume(model, (12, 12))
        defect = spectrum_symmetry_check(clean.eigenvalues())
        assert defect <= 1e-10, f"clean defect {defect:.3e}"
        spec = default_spec(r=model.fiber.r, lam=0.5)
        for seed in range(5):
            H = build_random_hamiltonian(
                model, spec, spec.lam, sample_realization(spec, (12, 12), seed)
            )
            defect = spectrum_symmetry_check(H.eigenvalues())
            assert defect <= 1e-10, f"seed {seed}: defect {defect:.3e}"


def test_criterion_06_ids_identities_monte_carlo():
    """N(E) + N(-E) = 0 and N(E) = N2(E^2)/2 within three Monte-Carlo
    standard errors at nine energies; under two minutes."""
    start = time.monotonic()
    model = build_model("pip+", delta=0.3, mu=-0.5)
    spec = default_spec(r=1, lam=0.1)
    energies = np.linspace(0.25, 2.25, 9)
    kw = dict(L=16, n_realizations=32, seed=0)
    direct = ids_estimate(model, spec, energies=energies, **kw)
    mirror = ids_estimate(model, spec, energies=-energies, **kw)
    squared = ids_squared_estimate(model, spec, energies=energies**2, **kw)
    for i, e in enumerate(energies):
        odd = direct.values[i] + mirror.values[i]
        tol = 3.0 * (direct.stderr[i] + mirror.stderr[i]) + 1e-10
        assert abs(odd) <= tol, f"N({e:.2f}) + N(-{e:.2f}) = {odd:.3e} > {tol:.3e}"
        half = direct.values[i] - 0.5 * squared.values[i]
        tol = 3.0 * (direct.stderr[i] + 0.5 * squared.stderr[i]) + 1e-10
        assert abs(half) <= tol, f"N({e:.2f}) - N2/2 = {half:.3e} > {tol:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.0f} s (budget 120 s)"


def test_criterion_07_tmatrix_oracle_randomized():
    """Rank-one/two resolvent updates match dense inversion to 1e-10
    relative on twenty randomized instances."""
    model = build_model("pip+", delta=0.3, mu=-0.5)
    spec = DisorderSpec(
        (
            DisorderTerm((0, 0), standard_W("W00", 1), Distribution(), "W00"),
            DisorderTerm((1, 0), standard_W("W10", 1), Distribution(), "W10"),
            DisorderTerm((0, 1), standard_W("W01", 1), Distribution(), "W01"),
        )
    )
    H = build_random_hamiltonian(
        model, spec, 0.2, sample_realization(spec, (5, 5), seed=11)
    )
    rng = np.random.default_rng(17)
    moves = (((0, 0), "W00"), ((1, 0), "W10"), ((0, 1), "W01"))
    for case in range(20):
        l = (int(rng.integers(5)), int(rng.integers(5)))
        j, wname = moves[int(rng.integers(3))]
        v = float(rng.uniform(-1.5, 1.5))
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.4))
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
        for n, m in ((l, (2, 2)), ((0, 0), (3, 1)), ((4, 4), l)):
            ref = dense[H.site_slice(n), H.site_slice(m)]
            err = float(np.abs(upd.block(n, m) - ref).max())
            scale = max(float(np.abs(ref).max()), 1e-30)
            assert err <= 1e-10 * max(scale, 1.0), (
                f"case {case} (l={l}, j={j}, v={v:.3f}, z={z:.3f}): "
                f"relative error {err / scale:.3e}"
            )


def test_criterion_08_combes_thomas_monotonicity():
    """Clean resolvent decay rate increases strictly along a five-point
    ladder of distances to the spectrum; ||G(n0,n0)|| <= 1/D(z) throughout."""
    model = build_model("pip+", delta=0.3, mu=-0.5)
    points = combes_thomas_probe(model, [0.15, 0.10, 0.05, 0.02, 0.0], L=24)
    dists = [p.distance for p in points]
    rates = [p.rate for p in points]
    assert all(d2 > d1 for d1, d2 in zip(dists, dists[1:])), dists
    assert all(r2 > r1 for r1, r2 in zip(rates, rates[1:])), (
        f"rates not strictly increasing along the ladder: {rates}"
    )
    for p in points:
        assert p.onsite_norm <= 1.0 / p.distance, (
            f"z={p.z}: ||G(n0,n0)|| = {p.onsite_norm:.4f} above 1/D = "
            f"{1.0 / p.distance:.4f}"
        )


def test_criterion_09_fractional_moment_decay():
    """In-gap fractional moments decay exponentially at weak disorder:
    positive rate at two standard errors, r^2 > 0.9, and no dependence on
    the regularization epsilon beyond noise."""
    start = time.monotonic()
    model = build_model("pip+", delta=0.3, mu=-0.5)
    spec = default_spec(r=1)
    kw = dict(s=0.3, L=32, n_realizations=64, seed=0)
    est3 = fractional_moment_scan(model, spec, 0.05, 1e-3j, **kw)
    est5 = fractional_moment_scan(model, spec, 0.05, 1e-5j, **kw)
    assert est3.rate - 2.0 * est3.rate_err > 0.0, (
        f"rate {est3.rate:.4f} +- {est3.rate_err:.4f} not positive at 2 sigma"
    )
    assert est3.r_squared > 0.9, f"r^2 = {est3.r_squared:.3f}"
    for d, t3, e3, t5, e5 in zip(
        est3.distances, est3.tau, est3.tau_stderr, est5.tau, est5.tau_stderr
    ):
        assert abs(t3 - t5) <= 2.0 * (e3 + e5), (
            f"tau(eps=1e-3) vs tau(eps=1e-5) differ at d={d}: "
            f"{t3:.4e} vs {t5:.4e}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"took {elapsed:.0f} s (budget 900 s)"


def test_criterion_10_disorder_stability_of_chern():
    """The real-space Chern number survives weak disorder: -1 in at least
    seven of eight seeds at lambda = 0.05, L = 20."""
    model = build_model("pip+", delta=0.3, mu=-0.5)
    spec = default_spec(r=1)
    values = []
    for seed in range(8):
        H = build_random_hamiltonian(
            model, spec, 0.05, sample_realization(spec, (20, 20), seed)
        )
        values.append(real_space_chern(fermi_projector(H), (20, 20)).value)
    hits = sum(v == -1 for v in values)
    assert hits >= 7, f"marker = -1 in only {hits} of 8 seeds: {values}"


def test_criterion_11_phase_diagram_consistency():
    """Spectral edges grow with the coupling, the central gap survives
    below mu / r_support, and the measured gap-closure coupling lies within
    20% of mu / r_support at L = 16 with 20 realizations."""
    model = build_model("pip+", delta=0.3, mu=0.5)
    spec = default_spec(r=1)
    threshold = gap_closure_threshold(0.5, 1.0)
    lams = [0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.8]
    diagram = localization_phase_diagram(
        model, spec, lams, [0.0], L=16, n_realizations=20, seed=0
    )
    highs = [e.hi for e in diagram.edges]
    assert all(b > a for a, b in zip(highs, highs[1:])), (
        f"upper spectral edge not increasing with lambda: {highs}"
    )
    gap_kept = [row[0] == OUTSIDE for row in diagram.verdicts]
    for lam, kept in zip(lams, gap_kept):
        if lam < threshold:
            assert kept, f"gap cell lost already at lambda = {lam}"
    closed = [lam for lam, kept in zip(lams, gap_kept) if not kept]
    measured = closed[0] if closed else None
    assert measured is not None and abs(measured - threshold) <= 0.2 * threshold, (
        f"measured gap-closure lambda = {measured} (first cell not "
        f"gap-classified), outside [{0.8 * threshold}, {1.2 * threshold}] "
        f"around mu / r_support = {threshold}"
    )


def test_criterion_12_verify_suite(capsys):
    """The command-line invariant suite passes end to end in under five
    minutes."""
    start = time.monotonic()
    code = main(["verify"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0, f"verify exited {code}:\n{out}"
    assert "verify: PASS" in out
    assert elapsed < 300.0, f"took {elapsed:.0f} s (budget 300 s)"
