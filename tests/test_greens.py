"""Resolvent solver, Combes-Thomas probe, fractional-moment scan, T-matrix
update, Fermi projection decay, and the localization phase diagram."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigs, splu

import bdgtools.greens as greens
from bdgtools.disorder import (
    DisorderRealization,
    DisorderSpec,
    DisorderTerm,
    Distribution,
    _Ensemble,
    _realization_map,
    build_random_hamiltonian,
    default_spec,
    sample_realization,
    standard_W,
)
from bdgtools.greens import (
    LOCALIZED,
    NO_VERDICT,
    OUTSIDE,
    ResolventSolver,
    bloch_band_grid,
    combes_thomas_probe,
    fermi_projection_decay,
    fractional_moment_scan,
    green_matrix,
    localization_phase_diagram,
    spectral_distance,
    tmatrix_update,
)
from bdgtools.lattice import (
    FiberShape,
    _dissection_order,
    _Pencil,
    assemble_finite_volume,
    tight_binding,
)
from bdgtools.models import ModelParams, build_model, central_gap

PIP = build_model("pip+", delta=0.3, mu=-0.5)
GAP = central_gap("pip+", ModelParams(0.3, -0.5))
SPEC = default_spec(r=1)
# the three ways to ask for lam*V = 0: no spec, zero coupling, no terms
CLEAN_FORMS = [(None, 0.3), (SPEC, 0.0), (DisorderSpec(()), 0.3)]


def _zero_model(dim: int = 2):
    return tight_binding(FiberShape(dim), {(0, 0): np.zeros((dim, dim))})


# ---------------------------------------------------------------------------
# resolvent solver

def test_resolvent_of_zero_operator_is_diagonal():
    H = assemble_finite_volume(_zero_model(), (4, 4))
    blk = green_matrix(H, 1j, (1, 2), (1, 2))
    assert np.abs(blk - (-1j) * np.eye(2)).max() < 1e-14
    off = green_matrix(H, 1j, (0, 0), (1, 2))
    assert np.abs(off).max() < 1e-14


def test_resolvent_matches_dense_inverse():
    H = assemble_finite_volume(PIP, (6, 6))
    z = 0.3 + 0.2j
    dense = np.linalg.inv(z * np.eye(H.dim) - H.dense())
    solver = ResolventSolver(H, z)
    for n, m in [((0, 0), (0, 0)), ((2, 3), (5, 1)), ((4, 4), (1, 5))]:
        got = solver.block(n, m)
        ref = dense[H.site_slice(n), H.site_slice(m)]
        assert np.abs(got - ref).max() < 1e-12


def test_resolvent_conjugation_symmetry():
    H = assemble_finite_volume(PIP, (8, 8))
    z = 0.05 + 0.02j
    a = green_matrix(H, z, (2, 3), (5, 1))
    b = green_matrix(H, np.conj(z), (5, 1), (2, 3))
    assert np.abs(a - b.conj().T).max() < 1e-13


def test_resolvent_rejects_z_on_the_spectrum():
    H = assemble_finite_volume(PIP, (4, 4))
    e = float(H.eigenvalues()[3])
    with pytest.raises((ValueError, ArithmeticError)):
        solver = ResolventSolver(H, e)
        solver.columns((0, 0))


@pytest.mark.parametrize("residual, b", [
    (np.array([np.nan, 0.0]), np.ones(2)),  # NaN > RESIDUAL_TOL is False
    (np.zeros(2), np.array([np.nan, 1.0])),  # a NaN scale skipped the check
    (np.zeros(2), np.array([np.inf, 1.0])),
], ids=["nan residual", "nan scale", "infinite scale"])
def test_a_non_finite_residual_or_scale_is_rejected(residual, b):
    with pytest.raises(ArithmeticError, match="rejected"):
        greens._certify(1e-3j, residual, b)


def test_adjoint_solve_matches_conjugate_factorization():
    H = assemble_finite_volume(PIP, (5, 5))
    z = 0.4 + 0.3j
    rng = np.random.default_rng(5)
    b = rng.normal(size=(H.dim, 3)) + 1j * rng.normal(size=(H.dim, 3))
    x1 = ResolventSolver(H, z).solve_adjoint(b)
    x2 = ResolventSolver(H, np.conj(z)).solve(b)
    assert np.abs(x1 - x2).max() < 1e-11


def test_interior_blocks_agree_across_boundary_conditions():
    # deep in the gap the resolvent is short-ranged, so boundary effects on
    # a center block die off before they reach it
    z = 0.0 + 0.05j
    per = ResolventSolver(assemble_finite_volume(PIP, (16, 16)), z)
    opn = ResolventSolver(assemble_finite_volume(PIP, (16, 16), bc="open"), z)
    worst = 0.0
    for n, m in [((8, 8), (8, 8)), ((8, 8), (9, 8)), ((7, 8), (8, 9))]:
        worst = max(worst, float(np.abs(per.block(n, m) - opn.block(n, m)).max()))
    assert worst < 0.05


# ---------------------------------------------------------------------------
# Bloch bands and spectral distance

def test_bloch_band_grid_shape_and_symmetry():
    bands = bloch_band_grid(PIP, 32)
    assert bands.shape == (32 * 32, 2)
    flat = np.sort(bands.ravel())
    assert np.abs(flat + flat[::-1]).max() < 1e-12


def test_spectral_distance_matches_half_gap():
    assert abs(spectral_distance(PIP, 0.0) - GAP / 2) < 2e-3


@pytest.mark.parametrize("z", [0.0, 0.05, 0.1, 0.15, -0.1, 0.12 + 0.04j, -0.03 - 0.2j])
def test_spectral_distance_is_the_refined_distance_to_the_bands(z):
    # below the gap edge the nearest band point is the gap minimum, at g/2 - |Re z|
    expect = float(np.hypot(np.imag(z), GAP / 2 - abs(np.real(z))))
    assert abs(spectral_distance(PIP, z) - expect) <= 1e-12


# ---------------------------------------------------------------------------
# Combes-Thomas probe

def test_combes_thomas_rates_increase_with_distance():
    pts = combes_thomas_probe(PIP, [0.0, 0.05, 0.09, 0.13, 0.16], L=20)
    pairs = sorted((p.distance, p.rate) for p in pts)
    rates = [r for _, r in pairs]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_combes_thomas_onsite_norm_bounded_by_inverse_distance():
    pts = combes_thomas_probe(PIP, [0.0, 0.1, 0.16, 4.5, 6.0], L=20)
    for p in pts:
        assert p.onsite_norm <= 1.0 / p.distance


def test_combes_thomas_distances_stop_at_half_the_shorter_side(monkeypatch):
    probed = []
    profile = greens._norm_profile

    def recorded(H, cols, n0, dists):
        probed.append(dists)
        return profile(H, cols, n0, dists)

    monkeypatch.setattr(greens, "_norm_profile", recorded)
    combes_thomas_probe(PIP, [0.05], L=(24, 12))
    assert probed and probed[0].max() == 12 // 2 - PIP.range


def test_combes_thomas_refuses_a_box_with_one_distance():
    with pytest.raises(ValueError, match="fewer than the two distances a fit needs"):
        combes_thomas_probe(PIP, [0.05], L=4)


def test_combes_thomas_rejects_in_spectrum_energy():
    with pytest.raises(ValueError, match="spectrum"):
        combes_thomas_probe(PIP, [1.0], L=20)


# ---------------------------------------------------------------------------
# fractional-moment scan

def test_clean_scan_matches_deterministic_profile():
    z = 0.0 + 1e-4j
    est, *others = [
        fractional_moment_scan(PIP, spec, lam, z, L=16) for spec, lam in CLEAN_FORMS
    ]
    for other in others:
        assert np.array_equal(other.tau, est.tau)
        assert (other.rate, other.rate_err, other.fit_window) == (
            est.rate, est.rate_err, est.fit_window
        )
    assert est.n_realizations == 1
    assert np.all(est.tau_stderr == 0.0)
    H = assemble_finite_volume(PIP, (16, 16))
    cols = ResolventSolver(H, np.conj(z)).columns((8, 8))
    ref = np.array(
        [
            np.linalg.norm(cols[H.site_slice((8 + d, 8)), :]) ** 0.3
            for d in est.distances
        ]
    )
    assert np.abs(est.tau - ref).max() < 1e-13


def test_scan_decays_in_the_gap_with_disorder():
    est = fractional_moment_scan(
        PIP, SPEC, 0.05, 1e-4j, L=24, n_realizations=32, seed=3, threads=2
    )
    assert est.significant()
    assert est.r_squared > 0.8
    assert est.rate > 0.1


def test_scan_rate_nonincreasing_in_coupling():
    rates = []
    for lam in [0.0, 0.05, 0.1, 0.2]:
        est = fractional_moment_scan(
            PIP,
            SPEC if lam else None,
            lam,
            1e-4j,
            L=24,
            n_realizations=32 if lam else 1,
            seed=3,
            threads=2,
        )
        rates.append(est.rate)
    assert all(b <= a + 1e-3 for a, b in zip(rates, rates[1:]))


def test_scan_epsilon_independence_in_the_gap():
    kw = dict(L=20, n_realizations=16, seed=3, threads=2)
    a = fractional_moment_scan(PIP, SPEC, 0.05, 0.0 + 1e-3j, **kw)
    b = fractional_moment_scan(PIP, SPEC, 0.05, 0.0 + 1e-5j, **kw)
    bound = 2.0 * np.sqrt(a.tau_stderr**2 + b.tau_stderr**2)
    inside = bound > 0
    assert np.all(np.abs(a.tau - b.tau)[inside] <= bound[inside])


def test_scan_relabeling_covariance_is_exact_per_realization():
    # shifting the origin and translating the sampled field the same way
    # must reproduce tau(d) realization-by-realization, not just in law
    L, t = (10, 10), (3, 4)
    real_a = sample_realization(SPEC, L, seed=21)
    shifted = {
        (j, l): real_a.values[(j, ((l[0] + t[0]) % L[0], (l[1] + t[1]) % L[1]))]
        for (j, l) in real_a.values
    }
    real_b = DisorderRealization(L, shifted, seed=21)
    Ha = build_random_hamiltonian(PIP, SPEC, 0.3, real_a)
    Hb = build_random_hamiltonian(PIP, SPEC, 0.3, real_b)
    z = 0.0 + 1e-4j
    ca = ResolventSolver(Ha, np.conj(z)).columns((5 + t[0], 5 + t[1]))
    cb = ResolventSolver(Hb, np.conj(z)).columns((5, 5))
    for d in range(4):
        na = float(np.linalg.norm(ca[Ha.site_slice((5 + t[0] + d, 5 + t[1])), :]))
        nb = float(np.linalg.norm(cb[Hb.site_slice((5 + d, 5)), :]))
        assert abs(na - nb) < 1e-11 * max(na, 1e-30)


def test_scan_rejects_bad_parameters():
    with pytest.raises(ValueError, match="max_dist"):
        fractional_moment_scan(PIP, SPEC, 0.1, 1e-4j, L=16, max_dist=9)
    with pytest.raises(ValueError, match="n_realizations"):
        fractional_moment_scan(PIP, SPEC, 0.1, 1e-4j, L=16, n_realizations=7)
    with pytest.raises(ValueError, match="fractional power"):
        fractional_moment_scan(PIP, SPEC, 0.1, 1e-4j, L=16, s=1.2)


@pytest.mark.parametrize("probe", [fractional_moment_scan, fermi_projection_decay])
def test_decay_probes_bound_max_dist_by_the_disorder_range(probe):
    # a range-2 disorder term reaches farther than the pip+ hops: L/2 - R = 8 - 2
    spec = DisorderSpec((DisorderTerm((2, 0), standard_W("W10", 1)),))
    with pytest.raises(ValueError, match="L/2 - R = 6"):
        probe(PIP, spec, 0.2, 0.0, L=16, max_dist=7)


# ---------------------------------------------------------------------------
# T-matrix update

def _disordered_fixture(seed: int = 11, lam: float = 0.2, L=(5, 5), bc="periodic"):
    spec = DisorderSpec(
        (
            DisorderTerm((0, 0), standard_W("W00", 1), Distribution(), "W00"),
            DisorderTerm((1, 0), standard_W("W10", 1), Distribution(), "W10"),
        )
    )
    real = sample_realization(spec, L, seed=seed)
    return build_random_hamiltonian(PIP, spec, lam, real, bc=bc)


def _dense_updated_resolvent(H, lam, v, W, l, j, z):
    A = np.zeros((H.dim, H.dim), dtype=complex)
    sl_l = H.site_slice(l)
    lp = (l[0] + j[0], l[1] + j[1])
    inside = 0 <= lp[0] < H.L[0] and 0 <= lp[1] < H.L[1]
    if j == (0, 0):
        A[sl_l, sl_l] = W
    elif H.bc == "periodic" or inside:  # an open box has no hop that leaves it
        lp = (lp[0] % H.L[0], lp[1] % H.L[1])
        A[H.site_slice(lp), sl_l] = W
        A[sl_l, H.site_slice(lp)] = np.asarray(W).conj().T
    return np.linalg.inv(z * np.eye(H.dim) - (H.dense() + lam * v * A))


@pytest.mark.parametrize(
    "l,j,wname,v",
    [
        ((1, 2), (0, 0), "W00", 0.7),
        ((1, 2), (1, 0), "W10", -0.4),
        ((3, 0), (0, 1), "W01", 0.9),
    ],
)
def test_tmatrix_update_matches_dense_inversion(l, j, wname, v):
    H = _disordered_fixture()
    z = 0.3 + 0.1j
    W = standard_W(wname, 1)
    upd = tmatrix_update(H, 0.2, v, W, l, j, z)
    dense = _dense_updated_resolvent(H, 0.2, v, W, l, j, z)
    for n in [(0, 0), l, (2, 2), (4, 3)]:
        for m in [(1, 2), (3, 0), (2, 4)]:
            ref = dense[H.site_slice(n), H.site_slice(m)]
            err = np.abs(upd.block(n, m) - ref).max()
            assert err <= 1e-10 * max(np.abs(ref).max(), 1.0)


@pytest.mark.parametrize(
    "l,j,wname,dropped",
    [
        ((4, 2), (1, 0), "W10", True),  # leaves the box across the right face
        ((2, 4), (0, 1), "W01", True),  # leaves it across the top face
        ((0, 2), (1, 0), "W10", False),  # face site, hop into the box
        ((2, 2), (0, 1), "W01", False),  # interior
        ((0, 0), (0, 0), "W00", False),  # corner, on-site
    ],
)
def test_tmatrix_update_on_an_open_box_matches_dense_inversion(l, j, wname, dropped):
    H = _disordered_fixture(bc="open")
    z = 0.3 + 0.1j
    W = standard_W(wname, 1)
    upd = tmatrix_update(H, 0.2, 0.7, W, l, j, z)
    assert (upd.tmatrix is None) == dropped
    dense = _dense_updated_resolvent(H, 0.2, 0.7, W, l, j, z)
    for n in [l, (0, 2), (2, 0), (2, 2), (4, 2)]:
        for m in [l, (0, 2), (1, 3), (2, 4)]:
            ref = dense[H.site_slice(n), H.site_slice(m)]
            err = np.abs(upd.block(n, m) - ref).max()
            assert err <= 1e-10 * max(np.abs(ref).max(), 1.0), (n, m)


def test_tmatrix_update_refuses_a_site_outside_the_box():
    H = _disordered_fixture()
    for l in [(5, 2), (-1, 0)]:
        with pytest.raises(ValueError, match="outside the box"):
            tmatrix_update(H, 0.2, 0.7, standard_W("W10", 1), l, (1, 0), 0.3 + 0.1j)


def test_tmatrix_vanishing_value_returns_unperturbed_resolvent():
    H = _disordered_fixture()
    z = 0.3 + 0.1j
    upd = tmatrix_update(H, 0.2, 0.0, standard_W("W10", 1), (1, 2), (1, 0), z)
    base = ResolventSolver(H, z)
    assert upd.tmatrix is None
    for n, m in [((2, 3), (0, 1)), ((1, 2), (1, 2))]:
        assert np.abs(upd.block(n, m) - base.block(n, m)).max() == 0.0


def test_tmatrix_correction_rank_is_bounded_by_support():
    H = _disordered_fixture()
    z = 0.3 + 0.1j
    for l, j, wname, k in [((1, 2), (0, 0), "W00", 2), ((1, 2), (1, 0), "W10", 4)]:
        W = standard_W(wname, 1)
        dense = _dense_updated_resolvent(H, 0.2, 0.6, W, l, j, z)
        base = np.linalg.inv(z * np.eye(H.dim) - H.dense())
        svals = np.linalg.svd(dense - base, compute_uv=False)
        assert int(np.sum(svals > 1e-10)) <= k
        upd = tmatrix_update(H, 0.2, 0.6, W, l, j, z)
        assert upd.tmatrix.shape == (k, k)


def test_tmatrix_rejects_singular_perturbation():
    H = _disordered_fixture()
    with pytest.raises(ValueError, match="singular"):
        tmatrix_update(H, 0.2, 0.5, np.zeros((2, 2)), (1, 1), (1, 0), 0.3 + 0.1j)
    with pytest.raises(ValueError, match="self-adjoint"):
        tmatrix_update(H, 0.2, 0.5, np.array([[0.0, 1.0], [0.0, 0.0]]), (1, 1), (0, 0), 0.3 + 0.1j)


# ---------------------------------------------------------------------------
# Fermi projection decay

def test_projection_is_idempotent_and_decays_exponentially_when_clean():
    deep = build_model("pip+", delta=0.6, mu=-1.0)
    dec = fermi_projection_decay(deep, None, 0.0, 0.0, L=16)
    assert dec.idempotency_defect <= 1e-10
    assert not dec.shifted
    # fit the asymptotic tail; d = 1 is near-field and a factor ~20 above it
    d, w = dec.distances[2:], dec.norms[2:]
    design = np.vstack([np.ones(len(d)), d]).T
    coef, *_ = np.linalg.lstsq(design, np.log(w), rcond=None)
    resid = np.log(w) - design @ coef
    r2 = 1.0 - float(resid @ resid) / float(np.sum((np.log(w) - np.log(w).mean()) ** 2))
    assert -coef[1] > 0.5  # exponential, clearly faster than any power here
    assert r2 > 0.9


def test_disordered_projection_beats_quartic_power_law():
    deep = build_model("pip+", delta=0.6, mu=-1.0)
    dec = fermi_projection_decay(
        deep, SPEC, 0.2, 0.0, L=20, n_realizations=8, seed=5, threads=2
    )
    assert dec.idempotency_defect <= 1e-10
    d, w = dec.distances, dec.norms
    assert w[9] / w[4] < (d[9] / d[4]) ** -4.0
    tail = slice(4, 10)
    slope = np.polyfit(np.log(d[tail]), np.log(w[tail]), 1)[0]
    assert slope < -4.0


def _dense_projection_decay(model, spec, lam, E, L, n_realizations, seed, dists):
    """The defect and the norms of fermi_projection_decay from the dense n x n P of
    each realization, its SVD and its site blocks: the route the Gram check replaced."""
    n0, H0 = (L // 2, L // 2), assemble_finite_volume(model, (L, L))
    defect, profiles = 0.0, []
    for i in range(n_realizations if spec is not None else 1):
        H = H0 if spec is None else build_random_hamiltonian(
            H0, spec, lam, sample_realization(spec, (L, L), seed + i))
        w, v = np.linalg.eigh(H.dense())
        P = v[:, w <= E] @ v[:, w <= E].conj().T
        defect = max(defect, float(np.linalg.norm(P @ P - P, 2)))
        sl = H.site_slice(n0)
        profiles.append([np.linalg.norm(P[sl, H.site_slice((n0[0] + d, n0[1]))]) for d in dists])
    return defect, np.mean(profiles, axis=0)


@pytest.mark.parametrize("L", [12, 16])
@pytest.mark.parametrize("spec, lam", [(None, 0.0), (SPEC, 0.3)])
def test_projection_decay_matches_the_dense_projector(spec, lam, L):
    dec = fermi_projection_decay(PIP, spec, lam, 0.0, L=L, n_realizations=8, seed=4)
    assert not dec.shifted and len(dec.distances) >= 4
    defect, norms = _dense_projection_decay(PIP, spec, lam, 0.0, L, 8, 4, dec.distances)
    assert abs(dec.idempotency_defect - defect) <= 1e-14
    assert np.all(np.abs(dec.norms - norms) <= 1e-12 * norms)


def test_projection_shifts_off_eigenvalues_and_reports():
    w = assemble_finite_volume(PIP, (12, 12)).eigenvalues()
    target = float(w[len(w) // 3])
    dec, *others = [
        fermi_projection_decay(PIP, spec, lam, target, L=12) for spec, lam in CLEAN_FORMS
    ]
    for other in others:
        assert other.energy == dec.energy
        assert np.array_equal(other.norms, dec.norms)
        assert np.array_equal(other.stderr, dec.stderr)
    assert dec.shifted
    assert dec.requested_energy == target
    assert np.abs(w - dec.energy).min() > 1e-8


# ---------------------------------------------------------------------------
# phase diagram

def test_phase_diagram_small_grid_verdicts_and_csv():
    pd = localization_phase_diagram(
        PIP, SPEC, [0.0, 0.3], [-5.0, 0.0, 1.0], L=16, n_realizations=8, seed=2, threads=2
    )
    # clean column: no localized verdicts anywhere (nothing to average)
    assert LOCALIZED not in pd.verdicts[0]
    # E = -5 is below the spectrum for every coupling here
    assert pd.verdicts[0][0] == OUTSIDE
    assert pd.verdicts[1][0] == OUTSIDE
    # E = 0 sits in a gap that survives this far below the closure coupling
    assert pd.verdicts[1][1] == OUTSIDE
    # in-band cell stays honest: no certified decay at this scale
    assert pd.verdicts[0][2] == NO_VERDICT
    csv = pd.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "lambda,E,verdict,rate,rate_err,r2,n_realizations"
    assert len(lines) == 1 + 2 * 3
    man = pd.manifest()
    assert man["L"] == [16, 16]
    assert len(man["edges"]) == 2


def test_phase_diagram_gap_cells_below_closure_are_safe():
    pd = localization_phase_diagram(
        PIP, SPEC, [0.2, 0.4], [0.0], L=16, n_realizations=8, seed=2, threads=2
    )
    for row in pd.verdicts:
        assert row[0] in (LOCALIZED, OUTSIDE)


def test_phase_diagram_outer_edges_grow_with_coupling():
    pd = localization_phase_diagram(
        PIP, SPEC, [0.0, 0.4, 0.8], [-5.0], L=16, n_realizations=16, seed=2, threads=2
    )
    his = [e.hi for e in pd.edges]
    los = [e.lo for e in pd.edges]
    assert his[0] < his[1] < his[2]
    assert los[0] > los[1] > los[2]


def test_phase_diagram_clean_rows_agree_for_every_clean_form():
    energies = [-5.0, 0.0, 1.0]
    kw = dict(L=16, n_realizations=8, seed=2, eps=0.3)
    ref = localization_phase_diagram(PIP, SPEC, [0.0], energies, **kw)
    (ref_edge,) = ref.edges
    assert np.isfinite(ref.rates[0, 2])  # the in-band cell runs a clean scan
    for spec, lam in CLEAN_FORMS:
        pd = localization_phase_diagram(PIP, spec, [0.0, lam], energies, **kw)
        for i in range(2):
            assert pd.verdicts[i] == ref.verdicts[0]
            for got, want in [(pd.rates, ref.rates), (pd.r_squared, ref.r_squared)]:
                assert np.array_equal(got[i], want[0], equal_nan=True)
            assert np.array_equal(pd.n_realizations[i], ref.n_realizations[0])
            assert replace(pd.edges[i], lam=0.0) == ref_edge


def test_phase_diagram_refuses_non_positive_realizations():
    for n in (0, -2):
        with pytest.raises(ValueError, match="n_realizations"):
            localization_phase_diagram(PIP, SPEC, [0.2], [0.0], L=8, n_realizations=n)


@pytest.mark.parametrize(
    "kw, match",
    [
        (dict(s=1.2), "fractional power"),
        (dict(n_realizations=4), "n_realizations = 4"),
        (dict(L=3), "max_dist = 0"),
        (dict(L=4), "max_dist = 1 leaves fewer than the two distances"),
    ],
    ids=["s", "realizations", "L3", "L4"],
)
def test_phase_diagram_refuses_what_its_scans_refuse(kw, match, monkeypatch):
    scans = []
    monkeypatch.setattr(greens, "fractional_moment_scan", lambda *a, **k: scans.append(a))
    model = build_model("pip+", delta=0.3, mu=0.5)
    with pytest.raises(ValueError, match=match):
        localization_phase_diagram(model, SPEC, [0.2], [0.0, 1.0], **kw)
    assert scans == []


def test_phase_diagram_refuses_a_late_row_before_any_scan(monkeypatch):
    # three clean rows with cells inside the spectrum come before the
    # disordered row whose four realizations the scans refuse
    scans = []
    monkeypatch.setattr(greens, "fractional_moment_scan", lambda *a, **k: scans.append(a))
    with pytest.raises(ValueError, match="n_realizations = 4"):
        localization_phase_diagram(PIP, SPEC, [0.0, 0.0, 0.0, 0.2], [1.0], L=16, n_realizations=4)
    assert scans == []


def _estimate(rate, rate_err, r2) -> greens.DecayEstimate:
    d = np.arange(4)
    return greens.DecayEstimate(d, np.ones(4), np.zeros(4), rate, rate_err, 1.0, r2,
                                (1, 2, 3), 8, 0.3, 0j)


def test_phase_diagram_keeps_the_reason_of_every_no_verdict_cell(monkeypatch):
    outcomes = {
        0.4: ValueError("fit window is empty"),
        0.7: ArithmeticError("resolvent solve rejected"),
        1.0: _estimate(0.1, 0.1, 0.99),  # rate - 2 se < 0
        1.3: _estimate(0.5, 0.01, 0.5),
        1.6: _estimate(0.5, 0.01, float("nan")),
        1.9: _estimate(0.5, 0.01, 0.99),
    }

    def scan(model, spec, lam, z, **kw):
        out = outcomes[z.real]
        if isinstance(out, Exception):
            raise out
        return out

    monkeypatch.setattr(greens, "fractional_moment_scan", scan)
    energies = [-9.0, *outcomes]
    pd = localization_phase_diagram(PIP, SPEC, [0.0], energies, L=16, n_realizations=8)
    assert pd.verdicts == ((OUTSIDE,) + (NO_VERDICT,) * 5 + (LOCALIZED,),)
    assert pd.reasons == (("", "fit window is empty", "resolvent solve rejected",
                           "insignificant rate", "r² ≤ 0.8", "r² ≤ 0.8", ""),)
    assert pd.edge_fallbacks == (0,)
    assert "reasons" not in pd.manifest() and "edge_fallbacks" not in pd.manifest()
    assert pd.to_csv().splitlines()[0] == "lambda,E,verdict,rate,rate_err,r2,n_realizations"


# ---------------------------------------------------------------------------
# phase-diagram edges: the sparse particle-hole route against the dense one

def _summary(lam, rows) -> greens.SpectralEdges:
    """Mean and sample deviation of each of the (lo, hi, gap_lo, gap_hi) rows."""
    cols = [np.array(c) for c in zip(*rows)]
    values = [v for c in cols for v in (float(c.mean()), float(c.std(ddof=1)))]
    return greens.SpectralEdges(float(lam), *values)


def _dense_edges(model, spec, lam, box, n, seed) -> greens.SpectralEdges:
    """The edge statistics from every realization's full dense spectrum."""
    spectra = greens._realization_spectra(_Ensemble(model, spec, lam, box, n, seed, 1))
    return _summary(lam, [greens._spectrum_edges(e) for e in spectra])


def _spec(r: int, names) -> DisorderSpec:
    at = {"W00": (0, 0), "W10": (1, 0), "W01": (0, 1)}
    return DisorderSpec(tuple(DisorderTerm(at[n], standard_W(n, r)) for n in names))


EDGE_MODELS = {"pip+": (0.3, 0.5, 12), "did+": (1.0, 2.0, 8), "s": (0.7, 1.3, 8),
               "p-triplet+": (0.3, 0.5, 8)}
EDGE_SPECS = {"W00": ("W00",), "W00+W10": ("W00", "W10"), "W01": ("W01",)}
EDGE_FIELDS = ("lo", "lo_std", "hi", "hi_std", "gap_lo", "gap_lo_std", "gap_hi", "gap_hi_std")


@pytest.mark.parametrize("spec_name", EDGE_SPECS)
@pytest.mark.parametrize("name", EDGE_MODELS)
def test_sparse_edges_match_the_dense_spectrum(name, spec_name):
    delta, mu, L = EDGE_MODELS[name]
    model = build_model(name, delta=delta, mu=mu)
    spec = _spec(model.fiber.r, EDGE_SPECS[spec_name])
    assert _Ensemble(model, spec, 0.2, (L, L), 3, 5, 1).route == "paired"
    box, n, seed = (L, L), 3, 5
    energies = np.linspace(-8.0, 8.0, 321)
    for lam in (0.2, 0.6, 1.2):
        dense, sparse = [], []
        for i in range(n):
            H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, box, seed + i))
            dense.append(greens._spectrum_edges(H.eigenvalues()))
            edges, fell_back = greens._paired_edges(H)
            assert not fell_back
            sparse.append(edges)
        tol = 1e-12 * np.abs(dense).max()  # 1e-12 ||H||, fixed before any run
        assert np.abs(np.subtract(sparse, dense)).max() <= tol
        got, want = _summary(lam, sparse), _summary(lam, dense)
        for f in EDGE_FIELDS:
            assert abs(getattr(got, f) - getattr(want, f)) <= tol, f
        assert [got.outside(E) for E in energies] == [want.outside(E) for E in energies]
    # the row statistics are those of the realizations' sparse edges; an input
    # that reduces realizes its first SU(2) sector, whose edges are the full ones
    ens = _Ensemble(model, spec, lam, box, n, seed, 1)
    if ens.multiplicity == 2:
        sector = _summary(lam, [greens._paired_edges(H)[0]
                                for H in _realization_map(lambda H: H, ens)])
        for f in EDGE_FIELDS:
            assert abs(getattr(sector, f) - getattr(got, f)) <= tol, f
        got = sector
    assert greens._edge_stats(ens) == (got, 0)


def _complex_edges(H):
    """The complex route of the sparse edges as it stood before the real
    one: Arnoldi on H for the top eigenvalue, and shift-invert at 0 on the
    dissection-ordered factor of -H (zeros dropped), its solves negated."""
    u = np.random.default_rng(0).uniform(-1.0, 1.0, (2, H.dim))
    kw = dict(k=1, v0=u[0] + 1j * u[1], rng=0, return_eigenvectors=False)
    hi = float(eigs(H.matrix, which="LR", **kw)[0].real)
    p = _dissection_order(H.L, H.bc, H.fiber.dim, H.range)
    A = (-H.matrix).tocsc()[p][:, p]
    A.eliminate_zeros()
    lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.01, options={"SymmetricMode": True})

    def solve(b):
        x = np.empty(b.shape, dtype=complex)
        x[p] = lu.solve(b[p])
        return -x

    OPinv = LinearOperator(H.matrix.shape, matvec=solve, dtype=complex)
    g = abs(float(eigs(H.matrix, sigma=0.0, OPinv=OPinv, **kw)[0].real))
    return (-hi, hi, -g, g)


@pytest.mark.parametrize("name", EDGE_MODELS)
def test_a_refused_image_takes_the_complex_edges_bit_for_bit(name, monkeypatch):
    delta, mu, L = EDGE_MODELS[name]
    model = build_model(name, delta=delta, mu=mu)
    spec = _spec(model.fiber.r, EDGE_SPECS["W00+W10"])
    ens = _Ensemble(model, spec, 0.6, (L, L), 3, 5, 1)
    assert ens.parity == "even"
    realizations = _realization_map(lambda H: H, ens)
    want = [_complex_edges(H) for H in realizations]
    real = [greens._paired_edges(H) for H in realizations]
    assert [fell_back for _, fell_back in real] == [False] * 3
    tol = 1e-12 * max(hi for _, hi, _, _ in want)
    assert np.abs(np.subtract([e for e, _ in real], want)).max() <= tol
    assert [greens._paired_edges(H, even=False) for H in realizations] == [(e, False) for e in want]
    monkeypatch.setattr(greens, "_majorana_image", lambda H: None)
    assert [greens._paired_edges(H) for H in realizations] == [(e, False) for e in want]
    assert greens._edge_stats(ens) == (_summary(0.6, want), 0)


def test_the_real_edges_keep_the_phase_diagram_of_the_benchmark(monkeypatch):
    """The localization benchmark's diagram: its CSV is the complex route's
    byte for byte off the band centre, its E = 0 fits (real band-centre
    resolvents) agree within 1e-10 with equal verdicts, and its edge
    statistics agree within 1e-12 ||H||."""
    model, spec = build_model("pip+", delta=0.3, mu=0.5), default_spec(r=1)
    args = (model, spec, [0.2, 0.6, 1.2], [0.0, 1.0, 2.5])
    kw = dict(L=16, n_realizations=8, seed=1)
    real = localization_phase_diagram(*args, **kw)
    monkeypatch.setattr(greens, "_majorana_image", lambda H: None)
    ref = localization_phase_diagram(*args, **kw)
    off_centre = [[row for row in d.to_csv().splitlines() if row.split(",")[1] != "0"]
                  for d in (real, ref)]
    assert off_centre[0] == off_centre[1]
    assert real.verdicts == ref.verdicts
    assert np.array_equal(real.n_realizations, ref.n_realizations)
    for f in ("rates", "rate_errs", "r_squared"):
        assert np.allclose(getattr(real, f), getattr(ref, f), rtol=0.0, atol=1e-10,
                           equal_nan=True), f
    assert real.edge_fallbacks == ref.edge_fallbacks == (0, 0, 0)
    for got, want in zip(real.edges, ref.edges):
        for f in EDGE_FIELDS:
            assert abs(getattr(got, f) - getattr(want, f)) <= 1e-12 * want.hi, f


def test_a_spec_without_particle_hole_symmetry_takes_the_dense_route():
    spec = DisorderSpec((DisorderTerm((0, 0), np.eye(2)),))  # on-site W = 1
    assert _Ensemble(PIP, spec, 0.5, (12, 12), 4, 3, 1).route == "general"
    pd = localization_phase_diagram(PIP, spec, [0.0, 0.5], [-9.0], L=12, n_realizations=4, seed=3)
    assert pd.edges[1] == _dense_edges(PIP, spec, 0.5, (12, 12), 4, 3)
    assert pd.edge_fallbacks == (0, 0)


def _failing_eigs(monkeypatch, fails):
    """Replace both ARPACK entry points, the complex ``eigs`` and the real
    ``eigsh``, by ones that raise ``fails(kw)`` where that returns an
    exception; the other solves run unchanged."""
    for name in ("eigs", "eigsh"):
        def patched(A, solve=getattr(greens, name), **kw):
            err = fails(kw)
            if err is not None:
                raise err
            return solve(A, **kw)

        monkeypatch.setattr(greens, name, patched)


@pytest.mark.parametrize("failure", ["singular", "no-convergence"])
def test_sparse_edges_fall_back_to_the_dense_spectrum(failure, monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    if failure == "singular":  # what SuperLU raises when 0 is an eigenvalue to rounding
        _failing_eigs(monkeypatch, lambda kw: RuntimeError("Factor is exactly singular")
                      if "sigma" in kw else None)
    else:
        _failing_eigs(monkeypatch, lambda kw: ArpackNoConvergence("No convergence", [], [])
                      if kw.get("which") in ("LR", "LA") else None)
    for refused in (False, True):  # the real route, then the complex one
        with monkeypatch.context() as m:
            if refused:
                m.setattr(greens, "_majorana_image", lambda H: None)
            pd = localization_phase_diagram(PIP, SPEC, [0.0, 0.3, 0.6], [-9.0], L=12,
                                            n_realizations=4, seed=3)
        assert pd.edge_fallbacks == (0, 4, 4), refused
        for i, lam in enumerate((0.3, 0.6), start=1):
            assert pd.edges[i] == _dense_edges(PIP, SPEC, lam, (12, 12), 4, 3), refused


# the certificate of the real edges: a Ritz pair (theta, x) of A^T A puts an
# eigenvalue within ||A^T A x - theta x|| / ||x|| of theta


@pytest.mark.parametrize("spec_name", EDGE_SPECS)
@pytest.mark.parametrize("name", EDGE_MODELS)
def test_each_certified_edge_bound_holds_its_distance_to_the_dense_edge(name, spec_name):
    delta, mu, L = EDGE_MODELS[name]
    model = build_model(name, delta=delta, mu=mu)
    spec = _spec(model.fiber.r, EDGE_SPECS[spec_name])
    for lam in (0.2, 0.6, 1.2):
        for i in range(3):
            H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, (L, L), 5 + i))
            A = greens._majorana_image(H)
            assert A is not None
            (hi, g), (hi_bound, g_bound) = greens._majorana_ritz(H, A)
            _, dense_hi, _, dense_g = greens._spectrum_edges(H.eigenvalues())
            assert max(hi_bound, g_bound) <= greens._EDGE_BOUND * hi
            rounding = 1e-13 * dense_hi  # the dense reference's own error, fixed before any run
            assert abs(hi - dense_hi) <= hi_bound + rounding, (lam, i)
            assert abs(g - dense_g) <= g_bound + rounding, (lam, i)


@pytest.mark.parametrize("solve", ["top", "shift-invert"])
def test_an_edge_off_its_certificate_takes_the_dense_spectrum(solve, monkeypatch):
    """A Ritz value moved by 1e-3 from its vector's Rayleigh quotient fails the
    1e-6 hi bound, and the realization's edges come from its dense spectrum."""
    eigsh = greens.eigsh

    def perturbed(A, **kw):
        w, v = eigsh(A, **kw)
        return (w + 1e-3 if ("sigma" in kw) == (solve == "shift-invert") else w), v

    monkeypatch.setattr(greens, "eigsh", perturbed)
    pd = localization_phase_diagram(PIP, SPEC, [0.0, 0.3, 0.6], [-9.0], L=12, n_realizations=4,
                                    seed=3)
    assert pd.edge_fallbacks == (0, 4, 4)
    for i, lam in enumerate((0.3, 0.6), start=1):
        assert pd.edges[i] == _dense_edges(PIP, SPEC, lam, (12, 12), 4, 3)


@pytest.mark.parametrize("spec_name", EDGE_SPECS)
@pytest.mark.parametrize("name", EDGE_MODELS)
def test_the_real_shift_invert_operator_repeats_the_two_pencil_solves(name, spec_name,
                                                                      monkeypatch):
    """A^-1 A^-T b of the real edges is, bit for bit, the pencil's transposed
    solve followed by its plain one, the composition it replaced."""
    delta, mu, L = EDGE_MODELS[name]
    model = build_model(name, delta=delta, mu=mu)
    spec = _spec(model.fiber.r, EDGE_SPECS[spec_name])
    seen = []

    def eigsh(A, OPinv=None, **kw):
        if OPinv is None:  # the top edge: not what this test is about
            return np.ones(1), np.ones((A.shape[0], 1))
        seen.extend(OPinv.matvec(b) for b in rhs)
        raise RuntimeError("captured")

    monkeypatch.setattr(greens, "eigsh", eigsh)
    for lam in (0.2, 1.2):
        H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, (L, L), 5))
        A = greens._majorana_image(H)
        rhs = np.random.default_rng(7).uniform(-1.0, 1.0, (2, H.dim))
        pencil = _Pencil(H, A, swap=True)
        lu = pencil.factor(0.0, 0.01)
        want = [pencil.solve(lu, pencil.solve(lu, b, "T")) for b in rhs]
        seen.clear()
        with pytest.raises(RuntimeError, match="captured"):
            greens._majorana_edges(H, A)
        assert [x.dtype for x in seen] == [np.float64] * 2
        assert [x.tobytes() for x in seen] == [x.tobytes() for x in want], lam


def test_sparse_edges_repeat_across_calls_and_thread_counts():
    kw = dict(L=16, n_realizations=8, seed=2)
    runs = [localization_phase_diagram(PIP, SPEC, [0.3, 0.9], [-5.0], threads=t, **kw)
            for t in (1, 1, 2)]
    assert all(pd.edge_fallbacks == (0, 0) for pd in runs)
    for pd in runs[1:]:
        assert pd.edges == runs[0].edges
        assert pd.to_csv() == runs[0].to_csv()


def test_wrap_check_skipped_when_the_clean_resolvent_is_refused(monkeypatch):
    def refused(*args):
        raise ArithmeticError("resolvent solve rejected")

    monkeypatch.setattr(greens, "_clean_axis_profile", refused)
    dists = np.arange(0, 7)
    assert not greens._wrap_exclusions(PIP, 1e-4j, (16, 16), dists).any()
    est = fractional_moment_scan(PIP, SPEC, 0.3, 1e-4j, L=16, n_realizations=8, seed=3)
    d, tau, err = est.distances, est.tau, est.tau_stderr
    noise = (d >= 1) & (tau > 10.0 * err) & (tau > 1e-12**est.s * tau[0])
    assert est.fit_window == tuple(int(x) for x in d[noise])


# ---------------------------------------------------------------------------
# inputs refused before any draw


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any realization drawn while the fixture is active."""
    import bdgtools.disorder as disorder

    def draw(*args, **kwargs):
        raise AssertionError("a realization was drawn")

    monkeypatch.setattr(disorder, "sample_realization", draw)


COUPLING = "coupling lam must be finite and >= 0"


@pytest.mark.parametrize("lam", [-0.6, np.inf, np.nan])
def test_a_coupling_that_is_not_finite_and_non_negative_is_refused(lam, no_draws):
    with pytest.raises(ValueError, match=COUPLING):
        fractional_moment_scan(PIP, SPEC, lam, 0.5 + 1e-3j, L=8, n_realizations=8)
    with pytest.raises(ValueError, match=COUPLING):
        localization_phase_diagram(PIP, SPEC, [0.2, lam], [0.0, 1.0], L=8, n_realizations=8)
    with pytest.raises(ValueError, match=COUPLING):
        fermi_projection_decay(PIP, SPEC, lam, 0.0, L=8, n_realizations=2)
    with pytest.raises(ValueError, match=COUPLING):  # the message of the spec itself
        DisorderSpec(SPEC.terms, lam=lam)


@pytest.mark.parametrize("z", [complex(np.nan, 1e-3), complex(0.0, np.inf), complex(np.inf, 1e-3)])
def test_a_scan_refuses_a_z_that_is_not_finite(z, no_draws):
    with pytest.raises(ValueError, match="z must be finite"):
        fractional_moment_scan(PIP, SPEC, 0.4, z, L=8, n_realizations=8)
    with pytest.raises(ValueError, match="z must be finite"):
        fractional_moment_scan(PIP, None, 0.0, z, L=8)


@pytest.mark.parametrize("eps, energies", [(np.nan, [0.0]), (np.inf, [0.0]), (1e-3, [0.0, np.nan]),
                                           (1e-3, [np.inf])])
def test_a_phase_diagram_refuses_a_z_that_is_not_finite(eps, energies, no_draws):
    with pytest.raises(ValueError, match="must be finite"):
        localization_phase_diagram(PIP, SPEC, [0.2], energies, eps=eps, L=8, n_realizations=8)
