"""Model catalog: pairing potentials, BdG assembly, SU(2) reduction,
closed-form bands and central gaps."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, minimize

from bdgtools import chern, lattice, models
from bdgtools.chern import transition_winding
from bdgtools.lattice import (
    FiberShape,
    assemble_bloch,
    check_bdg_equation,
    check_phs,
    tight_binding,
)
from bdgtools.models import (
    MODEL_NAMES,
    BandPoint,
    ModelParams,
    PairingKind,
    _nelder_mead,
    build_bdg,
    build_model,
    build_one_electron,
    build_pairing,
    central_gap,
    example_bands,
    pairing_kind,
    reduce_su2,
)

ALL_NAMES = list(MODEL_NAMES)


def _grid(n):
    ks = -np.pi + 2 * np.pi * np.arange(n) / n
    return [(k1, k2) for k1 in ks for k2 in ks]


# ---------------------------------------------------------------------------
# catalog structure

def test_model_name_catalog():
    assert ALL_NAMES == [
        "s", "s-star", "px", "pip+", "pip-", "p-spinful",
        "p-triplet+", "p-triplet-", "dxy", "dx2y2", "did+", "did-",
    ]
    assert pairing_kind("pip-").sign == -1
    with pytest.raises(ValueError, match="unknown model"):
        pairing_kind("f-wave")


def test_fiber_dimensions_by_kind():
    spinless = {"pip+", "pip-"}
    for name in ALL_NAMES:
        kind = MODEL_NAMES[name]
        assert kind.r == (1 if name in spinless else 2)
        assert build_pairing(kind, 1.0).fiber == FiberShape(kind.r)


def test_sign_only_meaningful_for_chiral_kinds():
    assert PairingKind("s", -1).sign == +1  # forced back to +1
    with pytest.raises(ValueError):
        PairingKind("p_ip", 0)
    with pytest.raises(ValueError):
        PairingKind("f_wave")


# ---------------------------------------------------------------------------
# pairing potentials

def test_singlet_s_wave_block():
    op = build_pairing("s", 1.0)
    assert set(op.terms) == {(0, 0)}
    np.testing.assert_allclose(op.block((0, 0)), [[0, 0.5], [-0.5, 0]])


def test_chiral_p_blocks():
    op = build_pairing(pairing_kind("pip+"), 0.3)
    assert set(op.terms) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    np.testing.assert_allclose(op.block((1, 0)), [[0.3]])
    np.testing.assert_allclose(op.block((-1, 0)), [[-0.3]])
    np.testing.assert_allclose(op.block((0, 1)), [[-0.3j]])
    np.testing.assert_allclose(op.block((0, -1)), [[0.3j]])
    minus = build_pairing(pairing_kind("pip-"), 0.3)
    for j in op.terms:
        np.testing.assert_allclose(minus.block(j), op.block(j).conj())


def test_chiral_d_is_weighted_sum_of_d_waves():
    did = build_pairing(pairing_kind("did+"), 1.0)
    x2y2 = build_pairing("d_x2y2", 2.0)
    xy = build_pairing("d_xy", 1.0)
    assert set(did.terms) == set(x2y2.terms) | set(xy.terms)
    for j in did.terms:
        np.testing.assert_allclose(did.block(j), x2y2.block(j) + 1j * xy.block(j))


def test_chiral_d_independent_amplitudes():
    op = build_pairing(pairing_kind("did+"), 1.0, delta_x2y2=0.4, delta_xy=0.9)
    ref = build_pairing("d_x2y2", 0.8)
    np.testing.assert_allclose(op.block((1, 0)), ref.block((1, 0)))
    np.testing.assert_allclose(
        op.block((1, 1)), 1j * build_pairing("d_xy", 0.9).block((1, 1))
    )


def test_all_pairings_satisfy_bdg_equation_exactly():
    for name in ALL_NAMES:
        assert check_bdg_equation(build_pairing(pairing_kind(name), 0.7)) == 0.0


def test_shift_reflection_parity_of_pairings():
    # p-wave: B_{-j} = -B_j ; s- and d-wave: B_{-j} = +B_j
    for name in ALL_NAMES:
        op = build_pairing(pairing_kind(name), 0.7)
        parity = -1 if MODEL_NAMES[name].tag.startswith("p") else +1
        for j, b in op.terms.items():
            np.testing.assert_allclose(
                op.block((-j[0], -j[1])), parity * b, atol=1e-15
            )


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(ALL_NAMES),
    delta=st.floats(-3, 3, allow_subnormal=False),
)
def test_bdg_equation_holds_for_any_amplitude(name, delta):
    assert check_bdg_equation(build_pairing(pairing_kind(name), delta)) == 0.0


# ---------------------------------------------------------------------------
# one-electron part and BdG doubling

def test_one_electron_hops():
    h = build_one_electron(r=1)
    assert set(h.terms) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for j in h.terms:
        np.testing.assert_allclose(h.block(j), [[1.0]])
    h2 = build_one_electron(r=2)
    for j in h2.terms:
        np.testing.assert_allclose(h2.block(j), np.eye(2))


def test_one_electron_bloch_zero_at_quarter_momenta():
    h = build_one_electron(r=2)
    m = assemble_bloch(h, (np.pi / 2, np.pi / 2)).matrix
    np.testing.assert_allclose(m, np.zeros((2, 2)), atol=1e-15)


def test_bdg_matches_displayed_chiral_p_bloch():
    delta, mu = 0.3, -0.5
    rng = np.random.default_rng(5)
    for sign, name in ((+1, "pip+"), (-1, "pip-")):
        H = build_model(name, delta=delta, mu=mu)
        for _ in range(25):
            k1, k2 = rng.uniform(-np.pi, np.pi, 2)
            band = np.cos(k1) + np.cos(k2) - mu / 2
            off = delta * (1j * np.sin(k1) + sign * np.sin(k2))
            expect = np.array([[band, off], [np.conj(off), -band]])
            np.testing.assert_allclose(
                assemble_bloch(H, (k1, k2)).matrix, expect, atol=1e-13
            )


def test_bdg_without_pairing_halves_the_one_electron_spectrum():
    h = build_one_electron(r=2)
    zero = tight_binding(FiberShape(2), {})
    H = build_bdg(h, zero, mu=0.0)
    for k in [(0.3, -1.2), (2.0, 0.4)]:
        eh = np.linalg.eigvalsh(assemble_bloch(h, k).matrix)
        eH = np.linalg.eigvalsh(assemble_bloch(H, k).matrix)
        np.testing.assert_allclose(eH, np.sort(np.concatenate([eh / 2, -eh / 2])), atol=1e-13)


def test_bdg_rejects_mismatched_fibers():
    with pytest.raises(ValueError, match="fiber mismatch"):
        build_bdg(build_one_electron(r=1), build_pairing("s", 1.0), mu=0.0)


def test_bdg_rejects_invalid_pairing():
    bad = tight_binding(FiberShape(1), {(0, 0): np.eye(1)})
    with pytest.raises(ValueError, match="Delta"):
        build_bdg(build_one_electron(r=1), bad, mu=0.0)


def test_every_model_has_exact_even_phs():
    for name in ALL_NAMES:
        rep = check_phs(build_model(name, delta=0.7, mu=1.3), parity="even")
        assert rep.holds and rep.max_violation == 0.0, name


# ---------------------------------------------------------------------------
# SU(2) reduction of the chiral d-wave

def _displayed_did_sector(sign, k, delta, mu):
    c1, c2, s1, s2 = np.cos(k[0]), np.cos(k[1]), np.sin(k[0]), np.sin(k[1])
    p1, p2, p3 = delta * (c1 - c2), delta * s1 * s2, c1 + c2 - mu / 2
    return np.array([[p3, p1 - sign * 1j * p2], [p1 + sign * 1j * p2, -p3]])


def test_reduce_su2_matches_displayed_sectors():
    for sign, name in ((+1, "did+"), (-1, "did-")):
        Hp, Hm = reduce_su2(build_model(name, delta=1.0, mu=2.0))
        for k in _grid(9):
            expect = _displayed_did_sector(sign, k, 1.0, 2.0)
            np.testing.assert_allclose(
                assemble_bloch(Hp, k).matrix, expect, atol=1e-13
            )
            np.testing.assert_allclose(
                assemble_bloch(Hm, k).matrix, expect.conj(), atol=1e-13
            )


def test_reduce_su2_without_pairing_is_diagonal():
    Hp, Hm = reduce_su2(build_model("did+", delta=0.0, mu=2.0))
    for k in [(0.2, 1.1), (-2.0, 0.5)]:
        band = np.cos(k[0]) + np.cos(k[1]) - 1.0
        for sector in (Hp, Hm):
            np.testing.assert_allclose(
                assemble_bloch(sector, k).matrix, np.diag([band, -band]), atol=1e-14
            )


def test_reduce_su2_eigenvalues_match_band_formula():
    Hp, _ = reduce_su2(build_model("did+", delta=1.0, mu=2.0))
    params = ModelParams(1.0, 2.0)
    for k in _grid(9):
        e = np.linalg.eigvalsh(assemble_bloch(Hp, k).matrix)
        bp = example_bands("did+", params, k)
        np.testing.assert_allclose(e, [bp.E_minus, bp.E_plus], atol=1e-12)


def test_reduce_su2_recomposition():
    H = build_model("did-", delta=0.8, mu=-1.1)
    Hp, Hm = reduce_su2(H)
    s3 = np.diag([1.0, -1.0])
    perm = [0, 3, 1, 2]  # (p-up, h-down, p-down, h-up)
    for j, b in H.terms.items():
        rebuilt = np.zeros((4, 4), dtype=complex)
        rebuilt[np.ix_([0, 1], [0, 1])] = Hp.block(j)
        rebuilt[np.ix_([2, 3], [2, 3])] = s3 @ Hm.block(j).conj() @ s3
        np.testing.assert_allclose(rebuilt, b[np.ix_(perm, perm)], atol=1e-14)


def test_reduce_su2_refuses_spin_mixing():
    H = build_model("did+", delta=1.0, mu=2.0)
    terms = {j: np.array(b) for j, b in H.terms.items()}
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = bad[1, 0] = 0.1  # p-up/p-down mixing
    terms[(0, 0)] = terms[(0, 0)] + bad
    with pytest.raises(ValueError, match="spin-mixing"):
        reduce_su2(tight_binding(H.fiber, terms))


def test_reduce_su2_refuses_wrong_fiber():
    with pytest.raises(ValueError):
        reduce_su2(build_model("pip+", delta=0.3, mu=-0.5))


# ---------------------------------------------------------------------------
# closed-form bands

def test_band_values_at_special_momenta():
    params = ModelParams(0.3, -0.5)
    assert example_bands("pip+", params, (0.0, np.pi)).E_plus == pytest.approx(0.25)
    assert example_bands("pip+", params, (0.0, 0.0)).E_plus == pytest.approx(2.25)
    assert example_bands("did+", ModelParams(1.0, 2.0), (0.0, 0.0)).E_plus == pytest.approx(1.0)


def test_band_point_invariant():
    with pytest.raises(ValueError):
        BandPoint((0.0, 0.0), 1.0, -0.5)
    with pytest.raises(ValueError):
        BandPoint((0.0, 0.0), -1.0, 1.0)


def test_bands_match_diagonalization_on_grid():
    cases = [
        ("pip+", ModelParams(0.3, -0.5)),
        ("pip-", ModelParams(0.45, 0.9)),
        ("did+", ModelParams(1.0, 2.0)),
        ("did-", ModelParams(0.8, -1.7)),
    ]
    for name, params in cases:
        H = build_model(name, delta=params.delta, mu=params.mu)
        if MODEL_NAMES[name].tag == "d_id":
            H, _ = reduce_su2(H)
        for k in _grid(32):
            bp = example_bands(name, params, k)
            e = np.linalg.eigvalsh(assemble_bloch(H, k).matrix)
            assert abs(e[-1] - bp.E_plus) <= 1e-12
            assert abs(e[0] - bp.E_minus) <= 1e-12


def test_bands_unavailable_for_generic_kinds():
    with pytest.raises(ValueError, match="closed-form"):
        example_bands("s", ModelParams(1.0, 0.0), (0.0, 0.0))


# ---------------------------------------------------------------------------
# central gap

def test_gap_equals_mu_for_small_mu():
    assert central_gap(pairing_kind("pip+"), ModelParams(0.3, 0.1)) == pytest.approx(0.1, abs=1e-8)


def test_gap_closes_at_zero_mu():
    assert central_gap(pairing_kind("pip+"), ModelParams(0.3, 0.0)) == pytest.approx(0.0, abs=1e-8)


def test_gap_interior_minimum_value():
    # minimum sits at cos k2 = -1, cos k1 = 75/91 for delta = 0.3, mu = -0.5
    c1 = 75 / 91
    expect = 2 * math.sqrt((c1 - 0.75) ** 2 + 0.09 * (1 - c1 * c1))
    g = central_gap(pairing_kind("pip+"), ModelParams(0.3, -0.5))
    assert g == pytest.approx(expect, abs=1e-8)


def test_chiral_d_gap_value():
    # interior minimum at cos k1 = cos k2 = c with c^3 + c - 1 = 0
    c = min(np.roots([1.0, 0.0, 1.0, -1.0]), key=lambda z: abs(z.imag)).real
    expect = 2 * math.sqrt((2 * c - 1) ** 2 + (c * c - 1) ** 2)
    g = central_gap(pairing_kind("did+"), ModelParams(1.0, 2.0))
    assert g == pytest.approx(expect, abs=1e-8)
    assert g <= 2.0


def test_chiral_d_gap_above_transition():
    g = central_gap(pairing_kind("did+"), ModelParams(1.0, 5.0))
    assert g == pytest.approx(1.0, abs=1e-8)  # saturates |4 - |mu||


def test_gap_via_generic_bloch_route():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    direct = central_gap(pairing_kind("pip+"), ModelParams(0.3, -0.5))
    assert central_gap(H, ModelParams(0.3, -0.5)) == pytest.approx(direct, abs=1e-8)


def test_gap_bounded_by_mu():
    for delta in (0.1, 0.3, 0.8):
        for mu in (-1.5, -0.2, 0.05, 0.7, 2.5):
            g = central_gap(pairing_kind("pip+"), ModelParams(delta, mu))
            assert g <= abs(mu) + 1e-8


def test_gap_closes_at_band_edges():
    for name, mu in [("pip+", 4.0), ("pip+", -4.0), ("did+", 4.0), ("did+", -4.0)]:
        assert central_gap(pairing_kind(name), ModelParams(0.7, mu)) == pytest.approx(0.0, abs=1e-8)


#: (delta, mu) points and the pinned central gaps of the Bloch route; a
#: closed gap reads as rounding noise of order 1e-11
GAP_POINTS = ((0.3, -0.5), (1.0, 2.0), (0.7, 1.3))
PINNED_GAPS = {
    "s": (0.15, 0.5, 0.35),
    "s-star": (0.07417022646512225, 0.8944271909999152, 0.4294555521465375),
    "px": (7.0443761480336626e-12, 1.1102230246251565e-16, 1.2875257714106758e-11),
    "pip+": (0.3707728785557641, 1.9999999999999996, 1.220334251864836),
    "pip-": (0.3707728785557641, 1.9999999999999996, 1.220334251864836),
    "p-spinful": (0.1954730637967203, 1.0, 0.6493038130147096),
    "p-triplet+": (0.1954730637967203, 0.9999999999999999, 0.6493038130147097),
    "p-triplet-": (0.1954730637967203, 0.9999999999999999, 0.6493038130147097),
    "dxy": (1.250373512960762e-11, 6.123233995736766e-17, 1.4540188602541e-11),
    "dx2y2": (1.0318811938465983e-11, 1.2561442187695028e-11, 1.662945273066981e-11),
    "did+": (0.5901909772185748, 1.293967264489654, 1.213258161216),
    "did-": (0.5901909772185749, 1.293967264489654, 1.213258161216),
}


@pytest.fixture
def refinements(monkeypatch):
    """Record every Nelder-Mead result that central_gap sees."""
    seen = []
    nelder_mead = models._nelder_mead

    def recording(*args, **kwargs):
        res = nelder_mead(*args, **kwargs)
        seen.append(res)
        return res

    monkeypatch.setattr(models, "_nelder_mead", recording)
    return seen


def _assert_converged(results, maxiter=4000):
    assert results
    for res in results:
        assert res.success and res.nit < maxiter, res.message


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gap_matches_pinned_values_and_refinement_converges(name, refinements):
    for (delta, mu), pinned in zip(GAP_POINTS, PINNED_GAPS[name]):
        g = central_gap(build_model(name, delta, mu), ModelParams(0.0, 0.0))
        assert g == pytest.approx(pinned, abs=1e-9)
        if MODEL_NAMES[name].tag in models._CLOSED_FORM_TAGS:
            closed = central_gap(name, ModelParams(delta, mu))
            assert closed == pytest.approx(pinned, abs=1e-9)
    _assert_converged(refinements)


def test_gap_scan_refinements_converge(refinements):
    for mu in np.linspace(-1.0, 1.0, 21):
        g = central_gap("pip+", ModelParams(0.3, float(mu)))
        if abs(mu) <= 0.1 + 1e-9:
            assert g == pytest.approx(abs(mu), abs=1e-8)
    assert len(refinements) == 60
    _assert_converged(refinements)


def _reference_eplus(tag, p, k1, k2):
    """Per-point E_+ from the math module: the scalar reference for the grid."""
    band = math.cos(k1) + math.cos(k2) - p.mu / 2
    if tag == "p_ip":
        return math.sqrt(band * band + p.delta * p.delta * (math.sin(k1) ** 2 + math.sin(k2) ** 2))
    pair = math.cos(k1) * math.cos(k2) - 1.0
    return math.sqrt(band * band + p.delta * p.delta * pair * pair)


@pytest.mark.parametrize("name, params", [("pip+", ModelParams(0.3, -0.5)), ("did+", ModelParams(1.0, 2.0))])
def test_closed_form_coarse_grid_equals_pointwise_loop(name, params):
    ks = -np.pi + 2 * np.pi * np.arange(64) / 64
    values, esq, _ = models._gap_objective(name, params, ks)
    tag = MODEL_NAMES[name].tag
    loop = np.array([[esq((k1, k2)) for k2 in ks] for k1 in ks])
    reference = np.array([[_reference_eplus(tag, params, k1, k2) ** 2 for k2 in ks] for k1 in ks])
    assert np.array_equal(values, loop)
    assert np.array_equal(values, reference)


@pytest.mark.parametrize("name", ["pip+", "s", "p-triplet-", "did-"])
def test_operator_coarse_grid_equals_pointwise_loop(name):
    ks = -np.pi + 2 * np.pi * np.arange(16) / 16
    H = build_model(name, delta=0.7, mu=1.3)
    values, esq, _ = models._gap_objective(H, ModelParams(0.0, 0.0), ks)
    loop = np.array([[esq((k1, k2)) for k2 in ks] for k1 in ks])
    assert np.array_equal(values, loop)


def test_gap_refinement_failure_raises(monkeypatch):
    def stalled(fun, x0, **kwargs):
        return OptimizeResult(x=np.asarray(x0), fun=fun(x0), success=False, nit=4000,
                              message="Maximum number of iterations has been exceeded.")

    monkeypatch.setattr(models, "_nelder_mead", stalled)
    with pytest.raises(ArithmeticError, match=r"'did\+' at delta=1\.0, mu=2\.0 from coarse cell \(\d+, \d+\)"):
        central_gap("did+", ModelParams(1.0, 2.0))
    with pytest.raises(ArithmeticError, match="operator .* from coarse cell"):
        central_gap(build_model("s", 0.3, -0.5), ModelParams(0.0, 0.0))


def _random_bdg(seed):
    """A random BdG operator: a random closed h of range <= 2 on C^r, r in {1, 2},
    a random Delta satisfying the BdG equation, and a random mu."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 3))

    def rand():
        return rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))

    a = rand()
    h = {(0, 0): a + a.conj().T + rng.uniform(-3, 3) * np.eye(r)}
    delta = {}
    for j in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0)):
        if rng.uniform() < 0.6:
            b = rand() * rng.uniform(0.2, 1.0)
            h[j], h[(-j[0], -j[1])] = b, b.conj().T
        if rng.uniform() < 0.6:
            b = rand() * rng.uniform(0.1, 1.0)
            delta[j], delta[(-j[0], -j[1])] = b, -b.T
    return build_bdg(
        tight_binding(FiberShape(r), h), tight_binding(FiberShape(r), delta), rng.uniform(-2, 2)
    )


@pytest.mark.parametrize("seed", [34, 90])
def test_gap_of_a_random_operator_finds_its_deepest_basin(seed):
    # on seed 34 the three lowest coarse cells lie in one basin and miss the
    # deeper one; on seed 90 one refined basin alone is not enough
    H = _random_bdg(seed)
    ks = lattice._periodic_grid(720)
    fine = min(  # min |E| on a 720 x 720 grid, 60 rows of momenta at a time
        float(np.abs(np.linalg.eigvalsh(lattice._bloch_points(H, k1, ks[None, :]))).min())
        for k1 in np.split(ks[:, None], 12)
    )
    assert central_gap(H, ModelParams(0.0, 0.0)) <= 2.0 * fine + 1e-12


#: The Nelder-Mead settings of the central-gap refinement.
_REFINE = {"method": "Nelder-Mead", "options": {"xatol": 1e-10, "fatol": np.inf, "maxiter": 4000}}


def _three_cell_gap(values, esq, runs):
    """The former seed rule of central_gap, kept as the reference: Nelder-Mead
    on ``esq`` from the three lowest cells of the coarse grid ``values``.
    ``runs`` holds the refinements already made on ``esq``, by start point; a
    start cell shared with the basin rule is not refined twice."""
    ks = lattice._periodic_grid(models._GAP_GRID)
    best = np.inf
    for flat in np.argsort(values, axis=None)[:3]:
        i, j = np.unravel_index(flat, values.shape)
        x0 = (ks[i], ks[j])
        if x0 not in runs:
            runs[x0] = minimize(esq, x0=x0, **_REFINE)
        assert runs[x0].success, runs[x0].message
        best = min(best, float(runs[x0].fun), values[i, j])
    return 2.0 * math.sqrt(max(best, 0.0))


_CATALOG_DELTAS = (0.1, 0.3, 0.6, 1.0, 1.7)
_CATALOG_MUS = (-3.5, -2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.3, 2.0, 3.0, 3.9)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_basin_seeds_agree_with_the_three_cell_seeds_on_the_catalog(name, monkeypatch):
    # the coarse grid, objective and refinements of the case at hand, shared
    # with the reference so that it repeats none of them
    objective, runs = [], {}
    gap_objective, nelder_mead = models._gap_objective, models._nelder_mead

    def recorded_objective(*args):
        objective[:] = out = gap_objective(*args)
        return out

    def recorded_minimize(fun, x0, **kwargs):
        assert kwargs == _REFINE["options"]
        runs[tuple(x0)] = res = nelder_mead(fun, x0, **kwargs)
        return res

    monkeypatch.setattr(models, "_gap_objective", recorded_objective)
    monkeypatch.setattr(models, "_nelder_mead", recorded_minimize)
    cases = [(build_model(name, d, mu), ModelParams(0.0, 0.0)) for d in _CATALOG_DELTAS
             for mu in _CATALOG_MUS]
    if MODEL_NAMES[name].tag in models._CLOSED_FORM_TAGS:
        cases += [(name, ModelParams(d, mu)) for d in _CATALOG_DELTAS for mu in _CATALOG_MUS]
    for model, params in cases:
        runs.clear()
        got = central_gap(model, params)
        ref = _three_cell_gap(*objective[:2], runs)
        if ref <= 1e-8:
            assert got <= 1e-8
        else:
            assert abs(got - ref) <= 1e-14 * ref, (model, params, got, ref)


# ---------------------------------------------------------------------------
# the plain-float Nelder-Mead against SciPy's


def _assert_repeats_scipy(f, x0, xatol, fatol, maxiter):
    """``models._nelder_mead`` gives SciPy's Nelder-Mead result bit for bit."""
    ref = minimize(f, x0=x0, method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter})
    got = _nelder_mead(f, x0, xatol, fatol, maxiter)
    assert np.array(got.x).tobytes() == ref.x.tobytes(), (x0, got.x, ref.x)
    assert np.float64(got.fun).tobytes() == np.float64(ref.fun).tobytes(), (x0, got.fun, ref.fun)
    assert (got.nfev, got.nit, got.success, got.message) == (
        ref.nfev, ref.nit, ref.success, ref.message)
    return got


@pytest.fixture
def kernel_runs(monkeypatch):
    """The arguments of every Nelder-Mead run of the band-distance refinement
    and of the contour polish."""
    runs = []
    nelder_mead = models._nelder_mead

    def recording(f, x0, **kwargs):
        runs.append((f, x0, kwargs))
        return nelder_mead(f, x0, **kwargs)

    monkeypatch.setattr(models, "_nelder_mead", recording)
    monkeypatch.setattr(chern, "_nelder_mead", recording)
    return runs


def _assert_runs_repeat_scipy(runs):
    assert runs
    for f, x0, kwargs in runs:
        _assert_repeats_scipy(f, x0, **kwargs)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_nelder_mead_repeats_scipy_on_the_catalog_refinements(name, kernel_runs):
    for delta, mu in GAP_POINTS[:2]:
        central_gap(build_model(name, delta, mu), ModelParams(0.0, 0.0))
        if MODEL_NAMES[name].tag in models._CLOSED_FORM_TAGS:
            central_gap(name, ModelParams(delta, mu))
    _assert_runs_repeat_scipy(kernel_runs)


@pytest.mark.parametrize("name, delta", [("pip+", 0.3), ("did+", 1.0)])
def test_nelder_mead_repeats_scipy_on_the_closed_form_scans(name, delta, kernel_runs):
    for mu in np.linspace(-1.0, 1.0, 21):
        central_gap(name, ModelParams(delta, float(mu)))
    _assert_runs_repeat_scipy(kernel_runs)


@pytest.mark.parametrize("seed", [34, 90])
def test_nelder_mead_repeats_scipy_on_random_operators(seed, kernel_runs):
    central_gap(_random_bdg(seed), ModelParams(0.0, 0.0))
    _assert_runs_repeat_scipy(kernel_runs)


def test_nelder_mead_repeats_scipy_on_the_contour_polish(kernel_runs):
    sector = reduce_su2(build_model("did+", delta=1.0, mu=2.0))[0]
    transition_winding(sector, mu=2.0)
    assert all(kw == {"xatol": 1e-10, "fatol": 1e-20, "maxiter": 2000} for _, _, kw in kernel_runs)
    _assert_runs_repeat_scipy(kernel_runs)


def test_nelder_mead_repeats_scipy_from_a_zero_start_with_tied_vertices():
    _, esq, _ = models._gap_objective("pip+", ModelParams(0.3, -0.5), lattice._periodic_grid(4))
    assert esq((0.00025, 0.0)) == esq((0.0, 0.00025))  # the two start steps tie
    _assert_repeats_scipy(esq, (0.0, 0.0), 1e-10, math.inf, 4000)
    _assert_repeats_scipy(lambda p: abs(p[0]) + abs(p[1]), (0.0, 0.0), 1e-10, 1e-20, 300)


def test_nelder_mead_repeats_scipy_when_it_hits_maxiter():
    def rosenbrock(p):
        return 100.0 * (p[1] - p[0] ** 2) ** 2 + (1.0 - p[0]) ** 2

    res = _assert_repeats_scipy(rosenbrock, (-1.2, 1.0), 1e-10, 1e-20, 30)
    assert not res.success and res.nit == 30
    assert res.message == "Maximum number of iterations has been exceeded."


def test_nelder_mead_repeats_scipy_on_nan_values():
    # NaN sorts last, as in NumPy, and a NaN left in the simplex is its fun
    def clipped(p):
        return math.nan if p[0] > 0.5 else (p[0] - 0.6) ** 2 + p[1] ** 2

    _assert_repeats_scipy(clipped, (0.49, 0.1), 1e-10, 1e-20, 2000)
    res = _assert_repeats_scipy(lambda p: math.nan if p[0] else 1.0, (0.0, 2.0), 1e-10, 1e-20, 20)
    assert not res.success and math.isnan(res.fun)
