"""The clean periodic box through its Bloch fibers, pinned to the dense and LU routes.

A clean periodic L1 x L2 operator is block-diagonal in momentum.  Three
consumers take their clean data from the fibers of ``lattice._box_fibers``:
the spectra of the IDS, the DOS and the phase diagram's edges, the resolvent
columns of the wrap check, the Combes--Thomas probe and the clean scan, and
the Fermi projector of the real-space Chern marker, which is applied to
columns by ``lattice._box_action`` and never built.  Each is pinned here to
the public dense or LU route it replaces, on every catalog model and both
chiral d-wave sectors, on square and non-square boxes (a non-square box
catches an L1/L2 transposition).  The marker itself, which reads P only
through its action V -> PV, is pinned to the per-site loop it replaced.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import bdgtools.chern as chern
import bdgtools.greens as greens
from bdgtools.chern import (
    MARKER_REJECT,
    _bloch_fermi_action,
    _bloch_fermi_projector,
    _chern_marker,
    _round_result,
    chern_mu_scan,
    fermi_projector,
    real_space_chern,
)
from bdgtools.disorder import (
    _Ensemble,
    _realization_map,
    build_random_hamiltonian,
    default_spec,
    sample_realization,
)
from bdgtools.greens import ResolventSolver, fractional_moment_scan
from bdgtools.lattice import (
    FiberShape,
    _box_action,
    _box_fibers,
    assemble_finite_volume,
    tight_binding,
)
from bdgtools.models import MODEL_NAMES, build_model, reduce_su2
from bdgtools.spectral import _counts, _realization_spectra

_SECTORS = reduce_su2(build_model("did+", delta=1.0, mu=2.0))
# every catalog model at (0.6, 0.9) and both did+ sectors; each keeps a gap
# of at least 0.05 on every box below, so each projector is well defined
MODELS = {name: build_model(name, delta=0.6, mu=0.9) for name in sorted(MODEL_NAMES)}
MODELS.update({"did+ sector 0": _SECTORS[0], "did+ sector 1": _SECTORS[1]})
BOXES = [(6, 6), (8, 10), (10, 8), (16, 16)]
CASES = [(name, box) for name in MODELS for box in BOXES]
IDS = [f"{name}-{box[0]}x{box[1]}" for name, box in CASES]

# the ensemble workload's IDS energies, and its DOS bin count
_ENERGIES = np.array([0.25, 0.5, 1.0, 1.5])
_BINS = 64


@pytest.fixture(scope="module")
def dense():
    """(H, dense spectrum) per case, computed once."""
    out = {}
    for name, box in CASES:
        H = assemble_finite_volume(MODELS[name], box)
        out[name, box] = (H, H.eigenvalues())
    return out


def _default_edges(eigs: np.ndarray) -> np.ndarray:
    """The edges of ``dos_histogram``'s default range over one spectrum."""
    lo, hi = float(eigs[0]), float(eigs[-1])
    pad = 1e-9 * max(hi - lo, 1.0)
    return np.linspace(lo - pad, hi + pad, _BINS + 1)


# ---------------------------------------------------------------------------
# the kernel


def test_the_kernel_refuses_a_box_too_small_with_the_assembly_text():
    model = build_model("pip+", delta=0.3, mu=-0.5)
    for box in [(2, 6), (6, 2), (1, 1)]:
        with pytest.raises(ValueError) as dense_refusal:
            assemble_finite_volume(model, box)
        with pytest.raises(ValueError) as fiber_refusal:
            _box_fibers(model, box)
        assert str(fiber_refusal.value) == str(dense_refusal.value)
        assert "too small for hopping range R=1" in str(fiber_refusal.value)


def test_the_kernel_refuses_an_operator_without_closure_with_the_assembly_text():
    model = tight_binding(FiberShape(1), {(1, 0): np.ones((1, 1))})
    with pytest.raises(ValueError) as dense_refusal:
        assemble_finite_volume(model, (6, 6))
    with pytest.raises(ValueError) as fiber_refusal:
        _box_fibers(model, (6, 6))
    assert str(fiber_refusal.value) == str(dense_refusal.value)


def test_clean_spectra_keep_the_refusals_of_the_dense_route():
    model = build_model("pip+", delta=0.3, mu=-0.5)
    with pytest.raises(ValueError, match="too small for hopping range"):
        _realization_spectra(_Ensemble(model, None, 0.0, (8, 2), 1, 0, 1))
    with pytest.raises(ValueError, match="n_realizations must be >= 1"):
        _realization_spectra(_Ensemble(model, None, 0.0, 8, 0, 0, 1))
    with pytest.raises(TypeError, match="TightBindingOperator"):
        _realization_spectra(_Ensemble("pip+", None, 0.0, 8, 1, 0, 1))


# ---------------------------------------------------------------------------
# spectra


@pytest.mark.parametrize("name, box", CASES, ids=IDS)
def test_bloch_spectrum_matches_the_dense_one(name, box, dense):
    _, ref = dense[name, box]
    (got,) = _realization_spectra(_Ensemble(MODELS[name], None, 0.0, box, 1, 0, 1))
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("squared", [False, True], ids=["H", "H^2"])
@pytest.mark.parametrize("name, box", CASES, ids=IDS)
def test_bloch_spectrum_gives_the_dense_counts(name, box, squared, dense):
    _, ref = dense[name, box]
    (got,) = _realization_spectra(_Ensemble(MODELS[name], None, 0.0, box, 1, 0, 1))
    if squared:
        ref, got = np.sort(ref * ref), np.sort(got * got)
        energies = np.append(_ENERGIES**2, 0.0)
    else:
        energies = np.concatenate([_ENERGIES, -_ENERGIES, [0.0]])
    for x in (energies, _default_edges(ref), _default_edges(got)):
        assert np.array_equal(_counts(got, x), _counts(ref, x))


def test_a_disordered_ensemble_keeps_the_dense_spectra():
    model, spec = MODELS["pip+"], default_spec(r=1, lam=0.3)
    ens = _Ensemble(model, spec, spec.lam, (6, 8), 3, 4, 1)
    got = _realization_spectra(ens)
    ref = _realization_map(lambda H: H.eigenvalues(), ens)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref, strict=True))


# ---------------------------------------------------------------------------
# resolvent columns


@pytest.mark.parametrize("name, box", CASES, ids=IDS)
def test_bloch_columns_match_the_lu_columns(name, box, dense):
    H, _ = dense[name, box]
    z = 0.3 + 1e-4j
    for n0 in [(box[0] // 2, box[1] // 2), (1, box[1] - 1)]:
        ref = ResolventSolver(H, z).columns(n0)
        got = greens._bloch_columns(MODELS[name], H, z, n0)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_clean_axis_profile_matches_the_lu_profile():
    model, box = MODELS["did+"], (16, 16)
    dists = np.arange(0, 7)
    z = 0.05 + 1e-3j
    ref = greens._axis_profile(assemble_finite_volume(model, box), z, (8, 8), dists)
    got = greens._clean_axis_profile(model, z, box, dists)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


def _on_the_spectrum(model, box) -> float:
    """A real z on an eigenvalue of the clean box, exactly: an entry of the
    diagonal k = 0 fiber of pip+, where the pairing terms cancel exactly."""
    fiber = _box_fibers(model, box)[0, 0]
    assert np.count_nonzero(fiber - np.diag(np.diag(fiber))) == 0
    return float(fiber[0, 0].real)


def test_both_column_routes_refuse_a_real_z_on_the_spectrum():
    model, box = build_model("pip+", delta=0.3, mu=-0.5), (16, 16)
    z = _on_the_spectrum(model, box)
    H = assemble_finite_volume(model, box)
    assert np.abs(H.eigenvalues() - z).min() <= 1e-12
    with pytest.raises((ValueError, ArithmeticError)):
        ResolventSolver(H, z).columns((8, 8))
    with pytest.raises(ValueError, match="singular"):
        greens._bloch_columns(model, H, z, (8, 8))
    assert not greens._wrap_exclusions(model, z, box, np.arange(0, 8)).any()


def test_bloch_columns_refuse_a_residual_beyond_tolerance(monkeypatch):
    model, box = MODELS["pip+"], (8, 10)
    H = assemble_finite_volume(model, box)
    monkeypatch.setattr(greens, "RESIDUAL_TOL", 0.0)
    with pytest.raises(ArithmeticError, match="relative residual"):
        greens._bloch_columns(model, H, 0.3 + 1e-4j, (4, 5))


def test_wrap_check_and_clean_scan_keep_the_lu_decisions():
    model, box = build_model("pip+", delta=0.3, mu=-0.5), (16, 16)
    dists = np.arange(0, 8)
    for z in (0.05 + 1e-4j, 1.0 + 1e-3j, 3.0 + 1e-4j):
        small = greens._axis_profile(assemble_finite_volume(model, box), z, (8, 8), dists)
        big = greens._axis_profile(assemble_finite_volume(model, (32, 32)), z, (16, 16), dists)
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.abs(small - big) / np.where(big > 0.0, big, np.inf) > 0.01
        assert np.array_equal(greens._wrap_exclusions(model, z, box, dists), ref)
    z = 0.05 + 1e-4j
    est = fractional_moment_scan(model, None, 0.0, z, L=box)
    tau = greens._axis_profile(assemble_finite_volume(model, box), z, (8, 8), est.distances)
    assert np.abs(est.tau - tau**est.s).max() <= 1e-12 * est.tau.max()
    assert est.n_realizations == 1


def test_combes_thomas_probe_matches_the_lu_columns(monkeypatch):
    model = build_model("pip+", delta=0.3, mu=-0.5)
    zs = [0.05 + 0.01j, 5.0 + 0.0j]
    got = greens.combes_thomas_probe(model, zs, L=16)

    def lu_columns(model, H, z, n0):
        return ResolventSolver(H, z).columns(n0)

    monkeypatch.setattr(greens, "_bloch_columns", lu_columns)
    ref = greens.combes_thomas_probe(model, zs, L=16)
    for a, b in zip(got, ref, strict=True):
        assert a.distance == b.distance
        assert abs(a.rate - b.rate) <= 1e-10 * max(b.rate, 1.0)
        assert abs(a.onsite_norm - b.onsite_norm) <= 1e-12 * b.onsite_norm


# ---------------------------------------------------------------------------
# Fermi projector


@pytest.mark.parametrize("name, box", CASES, ids=IDS)
def test_bloch_projector_matches_the_dense_one(name, box, dense):
    H, eigs = dense[name, box]
    assert np.abs(eigs).min() > 0.04  # gapped on this box: P is well defined
    ref = fermi_projector(H)
    got = _bloch_fermi_projector(MODELS[name], box)
    assert np.abs(got - ref).max() <= 1e-12
    a, b = real_space_chern(got, box), real_space_chern(ref, box)
    assert a.value == b.value
    assert abs(a.raw - b.raw) <= 1e-12


# ---------------------------------------------------------------------------
# the box action and the marker over V -> PV


def _reference_marker(P: np.ndarray, L):
    """The per-site loop of the marker before it took P as an action: four
    n x n by n x f products and one trace of P's window rows per site."""
    L1, L2 = L
    f = P.shape[0] // (L1 * L2)
    sites = np.arange(P.shape[0]) // f
    l1, l2 = sites % L1, sites // L1
    vals, sob = [], []

    def sawtooth(delta, span):
        return ((delta + span // 2) % span - span // 2).astype(float)

    for n2 in range(L2 // 4, L2 // 4 + L2 // 2):
        for n1 in range(L1 // 4, L1 // 4 + L1 // 2):
            x1 = sawtooth(l1 - n1, L1)[:, None]
            x2 = sawtooth(l2 - n2, L2)[:, None]
            sl = slice(f * (n1 + L1 * n2), f * (n1 + L1 * n2) + f)
            pc = P[:, sl]
            bc, ac = x1 * pc, x2 * pc
            ab = x2 * (P @ bc) - P @ (x2 * bc)
            ba = x1 * (P @ ac) - P @ (x1 * ac)
            vals.append(np.trace(P[sl, :] @ (ab - ba)))
            sob.append(float(np.linalg.norm(ac) ** 2 + np.linalg.norm(bc) ** 2))
    marker = 2j * math.pi * np.mean(vals)
    return _round_result(
        "realspace", float(marker.real), f"L={L1}x{L2}, {len(vals)} central sites",
        reject=MARKER_REJECT, sobolev=float(np.mean(sob)),
    )


def _assert_same_marker(got, ref) -> None:
    assert abs(got.raw - ref.raw) <= 1e-13
    assert abs(got.sobolev - ref.sobolev) <= 1e-13
    assert (got.value, got.grid) == (ref.value, ref.grid)


@pytest.mark.parametrize("name, box", CASES, ids=IDS)
def test_marker_matches_the_per_site_loop(name, box):
    # the dense P from the fibers, pinned to fermi_projector above, saves an eigh per case
    model = MODELS[name]
    P = _bloch_fermi_projector(model, box)
    ref = _reference_marker(P, box)
    _assert_same_marker(real_space_chern(P, box), ref)
    _assert_same_marker(_chern_marker(_bloch_fermi_action(model, box), box, model.fiber.dim), ref)


def _exact_sobolev(P: np.ndarray, L) -> float:
    """The marker's Sobolev sum from P's window columns, every square summed
    exactly by ``math.fsum``."""
    L1, L2 = L
    f = P.shape[0] // (L1 * L2)
    sites = np.arange(P.shape[0]) // f
    l1, l2 = sites % L1, sites // L1
    squares, count = [], 0
    for n2 in range(L2 // 4, L2 // 4 + L2 // 2):
        for n1 in range(L1 // 4, L1 // 4 + L1 // 2):
            pc = P[:, f * (n1 + L1 * n2):f * (n1 + L1 * n2) + f]
            for x in ((l1 - n1 + L1 // 2) % L1 - L1 // 2, (l2 - n2 + L2 // 2) % L2 - L2 // 2):
                c = x[:, None] * pc
                squares += [*(c.real ** 2).ravel(), *(c.imag ** 2).ravel()]
            count += 1
    return math.fsum(squares) / count


@pytest.mark.parametrize("name", ["dx2y2", "s"])
def test_marker_sobolev_sum_is_exact_to_rounding(name):
    # a sum of squared norms from one BLAS dot each was off by 1e-13 at one thread
    model, box = MODELS[name], (16, 16)
    P = _bloch_fermi_projector(model, box)
    exact = _exact_sobolev(P, box)
    action = _chern_marker(_bloch_fermi_action(model, box), box, model.fiber.dim)
    for got in (real_space_chern(P, box), action):
        assert abs(got.sobolev - exact) <= 1e-14 * exact


@pytest.mark.parametrize("L", [12, 20])
@pytest.mark.parametrize("lam", [0.05, 0.3])
def test_marker_matches_the_per_site_loop_on_a_disordered_projector(lam, L):
    model, spec = build_model("pip+", delta=0.3, mu=-0.5), default_spec(r=1)
    H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, (L, L), seed=L))
    P = fermi_projector(H)
    _assert_same_marker(real_space_chern(P, (L, L)), _reference_marker(P, (L, L)))


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("box", [(8, 10), (10, 8)])
def test_box_action_matches_the_dense_projector_and_the_lu_resolvent(name, box, dense):
    H, _ = dense[name, box]
    model = MODELS[name]
    rng = np.random.default_rng(7)
    V = rng.standard_normal((H.dim, 5)) + 1j * rng.standard_normal((H.dim, 5))
    ref = fermi_projector(H) @ V
    got = _bloch_fermi_action(model, box)(V)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    z = 0.3 + 1e-4j
    ref = ResolventSolver(H, z).solve(V)
    got = _box_action(np.linalg.inv(z * np.eye(H.fiber.dim) - _box_fibers(model, box)))(V)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_marker_does_not_depend_on_the_chunk_size(monkeypatch):
    model, box = MODELS["pip+"], (16, 16)
    P = fermi_projector(assemble_finite_volume(model, box))
    results = []
    for chunk in (1, (box[0] // 2) * (box[1] // 2)):
        monkeypatch.setattr(chern, "_MARKER_CHUNK", chunk)
        results.append(real_space_chern(P, box))
        results.append(_chern_marker(_bloch_fermi_action(model, box), box, model.fiber.dim))
    for got, ref in ((results[2], results[0]), (results[3], results[1])):
        assert abs(got.raw - ref.raw) <= 1e-14
        assert abs(got.sobolev - ref.sobolev) <= 1e-14


def test_realspace_scan_builds_no_dense_projector(monkeypatch):
    def refused(*args):
        raise AssertionError("the clean realspace route built a dense projector")

    monkeypatch.setattr(chern, "fermi_projector", refused)
    monkeypatch.setattr(chern, "_bloch_fermi_projector", refused)
    family = lambda mu: build_model("pip+", delta=0.3, mu=mu)
    tracemalloc.start()
    try:
        (entry,) = chern_mu_scan(family, [-0.5], method="realspace", L=24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert entry.result.value == -1
    assert peak < (24 * 24 * 2) ** 2 * 16 / 2  # half of one dense complex P
