"""Operator algebra: construction, conjugations, Bloch/finite-volume assembly,
particle-hole symmetry checks and JSON round trips."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import bdgtools.lattice as lattice
from bdgtools.chern import transfer_matrix
from bdgtools.lattice import (
    FiberShape,
    TightBindingOperator,
    assemble_bloch,
    assemble_finite_volume,
    check_bdg_equation,
    check_phs,
    closure_defect,
    model_from_json,
    model_to_json,
    operator_adjoint,
    operator_conj,
    spectrum_symmetry_check,
    tight_binding,
)
from bdgtools.models import MODEL_NAMES, build_model, build_pairing, reduce_su2


def _random_closed_model(seed: int, r: int = 2) -> TightBindingOperator:
    """A + A* for a random finite-range A: hermiticity closure by construction."""
    rng = np.random.default_rng(seed)
    terms: dict = {}
    for _ in range(rng.integers(1, 5)):
        j = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        b = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        terms[j] = terms.get(j, 0) + b
        mj = (-j[0], -j[1])
        terms[mj] = terms.get(mj, 0) + b.conj().T
    return tight_binding(FiberShape(r), terms)


# ---------------------------------------------------------------------------
# construction and conjugations

def test_fiber_dimension():
    assert FiberShape(1).dim == 1
    assert FiberShape(2).dim == 2
    assert FiberShape(2, ph=True).dim == 4
    with pytest.raises(ValueError):
        FiberShape(0)


def test_duplicate_displacements_merge_by_summation():
    class _Dup(dict):
        def items(self):
            yield (1, 0), np.array([[1.0]])
            yield (1, 0), np.array([[2.0]])

    op = TightBindingOperator(FiberShape(1), _Dup())
    assert np.allclose(op.block((1, 0)), [[3.0]])


def test_block_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        tight_binding(FiberShape(2), {(0, 0): np.eye(3)})


def test_hopping_range():
    op = tight_binding(
        FiberShape(1), {(0, 0): np.eye(1), (2, -1): np.eye(1), (-2, 1): np.eye(1)}
    )
    assert op.range == 2
    assert tight_binding(FiberShape(1), {}).range == 0


def test_adjoint_and_conj_are_involutions():
    op = _random_closed_model(7)
    for transform in (operator_adjoint, operator_conj):
        twice = transform(transform(op))
        assert set(twice.terms) == set(op.terms)
        for j in op.terms:
            np.testing.assert_allclose(twice.block(j), op.block(j))


def test_closure_defect_names_offender():
    closed = _random_closed_model(3)
    assert closure_defect(closed)[0] < 1e-12
    broken = tight_binding(FiberShape(1), {(1, 0): np.array([[2.0]])})
    worst, where = closure_defect(broken)
    assert worst == pytest.approx(2.0)
    assert where == (1, 0)


def _count_closure_checks(monkeypatch) -> list:
    calls = []
    original = lattice.closure_defect

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(lattice, "closure_defect", counting)
    return calls


@pytest.mark.parametrize(
    "assemble",
    [
        lambda op: assemble_bloch(op, (0.0, 0.0)),
        lambda op: assemble_finite_volume(op, (4, 4)),
        lambda op: transfer_matrix(op, 0.3),
    ],
    ids=["assemble_bloch", "assemble_finite_volume", "transfer_matrix"],
)
def test_missing_adjoint_term_refused_by_assembly(assemble, monkeypatch):
    calls = _count_closure_checks(monkeypatch)
    broken = tight_binding(FiberShape(1), {(1, 0): np.array([[1.0]])})
    for _ in range(2):  # the cached verdict still refuses every call
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            assemble(broken)
    assert len(calls) == 1


def test_closure_is_checked_once_per_frozen_operator(monkeypatch):
    H = build_model("pip+", delta=0.3, mu=-0.5)
    calls = _count_closure_checks(monkeypatch)
    with pytest.raises(TypeError):
        H.terms[(0, 0)] = np.zeros((2, 2))
    for k in [(0.0, 0.0), (1.3, -2.1), (np.pi, np.pi)]:
        assemble_bloch(H, k)
    transfer_matrix(H, 0.3)
    transfer_matrix(H, 1.1)
    assemble_finite_volume(H, (4, 4))
    assemble_finite_volume(H, (5, 3), bc="open")
    assert len(calls) == 1 and calls[0] is H


# ---------------------------------------------------------------------------
# Bloch assembly

def test_onsite_identity_is_k_independent():
    op = tight_binding(FiberShape(2), {(0, 0): np.eye(2)})
    for k in [(0.0, 0.0), (1.3, -2.1), (np.pi, np.pi)]:
        np.testing.assert_allclose(assemble_bloch(op, k).matrix, np.eye(2))


def test_chiral_p_bloch_at_zero_momentum():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    m = assemble_bloch(H, (0.0, 0.0)).matrix
    # sine terms vanish at k = 0: diagonal cos0 + cos0 - mu/2 = 2.25, no pairing
    np.testing.assert_allclose(m, np.diag([2.25, -2.25]), atol=1e-15)


def test_chiral_d_reduced_bloch_at_pi_zero():
    Hp, _ = reduce_su2(build_model("did+", delta=1.0, mu=2.0))
    m = assemble_bloch(Hp, (np.pi, 0.0)).matrix
    # (p1, p2, p3) = (-2, 0, -1) in the Pauli form
    np.testing.assert_allclose(m, [[-1.0, -2.0], [-2.0, 1.0]], atol=1e-14)


def test_bloch_assembly_is_bit_exact_to_the_reference_sum():
    models = [build_model(name, delta=0.6, mu=0.9) for name in MODEL_NAMES]
    models += [_random_closed_model(seed) for seed in range(6)]
    ks = np.linspace(-np.pi, np.pi, 5)
    for op in models:
        d = op.fiber.dim
        for k1 in ks:
            for k2 in ks:
                reference = sum(
                    (np.exp(1j * (k1 * j[0] + k2 * j[1])) * b for j, b in op.terms.items()),
                    np.zeros((d, d), dtype=complex),
                )
                assert np.array_equal(assemble_bloch(op, (k1, k2)).matrix, reference)


def _pointwise_sum(op, k1, k2):
    d = op.fiber.dim
    m = np.zeros((d, d), dtype=complex)
    for j, b in op.terms.items():
        m += np.exp(1j * (float(k1) * j[0] + float(k2) * j[1])) * b
    return m


def test_bloch_stack_is_bit_exact_to_the_pointwise_sum():
    from bdgtools.greens import bloch_band_grid

    models = [build_model(name, delta=0.6, mu=0.9) for name in MODEL_NAMES]
    models += [_random_closed_model(seed) for seed in range(6)]
    ks = -np.pi + 2 * np.pi * np.arange(6) / 6
    rng = np.random.default_rng(4)
    pts = rng.uniform(-np.pi, np.pi, size=(2, 3, 5))
    for op in models:
        stack = lattice._bloch_points(op, ks[:, None], ks[None, :])
        pointwise = np.array([[_pointwise_sum(op, k1, k2) for k2 in ks] for k1 in ks])
        assert np.array_equal(stack, pointwise)
        d = op.fiber.dim
        bands = np.array([np.linalg.eigvalsh(m) for m in pointwise.reshape(-1, d, d)])
        assert np.array_equal(bloch_band_grid(op, 6), bands)
        # a point list of any shape, and a single point (0-d input)
        listed = lattice._bloch_points(op, pts[0], pts[1])
        assert listed.shape == (3, 5, d, d)
        for idx in np.ndindex(3, 5):
            assert np.array_equal(listed[idx], _pointwise_sum(op, pts[0][idx], pts[1][idx]))
        single = lattice._bloch_points(op, 0.7, -2.3)
        assert single.shape == (d, d)
        assert np.array_equal(single, _pointwise_sum(op, 0.7, -2.3))


def test_hermitian_bloch_points_applies_the_assembly_checks():
    one_way = tight_binding(FiberShape(1), {(1, 0): [[1.0]]})
    ks = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(ValueError, match="bands: term set is not hermiticity-closed"):
        lattice._hermitian_bloch_points(one_way, ks[:, None], ks[None, :], "bands")
    big = 1e6
    nearly = tight_binding(
        FiberShape(1), {(1, 0): [[big]], (-1, 0): [[big + 5e-7]]}
    )
    with pytest.raises(ValueError, match="not Hermitian"):
        assemble_bloch(nearly, (np.pi / 2, 0.0))
    with pytest.raises(ValueError, match=r"not Hermitian within tolerance at k = \(1.5708, 0\)"):
        lattice._hermitian_bloch_points(nearly, np.array([0.0, np.pi / 2]), 0.0, "bands")
    model = build_model("pip+", delta=0.3, mu=-0.5)
    assert np.array_equal(
        lattice._hermitian_bloch_points(model, ks[:, None], ks[None, :], "bands"),
        lattice._bloch_points(model, ks[:, None], ks[None, :]),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k1=st.floats(-np.pi, np.pi),
    k2=st.floats(-np.pi, np.pi),
)
def test_bloch_matrices_are_hermitian(seed, k1, k2):
    m = assemble_bloch(_random_closed_model(seed), (k1, k2)).matrix
    assert np.abs(m - m.conj().T).max() <= 1e-12 * max(np.abs(m).max(), 1.0)


# ---------------------------------------------------------------------------
# finite volume

def test_onsite_constant_gives_scaled_identity():
    op = tight_binding(FiberShape(1), {(0, 0): np.array([[0.7]])})
    fv = assemble_finite_volume(op, (4, 4))
    np.testing.assert_allclose(fv.dense(), 0.7 * np.eye(16))


def test_site_index_layout_and_inverse():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    fv = assemble_finite_volume(H, (5, 4))
    d = fv.fiber.dim
    seen = set()
    for l2 in range(4):
        for l1 in range(5):
            for a in range(d):
                row = fv.site_index((l1, l2), a)
                assert row == a + d * (l1 + 5 * l2)
                assert fv.site_of(row) == ((l1, l2), a)
                seen.add(row)
    assert seen == set(range(fv.dim))


def test_periodic_spectrum_matches_bloch_grid():
    # multiset of torus eigenvalues = union of Bloch eigenvalues on the dual grid
    H = build_model("pip+", delta=0.3, mu=-0.5)
    L = 8
    fv = assemble_finite_volume(H, (L, L), bc="periodic")
    from_bloch = np.sort(
        np.concatenate(
            [
                np.linalg.eigvalsh(assemble_bloch(H, (2 * np.pi * n1 / L, 2 * np.pi * n2 / L)).matrix)
                for n1 in range(L)
                for n2 in range(L)
            ]
        )
    )
    np.testing.assert_allclose(fv.eigenvalues(), from_bloch, atol=1e-10)


def test_periodic_spectrum_matches_closed_form_bands():
    from bdgtools.models import ModelParams, example_bands

    H = build_model("pip+", delta=0.3, mu=-0.5)
    L = 8
    fv = assemble_finite_volume(H, (L, L))
    expected = []
    for n1 in range(L):
        for n2 in range(L):
            bp = example_bands(
                "pip+", ModelParams(0.3, -0.5), (2 * np.pi * n1 / L, 2 * np.pi * n2 / L)
            )
            expected += [bp.E_minus, bp.E_plus]
    np.testing.assert_allclose(fv.eigenvalues(), np.sort(expected), atol=1e-10)


def test_periodic_box_must_exceed_twice_the_range():
    H = build_model("pip+", delta=0.3, mu=-0.5)  # range 1
    with pytest.raises(ValueError, match="2R"):
        assemble_finite_volume(H, (2, 8), bc="periodic")
    assemble_finite_volume(H, (3, 3), bc="periodic")  # smallest legal box


def test_open_bc_drops_wrapping_hops():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    fv = assemble_finite_volume(H, (6, 6), bc="open")
    m = fv.dense()
    left, right = fv.site_slice((0, 2)), fv.site_slice((5, 2))
    assert np.abs(m[left, right]).max() == 0.0
    per = assemble_finite_volume(H, (6, 6), bc="periodic").dense()
    assert np.abs(per[left, right]).max() > 0.4


def _kron_sum(model, L, bc):
    """Reference finite volume: a running CSR sum of kron(site map of j, B_j)."""
    L1, L2 = L
    n, d = L1 * L2, model.fiber.dim
    l1, l2 = np.meshgrid(np.arange(L1), np.arange(L2), indexing="ij")
    l1, l2 = l1.ravel(), l2.ravel()
    total = sp.csr_matrix((n * d, n * d), dtype=complex)
    for j, b in model.terms.items():
        t1, t2 = l1 + j[0], l2 + j[1]
        if bc == "open":
            keep = (t1 >= 0) & (t1 < L1) & (t2 >= 0) & (t2 < L2)
        else:
            keep = np.ones(n, dtype=bool)
        rows = (t1 % L1 + L1 * (t2 % L2))[keep]
        cols = (l1 + L1 * l2)[keep]
        sites = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        total = total + sp.kron(sites, sp.csr_matrix(b), format="csr")
    return total


def _catalog_operators():
    for name in sorted(MODEL_NAMES):
        model = build_model(name, delta=0.6, mu=-0.5)
        yield name, model
        if name == "did+":
            for i, sector in enumerate(reduce_su2(model)):
                yield f"did+ sector {i}", sector


@pytest.mark.parametrize("bc", ["periodic", "open"])
@pytest.mark.parametrize("L", [(3, 4), (5, 7), (6, 6), (16, 16)])
def test_finite_volume_assembly_is_bit_exact_to_the_kron_sum(L, bc):
    for name, model in _catalog_operators():
        got = assemble_finite_volume(model, L, bc=bc).matrix
        ref = _kron_sum(model, L, bc)
        assert np.array_equal(got.indptr, ref.indptr), name
        assert np.array_equal(got.indices, ref.indices), name
        assert np.array_equal(got.data.view(np.uint64), ref.data.view(np.uint64)), name


def test_translation_covariance_on_torus():
    op = _random_closed_model(11)
    L = (6, 6)
    fv = assemble_finite_volume(op, L)
    m = fv.dense()
    rng = np.random.default_rng(0)
    for _ in range(20):
        l = rng.integers(0, 6, 2)
        lp = rng.integers(0, 6, 2)
        e = rng.integers(0, 6, 2)
        a = m[fv.site_slice(tuple(lp)), fv.site_slice(tuple(l))]
        b = m[fv.site_slice(tuple(lp + e)), fv.site_slice(tuple(l + e))]
        np.testing.assert_allclose(a, b, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_finite_volume_matrices_are_hermitian(seed):
    m = assemble_finite_volume(_random_closed_model(seed), (6, 6)).dense()
    assert np.abs(m - m.conj().T).max() <= 1e-12 * max(np.abs(m).max(), 1.0)


# ---------------------------------------------------------------------------
# symmetries

def test_phs_requires_doubled_fiber():
    from bdgtools.models import build_one_electron

    with pytest.raises(ValueError, match="doubled"):
        check_phs(build_one_electron(r=2), parity="even")


def test_even_phs_of_bdg_operators_is_exact():
    rep = check_phs(build_model("pip+", delta=0.3, mu=-0.5), parity="even")
    assert rep.holds and rep.max_violation == 0.0


def test_odd_phs_of_reduced_sectors_is_exact():
    Hp, Hm = reduce_su2(build_model("did+", delta=1.0, mu=2.0))
    for sector in (Hp, Hm):
        rep = check_phs(sector, parity="odd")
        assert rep.holds and rep.max_violation == 0.0


def test_broken_phs_is_reported():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    terms = {j: np.array(b) for j, b in H.terms.items()}
    terms[(0, 0)] = terms[(0, 0)] + 0.05 * np.eye(2)  # constant breaks PHS
    rep = check_phs(tight_binding(H.fiber, terms), parity="even")
    assert not rep.holds
    assert rep.max_violation == pytest.approx(0.1, rel=1e-12)


def test_spectrum_symmetry_check_values():
    assert spectrum_symmetry_check([-2, -1, 1, 2]) == 0.0
    assert spectrum_symmetry_check([-1, 0.5]) == pytest.approx(0.5)
    assert spectrum_symmetry_check([]) == 0.0


def test_finite_volume_spectra_are_symmetric():
    for name in ("pip+", "did-", "s", "p-triplet+"):
        fv = assemble_finite_volume(build_model(name, delta=0.6, mu=0.9), (8, 8))
        assert spectrum_symmetry_check(fv.eigenvalues()) <= 1e-10


def test_bdg_equation_values():
    assert check_bdg_equation(build_pairing("s", 1.0)) == 0.0
    assert check_bdg_equation(build_pairing("p_ip", 0.3)) == 0.0
    violating = tight_binding(FiberShape(1), {(0, 0): np.eye(1)})
    assert check_bdg_equation(violating) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip_is_bit_exact():
    for name in ("pip+", "did-", "p-spinful"):
        H = build_model(name, delta=1 / 3, mu=-2 / 7)
        back = model_from_json(model_to_json(H))
        assert back.fiber == H.fiber
        assert set(back.terms) == set(H.terms)
        for j in H.terms:
            assert np.array_equal(back.block(j), H.block(j))
        assert model_to_json(back) == model_to_json(H)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_json_round_trip_random_models(seed):
    op = _random_closed_model(seed)
    back = model_from_json(model_to_json(op))
    for j in op.terms:
        assert np.array_equal(back.block(j), op.block(j))


def test_json_document_structure():
    import json

    doc = json.loads(model_to_json(build_pairing("s", 1.0)))
    assert doc["fiber"] == {"r": 2, "ph": False}
    assert len(doc["terms"]) == 1
    entry = doc["terms"][0]
    assert entry["j"] == [0, 0]
    assert entry["block"][0][1] == {"re": 0.5, "im": 0.0}


# The periodic momentum grid -pi + 2 pi m / n in the arithmetic each momentum
# route wrote out for itself; the shared grid must equal every one bit for bit.
def _chern_grid(n):
    return -math.pi + 2.0 * math.pi * np.arange(n) / n


_CALLER_GRIDS = {
    "models.central_gap": lambda n: -np.pi + 2 * np.pi * np.arange(n) / n,
    "greens.bloch_band_grid": lambda n: 2.0 * np.pi * np.arange(n) / n - np.pi,
    "chern.chern_transfer": _chern_grid,
    "chern.berry_flux_chern": _chern_grid,
    "chern._pauli_plane_zeros": _chern_grid,
}


@pytest.mark.parametrize("n", [6, 8, 17, 24, 32, 48, 64, 120, 128, 181, 256])
def test_periodic_grid_is_bitwise_each_callers_grid(n):
    bits = lattice._periodic_grid(n).view(np.uint64)
    for caller, grid in _CALLER_GRIDS.items():
        assert np.array_equal(bits, grid(n).view(np.uint64)), caller
