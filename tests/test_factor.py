"""The one layout of every sparse factor of z - H (``lattice._Pencil``): its
nested-dissection order, its matrix and solves against the layouts it
replaced, and its solves against SuperLU's default COLAMD partial-pivoting
LU, the reference the order replaced."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import bdgtools.greens as greens
from bdgtools.disorder import (
    DisorderSpec,
    DisorderTerm,
    build_random_hamiltonian,
    default_spec,
    sample_realization,
    standard_W,
)
from bdgtools.greens import ResolventSolver, localization_phase_diagram
from bdgtools.lattice import _dissection_order, _Pencil, assemble_finite_volume
from bdgtools.models import MODEL_NAMES, build_model
from bdgtools.spectral import _Inertia, _majorana_image


def _reference_factor(pencil, z, threshold):
    """SuperLU with its defaults, COLAMD columns and partial pivoting, on
    the pencil at z in the finite-volume order."""
    A = pencil.at(z)[np.argsort(pencil.q)][:, np.argsort(pencil.p)].tocsc()
    A.eliminate_zeros()
    return splu(A)


def _reference(m) -> None:
    """Every factor of a pencil taken by :func:`_reference_factor`."""
    m.setattr(_Pencil, "factor", _reference_factor)
    m.setattr(_Pencil, "solve", lambda pencil, lu, b, trans="N": lu.solve(b, trans=trans))
    m.setattr(_Pencil, "gram_solve", lambda pencil, lu, b: lu.solve(lu.solve(b, trans="T")))


# ---------------------------------------------------------------------------
# the order


@pytest.mark.parametrize("bc", ["periodic", "open"])
@pytest.mark.parametrize("L", [(7, 7), (9, 13), (12, 5), (8, 10)])
@pytest.mark.parametrize("R", [1, 2])
def test_dissection_order_is_a_cached_read_only_permutation(L, bc, R):
    d = 4
    p = _dissection_order(L, bc, d, R)
    assert np.array_equal(np.sort(p), np.arange(d * L[0] * L[1]))
    # the fiber rows of a site stay together, in their own order
    assert np.array_equal(p.reshape(-1, d) - p[::d, None], np.tile(np.arange(d), (p.size // d, 1)))
    assert not p.flags.writeable
    assert _dissection_order(L, bc, d, R) is p


def test_dissection_order_of_a_periodic_box_ends_with_its_wrap_strips():
    L, R = (9, 11), 2
    sites = _dissection_order(L, "periodic", 1, R)
    l1, l2 = sites % L[0], sites // L[0]
    wrap = (l1 >= L[0] - R) | (l2 >= L[1] - R)
    n_wrap = int(wrap.sum())
    assert n_wrap == L[0] * L[1] - (L[0] - R) * (L[1] - R)
    assert wrap[-n_wrap:].all()


def test_matrix_range_is_the_hopping_range():
    pip = build_model("pip+", delta=0.3, mu=0.5)
    for bc in ("periodic", "open"):
        assert assemble_finite_volume(pip, (8, 10), bc=bc).range == 1
    spec = DisorderSpec((DisorderTerm((2, 0), standard_W("W10", 1)),))
    H = build_random_hamiltonian(pip, spec, 0.4, sample_realization(spec, (9, 7), 3))
    assert H.range == 2


# ---------------------------------------------------------------------------
# the solves against the reference


def _spec(r: int, names) -> DisorderSpec:
    at = {"W00": (0, 0), "W10": (1, 0), "W01": (0, 1)}
    return DisorderSpec(tuple(DisorderTerm(at[n], standard_W(n, r)) for n in names))


SPECS = (("W00",), ("W00", "W10"), ("W01",))
ZS = [complex(E, eps) for E in (0.0, 1.0, 2.5) for eps in (1e-3, 1e-6)]
BOXES = [(box, bc) for box in ((8, 10), (12, 12)) for bc in ("periodic", "open")]


def _solves(H, z, b):
    """(solve, solve_adjoint) of ``b``, or the type of the error the solver raised."""
    try:
        solver = ResolventSolver(H, z)
        return solver.solve(b), solver.solve_adjoint(b)
    except (ValueError, ArithmeticError) as err:
        return type(err)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_factor_solves_match_the_colamd_reference(name, monkeypatch):
    # every (spec, lambda, z) of the grid; the four boxes take turns, so each
    # model meets each box and boundary condition on a quarter of the grid
    model = build_model(name, delta=0.6, mu=0.9)
    rng = np.random.default_rng(7)
    cases = [(names, lam, z) for names in SPECS for lam in (0.2, 1.2, 3.0) for z in ZS]
    refused = 0
    for i, (names, lam, z) in enumerate(cases):
        box, bc = BOXES[i % len(BOXES)]
        spec = _spec(model.fiber.r, names)
        H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, box, 11), bc=bc)
        b = rng.normal(size=(H.dim, 2)) + 1j * rng.normal(size=(H.dim, 2))
        got = _solves(H, z, b)
        with monkeypatch.context() as m:
            _reference(m)
            ref = _solves(H, z, b)
        if isinstance(ref, type):
            assert got is ref, (names, lam, z, box, bc)
            refused += 1
            continue
        for x, y in zip(got, ref):
            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y), (names, lam, z, box, bc)
    assert refused <= len(cases) // 10


def test_a_real_eigenvalue_of_an_open_box_is_refused():
    H = assemble_finite_volume(build_model("pip+", delta=0.3, mu=0.5), (3, 5), bc="open")
    for e in H.eigenvalues()[[0, 7, 15]]:
        with pytest.raises((ValueError, ArithmeticError)):
            ResolventSolver(H, float(e)).columns((1, 2))


def test_phase_diagram_repeats_the_colamd_reference(monkeypatch):
    # the inputs of the localization benchmark's phase diagram
    model, spec = build_model("pip+", delta=0.3, mu=0.5), default_spec(r=1)
    kw = dict(L=16, n_realizations=8)
    lambdas, energies = [0.2, 0.6, 1.2], [0.0, 1.0, 2.5]
    for seed in (1, 2, 3):
        got = localization_phase_diagram(model, spec, lambdas, energies, seed=seed, **kw)
        with monkeypatch.context() as m:
            _reference(m)
            ref = localization_phase_diagram(model, spec, lambdas, energies, seed=seed, **kw)
        assert got.verdicts == ref.verdicts
        assert got.reasons == ref.reasons
        assert got.edge_fallbacks == ref.edge_fallbacks
        for a, b in ((got.rates, ref.rates), (got.rate_errs, ref.rate_errs)):
            assert np.allclose(a, b, rtol=1e-12, atol=0.0, equal_nan=True)


# ---------------------------------------------------------------------------
# the pencil against the layouts it replaced: each factor user built its own
# matrix, the resolvent A[p][:, p] of the CSR z - H, the shift-invert edges
# H[p][:, p], and the inertia counts H - y through COO with every diagonal slot

PIN_BOXES = (((8, 8), "periodic"), ((9, 11), "periodic"), ((8, 10), "open"))
PIN_ZS = (0.3 + 1e-3j, -1.7 + 1e-6j)
PIN_YS = (-1e-3, 0.05, 0.5, 1.7)


def _pin_inputs(name):
    """Every (mu, spec, lambda, box) of one catalog model: 54 realizations,
    the clean box (lambda = 0) among them."""
    for mu in (0.9, 0.0):
        model = build_model(name, delta=0.6, mu=mu)
        for names in SPECS:
            spec = _spec(model.fiber.r, names)
            for lam in (0.0, 0.2, 1.2):
                for box, bc in PIN_BOXES:
                    H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, box, 11), bc=bc)
                    yield (mu, names, lam, box, bc), H


def _order(H):
    return _dissection_order(H.L, H.bc, H.fiber.dim, H.range)


def _bits(x):
    return np.ascontiguousarray(x, dtype=complex).view(np.int64)


def _layout_factor(A, p):
    """The resolvent's and the edges' factor of A = z - H or H: A[p][:, p]."""
    return splu(A.tocsc()[p][:, p], permc_spec="NATURAL", diag_pivot_thresh=0.01,
                options={"SymmetricMode": True})


def _layout_solve(lu, p, b):
    x = np.empty(b.shape, dtype=complex)
    x[p] = lu.solve(b[p])
    return x


def _layout_below(H, y):
    """The inertia count below y: negative pivots of H - y, assembled through
    COO in the order with every diagonal slot stored and certified as the
    counts are."""
    n, p = H.dim, _order(H)
    diag = np.arange(n)
    position = np.empty(n, dtype=np.intp)
    position[p] = diag
    coo = H.matrix.tocoo()
    A = sp.csc_matrix((np.concatenate([coo.data, np.zeros(n)]),
                       (np.concatenate([position[coo.row], diag]),
                        np.concatenate([position[coo.col], diag]))), shape=(n, n))
    cols = np.repeat(diag, np.diff(A.indptr))
    slots = np.flatnonzero(A.indices == cols)
    h = A.data[slots].copy()
    off = np.abs(A.data)
    off[slots] = 0.0
    off_norms = np.bincount(cols, off, minlength=n)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    A.data[slots] = h - y
    try:
        lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:
        return None
    if not (np.array_equal(lu.perm_r, diag) and np.array_equal(lu.perm_c, diag)):
        return None
    x = lu.solve(b)
    norm = float(np.max(off_norms + np.abs(h - y)))
    if not np.abs(A @ x - b).sum() <= 1e-10 * (norm * np.abs(x).sum() + np.abs(b).sum()):
        return None
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _edge_solve(H, b, monkeypatch):
    """What the shift-invert operator of ``greens._paired_edges`` makes of b
    on its complex route (the Majorana image refused), or None when its
    factor is singular (the dense route)."""
    seen = {}

    def eigs(A, sigma=None, OPinv=None, **kw):
        if OPinv is not None:
            seen["x"] = OPinv.matvec(b)
        return np.ones(1)

    with monkeypatch.context() as m:
        m.setattr(greens, "eigs", eigs)
        m.setattr(greens, "_majorana_image", lambda H: None)
        greens._paired_edges(H)
    return seen.get("x")


def _resolvent_solve(H, z, b):
    try:
        return ResolventSolver(H, z).solve(b)
    except (ValueError, ArithmeticError) as err:
        return type(err)


@pytest.mark.parametrize("name", sorted(MODEL_NAMES))
def test_the_pencil_repeats_every_factor_it_replaced(name, monkeypatch):
    rng = np.random.default_rng(3)
    for case, H in _pin_inputs(name):
        n, p = H.dim, _order(H)
        b = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        pencil = _Pencil(H)
        assert np.array_equal(pencil.A.indices[pencil.slots], np.arange(n)), case
        for z in PIN_ZS + (0.0,):
            want = (z * sp.identity(n, dtype=complex, format="csr") - H.matrix)[p][:, p]
            assert np.array_equal(_bits(pencil.at(z).toarray()), _bits(want.toarray())), (case, z)

        for z in PIN_ZS:
            got = _resolvent_solve(H, z, b)
            with monkeypatch.context() as m:
                m.setattr(_Pencil, "factor", lambda self, z, t: _layout_factor(
                    z * sp.identity(n, dtype=complex, format="csr") - H.matrix, p))
                want = _resolvent_solve(H, z, b)
            if isinstance(want, type):
                assert got is want, (case, z)
            else:
                assert np.array_equal(_bits(got), _bits(want)), (case, z)

        got = _edge_solve(H, b[:, 0], monkeypatch)
        try:
            want = _layout_solve(_layout_factor(H.matrix, p), p, b[:, 0])
        except RuntimeError:
            assert got is None, case
        else:
            assert got is not None and np.array_equal(_bits(got), _bits(want)), case

        inertia = _Inertia(H)
        for y in PIN_YS:
            assert inertia.below(y) == _layout_below(H, y), (case, y)


# ---------------------------------------------------------------------------
# the real pencil of a Majorana image: -A at 0, rows swapped within each site


def _fill(lu) -> int:
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("name", ["pip+", "did+", "p-triplet+"])
def test_the_image_pencil_solves_a_and_keeps_the_order(name):
    """The phase diagram's input (delta 0.3, mu 0.5, W00 at lambda 0.6) on a
    16 x 16 box.  A has a zero diagonal: factored with its rows in the order
    p, symmetric mode pivots off the diagonal and the fill about doubles;
    with the swap at most a tenth of the pivots leave it."""
    model = build_model(name, delta=0.3, mu=0.5)
    spec = default_spec(r=model.fiber.r, lam=0.6)
    H = build_random_hamiltonian(model, spec, 0.6, sample_realization(spec, (16, 16), 1))
    A = _majorana_image(H)
    n = H.dim
    pencil = _Pencil(H, A, swap=True)
    assert np.array_equal(pencil.q.reshape(-1, 2, model.fiber.r)[:, ::-1].ravel(), pencil.p)
    lu = pencil.factor(0.0, 0.01)
    b = np.random.default_rng(3).normal(size=n)
    scale = abs(A).sum(axis=0).max()  # ||A||_1 = ||A^T||_inf
    for trans, M in (("N", A), ("T", A.T)):
        x = pencil.solve(lu, b, trans)
        assert x.dtype == float
        assert np.abs(M @ x + b).sum() <= 1e-12 * scale * np.abs(x).sum(), trans
    in_order = (-A)[pencil.p][:, pencil.p].tocsc()
    in_order.eliminate_zeros()
    ref = splu(in_order, permc_spec="NATURAL", diag_pivot_thresh=0.01,
               options={"SymmetricMode": True})
    off, ref_off = (np.count_nonzero(f.perm_r != np.arange(n)) for f in (lu, ref))
    assert off <= n // 10 < ref_off
    assert _fill(lu) < 0.75 * _fill(ref)
