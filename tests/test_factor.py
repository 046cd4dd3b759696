"""The one sparse factorization of z - H (``greens._factor``): its
nested-dissection order, and its solves against SuperLU's default COLAMD
partial-pivoting LU, the reference it replaced."""

from __future__ import annotations

import numpy as np
import pytest
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
from bdgtools.lattice import _dissection_order, assemble_finite_volume
from bdgtools.models import MODEL_NAMES, build_model


def _reference_factor(A, H):
    """SuperLU with its defaults: COLAMD columns and partial pivoting."""
    return splu(A)


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
            m.setattr(greens, "_factor", _reference_factor)
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
            m.setattr(greens, "_factor", _reference_factor)
            ref = localization_phase_diagram(model, spec, lambdas, energies, seed=seed, **kw)
        assert got.verdicts == ref.verdicts
        assert got.reasons == ref.reasons
        assert got.edge_fallbacks == ref.edge_fallbacks
        for a, b in ((got.rates, ref.rates), (got.rate_errs, ref.rate_errs)):
            assert np.allclose(a, b, rtol=1e-12, atol=0.0, equal_nan=True)
