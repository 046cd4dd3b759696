"""Eigenvalue counts from certified sparse inertia: every count of the
inertia route against ``_counts`` on the dense spectrum, and the dense
fallback of a realization whose counts are not certified."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import bdgtools.lattice as lattice
import bdgtools.spectral as spectral
from bdgtools.disorder import (
    DisorderSpec,
    DisorderTerm,
    _Ensemble,
    build_random_hamiltonian,
    default_spec,
    sample_realization,
    standard_W,
)
from bdgtools.lattice import FiberShape, assemble_finite_volume, tight_binding
from bdgtools.models import MODEL_NAMES, build_model
from bdgtools.spectral import EDGE_TOL, _counts, _inertia_counts, _Inertia, _realization_counts

_AT = {"W00": (0, 0), "W10": (1, 0), "W01": (0, 1)}
SPECS = ("W00", "W00+W10", "W01")
LAMS = (0.2, 1.2)
BOXES = ((8, 8), (12, 12), (9, 11), (16, 16))
IDS_POINTS = np.array([-2.5, -1.2, -0.4, -0.05, 0.0, 0.05, 0.4, 1.2, 2.5])
SQUARED_POINTS = np.array([0.0, 0.0025, 0.16, 1.44, 6.25])
SEED = 5
PIP = build_model("pip+", delta=0.3, mu=-0.5)

# Inputs whose realization SEED takes the dense route, with the reason the
# count is not certified.  "origin": an eigenvalue lies within
# spectral._ORIGIN_SHIFT of 0; "pivot": SuperLU met an exactly zero diagonal
# pivot at a count point and swapped rows.
FALLBACKS = {
    ("dx2y2", (12, 12), "W01", 1.2): "origin",
    ("dxy", (12, 12), "W01", 1.2): "origin",
    ("dxy", (9, 11), "W01", 0.2): "pivot",
    ("dxy", (9, 11), "W01", 1.2): "pivot",
    ("p-spinful", (9, 11), "W00", 1.2): "origin",
    ("p-spinful", (9, 11), "W00+W10", 1.2): "origin",
    ("pip+", (16, 16), "W00+W10", 1.2): "origin",
    ("pip-", (9, 11), "W01", 1.2): "origin",
    ("px", (8, 8), "W01", 1.2): "origin",
    ("px", (9, 11), "W00", 1.2): "origin",
    ("px", (9, 11), "W01", 1.2): "origin",
    ("s", (16, 16), "W00+W10", 1.2): "origin",
}

# (model, box, spec, lam, squared, point) where an eigenvalue lies within
# rounding of the count's shift, so the inertia and dense counts may differ.
# There is none on these inputs.
TIES: dict = {}


def _spec(r: int, name: str) -> DisorderSpec:
    return DisorderSpec(tuple(DisorderTerm(_AT[n], standard_W(n, r)) for n in name.split("+")))


def _inputs(index: int, box) -> list:
    """(spec, lam) pairs of one model on one box: all six below 16 x 16; on
    16 x 16, where a dense solve costs most, one spec per model (the catalog
    cycles through the three) at both couplings."""
    specs = SPECS if box != (16, 16) else (SPECS[index % 3],)
    return [(s, lam) for s in specs for lam in LAMS]


_CASES = [
    (name, box, spec, lam)
    for i, name in enumerate(sorted(MODEL_NAMES))
    for box in BOXES
    for spec, lam in _inputs(i, box)
]


def test_the_cases_cover_every_model_spec_coupling_and_box():
    assert {c[0] for c in _CASES} == set(MODEL_NAMES)
    assert {c[1:] for c in _CASES} >= {(b, s, lam) for b in BOXES[:3] for s in SPECS for lam in LAMS}
    assert {c[2] for c in _CASES if c[1] == (16, 16)} == set(SPECS)
    assert set(FALLBACKS) <= set(_CASES)


@pytest.mark.parametrize("box", BOXES, ids=lambda b: "x".join(map(str, b)))
@pytest.mark.parametrize("name", sorted(MODEL_NAMES))
def test_inertia_counts_equal_the_dense_counts(name, box, reference_spectrum):
    model = build_model(name, delta=0.6, mu=0.9)
    for spec_name, lam in _inputs(sorted(MODEL_NAMES).index(name), box):
        case = (name, box, spec_name, lam)
        spec = _spec(model.fiber.r, spec_name)
        assert _Ensemble(model, spec, lam, box, 1, SEED, 1).route == "paired"
        H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, box, SEED))
        e = reference_spectrum(H)
        for squared, points in ((False, IDS_POINTS), (True, SQUARED_POINTS)):
            dense = _counts(np.sort(e * e) if squared else e, points)
            counts = _inertia_counts(H, points, squared)
            if case in FALLBACKS:
                assert counts is None, f"{case}: expected the dense route ({FALLBACKS[case]})"
                origin = np.abs(e).min() <= spectral._ORIGIN_SHIFT
                assert origin == (FALLBACKS[case] == "origin"), case
                got, fell_back, _ = _realization_counts(H, points, squared)
                assert fell_back and np.array_equal(got, dense)
            else:
                assert counts is not None, f"{case}: count not certified"
                ties = [i for i, x in enumerate(points) if (*case, squared, x) in TIES]
                keep = np.setdiff1d(np.arange(len(points)), ties)
                assert np.array_equal(counts[keep], dense[keep]), (case, squared, counts - dense)


def _two_level(L: int):
    """Eigenvalues exactly +-1/2, n/2 of each, on an L x L box."""
    return assemble_finite_volume(tight_binding(FiberShape(2), {(0, 0): np.diag([0.5, -0.5])}), L)


def test_eigenvalues_on_the_count_points_follow_the_lower_interval_rule(reference_spectrum):
    H = _two_level(16)
    n = H.dim
    ids = np.array([-0.5 - 1e-11, -0.5, 0.5 - 1e-11, 0.5])
    assert np.array_equal(_inertia_counts(H, ids, False), [0, n // 2, n // 2, n])
    squared = np.array([0.25 - 1e-11, 0.25])
    assert np.array_equal(_inertia_counts(H, squared, True), [0, n])
    assert np.array_equal(_inertia_counts(H, ids, False), _counts(reference_spectrum(H), ids))


def test_a_shift_on_an_eigenvalue_is_exactly_singular_and_not_certified():
    assert _Inertia(_two_level(16)).below(0.5) is None


def test_a_row_swap_is_not_certified(reference_spectrum):
    """dxy under W01 on the odd 9 x 11 box: at y = 0.05 SuperLU meets an
    exactly zero diagonal pivot and swaps rows, and the signs of U's
    diagonal then miscount the eigenvalues below y (199 against 202)."""
    model = build_model("dxy", delta=0.6, mu=0.9)
    spec = _spec(model.fiber.r, "W01")
    H = build_random_hamiltonian(model, spec, 0.2, sample_realization(spec, (9, 11), SEED))
    inertia = _Inertia(H)
    assert inertia.below(0.05) is None
    lu = splu(inertia.pencil.A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})  # the pencil holds 0.05 - H
    assert not np.array_equal(lu.perm_r, inertia.identity)
    swapped = np.count_nonzero(lu.U.diagonal().real > 0)
    assert swapped != np.searchsorted(reference_spectrum(H), 0.05)


def test_a_squared_count_factors_at_both_shifts(monkeypatch):
    """Below -s is a count of its own, not n minus the count below s."""
    shifts = []
    below = _Inertia.below

    def recorded(self, y):
        shifts.append(y)
        return below(self, y)

    monkeypatch.setattr(_Inertia, "below", recorded)
    spec = default_spec(r=1, lam=0.3)
    H = build_random_hamiltonian(PIP, spec, 0.3, sample_realization(spec, 16, 0))
    _inertia_counts(H, np.array([0.0, 0.25, 1.0]), True)
    s = [np.sqrt(t + EDGE_TOL) for t in (0.25, 1.0)]
    assert shifts == [-spectral._ORIGIN_SHIFT, s[0], -s[0], s[1], -s[1]]


@pytest.mark.parametrize("name, delta, mu", [("pip+", 0.3, -0.5), ("did+", 1.0, 2.0)])
def test_counts_at_opposite_energies_add_to_the_dimension(name, delta, mu):
    """count(-E) = n - count(E) on a paired box at L = 32, from independent
    factorizations: a check of the kernel, not a shortcut it takes."""
    model = build_model(name, delta, mu)
    spec = default_spec(r=model.fiber.r, lam=0.3)
    H = build_random_hamiltonian(model, spec, 0.3, sample_realization(spec, 32, 0))
    inertia = _Inertia(H)
    for E in (0.05, 0.3, 1.0, 2.5):
        assert inertia.below(-E) + inertia.below(E) == H.dim, E


# ---------------------------------------------------------------------------
# the dense fallback

ENERGIES = (0.25, 0.5, 1.0, 1.5)


def _dense(monkeypatch, estimator, *args, **kw):
    """The curve of the dense route: the count route's size rule out of reach."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_COUNT_MIN_SITES", 10**9)
        return estimator(*args, **kw)


@pytest.mark.parametrize("squared", [False, True], ids=["H", "H^2"])
def test_an_uncertified_tolerance_sends_every_realization_to_the_dense_route(squared, monkeypatch):
    estimator = spectral.ids_squared_estimate if squared else spectral.ids_estimate
    energies = [e * e for e in ENERGIES] if squared else ENERGIES
    args = (PIP, default_spec(r=1, lam=0.3))
    kw = dict(L=16, n_realizations=4, energies=energies, seed=3, threads=2)
    counted = estimator(*args, **kw)
    assert counted.dense_fallbacks == 0
    monkeypatch.setattr(spectral, "_INERTIA_TOL", 0.0)
    fallen = estimator(*args, **kw)
    assert fallen.dense_fallbacks == 4
    dense = _dense(monkeypatch, estimator, *args, **kw)
    assert fallen.to_csv() == dense.to_csv() == counted.to_csv()
    assert dense.dense_fallbacks == 0


def test_a_gap_closing_within_the_origin_shift_takes_the_dense_route(monkeypatch,
                                                                     reference_spectrum):
    gapless = build_model("pip+", delta=0.3, mu=0.0)
    spec = default_spec(r=1, lam=0.05)
    seeds = range(4)
    closed = []
    for s in seeds:
        H = build_random_hamiltonian(gapless, spec, 0.05, sample_realization(spec, 16, s))
        near = np.abs(reference_spectrum(H)).min() <= spectral._ORIGIN_SHIFT
        assert near == (_Inertia(H).below(-spectral._ORIGIN_SHIFT) != H.dim // 2)
        closed.append(near)
    assert 0 < sum(closed) < len(seeds)
    for squared, estimator in ((False, spectral.ids_estimate), (True, spectral.ids_squared_estimate)):
        kw = dict(L=16, n_realizations=len(seeds), energies=(0.0, 0.01, 0.3, 1.0), seed=0)
        curve = estimator(gapless, spec, **kw)
        assert curve.dense_fallbacks == sum(closed)
        assert curve.to_csv() == _dense(monkeypatch, estimator, gapless, spec, **kw).to_csv()


def test_an_exactly_singular_factor_takes_the_dense_route(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    kw = dict(L=16, n_realizations=3, energies=ENERGIES, seed=3)
    counted = spectral.ids_estimate(PIP, default_spec(r=1, lam=0.3), **kw)
    monkeypatch.setattr(lattice, "splu", singular)
    fallen = spectral.ids_estimate(PIP, default_spec(r=1, lam=0.3), **kw)
    assert fallen.dense_fallbacks == 3
    assert fallen.to_csv() == counted.to_csv()


def test_another_superlu_error_is_not_a_fallback(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("out of memory")

    monkeypatch.setattr(lattice, "splu", broken)
    with pytest.raises(RuntimeError, match="out of memory"):
        spectral.ids_estimate(PIP, default_spec(r=1, lam=0.3), L=16, n_realizations=2, energies=[1.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_energy_is_refused_before_any_count(bad, monkeypatch):
    monkeypatch.setattr(spectral, "_Inertia", None)  # a count would raise TypeError
    for estimator in (spectral.ids_estimate, spectral.ids_squared_estimate):
        with pytest.raises(ValueError, match="finite"):
            estimator(PIP, default_spec(r=1, lam=0.3), L=16, n_realizations=2, energies=[1.0, bad])
