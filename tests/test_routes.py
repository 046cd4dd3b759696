"""The one route rule of the disorder ensemble: the route table of the
catalog, and checks that each consumer takes only the work of its route."""

from __future__ import annotations

import numpy as np
import pytest

import bdgtools.greens as greens
import bdgtools.spectral as spectral
from bdgtools.disorder import DisorderSpec, DisorderTerm, _Ensemble, standard_W
from bdgtools.greens import fractional_moment_scan, localization_phase_diagram
from bdgtools.lattice import FiniteVolumeOperator
from bdgtools.models import MODEL_NAMES, build_model

PIP = build_model("pip+", delta=0.3, mu=0.5)
_AT = {"W00": (0, 0), "W10": (1, 0), "W01": (0, 1)}
INPUTS = ("no spec", "W00 lam=0", "W00", "W00+W10", "W01", "W = 1")

# the route of every catalog model (delta = 0.6, mu = 0.9) under each input
# of INPUTS, as the clean and particle-hole checks of the phase diagram
# decided them before the rule became one
ROUTES = {
    "did+": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "did-": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "dx2y2": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "dxy": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "p-spinful": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "p-triplet+": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "p-triplet-": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "pip+": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "pip-": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "px": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "s": ("bloch", "bloch", "paired", "paired", "paired", "general"),
    "s-star": ("bloch", "bloch", "paired", "paired", "paired", "general"),
}


def _spec(r: int, names) -> DisorderSpec:
    return DisorderSpec(tuple(DisorderTerm(_AT[n], standard_W(n, r)) for n in names))


def _inputs(model) -> dict:
    """INPUTS as (spec, lam) pairs on the model's fiber."""
    r = model.fiber.r
    return {
        "no spec": (None, 0.0),
        "W00 lam=0": (_spec(r, ["W00"]), 0.0),
        "W00": (_spec(r, ["W00"]), 0.3),
        "W00+W10": (_spec(r, ["W00", "W10"]), 0.3),
        "W01": (_spec(r, ["W01"]), 0.3),
        "W = 1": (DisorderSpec((DisorderTerm((0, 0), np.eye(model.fiber.dim)),)), 0.5),
    }


def test_the_route_table_covers_the_catalog():
    assert sorted(ROUTES) == sorted(MODEL_NAMES)


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_every_catalog_input_takes_its_route(name):
    model = build_model(name, delta=0.6, mu=0.9)
    inputs = _inputs(model)
    got = tuple(_Ensemble(model, *inputs[k], 8, 8, 0, 1).route for k in INPUTS)
    assert got == ROUTES[name]


@pytest.mark.parametrize("name", ["pip+", "did+"])
def test_the_reach_is_the_larger_range_on_a_disordered_input(name):
    model = build_model(name, delta=0.6, mu=0.9)
    far = DisorderSpec((DisorderTerm((2, 0), standard_W("W10", model.fiber.r)),))
    assert _Ensemble(model, far, 0.0, 8, 1, 0, 1).reach == model.range == 1
    assert _Ensemble(model, far, 0.3, 8, 1, 0, 1).reach == 2


def _refuse(what: str):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} is off this route")

    return refused


def _count_eigenvalue_calls(monkeypatch) -> list:
    calls = []
    eigenvalues = FiniteVolumeOperator.eigenvalues

    def counted(self):
        calls.append(self.dim)
        return eigenvalues(self)

    monkeypatch.setattr(FiniteVolumeOperator, "eigenvalues", counted)
    return calls


def test_a_bloch_scan_constructs_no_resolvent_solver(monkeypatch):
    monkeypatch.setattr(greens, "ResolventSolver", _refuse("ResolventSolver"))
    gapped = build_model("pip+", delta=0.3, mu=-0.5)
    for spec, lam in ((None, 0.0), (_spec(1, ["W00"]), 0.0)):
        est = fractional_moment_scan(gapped, spec, lam, 0.05 + 1e-4j, L=16)
        assert est.n_realizations == 1


def test_a_paired_row_diagonalizes_only_its_counted_fallbacks(monkeypatch):
    calls = _count_eigenvalue_calls(monkeypatch)
    spec = _spec(1, ["W00"])
    assert _Ensemble(PIP, spec, 0.6, 12, 4, 3, 1).route == "paired"
    pd = localization_phase_diagram(PIP, spec, [0.3, 0.6], [-9.0], L=12, n_realizations=4, seed=3)
    assert len(calls) == sum(pd.edge_fallbacks) == 0


def test_a_general_row_takes_no_sparse_edges(monkeypatch):
    monkeypatch.setattr(greens, "_paired_edges", _refuse("_paired_edges"))
    spec = DisorderSpec((DisorderTerm((0, 0), np.eye(2)),))  # on-site W = 1
    assert _Ensemble(PIP, spec, 0.5, 12, 4, 3, 1).route == "general"
    pd = localization_phase_diagram(PIP, spec, [0.0, 0.5], [-9.0], L=12, n_realizations=4, seed=3)
    assert pd.edge_fallbacks == (0, 0)


_GAPPED = build_model("pip+", delta=0.3, mu=-0.5)
_W00 = DisorderSpec((DisorderTerm((0, 0), standard_W("W00", 1)),), lam=0.3)
_ENERGIES = (0.25, 0.5, 1.0, 1.5)


@pytest.mark.parametrize("squared", [False, True], ids=["ids", "ids squared"])
def test_a_paired_ids_on_a_large_box_diagonalizes_only_its_counted_fallbacks(squared, monkeypatch):
    calls = _count_eigenvalue_calls(monkeypatch)
    assert _Ensemble(_GAPPED, _W00, 0.3, 20, 8, 3, 2).route == "paired"
    estimator = spectral.ids_squared_estimate if squared else spectral.ids_estimate
    energies = [e * e for e in _ENERGIES] if squared else _ENERGIES
    curve = estimator(_GAPPED, _W00, L=20, n_realizations=8, energies=energies, seed=3, threads=2)
    assert len(calls) == curve.dense_fallbacks == 0


def test_a_paired_ids_below_the_size_rule_and_every_dos_diagonalize(monkeypatch):
    monkeypatch.setattr(spectral, "_Inertia", _refuse("_Inertia"))
    calls = _count_eigenvalue_calls(monkeypatch)
    # the ids-identities check of `bdgtools verify`: L = 8, under the size rule
    spec = DisorderSpec(_W00.terms, lam=0.1)
    for estimator in (spectral.ids_estimate, spectral.ids_squared_estimate):
        curve = estimator(_GAPPED, spec, L=8, n_realizations=8, energies=[0.3, 0.8], seed=0)
        assert curve.dense_fallbacks == 0
    assert len(calls) == 16
    calls.clear()
    for squared in (False, True):
        spectral.dos_histogram(_GAPPED, _W00, L=20, n_realizations=3, seed=3, squared=squared)
    assert len(calls) == 6


def test_general_and_bloch_ids_take_no_inertia_counts(monkeypatch):
    monkeypatch.setattr(spectral, "_Inertia", _refuse("_Inertia"))
    calls = _count_eigenvalue_calls(monkeypatch)
    general = DisorderSpec((DisorderTerm((0, 0), np.eye(2)),), lam=0.5)  # on-site W = 1
    assert _Ensemble(_GAPPED, general, 0.5, 20, 3, 3, 1).route == "general"
    curve = spectral.ids_estimate(_GAPPED, general, L=20, n_realizations=3, energies=_ENERGIES)
    assert len(calls) == 3 and curve.dense_fallbacks == 0
    calls.clear()
    for spec in (None, DisorderSpec(_W00.terms, lam=0.0)):  # the clean box, by its Bloch fibers
        assert _Ensemble(_GAPPED, spec, 0.0, 20, 1, 0, 1).route == "bloch"
        curve = spectral.ids_estimate(_GAPPED, spec, L=20, energies=_ENERGIES)
        assert curve.dense_fallbacks == 0
    assert calls == []
