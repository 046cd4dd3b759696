"""The one route rule of the disorder ensemble: the route table of the
catalog, and checks that each consumer takes only the work of its route."""

from __future__ import annotations

import numpy as np
import pytest

import bdgtools.disorder as disorder
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


def _count_real_solves(monkeypatch) -> list:
    """The dimension of every Majorana image the real H^2 route accepts,
    one per real symmetric solve."""
    solves = []
    image = spectral._majorana_image

    def counted(H):
        A = image(H)
        if A is not None:
            solves.append(H.dim)
        return A

    monkeypatch.setattr(spectral, "_majorana_image", counted)
    return solves


def test_a_paired_ids_below_the_size_rule_and_every_dos_diagonalize(monkeypatch):
    monkeypatch.setattr(spectral, "_Inertia", _refuse("_Inertia"))
    calls = _count_eigenvalue_calls(monkeypatch)
    solves = _count_real_solves(monkeypatch)
    # the ids-identities check of `bdgtools verify`: L = 8, under the size rule;
    # the squared curve takes the real H^2 route (even parity)
    spec = DisorderSpec(_W00.terms, lam=0.1)
    for estimator in (spectral.ids_estimate, spectral.ids_squared_estimate):
        curve = estimator(_GAPPED, spec, L=8, n_realizations=8, energies=[0.3, 0.8], seed=0)
        assert curve.dense_fallbacks == curve.complex_fallbacks == 0
    assert (len(calls), len(solves)) == (8, 8)
    calls.clear()
    solves.clear()
    # both histograms take the real route: H as +-sqrt of its real H^2
    for squared in (False, True):
        dos = spectral.dos_histogram(_GAPPED, _W00, L=20, n_realizations=3, seed=3, squared=squared)
        assert dos.complex_fallbacks == 0
    assert (len(calls), len(solves)) == (0, 6)


def test_odd_general_and_bloch_inputs_never_build_the_majorana_image(monkeypatch):
    monkeypatch.setattr(spectral, "_majorana_image", _refuse("_majorana_image"))
    monkeypatch.setattr(greens, "_majorana_image", _refuse("_majorana_image"))
    did = build_model("did+", delta=1.0, mu=2.0)
    odd = DisorderSpec(_spec(2, ["W00"]).terms, lam=0.3)  # the singlet's 2 x 2 sector
    general = DisorderSpec((DisorderTerm((0, 0), np.eye(2)),), lam=0.5)  # on-site W = 1
    for model, spec, route, parity in ((did, odd, "paired", "odd"),
                                       (_GAPPED, general, "general", None),
                                       (_GAPPED, None, "bloch", None),
                                       (_GAPPED, DisorderSpec(_W00.terms, lam=0.0), "bloch", None)):
        lam = 0.0 if spec is None else spec.lam
        ens = _Ensemble(model, spec, lam, 8, 2, 0, 1)
        assert (ens.route, ens.parity) == (route, parity)
        kw = dict(L=8, n_realizations=2, seed=0)
        for squared in (False, True):
            dos = spectral.dos_histogram(model, spec, squared=squared, **kw)
            assert dos.complex_fallbacks == 0
        curve = spectral.ids_squared_estimate(model, spec, energies=[0.25, 1.0], **kw)
        assert curve.complex_fallbacks == 0
        assert greens._edge_stats(ens)[1] == 0
    # the dense fallback of an odd-parity count (at L = 16, by inertia)
    monkeypatch.setattr(spectral, "_INERTIA_TOL", 0.0)
    curve = spectral.ids_squared_estimate(did, odd, L=16, n_realizations=2, energies=[1.0])
    assert curve.dense_fallbacks == 2 and curve.complex_fallbacks == 0


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


# which catalog inputs of INPUTS reduce to one SU(2) sector (multiplicity 2):
# the singlets under every disorder whose matrices are sigma3-symmetric in
# the two sectors (W00, and W = 1); no triplet, no spinless model, and no
# input with W10 or W01, which mix the sectors
_SINGLET = (1, 1, 2, 1, 1, 2)
_REST = (1,) * 6
MULTIPLICITY = {
    "did+": _SINGLET, "did-": _SINGLET, "dx2y2": _SINGLET, "dxy": _SINGLET,
    "s": _SINGLET, "s-star": _SINGLET,
    "p-spinful": _REST, "p-triplet+": _REST, "p-triplet-": _REST,
    "pip+": _REST, "pip-": _REST, "px": _REST,
}


# the parity that made each "paired" input of INPUTS paired (None on the
# other routes): even (C = K) on every full fiber, odd (C = I) on the
# singlets' 2 x 2 sector
_SECTOR_PARITY = (None, None, "odd", "even", "even", None)
_FULL_PARITY = (None, None, "even", "even", "even", None)
PARITY = {
    "did+": _SECTOR_PARITY, "did-": _SECTOR_PARITY, "dx2y2": _SECTOR_PARITY,
    "dxy": _SECTOR_PARITY, "s": _SECTOR_PARITY, "s-star": _SECTOR_PARITY,
    "p-spinful": _FULL_PARITY, "p-triplet+": _FULL_PARITY, "p-triplet-": _FULL_PARITY,
    "pip+": _FULL_PARITY, "pip-": _FULL_PARITY, "px": _FULL_PARITY,
}


def test_the_reduction_table_covers_the_catalog():
    assert sorted(MULTIPLICITY) == sorted(MODEL_NAMES) == sorted(PARITY)


@pytest.mark.parametrize("name", sorted(PARITY))
def test_every_paired_catalog_input_records_its_parity(name):
    model = build_model(name, delta=0.6, mu=0.9)
    inputs = _inputs(model)
    got = tuple(_Ensemble(model, *inputs[k], 8, 8, 0, 1).parity for k in INPUTS)
    assert got == PARITY[name]
    assert all((p is not None) == (r == "paired") for p, r in zip(got, ROUTES[name]))


@pytest.mark.parametrize("name", sorted(MULTIPLICITY))
def test_every_catalog_input_reduces_as_its_table_says(name):
    model = build_model(name, delta=0.6, mu=0.9)
    inputs = _inputs(model)
    ensembles = [_Ensemble(model, *inputs[k], 8, 8, 0, 1) for k in INPUTS]
    assert tuple(ens.multiplicity for ens in ensembles) == MULTIPLICITY[name]
    for ens in ensembles:
        full = ens.multiplicity == 1
        assert (ens.realized_model is model) == full
        assert (ens.realized_spec is ens.spec) == full
        assert ens.realized_model.fiber.dim == model.fiber.dim // ens.multiplicity


def _refuse_full_fiber(monkeypatch) -> list:
    """Record the fiber of every disordered box the ensemble builds or
    diagonalizes, and refuse a 4 x 4 one."""
    fibers = []
    build = disorder.build_random_hamiltonian

    def built(H0, spec, lam, realization, bc="periodic"):
        H = build(H0, spec, lam, realization, bc)
        fibers.append(H.fiber.dim)
        assert H.fiber.dim == 2, "a reducing ensemble assembled its 4 x 4-fiber box"
        return H

    eigenvalues = FiniteVolumeOperator.eigenvalues

    def diagonalized(self):
        assert self.fiber.dim == 2, "a reducing ensemble diagonalized its 4 x 4-fiber box"
        return eigenvalues(self)

    monkeypatch.setattr(disorder, "build_random_hamiltonian", built)
    monkeypatch.setattr(FiniteVolumeOperator, "eigenvalues", diagonalized)
    return fibers


def test_a_reducing_ensemble_never_builds_a_full_fiber_box(monkeypatch):
    fibers = _refuse_full_fiber(monkeypatch)
    did = build_model("did+", delta=1.0, mu=2.0)
    spec = DisorderSpec(_spec(2, ["W00"]).terms, lam=0.3)
    spectral.ids_estimate(did, spec, L=8, n_realizations=2, energies=[0.5])
    spectral.ids_estimate(did, spec, L=16, n_realizations=2, energies=[0.5])  # by inertia
    spectral.dos_histogram(did, spec, L=8, n_realizations=2)
    localization_phase_diagram(did, spec, [0.3], [9.0], L=8, n_realizations=2)
    fractional_moment_scan(did, spec, 0.3, 5.0 + 1e-3j, L=12, n_realizations=8)
    greens.fermi_projection_decay(did, spec, 0.3, 0.0, L=8, n_realizations=2)
    assert fibers == [2] * 18


def test_a_doomed_scan_constructs_no_resolvent_solver(monkeypatch):
    monkeypatch.setattr(greens, "ResolventSolver", _refuse("ResolventSolver"))
    spec = _spec(1, ["W00"])
    # at E = 1 on the 16 x 16 box the clean check wraps every distance
    wrapped = greens._wrap_exclusions(PIP, 1.0 + 1e-4j, (16, 16), np.arange(0, 8))
    assert np.count_nonzero(wrapped[1:]) >= 6
    with pytest.raises(ValueError, match="fit window is empty"):
        fractional_moment_scan(PIP, spec, 0.6, 1.0 + 1e-4j, L=16, n_realizations=8)


def test_the_phase_diagram_takes_each_wrap_check_once(monkeypatch):
    calls = []
    wrap = greens._wrap_exclusions

    def counted(model, z, box, dists, small=None):
        calls.append((z, len(dists)))
        return wrap(model, z, box, dists, small)

    monkeypatch.setattr(greens, "_wrap_exclusions", counted)
    spec = _spec(1, ["W00"])
    pd = localization_phase_diagram(PIP, spec, [0.0, 0.2, 0.6], [0.0, 1.0], L=12, n_realizations=8)
    scanned = sum(v != greens.OUTSIDE for row in pd.verdicts for v in row)
    assert scanned > len(calls) == len(set(calls))
    monkeypatch.undo()
    assert greens._DIAGRAM_WRAPS.get() is None  # the shared checks end with the diagram
    for i, lam in enumerate(pd.lambda_grid):  # the same verdicts as scans on their own
        for k, E in enumerate(pd.energy_grid):
            if pd.verdicts[i][k] == greens.OUTSIDE:
                continue
            try:
                est = fractional_moment_scan(PIP, spec, lam, complex(E, pd.eps), L=12,
                                             n_realizations=8)
            except ValueError as err:
                assert pd.reasons[i][k] == str(err)
            else:
                assert pd.rates[i, k] == est.rate
