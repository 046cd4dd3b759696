"""IDS and DOS estimators: normalization, symmetry identities, tie-breaking,
and histogram shapes."""

from __future__ import annotations

import numpy as np
import pytest

import bdgtools.spectral as spectral
from bdgtools.disorder import (
    DisorderSpec,
    DisorderTerm,
    Distribution,
    _Ensemble,
    _mean_stderr,
    _realization_map,
    default_spec,
    standard_W,
)
from bdgtools.lattice import FiberShape, FiniteVolumeOperator, assemble_bloch, tight_binding
from bdgtools.models import ModelParams, build_model, central_gap, pairing_kind
from bdgtools.spectral import (
    EDGE_TOL,
    dos_histogram,
    ids_estimate,
    ids_squared_estimate,
)

PIP = build_model("pip+", delta=0.3, mu=-0.5)
GAP = central_gap(pairing_kind("pip+"), ModelParams(0.3, -0.5))


def _two_level_model(e: float = 0.5):
    return tight_binding(FiberShape(2), {(0, 0): np.diag([e, -e])})


# ---------------------------------------------------------------------------
# clean IDS

def test_ids_vanishes_inside_the_gap():
    es = np.linspace(-GAP / 2 + 1e-3, GAP / 2 - 1e-3, 11)
    curve = ids_estimate(PIP, None, L=16, energies=es)
    assert all(v == 0.0 for v in curve.values)


def test_ids_saturates_at_half_fiber_dimension():
    curve = ids_estimate(PIP, None, L=12, energies=[-10.0, 10.0])
    assert curve.values == (-1.0, 1.0)  # fiberdim/2 states per site above 0
    did = build_model("did+", delta=1.0, mu=2.0)
    curve4 = ids_estimate(did, None, L=8, energies=[10.0])
    assert curve4.values == (2.0,)


def test_clean_ids_is_antisymmetric_exactly():
    es = [-3.0, -1.0, -0.4, 0.4, 1.0, 3.0]
    # no spec, zero coupling and no terms are one and the same clean estimate
    curves = [
        ids_estimate(PIP, spec, L=10, energies=es)
        for spec in (None, default_spec(r=1, lam=0.0), DisorderSpec((), lam=0.5))
    ]
    assert curves[1] == curves[0] and curves[2] == curves[0]
    v = curves[0].values
    assert all(a + b == 0.0 for a, b in zip(v, v[::-1]))


def test_clean_ids_is_monotone():
    es = np.linspace(-4, 4, 41)
    v = ids_estimate(PIP, None, L=10, energies=es).values
    assert all(b >= a for a, b in zip(v, v[1:]))


def test_ids_matches_direct_bloch_grid_count():
    L = 10
    eigs = np.sort(
        np.concatenate(
            [
                np.linalg.eigvalsh(
                    assemble_bloch(PIP, (2 * np.pi * a / L, 2 * np.pi * b / L)).matrix
                )
                for a in range(L)
                for b in range(L)
            ]
        )
    )
    es = [-2.0, -0.7, 0.7, 2.0]
    curve = ids_estimate(PIP, None, L=L, energies=es)
    for e, v in zip(es, curve.values):
        if e >= 0:
            expect = np.sum((eigs > EDGE_TOL) & (eigs <= e + EDGE_TOL))
        else:
            expect = -np.sum((eigs > e + EDGE_TOL) & (eigs <= EDGE_TOL))
        assert v == expect / L**2


def test_edge_tie_breaking():
    m = _two_level_model(0.5)  # eigenvalues +-0.5, 16 sites
    ids = lambda E: ids_estimate(m, None, L=(4, 4), energies=[E]).values[0]
    # ties go to the lower interval on both sides of an edge
    assert ids(0.5) == 1.0
    assert ids(0.5 - 1e-13) == 1.0   # eigenvalue within EDGE_TOL above E still counts
    assert ids(0.5 - 1e-11) == 0.0   # outside the tolerance band
    assert ids(-0.5) == 0.0          # eigenvalue on the lower edge sits below the interval
    assert ids(-0.5 - 1e-11) == -1.0
    assert ids(0.4) == 0.0


def test_zero_modes_follow_the_lower_interval_rule():
    m = tight_binding(FiberShape(2), {(0, 0): np.diag([0.0, 1.0])})
    curve = ids_estimate(m, None, L=(4, 4), energies=[0.5, -0.5])
    assert curve.values[0] == 0.0    # zero mode assigned below 0
    assert curve.values[1] == -1.0   # and therefore counted on the negative side


def test_ids_input_validation():
    with pytest.raises(ValueError, match="finite"):
        ids_estimate(PIP, None, L=8, energies=[np.inf])
    with pytest.raises(ValueError, match="n_realizations"):
        ids_estimate(PIP, default_spec(r=1, lam=0.5), L=8, n_realizations=0, energies=[1.0])
    with pytest.raises(TypeError):
        ids_estimate("pip+", None, L=8, energies=[1.0])


# ---------------------------------------------------------------------------
# squared-operator IDS

def test_squared_ids_identity_clean():
    es = [0.3, 0.9, 1.7, 3.0]
    n = ids_estimate(PIP, None, L=12, energies=es).values
    n2 = ids_squared_estimate(PIP, None, L=12, energies=[e * e for e in es]).values
    assert all(a == b / 2 for a, b in zip(n, n2))


def test_squared_ids_identity_disordered_same_realizations():
    spec = default_spec(r=1, lam=0.4)
    es = [0.3, 0.9, 1.7]
    n = ids_estimate(PIP, spec, L=8, n_realizations=6, energies=es, seed=17).values
    n2 = ids_squared_estimate(
        PIP, spec, L=8, n_realizations=6, energies=[e * e for e in es], seed=17
    ).values
    # identical realizations: the identity is exact, not just statistical
    assert all(a == b / 2 for a, b in zip(n, n2))


def test_squared_ids_normalization_at_zero():
    assert ids_squared_estimate(PIP, None, L=8, energies=[0.0]).values == (0.0,)


def test_squared_ids_matches_grid_oracle():
    L = 8
    sq = np.sort(
        np.concatenate(
            [
                np.linalg.eigvalsh(
                    assemble_bloch(PIP, (2 * np.pi * a / L, 2 * np.pi * b / L)).matrix
                )
                for a in range(L)
                for b in range(L)
            ]
        )
        ** 2
    )
    for E in (0.5, 2.0, 9.0):
        v = ids_squared_estimate(PIP, None, L=L, energies=[E]).values[0]
        assert v == np.sum((sq > EDGE_TOL) & (sq <= E + EDGE_TOL)) / L**2


# ---------------------------------------------------------------------------
# statistical identities with disorder

def test_disordered_antisymmetry_within_3_sigma():
    spec = default_spec(r=1, lam=0.5)
    es = [-1.8, -1.2, -0.6, 0.6, 1.2, 1.8]
    c = ids_estimate(PIP, spec, L=12, n_realizations=16, energies=es, seed=23)
    for i in range(len(es)):
        jr = len(es) - 1 - i
        sigma = np.hypot(c.stderr[i], c.stderr[jr])
        assert abs(c.values[i] + c.values[jr]) <= 3 * sigma + 1e-12


def test_disordered_squared_identity_within_3_sigma():
    # independent seed streams for the two estimates
    spec = default_spec(r=1, lam=0.5)
    es = [0.6, 1.2, 1.8]
    a = ids_estimate(PIP, spec, L=12, n_realizations=16, energies=es, seed=0)
    b = ids_squared_estimate(
        PIP, spec, L=12, n_realizations=16, energies=[e * e for e in es], seed=1000
    )
    for i in range(len(es)):
        sigma = np.hypot(a.stderr[i], b.stderr[i] / 2)
        assert abs(a.values[i] - b.values[i] / 2) <= 3 * sigma + 1e-12


def test_disorder_produces_scatter():
    spec = default_spec(r=1, lam=0.8)
    c = ids_estimate(PIP, spec, L=10, n_realizations=8, energies=[1.0, 2.0], seed=5)
    assert max(c.stderr) > 0.0


# ---------------------------------------------------------------------------
# DOS histograms

def test_dos_nonnegative_and_normalized():
    h = dos_histogram(PIP, None, L=12, bins=32)
    assert min(h.density) >= 0.0
    assert h.total_weight == pytest.approx(2.0, abs=1e-12)  # states per site


def test_dos_gap_bins_are_empty():
    h = dos_histogram(PIP, None, L=16, bins=np.linspace(-3.0, 3.0, 61))
    edges = np.array(h.bin_edges)
    mids = (edges[1:] + edges[:-1]) / 2
    inside = np.abs(mids) < GAP / 2 - 0.06
    assert np.any(inside)
    assert max(np.array(h.density)[inside], default=0.0) == 0.0


def test_pseudo_gap_has_linear_dos():
    # mu = 0: bands touch at k = (0,pi), (pi,0); the DOS ramps linearly, so
    # the cumulative count grows quadratically: N(2E)/N(E) near 4
    H0 = build_model("pip+", delta=0.3, mu=0.0)
    h = dos_histogram(H0, None, L=48, bins=np.linspace(0.0, 0.6, 13))
    rho = np.array(h.density)
    widths = np.diff(np.array(h.bin_edges))
    cum = np.cumsum(rho * widths)
    edges = np.array(h.bin_edges)[1:]
    n_half = cum[np.argmin(np.abs(edges - 0.2))]
    n_full = cum[np.argmin(np.abs(edges - 0.4))]
    assert 2.6 <= n_full / n_half <= 5.5
    assert rho[0] <= 0.25 * rho[(edges > 0.3) & (edges <= 0.45)].mean()


def test_dos_squared_pairing_identity():
    spec = default_spec(r=1, lam=0.5)
    edges = np.linspace(0.2, 2.0, 19)
    h1 = dos_histogram(PIP, spec, L=16, n_realizations=8, bins=edges, seed=100)
    h2 = dos_histogram(
        PIP, spec, L=16, n_realizations=8, bins=edges**2, seed=300, squared=True
    )
    mids = (edges[1:] + edges[:-1]) / 2
    lhs = np.array(h1.density)
    rhs = mids * np.array(h2.density)
    sigma = np.sqrt(np.array(h1.stderr) ** 2 + (mids * np.array(h2.stderr)) ** 2)
    assert np.all(np.abs(lhs - rhs) <= 3 * sigma + 1e-12)


def test_dos_bin_validation():
    with pytest.raises(ValueError, match="16"):
        dos_histogram(PIP, None, L=8, bins=8)
    with pytest.raises(ValueError, match="increasing"):
        dos_histogram(PIP, None, L=8, bins=np.array([0.0, 1.0, 0.5]))


@pytest.mark.parametrize("bins, match", [
    (8, "16"),
    ([0.0], "increasing"),
    (float("nan"), "16"),
    ([0.0, float("nan"), 1.0, 2.0], "finite"),
    ([-float("inf"), 0.0, 1.0, float("inf")], "finite"),
    (float("inf"), "16"),
    (16.5, "16"),
])
def test_dos_refuses_bad_bins_before_diagonalizing(bins, match, monkeypatch):
    def never(self):
        raise AssertionError("diagonalized before the bins were checked")

    monkeypatch.setattr(FiniteVolumeOperator, "eigenvalues", never)
    with pytest.raises(ValueError, match=match):
        dos_histogram(PIP, None, L=24, bins=bins)


@pytest.mark.parametrize("energy_range", [(2.0, -2.0), (1.0, 1.0)], ids=["reversed", "empty"])
def test_dos_refuses_an_empty_or_reversed_energy_range(energy_range):
    with pytest.raises(ValueError, match="energy_range"):
        dos_histogram(PIP, None, L=4, bins=16, energy_range=energy_range)


# ---------------------------------------------------------------------------
# CSV output

@pytest.mark.parametrize(
    "energy_range",
    [(-np.inf, np.inf), (np.nan, 1.0), (-1.0, np.inf)],
    ids=["infinite", "nan", "half-infinite"],
)
def test_dos_refuses_a_non_finite_energy_range(energy_range):
    with pytest.raises(ValueError, match="finite"):
        dos_histogram(PIP, None, L=4, bins=16, energy_range=energy_range)


def test_ids_csv_layout():
    c = ids_estimate(PIP, None, L=8, energies=[-1.0, 1.0])
    lines = c.to_csv().splitlines()
    assert lines[0] == "E,N,stderr"
    e, n, s = lines[1].split(",")
    assert float(e) == -1.0 and float(n) == c.values[0] and float(s) == 0.0


def test_dos_csv_layout():
    h = dos_histogram(PIP, None, L=8, bins=16)
    lines = h.to_csv().splitlines()
    assert lines[0] == "bin_lo,bin_hi,rho"
    assert len(lines) == 17
    lo, hi, rho = map(float, lines[1].split(","))
    assert (lo, hi) == (h.bin_edges[0], h.bin_edges[1])
    assert rho == h.density[0]


# ---------------------------------------------------------------------------
# one counting rule for the IDS and the DOS


def _signed_count_reference(eigs, E):
    """The IDS count before the one counting rule: (0, E], or minus (E, 0]."""
    hi = int(np.searchsorted(eigs, E + EDGE_TOL, side="right"))
    lo = int(np.searchsorted(eigs, EDGE_TOL, side="right"))
    return hi - lo


def _bin_counts_reference(eigs, edges):
    """The DOS bin occupation before the one counting rule."""
    idx = np.searchsorted(edges, eigs - EDGE_TOL, side="left") - 1
    idx = idx[(idx >= 0) & (idx < len(edges) - 1)]
    return np.bincount(idx, minlength=len(edges) - 1).astype(float)


_W00_W10 = DisorderSpec(
    (
        DisorderTerm((0, 0), standard_W("W00", 1), Distribution(), "W00"),
        DisorderTerm((1, 0), standard_W("W10", 1), Distribution()),
    ),
    lam=0.3,
)
# the four distinct ensembles of the benchmark's ensemble workload, 8 realizations each
_ENSEMBLES = {
    "pip+ W00 L=20": (PIP, default_spec(r=1, lam=0.3), 20),
    "did+ W00 L=12": (build_model("did+", 1.0, 2.0), default_spec(r=2, lam=0.3), 12),
    "pip+ W00+W10 L=16": (PIP, _W00_W10, 16),
    "pip+ clean L=24": (PIP, None, 24),
}
_WORKLOAD_ENERGIES = (0.25, 0.5, 1.0, 1.5)


@pytest.fixture(scope="module")
def ensemble_spectra():
    out = {}
    for name, (model, spec, L) in _ENSEMBLES.items():
        lam = 0.0 if spec is None else spec.lam
        out[name] = _realization_map(lambda H: H.eigenvalues(), _Ensemble(model, spec, lam, L, 8, 1, 1))
    return out


@pytest.mark.parametrize("squared", [False, True], ids=["H", "H^2"])
@pytest.mark.parametrize("name", sorted(_ENSEMBLES))
def test_one_counting_rule_keeps_the_old_counts(name, squared, ensemble_spectra, monkeypatch):
    model, spec, L = _ENSEMBLES[name]
    spectra = ensemble_spectra[name]
    monkeypatch.setattr(spectral, "_realization_spectra", lambda ens: spectra)
    eigs_list = [np.sort(e * e) for e in spectra] if squared else spectra
    top = max(float(e[-1]) for e in eigs_list)
    if squared:
        energies = [e * e for e in _WORKLOAD_ENERGIES] + list(np.linspace(0.0, top, 41))
        explicit = np.linspace(0.0, top, 33)
    else:
        energies = [*_WORKLOAD_ENERGIES, *(-e for e in _WORKLOAD_ENERGIES),
                    *np.linspace(-top, top, 41)]
        explicit = np.linspace(-top, top, 33)
    kw = dict(L=L, n_realizations=8, seed=1)
    estimator = ids_squared_estimate if squared else ids_estimate
    curve = estimator(model, spec, energies=energies, **kw)
    ref = np.array([[_signed_count_reference(e, E) for E in energies] for e in eigs_list], float)
    mean, err = _mean_stderr(ref / (L * L))
    assert curve.values == tuple(mean.tolist()) and curve.stderr == tuple(err.tolist())
    for bins in (64, explicit):
        hist = dos_histogram(model, spec, bins=bins, squared=squared, **kw)
        edges = np.array(hist.bin_edges)
        ref = np.array([_bin_counts_reference(e, edges) for e in eigs_list])
        new = np.array([np.diff(spectral._counts(e, edges)) for e in eigs_list])
        differ = np.argwhere(new != ref)
        assert not differ.size, f"{name}: bin counts differ at (realization, bin) {differ.tolist()}"
        density, err = _mean_stderr(ref / (L * L * np.diff(edges)))
        assert hist.density == tuple(density.tolist()) and hist.stderr == tuple(err.tolist())


def test_dos_summed_to_an_edge_is_the_ids_there():
    m = _two_level_model(0.5)  # eigenvalues +-0.5 on 16 sites; edges on and beside them
    edges = np.array([-1.0, -0.5, -0.5 + 1e-13, 0.0, 0.5 - 1e-13, 0.5, 1.0])
    hist = dos_histogram(m, None, L=(4, 4), bins=edges)
    curve = ids_estimate(m, None, L=(4, 4), energies=edges)
    per_bin = np.rint(np.array(hist.density) * np.diff(edges) * 16)
    ids = np.rint(np.array(curve.values) * 16)
    assert per_bin.sum() == 32
    assert np.array_equal(np.cumsum(per_bin), ids[1:] - ids[0])
