"""SU(2)-singlet ensembles on one 2x2 chirality sector, against the full
4x4-fiber box: the realizations, spectra, counts, edges, scans and
projection decays of the reduced route equal those of the full one.

Tolerances, fixed before any run: spectra and edges agree within 1e-12 of
the spectral scale, scan tau within 1e-12 relative, and projection-decay
norms within 1e-12.  Counts are equal except at the EDGE_TOL ties listed in
TIES.  The full route is the test reference: the dense full spectrum,
or the public estimators with the reduction switched off.
"""

from __future__ import annotations

import numpy as np
import pytest

import bdgtools.disorder as disorder
import bdgtools.greens as greens
from bdgtools.disorder import (
    DisorderSpec,
    DisorderTerm,
    Distribution,
    _Ensemble,
    _mean_stderr,
    _realization_map,
    build_random_hamiltonian,
    default_spec,
    sample_realization,
    standard_W,
)
from bdgtools.greens import fermi_projection_decay, fractional_moment_scan
from bdgtools.models import build_model
from bdgtools.spectral import (
    _counts,
    _realization_spectra,
    dos_histogram,
    ids_estimate,
    ids_squared_estimate,
)

SINGLETS = ("did+", "did-", "dx2y2", "dxy", "s", "s-star")
# (name, delta, mu): every singlet at (0.6, 0.9), and did+- also at (1, 2)
MODELS = [(n, 0.6, 0.9) for n in SINGLETS] + [(n, 1.0, 2.0) for n in ("did+", "did-")]
LAMS = (0.2, 1.2)
BOXES = ((8, 8), (12, 12), (9, 11))
SEED = 7
# realizations per spectral case: two for the edges' sample deviation, one
# on 12 x 12, where the full dense spectrum costs most
N = {(12, 12): 1}
IDS_POINTS = (-2.5, -1.2, -0.4, -0.05, 0.05, 0.4, 1.2, 2.5)
DOS_EDGES = np.linspace(-4.0, 4.0, 33)
TOL = 1e-12

# (name, delta, mu, box, lam, point) where an eigenvalue lies within rounding
# of a count point, so the sector and full counts may differ.  There is none
# on these inputs.
TIES: dict = {}


def _ids(model_case):
    return "%s-%g-%g" % model_case


def _box_id(box):
    return "x".join(map(str, box))


def _full_route(monkeypatch) -> None:
    """Switch the reduction off: every input is realized on its full fiber."""
    monkeypatch.setattr(disorder, "_su2_sector", lambda model, spec: None)


def _sector_rows(box) -> tuple[np.ndarray, np.ndarray]:
    """The full-box rows of the first (p-up, h-down) and second (p-down, h-up)
    sector, site by site."""
    sites = 4 * np.arange(box[0] * box[1])[:, None]
    return (sites + np.array([0, 3])).ravel(), (sites + np.array([1, 2])).ravel()


@pytest.mark.parametrize("name", SINGLETS)
def test_every_singlet_reduces_under_w00_and_keeps_its_route(name):
    model = build_model(name, delta=0.6, mu=0.9)
    spec = default_spec(r=2, lam=0.3)
    ens = _Ensemble(model, spec, 0.3, 8, 1, 0, 1)
    assert (ens.multiplicity, ens.route, ens.realized_model.fiber.dim) == (2, "paired", 2)
    assert ens.realized_spec.terms[0].j == (0, 0)
    assert np.array_equal(ens.realized_spec.terms[0].W, np.diag([1.0, -1.0]))


def test_a_sector_realization_keeps_every_term_and_distribution():
    """Two on-site terms with different distributions: the sector draws the
    same fields, bit for bit."""
    model = build_model("s-star", delta=0.6, mu=0.9)
    gauss = Distribution("truncated_gaussian", sigma=0.5, cutoff=1.5)
    one = DisorderTerm((1, 1), np.diag([1.0, 1.0, -1.0, -1.0]), gauss)  # W00 on a diagonal hop
    spec = DisorderSpec((DisorderTerm((0, 0), standard_W("W00", 2), Distribution(r_support=2.0)), one))
    box = (7, 6)
    ens = _Ensemble(model, spec, 0.4, box, 2, SEED, 1)
    assert ens.multiplicity == 2 and [t.j for t in ens.realized_spec.terms] == [t.j for t in spec.terms]
    first, _ = _sector_rows(box)
    for i, Hp in enumerate(_realization_map(lambda H: H.dense(), ens)):
        H = build_random_hamiltonian(model, spec, 0.4, sample_realization(spec, box, SEED + i))
        assert np.array_equal(H.dense()[np.ix_(first, first)], Hp)


@pytest.mark.parametrize("box", BOXES, ids=_box_id)
@pytest.mark.parametrize("model_case", MODELS, ids=_ids)
def test_sector_realizations_spectra_counts_and_edges_match_the_full_box(model_case, box,
                                                                         reference_spectrum):
    model = build_model(*model_case)
    first, second = _sector_rows(box)
    sign = np.tile([1.0, -1.0], box[0] * box[1])  # sigma3 on every site
    nsites, n = box[0] * box[1], N.get(box, 2)
    for lam in LAMS:
        spec = default_spec(r=2, lam=lam)
        ens = _Ensemble(model, spec, lam, box, n, SEED, 1)
        assert ens.multiplicity == 2
        sectors = _realization_map(lambda H: H.dense(), ens)
        full = []
        for i, Hp in enumerate(sectors):
            H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, box, SEED + i))
            full.append(reference_spectrum(H))
            H = H.dense()
            # bit for bit: the first sector, its sigma3 image, no coupling between them
            assert np.array_equal(H[np.ix_(first, first)], Hp)
            assert np.array_equal(H[np.ix_(second, second)], sign[:, None] * Hp * sign)
            assert not H[np.ix_(first, second)].any()
        scale = max(np.abs(e).max() for e in full)
        spectra = _realization_spectra(ens)
        for got, ref in zip(spectra, full, strict=True):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= TOL * scale

        ties = [i for i, x in enumerate(IDS_POINTS) if (*model_case, box, lam, x) in TIES]
        keep = np.setdiff1d(np.arange(len(IDS_POINTS)), ties)
        at = np.append(IDS_POINTS, 0.0)
        ref = np.array([_counts(e, at) for e in full], dtype=float)
        mean, _ = _mean_stderr((ref[:, :-1] - ref[:, -1:]) / nsites)
        curve = ids_estimate(model, spec, L=box, n_realizations=n, energies=IDS_POINTS, seed=SEED)
        assert np.array_equal(np.array(curve.values)[keep], mean[keep]), (lam, curve.values, mean)

        hist = dos_histogram(model, spec, L=box, n_realizations=n, bins=DOS_EDGES, seed=SEED)
        ref = np.array([np.diff(_counts(e, DOS_EDGES)) for e in full])
        density, _ = _mean_stderr(ref / (nsites * np.diff(DOS_EDGES)))
        assert hist.density == tuple(density.tolist())
        # the default range comes from the spectrum's ends, which move at ulp level
        hist = dos_histogram(model, spec, L=box, n_realizations=n, bins=16, seed=SEED)
        edges = np.array(hist.bin_edges)
        lo, hi = min(e[0] for e in full), max(e[-1] for e in full)
        pad = 1e-9 * max(hi - lo, 1.0)
        ref_edges = np.linspace(lo - pad, hi + pad, 17)
        assert np.abs(edges - ref_edges).max() <= TOL * scale
        got = np.rint(np.array(hist.density) * np.diff(edges) * nsites * n)
        ref = sum(np.diff(_counts(e, ref_edges)) for e in full)
        assert np.array_equal(got, ref)

        stats, fallbacks = greens._edge_stats(ens)
        rows = np.array([greens._spectrum_edges(e) for e in full])
        want = [v for c in rows.T for v in (c.mean(), c.std(ddof=1) if n > 1 else 0.0)]
        got = [getattr(stats, f) for f in greens.SpectralEdges.__dataclass_fields__][1:]
        assert fallbacks == 0
        assert np.abs(np.subtract(got, want)).max() <= TOL * scale


@pytest.mark.parametrize("model_case", MODELS[:6], ids=_ids)
def test_sector_inertia_counts_on_16x16_equal_the_full_counts(model_case, monkeypatch):
    name, delta, mu = model_case
    model = build_model(name, delta=delta, mu=mu)
    lam = LAMS[SINGLETS.index(name) % 2]
    spec = default_spec(r=2, lam=lam)
    kw = dict(L=16, n_realizations=1, seed=SEED)
    for estimator, points in (("ids", IDS_POINTS), ("squared", tuple(x * x for x in IDS_POINTS[4:]))):
        fn = ids_estimate if estimator == "ids" else ids_squared_estimate
        sector = fn(model, spec, energies=points, **kw)
        with monkeypatch.context() as m:
            _full_route(m)
            full = fn(model, spec, energies=points, **kw)
        assert sector.values == full.values and sector.stderr == full.stderr, estimator
        assert sector.dense_fallbacks == full.dense_fallbacks == 0


# a z of each kind gives a fit on every box: inside the bands with a wide
# offset (12 x 12), and outside them (all three)
SCAN_Z = (0.1 + 0.5j, 5.0 + 1e-3j)


def _scan_outcome(model, spec, lam, z, box):
    try:
        est = fractional_moment_scan(model, spec, lam, z, L=box, n_realizations=8, seed=SEED)
    except (ValueError, ArithmeticError) as err:
        return str(err)
    return est


@pytest.mark.parametrize("box", BOXES, ids=_box_id)
@pytest.mark.parametrize("model_case", MODELS, ids=_ids)
def test_sector_scans_match_the_full_box(model_case, box, monkeypatch):
    model = build_model(*model_case)
    for lam in LAMS:
        spec = default_spec(r=2, lam=lam)
        for z in SCAN_Z:
            sector = _scan_outcome(model, spec, lam, z, box)
            with monkeypatch.context() as m:
                _full_route(m)
                full = _scan_outcome(model, spec, lam, z, box)
            if isinstance(full, str):
                assert sector == full
                continue
            assert np.abs(sector.tau - full.tau).max() <= TOL * full.tau.max()
            assert np.abs(sector.tau_stderr - full.tau_stderr).max() <= TOL * full.tau.max()
            assert sector.fit_window == full.fit_window
            assert (sector.significant(), sector.r_squared > 0.8) == (
                full.significant(), full.r_squared > 0.8)


# the two smaller boxes: a full dense eigh on 12 x 12 costs 0.2 s per realization
@pytest.mark.parametrize("box", BOXES[::2], ids=_box_id)
@pytest.mark.parametrize("model_case", MODELS, ids=_ids)
def test_sector_projection_decays_match_the_full_box(model_case, box, monkeypatch):
    model = build_model(*model_case)
    for lam in LAMS:
        spec = default_spec(r=2, lam=lam)
        sector = fermi_projection_decay(model, spec, lam, 0.0, L=box, n_realizations=1, seed=SEED)
        with monkeypatch.context() as m:
            _full_route(m)
            full = fermi_projection_decay(model, spec, lam, 0.0, L=box, n_realizations=1, seed=SEED)
        assert sector.shifted == full.shifted
        assert abs(sector.energy - full.energy) <= TOL
        assert np.abs(sector.norms - full.norms).max() <= TOL
        assert abs(sector.idempotency_defect - full.idempotency_defect) <= TOL


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("name", ["s", "did+"])
def test_sector_edges_on_16x16_match_the_dense_full_edges(name, lam, reference_spectrum):
    model = build_model(name, delta=0.6, mu=0.9)
    spec = default_spec(r=2, lam=lam)
    ens = _Ensemble(model, spec, lam, 16, 1, SEED, 1)
    ((edges, fell_back),) = _realization_map(greens._paired_edges, ens)
    H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, (16, 16), SEED))
    e = reference_spectrum(H)
    assert not fell_back
    assert np.abs(np.subtract(edges, greens._spectrum_edges(e))).max() <= TOL * np.abs(e).max()
