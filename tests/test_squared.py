"""Squared spectra of even-parity paired ensembles from the real symmetric
H^2 of the Majorana basis, against the squares of the complex spectrum, and
the spectra of H that the DOS takes as +-sqrt of them, against the complex
spectrum: every even-parity catalog input, the guard on Re M, and a
near-gapless box."""

from __future__ import annotations

import contextlib
import json

import numpy as np
import pytest

import bdgtools.spectral as spectral
from bdgtools.cli import main
from bdgtools.disorder import (
    DisorderSpec,
    DisorderTerm,
    _Ensemble,
    build_random_hamiltonian,
    default_spec,
    sample_realization,
    spec_to_json,
    standard_W,
)
from bdgtools.lattice import PHS_TOL, check_phs, tight_binding
from bdgtools.models import MODEL_NAMES, build_model
from bdgtools.spectral import _counts, _real_spectrum, _squared_spectrum

# An E^2 of the real route may differ from the square of the complex E by
# this much times ||H||^2 (fixed before the first run).
TOL = 1e-12

_AT = {"W00": (0, 0), "W10": (1, 0), "W01": (0, 1)}
SPECS = ("W00", "W00+W10", "W01")
LAMS = (0.2, 1.2)
BOXES = ((8, 8), (12, 12), (9, 11))
SEED = 5
# the singlets, whose W00 input realizes on a 2 x 2 sector of odd parity
SINGLETS = ("did+", "did-", "dx2y2", "dxy", "s", "s-star")
# squared IDS points and explicit squared DOS edges: the squares of
# 0, 0.05, 0.1, 0.2, ..., 8
ROOTS = np.array([0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0])
EDGES = ROOTS**2
POINTS = EDGES[1:]

# (model, box, spec, lam, "ids" or "dos", point or edge) where an E^2 lies
# within rounding of the shifted point or edge, so the two routes' counts
# may differ there.  There is none on these inputs.
TIES: dict = {}

# explicit DOS edges of H: 0, +-0.05, ..., +-8
H_EDGES = np.concatenate([-ROOTS[:0:-1], ROOTS])

# (model, box, spec, lam, edge) where an E of H lies within rounding of the
# shifted edge, so the real and the complex DOS counts may differ there.
# There is none on these inputs.
TIES_H: dict = {}


def _spec(r: int, name: str, lam: float = 0.0) -> DisorderSpec:
    return DisorderSpec(tuple(DisorderTerm(_AT[n], standard_W(n, r)) for n in name.split("+")), lam)


_INPUTS = [
    (name, spec)
    for name in sorted(MODEL_NAMES)
    for spec in SPECS
    if not (name in SINGLETS and spec == "W00")
]  # the 30 even-parity inputs; tests/test_routes.py holds every input's parity


@contextlib.contextmanager
def _complex(monkeypatch):
    """Every Majorana image refused: the complex route."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_majorana_image", lambda H: None)
        yield


@pytest.mark.parametrize("box", BOXES, ids=lambda b: "x".join(map(str, b)))
@pytest.mark.parametrize("name", sorted(MODEL_NAMES))
def test_real_squared_spectra_and_counts_match_the_complex_route(name, box, reference_spectrum):
    """The complex route's counts are those of the squared reference spectrum,
    as the estimators count it: ``_counts`` at the squared points and edges,
    and the default range from its ends padded by 1e-9 of its width."""
    model = build_model(name, delta=0.6, mu=0.9)
    nsites = box[0] * box[1]
    for spec_name in (s for n, s in _INPUTS if n == name):
        for lam in LAMS:
            case = (name, box, spec_name, lam)
            spec = _spec(model.fiber.r, spec_name, lam)
            assert _Ensemble(model, spec, lam, box, 1, SEED, 1).parity == "even", case
            H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, box, SEED))
            e = reference_spectrum(H)
            tol = TOL * float(np.abs(e).max()) ** 2
            squares = np.sort(e * e)
            e2, refused = _squared_spectrum(H, True)
            assert not refused, case
            assert e2.min() >= 0.0 and np.all(np.diff(e2) >= 0), case
            assert np.abs(e2 - squares).max() <= tol, case

            kw = dict(L=box, n_realizations=1, seed=SEED)
            real = (spectral.dos_histogram(model, spec, bins=EDGES, squared=True, **kw),
                    spectral.ids_squared_estimate(model, spec, energies=POINTS, **kw),
                    spectral.dos_histogram(model, spec, bins=16, squared=True, **kw))
            assert [x.complex_fallbacks for x in real] == [0, 0, 0], case

            got = np.rint(np.array(real[0].density) * np.diff(EDGES) * nsites)
            want = np.diff(_counts(squares, EDGES))
            ties = [i for i, x in enumerate(EDGES[1:]) if (*case, "dos", x) in TIES]
            keep = np.setdiff1d(np.arange(len(got)), ties)
            assert np.array_equal(got[keep], want[keep]), (case, got - want)
            got = np.rint(np.array(real[1].values) * nsites)
            at = _counts(squares, np.append(POINTS, 0.0))
            want = at[:-1] - at[-1]
            ties = [i for i, x in enumerate(POINTS) if (*case, "ids", x) in TIES]
            keep = np.setdiff1d(np.arange(len(got)), ties)
            assert np.array_equal(got[keep], want[keep]), (case, got - want)

            # the default range: its ends are the spectrum's, within the tolerance
            lo, hi = squares[0], squares[-1]
            pad = 1e-9 * max(hi - lo, 1.0)
            want_edges = np.linspace(lo - pad, hi + pad, 17)
            got_edges = np.array(real[2].bin_edges)
            assert np.abs(got_edges - want_edges).max() <= tol, case
            got = np.rint(np.array(real[2].density) * np.diff(got_edges) * nsites)
            want = np.diff(_counts(squares, want_edges))
            assert np.array_equal(got, want), (case, got - want)


@pytest.mark.parametrize("box", BOXES, ids=lambda b: "x".join(map(str, b)))
@pytest.mark.parametrize("name", sorted(MODEL_NAMES))
def test_real_spectra_of_h_and_their_dos_match_the_complex_route(name, box, reference_spectrum):
    """An E = sqrt(E^2) of the real route is off by about dE^2 / (2 |E|), so
    |E_real - E| |E| stays within the tolerance of the squares; the DOS
    counts are those of the reference spectrum, as the estimator counts it."""
    model = build_model(name, delta=0.6, mu=0.9)
    nsites = box[0] * box[1]
    for spec_name in (s for n, s in _INPUTS if n == name):
        for lam in LAMS:
            case = (name, box, spec_name, lam)
            spec = _spec(model.fiber.r, spec_name, lam)
            H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, box, SEED))
            e = reference_spectrum(H)
            norm = float(np.abs(e).max())
            guarded = bool(np.abs(e).min() < spectral._ORIGIN_SHIFT)
            got, fell_back = _real_spectrum(H)
            assert fell_back == guarded, case
            if not guarded:
                assert np.all(np.diff(got) >= 0) and np.array_equal(got, -got[::-1]), case
                assert np.max(np.abs(got - e) * np.abs(e)) <= TOL * norm**2, case

            kw = dict(L=box, n_realizations=1, seed=SEED)
            real = (spectral.dos_histogram(model, spec, bins=H_EDGES, **kw),
                    spectral.dos_histogram(model, spec, bins=16, **kw))
            assert [x.complex_fallbacks for x in real] == [guarded] * 2, case

            got = np.rint(np.array(real[0].density) * np.diff(H_EDGES) * nsites)
            want = np.diff(_counts(e, H_EDGES))
            ties = [i for i, x in enumerate(H_EDGES[1:]) if (*case, x) in TIES_H]
            keep = np.setdiff1d(np.arange(len(got)), ties)
            assert np.array_equal(got[keep], want[keep]), (case, got - want)

            # the default range: its ends are +-sigma_max, within 1e-12 ||H||
            pad = 1e-9 * max(e[-1] - e[0], 1.0)
            want_edges = np.linspace(e[0] - pad, e[-1] + pad, 17)
            got_edges = np.array(real[1].bin_edges)
            assert np.abs(got_edges - want_edges).max() <= TOL * norm, case
            got = np.rint(np.array(real[1].density) * np.diff(got_edges) * nsites)
            want = np.diff(_counts(e, want_edges))
            assert np.array_equal(got, want), (case, got - want)


def test_a_near_gapless_box_takes_the_complex_spectrum_of_h_where_it_must(monkeypatch,
                                                                          reference_spectrum):
    """pip+ at mu = 0 under weak W00: realizations 1 and 3 have an |E| below
    the origin shift and take the complex spectrum, 0 and 2 (smallest |E|
    1.2e-3 and 1.3e-3) the real one; the DOS counts next to 0 are the
    complex route's."""
    gapless = build_model("pip+", delta=0.3, mu=0.0)
    spec = default_spec(r=1, lam=0.05)
    guarded = []
    for seed in range(4):
        H = build_random_hamiltonian(gapless, spec, 0.05, sample_realization(spec, 16, seed))
        e, fell_back = _real_spectrum(H)
        guarded.append(fell_back)
        assert fell_back == (np.abs(reference_spectrum(H)).min() < spectral._ORIGIN_SHIFT)
        if fell_back:
            assert np.array_equal(e, reference_spectrum(H))
    assert guarded == [False, True, False, True]
    edges = np.array([-25.0, -1.0, -1e-2, -1.5e-3, -1e-3, -1e-4, 0.0,
                      1e-4, 1e-3, 1.5e-3, 1e-2, 1.0, 25.0])
    kw = dict(L=16, n_realizations=4, seed=0)
    real = spectral.dos_histogram(gapless, spec, bins=edges, **kw)
    assert real.complex_fallbacks == 2
    with _complex(monkeypatch):
        complex_ = spectral.dos_histogram(gapless, spec, bins=edges, **kw)
    assert real.to_csv() == complex_.to_csv()


def test_a_near_gapless_box_keeps_its_squares_nonnegative_and_n2_at_zero(monkeypatch,
                                                                          reference_spectrum):
    """pip+ at mu = 0 under weak W00: some realizations close the gap to
    within 1e-3, and the real route's smallest E^2 stay at or above 0, with
    the complex route's counts in the bins next to 0."""
    gapless = build_model("pip+", delta=0.3, mu=0.0)
    spec = default_spec(r=1, lam=0.05)
    smallest = []
    for seed in range(4):
        H = build_random_hamiltonian(gapless, spec, 0.05, sample_realization(spec, 16, seed))
        e2, refused = _squared_spectrum(H, True)
        assert not refused and e2.min() >= 0.0
        smallest.append(float(np.abs(reference_spectrum(H)).min()))
        assert abs(e2[0] - smallest[-1] ** 2) <= TOL * float(e2[-1])
    assert min(smallest) <= spectral._ORIGIN_SHIFT
    edges = np.array([0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 25.0])
    kw = dict(L=16, n_realizations=4, seed=0)
    real = spectral.dos_histogram(gapless, spec, bins=edges, squared=True, **kw)
    curve = spectral.ids_squared_estimate(gapless, spec, energies=(0.0, 1e-6, 1e-2), **kw)
    with _complex(monkeypatch):
        assert real.to_csv() == spectral.dos_histogram(gapless, spec, bins=edges, squared=True,
                                                       **kw).to_csv()
    assert curve.values[0] == 0.0 and curve.complex_fallbacks == 0


# ---------------------------------------------------------------------------
# the guard on Re M

PIP = build_model("pip+", delta=0.3, mu=-0.5)
# on-site W00 + 2e-13 I: off exact pairing by 4e-13, still paired under PHS_TOL
_OFF = standard_W("W00", 1) + 2e-13 * np.eye(2)


def test_an_input_off_exact_pairing_is_paired_but_takes_the_complex_route(monkeypatch):
    V = tight_binding(PIP.fiber, {(0, 0): _OFF})
    assert 0 < check_phs(V, "even").max_violation <= PHS_TOL
    spec = DisorderSpec((DisorderTerm((0, 0), _OFF),), lam=1.2)
    assert _Ensemble(PIP, spec, 1.2, 8, 3, 0, 1).parity == "even"
    kw = dict(L=8, n_realizations=3, seed=0)
    dos = spectral.dos_histogram(PIP, spec, squared=True, **kw)
    dos_h = spectral.dos_histogram(PIP, spec, **kw)
    curve = spectral.ids_squared_estimate(PIP, spec, energies=POINTS, **kw)
    assert dos.complex_fallbacks == dos_h.complex_fallbacks == curve.complex_fallbacks == 3
    with _complex(monkeypatch):
        assert dos.to_csv() == spectral.dos_histogram(PIP, spec, squared=True, **kw).to_csv()
        assert dos_h.to_csv() == spectral.dos_histogram(PIP, spec, **kw).to_csv()
        assert curve.to_csv() == spectral.ids_squared_estimate(PIP, spec, energies=POINTS,
                                                               **kw).to_csv()
    # the squared dense fallback of the inertia route, on a 16 x 16 box
    monkeypatch.setattr(spectral, "_INERTIA_TOL", 0.0)
    curve = spectral.ids_squared_estimate(PIP, spec, energies=POINTS, L=16, n_realizations=2)
    assert curve.dense_fallbacks == curve.complex_fallbacks == 2


def test_the_complex_fallbacks_reach_neither_the_csv_nor_the_manifest(tmp_path):
    path = tmp_path / "off.json"
    path.write_text(spec_to_json(DisorderSpec((DisorderTerm((0, 0), _OFF),), lam=1.2)))
    out = tmp_path / "dos.csv"
    assert main(["dos", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,lam=1.2,squared=1",
                 "--disorder", str(path), "--L", "8", "--realizations", "3",
                 "--out", str(out)]) == 0
    manifest = (tmp_path / "dos.csv.manifest.json").read_text()
    assert "fallback" not in manifest and "fallback" not in out.read_text()
    assert json.loads(manifest)["command"] == "dos"
    spec = DisorderSpec((DisorderTerm((0, 0), _OFF),), lam=1.2)
    dos = spectral.dos_histogram(PIP, spec, L=8, n_realizations=3, squared=True)
    assert dos.complex_fallbacks == 3
    assert out.read_text().endswith(dos.to_csv())

