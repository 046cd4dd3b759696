"""Band-centre resolvents of even-parity paired realizations from one real,
unpivoted factor of the Majorana image: the profiles against the complex
ResolventSolver on every even-parity catalog input, the inputs that keep the
complex route bit for bit, the guards that send a realization back to it,
and the Majorana basis W built by index arithmetic."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.sparse as sp

import bdgtools.greens as greens
from bdgtools.cli import main
from bdgtools.disorder import (
    DisorderSpec,
    DisorderTerm,
    _Ensemble,
    build_random_hamiltonian,
    default_spec,
    sample_realization,
    standard_W,
)
from bdgtools.greens import ResolventSolver, _band_centre_columns, fractional_moment_scan
from bdgtools.lattice import _Pencil
from bdgtools.models import MODEL_NAMES, build_model
from bdgtools.spectral import _MAJORANA, _majorana_basis, _majorana_image

# A real profile may differ from ResolventSolver's by this much, relative,
# at every distance (fixed before the first run).
TOL = 1e-12
# tolerances of the scan outputs that the real route moves
TAU_TOL = 1e-12  # relative, tau and its stderr
FIT_TOL = 1e-10  # absolute, rate, rate_err and r^2

_AT = {"W00": (0, 0), "W10": (1, 0), "W01": (0, 1)}
SPECS = ("W00", "W00+W10", "W01")
LAMS = (0.2, 1.2)
BOXES = ((8, 8), (12, 12), (9, 11))
EPSILONS = (1e-3, 1e-5)
SEED = 5
# the singlets, whose W00 input realizes on a 2 x 2 sector of odd parity
SINGLETS = ("did+", "did-", "dx2y2", "dxy", "s", "s-star")
# the 30 even-parity catalog inputs of tests/test_squared.py
_INPUTS = [
    (name, spec)
    for name in sorted(MODEL_NAMES)
    for spec in SPECS
    if not (name in SINGLETS and spec == "W00")
]

PIP = build_model("pip+", delta=0.3, mu=-0.5)
W00 = default_spec(r=1)


def _spec(r: int, name: str, lam: float = 0.0) -> DisorderSpec:
    return DisorderSpec(tuple(DisorderTerm(_AT[n], standard_W(n, r)) for n in name.split("+")), lam)


@pytest.mark.parametrize("box", BOXES, ids=lambda b: "x".join(map(str, b)))
@pytest.mark.parametrize("name", sorted(MODEL_NAMES))
def test_real_profiles_match_the_resolvent_solver(name, box):
    model = build_model(name, delta=0.6, mu=0.9)
    n0 = greens._center(box)
    for spec_name in (s for n, s in _INPUTS if n == name):
        for lam in LAMS:
            spec = _spec(model.fiber.r, spec_name, lam)
            ens = _Ensemble(model, spec, lam, box, 1, SEED, 1)
            assert ens.parity == "even"
            dists = np.arange(0, min(box) // 2 - ens.reach + 1)
            H = build_random_hamiltonian(model, spec, lam, sample_realization(spec, box, SEED))
            for eps in EPSILONS:
                case = (name, box, spec_name, lam, eps)
                z = complex(0.0, -eps)  # the scan solves at conj(z)
                cols = _band_centre_columns(H, z, n0)
                assert cols is not None, case
                real = greens._norm_profile(H, cols, n0, dists)
                ref = greens._norm_profile(H, ResolventSolver(H, z).columns(n0), n0, dists)
                assert np.all(np.abs(real - ref) <= TOL * ref), (case, np.abs(real / ref - 1).max())


def test_the_image_pencil_at_a_band_centre_shift_keeps_every_pivot_on_the_diagonal():
    """y - A in the dissection order, with no row swap: its symmetric part
    y I is definite, so at pivot threshold 0 no pivot leaves the diagonal,
    and it fills less than the swapped layout."""
    spec = default_spec(r=1, lam=0.5)
    H = build_random_hamiltonian(PIP, spec, 0.5, sample_realization(spec, (16, 16), 1))
    A = _majorana_image(H)
    pencil = _Pencil(H, A)
    assert np.array_equal(pencil.q, pencil.p)
    lu = pencil.factor(-1e-3, 0.0)
    assert np.array_equal(lu.perm_r, np.arange(H.dim))
    swapped = _Pencil(H, A, swap=True).factor(-1e-3, 0.01)
    assert lu.L.nnz + lu.U.nnz < swapped.L.nnz + swapped.U.nnz
    b = np.random.default_rng(3).normal(size=H.dim)
    x = pencil.solve(lu, b)
    norm = 1e-3 + abs(A).sum(axis=1).max()  # ||y - A||_inf
    assert np.abs(-1e-3 * x - A @ x - b).max() <= 1e-12 * (norm * np.abs(x).max() + np.abs(b).max())


# ---------------------------------------------------------------------------
# the scan: which realizations take which route, and what is counted

KW = dict(L=16, n_realizations=8, seed=3)


def _no_real_route(*args):
    raise AssertionError("the band-centre route was taken")


def _complex_scan(monkeypatch, *args, **kw):
    """The scan with every realization on ResolventSolver, as before the
    band-centre route existed."""
    with monkeypatch.context() as m:
        m.setattr(greens, "_band_centre_columns", lambda H, z, n0: None)
        return fractional_moment_scan(*args, **kw)


def _same_bits(a, b) -> bool:
    fields = ("distances", "tau", "tau_stderr", "rate", "rate_err", "amplitude", "r_squared",
              "fit_window", "n_realizations")
    return all(np.asarray(getattr(a, f)).tobytes() == np.asarray(getattr(b, f)).tobytes()
               for f in fields)


def _close(a, b) -> bool:
    """Within the tolerances the real route may move a scan by, with the
    fit window and the realization count equal."""
    return (a.fit_window == b.fit_window and a.n_realizations == b.n_realizations
            and np.all(np.abs(a.tau - b.tau) <= TAU_TOL * b.tau)
            and np.all(np.abs(a.tau_stderr - b.tau_stderr) <= TAU_TOL * b.tau_stderr)
            and all(abs(getattr(a, f) - getattr(b, f)) <= FIT_TOL
                    for f in ("rate", "rate_err", "r_squared")))


def test_a_band_centre_scan_takes_the_real_route_for_every_realization(monkeypatch):
    args = (PIP, W00, 0.3, 1e-3j)
    est = fractional_moment_scan(*args, **KW)
    assert est.complex_fallbacks == 0
    ref = _complex_scan(monkeypatch, *args, **KW)
    assert ref.complex_fallbacks == KW["n_realizations"]
    assert _close(est, ref)


@pytest.mark.parametrize("z", [0.1 + 1e-3j, 1e-3 + 1e-3j, 0.0], ids=["E=0.1", "E=1e-3", "eps=0"])
def test_off_the_band_centre_every_realization_keeps_the_complex_route(z, monkeypatch):
    args = (PIP, W00, 0.3, z)
    ref = _complex_scan(monkeypatch, *args, **KW)
    monkeypatch.setattr(greens, "_band_centre_columns", _no_real_route)
    est = fractional_moment_scan(*args, **KW)
    assert est.complex_fallbacks == KW["n_realizations"]
    assert _same_bits(est, ref)


@pytest.mark.parametrize("model, spec, route, parity", [
    (build_model("did+", delta=1.0, mu=2.0), _spec(2, "W00"), "paired", "odd"),  # a singlet sector
    (PIP, DisorderSpec((DisorderTerm((0, 0), np.eye(2)),)), "general", None),  # on-site W = 1
], ids=["odd parity", "general"])
def test_an_odd_parity_or_general_scan_keeps_the_complex_route(model, spec, route, parity,
                                                               monkeypatch):
    ens = _Ensemble(model, spec, 0.3, 16, 8, 3, 1)
    assert (ens.route, ens.parity) == (route, parity)
    args = (model, spec, 0.3, 1e-3j)
    ref = _complex_scan(monkeypatch, *args, **KW)
    monkeypatch.setattr(greens, "_band_centre_columns", _no_real_route)
    est = fractional_moment_scan(*args, **KW)
    assert est.complex_fallbacks == KW["n_realizations"]
    assert _same_bits(est, ref)


class _SingularImagePencil(_Pencil):
    """A pencil whose real factors are singular; complex ones factor as ever."""

    def factor(self, z, threshold):
        if not isinstance(z, complex):
            raise RuntimeError("Factor is exactly singular")
        return super().factor(z, threshold)


def _scaled_image(H):
    A = _majorana_image(H)
    return None if A is None else 1.001 * A


@pytest.mark.parametrize("patch", [
    ("_majorana_image", lambda H: None),
    ("_majorana_image", _scaled_image),  # certified against A alone, it would pass
    ("_Pencil", _SingularImagePencil),
], ids=["refused image", "wrong image", "singular factor"])
def test_a_refused_realization_repeats_the_complex_route_and_is_counted(patch, monkeypatch):
    args = (PIP, W00, 0.3, 1e-3j)
    ref = _complex_scan(monkeypatch, *args, **KW)
    monkeypatch.setattr(greens, *patch)
    est = fractional_moment_scan(*args, **KW)
    assert est.complex_fallbacks == KW["n_realizations"]
    assert _same_bits(est, ref)


def test_a_rejected_certificate_refuses_the_real_columns(monkeypatch):
    spec = default_spec(r=1, lam=0.5)
    H = build_random_hamiltonian(PIP, spec, 0.5, sample_realization(spec, (12, 12), 2))
    assert _band_centre_columns(H, -1e-3j, (6, 6)) is not None
    monkeypatch.setattr(greens, "RESIDUAL_TOL", 0.0)
    assert _band_centre_columns(H, -1e-3j, (6, 6)) is None


def test_the_complex_fallbacks_reach_neither_the_csv_nor_the_manifest(tmp_path, monkeypatch):
    out = tmp_path / "fmm.csv"
    argv = ["fmm-decay", "--model", "pip+", "--params", "delta=0.3,mu=-0.5,lam=0.3,E=0,eps=1e-3",
            "--disorder", "W00", "--L", "16", "--realizations", "8", "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    manifest = (tmp_path / "fmm.csv.manifest.json").read_text()
    assert "fallback" not in manifest and "fallback" not in out.read_text()
    assert json.loads(manifest)["command"] == "fmm-decay"
    monkeypatch.setattr(greens, "_majorana_image", lambda H: None)
    ref = tmp_path / "ref.csv"
    assert main(argv + ["--out", str(ref)]) == 0
    assert (tmp_path / "ref.csv.manifest.json").read_text() == manifest


# ---------------------------------------------------------------------------
# the Majorana basis


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("nsites", [1, 7, 64])
def test_the_majorana_basis_is_the_kron_product_entry_for_entry(nsites, r):
    want = sp.kron(sp.identity(nsites), sp.kron(_MAJORANA, sp.identity(r)), format="csr")
    got = _majorana_basis(nsites, r)
    assert got.shape == want.shape
    for a, b in ((got.indices, want.indices), (got.indptr, want.indptr)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.data.dtype == want.data.dtype
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))
