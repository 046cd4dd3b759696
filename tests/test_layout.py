"""The index layout of an ensemble call (``lattice._Layout``): the Majorana
image and the sparse pencils of every realization, gathered through it,
against the routes they replaced, written out here as references: the sparse
product ``(W @ H) @ W*`` and the pencil built from COO.  Both are compared
bit for bit, the image in its stored order too, since ``A @ x`` sums in
stored order."""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from bdgtools import lattice, spectral
from bdgtools.disorder import (
    DisorderRealization,
    _Ensemble,
    _realization_map,
    DisorderSpec,
    DisorderTerm,
    build_random_hamiltonian,
    default_spec,
    sample_realization,
    standard_W,
)
from bdgtools.greens import _band_centre_columns
from bdgtools.lattice import _dissection_order, _Pencil
from bdgtools.models import MODEL_NAMES, build_model
from bdgtools.spectral import _MAJORANA_TOL, _majorana_basis, _majorana_image

_AT = {"W00": (0, 0), "W10": (1, 0), "W01": (0, 1)}
SPECS = ("W00", "W00+W10", "W01")
LAMS = (0.2, 1.2)
BOXES = (((8, 8), "periodic"), ((12, 12), "periodic"), ((9, 11), "periodic"), ((8, 10), "open"))
SINGLETS = ("did+", "did-", "dx2y2", "dxy", "s", "s-star")
# the 30 even-parity catalog inputs (a singlet's W00 input realizes on an odd sector)
EVEN = [(name, spec) for name in sorted(MODEL_NAMES) for spec in SPECS
        if not (name in SINGLETS and spec == "W00")]
# the shifts of H's pencil, and the real shifts of the image's (its data is real)
ZS = (0.3 + 1e-3j, -1e-3j, 0.0)
YS = (0.3, -1e-3, 0.0)


def _spec(r: int, name: str) -> DisorderSpec:
    return DisorderSpec(tuple(DisorderTerm(_AT[n], standard_W(n, r)) for n in name.split("+")))


def _reference_image(H):
    """``spectral._majorana_image`` as the sparse product it was."""
    W = _majorana_basis(H.nsites, H.fiber.r)
    M = W @ H.matrix @ W.conj().T
    if np.abs(M.data.real).max(initial=0.0) > _MAJORANA_TOL * np.abs(M.data).max(initial=0.0):
        return None
    return 0.5 * M.imag


class _ReferencePencil:
    """``lattice._Pencil`` as it was built, from COO."""

    def __init__(self, H, image=None, swap=False):
        n = H.dim
        self.p = _dissection_order(H.L, H.bc, H.fiber.dim, H.range)
        matrix = H.matrix if image is None else image
        self.q = self.p.reshape(-1, 2, H.fiber.r)[:, ::-1].ravel() if swap else self.p
        diag = np.arange(n)
        row, column = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
        row[self.q] = diag
        column[self.p] = diag
        coo = matrix.tocoo()
        self.A = sp.csc_matrix(
            (np.concatenate([0.0 - coo.data, np.zeros(n)]),
             (np.concatenate([row[coo.row], diag]), np.concatenate([column[coo.col], diag]))),
            shape=(n, n),
        )
        self.slots = np.flatnonzero(self.A.indices == np.repeat(diag, np.diff(self.A.indptr)))
        self.h = np.asarray(matrix[self.q, self.p]).ravel()

    at = _Pencil.at


def _same(a, b) -> bool:
    """The same sparse matrix in format, index dtypes, stored order and data bits."""
    return (a.format == b.format and a.shape == b.shape
            and a.indptr.dtype == b.indptr.dtype and a.indices.dtype == b.indices.dtype
            and a.data.dtype == b.data.dtype
            and np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data.view(np.uint8), b.data.view(np.uint8)))


def _same_pencil(got, want, z) -> bool:
    return (_same(got.at(z), want.at(z)) and np.array_equal(got.slots, want.slots)
            and np.array_equal(got.p, want.p) and np.array_equal(got.q, want.q)
            and np.array_equal(got.h.view(np.uint8), want.h.view(np.uint8)))


def _in_one_call(realizations, fn) -> list:
    """``fn`` of each realization as one ensemble call maps them: sharing the
    layout of the first that asks for it."""
    token = lattice._CALL_LAYOUT.set(lattice._CallLayout())
    try:
        return [fn(H) for H in realizations]
    finally:
        lattice._CALL_LAYOUT.reset(token)


def _check(H) -> None:
    """H's pencil, image and image pencils against the references."""
    for z in ZS:
        assert _same_pencil(_Pencil(H), _ReferencePencil(H), z), z
    A, want = _majorana_image(H), _reference_image(H)
    assert (A is None) == (want is None)
    if A is not None:
        assert _same(A, want)
        for swap in (False, True):
            for y in YS:
                assert _same_pencil(_Pencil(H, A, swap), _ReferencePencil(H, want, swap), y), (swap, y)


def _realizations(model, spec, lam, box, bc, seeds=(11, 12, 13)):
    return [build_random_hamiltonian(model, spec, lam, sample_realization(spec, box, seed), bc=bc)
            for seed in seeds]


@pytest.mark.parametrize("box, bc", BOXES, ids=lambda b: b if isinstance(b, str) else "x".join(map(str, b)))
@pytest.mark.parametrize("name, spec_name", EVEN)
def test_images_and_pencils_repeat_the_routes_they_replaced(name, spec_name, box, bc):
    model = build_model(name, delta=0.6, mu=0.9)
    spec = _spec(model.fiber.r, spec_name)
    for lam in LAMS:
        realizations = _realizations(model, spec, lam, box, bc)
        assert _majorana_image(realizations[0]) is not None
        _in_one_call(realizations, _check)


@pytest.mark.parametrize("name", sorted(MODEL_NAMES))
def test_the_complex_pencil_of_every_model(name):
    model = build_model(name, delta=0.6, mu=0.9)
    for spec_name in SPECS:
        spec = _spec(model.fiber.r, spec_name)
        for box, bc in BOXES:
            def pencils(H):
                for z in ZS:
                    assert _same_pencil(_Pencil(H), _ReferencePencil(H), z), (spec_name, box, z)

            _in_one_call(_realizations(model, spec, 0.2, box, bc), pencils)


# ---------------------------------------------------------------------------
# realizations that the call's layout does not serve

PX = build_model("px", delta=0.5, mu=0.25)
PX_SPEC = _spec(2, "W00+W10")
PX_LAM = 0.5


def _forced(v: float, seed: int = 11, box=(8, 8), l=(3, 4)):
    """A px realization with the coupling of the class ((1, 0), l) set to v.

    W10 couples the halves of a site to those of its neighbour across j =
    (1, 0), where px's own hop stores nothing, so v = 0 drops those entries
    of H; v = 1 makes lam v = 0.5 cancel px's -0.5 in two entries of
    T = W H exactly, and the product drops them."""
    values = dict(sample_realization(PX_SPEC, box, seed).values)
    values[((1, 0), l)] = v
    values[((-1, 0), ((l[0] + 1) % box[0], l[1]))] = v  # its mirror, the same draw
    return build_random_hamiltonian(PX, PX_SPEC, PX_LAM, DisorderRealization(box, values, seed))


def _count(monkeypatch, cls) -> list:
    """A list that grows by one for every instance of ``cls`` made."""
    made = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_a_realization_with_another_pattern_derives_its_own_layout():
    plain = _realizations(PX, PX_SPEC, PX_LAM, (8, 8), "periodic", (11, 12))
    other = _forced(0.0)
    assert other.matrix.nnz < plain[0].matrix.nnz == plain[1].matrix.nnz
    for order in ([plain[0], other, plain[1]], [other, plain[0], plain[1]]):
        def check(H):
            _check(H)
            return lattice._layout(H)

        layouts = dict(zip(map(id, order), _in_one_call(order, check)))
        shared = layouts[id(order[0])]  # the call's: of the first realization that asked
        for H in order:
            assert layouts[id(H)].holds(H)
            assert (layouts[id(H)] is shared) == shared.holds(H)


def test_an_image_entry_that_cancels_exactly_derives_its_own_map(monkeypatch):
    plain, cancel = _realizations(PX, PX_SPEC, PX_LAM, (8, 8), "periodic", (11,))[0], _forced(1.0)
    assert np.array_equal(cancel.matrix.indices, plain.matrix.indices)
    W = _majorana_basis(plain.nsites, 2)
    assert (W @ cancel.matrix).nnz < (W @ plain.matrix).nnz  # entries of T = W H cancel
    maps = _count(monkeypatch, spectral._ImageMap)
    for order in ([plain, cancel, plain], [cancel, plain, cancel]):
        maps.clear()
        _in_one_call(order, _check)
        assert len(maps) == 2  # the call's, and one for the realization it does not serve


@pytest.mark.parametrize("threads", [1, 6])
def test_one_layout_per_call_and_none_kept_across_calls(threads, monkeypatch):
    # with more pool threads than cores and a short switch interval, every
    # thread asks for the call's layout, map and gather at about once: each
    # must still be derived once, and every realization's columns repeat
    # the columns of a single thread
    model, spec = build_model("pip+", delta=0.3, mu=0.5), default_spec(r=1)
    ens = _Ensemble(model, spec, 0.5, (12, 12), 12, 3, threads)
    want = _realization_map(lambda H: _band_centre_columns(H, -1e-3j, (6, 6)), replace(ens, threads=1))
    layouts = _count(monkeypatch, lattice._Layout)
    maps = _count(monkeypatch, spectral._ImageMap)
    gathers = _count(monkeypatch, lattice._PencilGather)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for calls in (1, 2):
            got = _realization_map(lambda H: _band_centre_columns(H, -1e-3j, (6, 6)), ens)
            assert all(np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(got, want))
            assert (len(layouts), len(maps), len(gathers)) == (calls, calls, calls)
    finally:
        sys.setswitchinterval(interval)
    assert lattice._CALL_LAYOUT.get() is None
