"""Integrated density of states and DOS histograms on finite volumes.

The IDS is normalized so that N(0) = 0: for E >= 0 it counts eigenvalues per
site in (0, E], for E < 0 it is minus the count in (E, 0].  With that
convention the particle-hole symmetry of the spectrum reads

    N(E) = -N(-E)           and           N(E) = N2(E^2) / 2   (E >= 0)

where N2 is the IDS of the squared operator.  Both identities are exact in
the infinite-volume limit and hold within Monte-Carlo error at finite L.

Eigenvalues within 1e-12 of an interval or bin edge are assigned to the
lower interval; this fixed tie-break keeps every count reproducible.

The IDS needs only counts, so a particle-hole paired ensemble on a box of at
least 256 sites counts without a spectrum.  By Sylvester's law of inertia the
number of eigenvalues of H below y is the number of positive pivots of an
LDL* factor of y - H (Parlett, *The Symmetric Eigenvalue Problem*, ch. 3);
each count is certified or the realization is diagonalized after all.

An SU(2)-singlet ensemble whose disorder keeps the two 2x2 sectors apart
(``disorder._Ensemble.multiplicity`` 2) is diagonalized or counted on one
sector, and every eigenvalue or count of it stands for two.

A squared spectrum of a paired ensemble with even parity (C = K, class D of
Altland and Zirnbauer, Phys. Rev. B 55, 1142 (1997)) is real.  In the
Majorana basis W = (1/sqrt 2)[[1, 1], [i, -i]] on each fiber (W^T W = K),
M = W H W* is i A with A real antisymmetric, so H^2 is unitarily equivalent
to the real symmetric A^T A, diagonalized at about a quarter of the cost of
the complex H.  Its eigenvalues are the E^2 to eps ||H||^2 absolute, as the
squares of the complex eigenvalues are, so a count differs from the complex
route's only when an E^2 lies within rounding of a shifted edge.  A DOS
histogram of H takes its spectrum as +-sqrt of the same one, unless an
|E| lies below 1e-3, where the square root loses too much.  A realization
whose Re M is not at rounding level is diagonalized as it is.

M is not formed by a sparse product: the layout of the realization's call
(``lattice._Layout``) holds :class:`_ImageMap`, a map from H's stored data to
M's, with the stored order and the rounding of SciPy's ``(W @ H) @ W*``.  It
is derived once per call, from the first realization that asks; a
realization whose pattern, or whose exact zeros of W H and M, differ from
that one's derives its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

from .disorder import DisorderSpec, _Ensemble, _mean_stderr, _realization_map
from .lattice import (
    FiniteVolumeOperator,
    TightBindingOperator,
    _box_fibers,
    _by_column,
    _layout,
    _Pencil,
)

__all__ = [
    "EDGE_TOL",
    "IdsCurve",
    "DosHistogram",
    "ids_estimate",
    "ids_squared_estimate",
    "dos_histogram",
]

#: Eigenvalues this close to an interval edge count for the lower interval.
EDGE_TOL = 1e-12

#: A paired ensemble counts by inertia on boxes of at least this many sites
#: (L >= 16); below it one count costs about as much as a dense solve.
_COUNT_MIN_SITES = 256

#: Largest seeded backward error ||Ax - b||_1 / (||A||_1 ||x||_1 + ||b||_1) of
#: the factor behind an accepted count, with A = y - H.
_INERTIA_TOL = 1e-10

#: The origin shift eta of the count route.  On a paired H, a certified count
#: of n/2 eigenvalues below -eta leaves n/2 above +eta, so none lies in
#: [-eta, eta]: every shift inside it counts n/2 with no factor, and the
#: unpivoted factor is never asked near 0, where its backward error is worst.
_ORIGIN_SHIFT = 1e-3


@dataclass(frozen=True)
class IdsCurve:
    """IDS samples N(E) with per-point Monte-Carlo standard errors.

    ``dense_fallbacks`` counts the realizations of the inertia route whose
    counts were not certified and came from the dense spectrum instead;
    ``complex_fallbacks`` those whose squared spectrum should have come from
    the real Majorana route but whose Re M was above rounding.  Neither is
    written to the CSV or to the manifest."""

    energies: tuple
    values: tuple
    stderr: tuple
    dense_fallbacks: int = 0
    complex_fallbacks: int = 0

    def to_csv(self) -> str:
        lines = ["E,N,stderr"]
        for e, v, s in zip(self.energies, self.values, self.stderr):
            lines.append("%.17g,%.17g,%.17g" % (e, v, s))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DosHistogram:
    """Histogram estimate of the DOS (states per site per energy).

    ``complex_fallbacks`` counts the realizations of an even-parity paired
    ensemble that took the complex spectrum instead of the real Majorana
    route (:func:`dos_histogram`); it is written neither to the CSV nor to
    the manifest."""

    bin_edges: tuple
    density: tuple
    total_weight: float
    stderr: tuple = ()
    complex_fallbacks: int = 0

    def to_csv(self) -> str:
        lines = ["bin_lo,bin_hi,rho"]
        for i, rho in enumerate(self.density):
            lines.append(
                "%.17g,%.17g,%.17g" % (self.bin_edges[i], self.bin_edges[i + 1], rho)
            )
        return "\n".join(lines) + "\n"


def _counts(eigs: np.ndarray, x) -> np.ndarray:
    """#eigenvalues at or below x + EDGE_TOL for each x.  The one counting rule:
    the IDS is the count at E minus the count at 0, a DOS bin the difference
    over its edges, so both count (a + EDGE_TOL, b + EDGE_TOL]."""
    return np.searchsorted(eigs, np.asarray(x, dtype=float) + EDGE_TOL, side="right")


def _realization_spectra(ens: _Ensemble) -> list:
    """The sorted spectrum of every realization.  A ``"bloch"`` ensemble is
    the one periodic box, diagonalized fiber by fiber from its Bloch stack
    (exact: the box is block-diagonal in momentum); any other is
    diagonalized densely, realization by realization.  An SU(2)-reduced
    ensemble diagonalizes one sector and lists each of its eigenvalues
    ``ens.multiplicity`` times, once per sector."""
    if ens.route == "bloch":
        return [np.sort(np.linalg.eigvalsh(_box_fibers(ens.model, ens.box)), axis=None)]
    return _realization_map(lambda H: np.repeat(H.eigenvalues(), ens.multiplicity), ens)


def _require_finite(energies) -> None:
    if not np.all(np.isfinite(energies)):
        raise ValueError(f"energies must be finite, got {tuple(energies)}")


#: The Majorana basis change on one particle-hole pair, times sqrt 2.
_MAJORANA = np.array([[1.0, 1.0], [1j, -1j]])

#: Largest max|Re M| / max|M| of the Majorana image M of an even-parity
#: paired H that is taken for rounding.
_MAJORANA_TOL = 1e-14


def _majorana_block(r: int) -> np.ndarray:
    """sqrt 2 times the Majorana basis change on one fiber, _MAJORANA (x) I_r,
    with the signed zeros of ``sp.kron``: its products, times the 1.0 of the
    outer identity."""
    return (1.0 * (_MAJORANA[:, None, :, None] * np.eye(r)[None, :, None, :])).reshape(2 * r, 2 * r)


def _majorana_basis(nsites: int, r: int) -> sp.csr_matrix:
    """I_sites (x) _MAJORANA (x) I_r in CSR, by index arithmetic: the matrix,
    stored entries and bits of ``sp.kron(sp.identity(nsites),
    sp.kron(_MAJORANA, sp.identity(r)), format="csr")``, which stores the
    whole block of every site when I_r is at least half full (r <= 2) and its
    two nonzeros per row otherwise."""
    d = 2 * r
    if r <= 2:
        cols = np.tile(np.arange(d), (d, 1))
    else:
        k = np.arange(d) % r
        cols = np.stack([k, r + k], axis=1)
    per = cols.shape[1]
    data = np.take_along_axis(_majorana_block(r), cols, axis=1)
    indices = (d * np.arange(nsites)[:, None, None] + cols).astype(np.int32)
    n = nsites * d
    indptr = np.arange(0, n * per + 1, per, dtype=np.int32)
    return sp.csr_matrix((np.tile(data.ravel(), nsites), indices.ravel(), indptr), shape=(n, n))


class _ImageMap:
    """The map from the stored data of a finite volume H to that of
    M = 2 W H W*, W of :func:`_majorana_basis`, as SciPy's product
    ``(W @ H) @ W*`` stores and rounds it.

    W is site-local, w on every site, so M's site block (s, s') is
    w H(s, s') w*, on the site blocks that H stores.  Every entry of w is 0,
    +-1 or +-i and every row of it holds two nonzero ones, so each entry of
    T = W H and of M = T W* is the sum of two exact products, rounded once
    whatever the order; they are computed here block by block, with H's
    blocks gathered from its data (``source``: 1 + the index of each block
    entry in H's data, 0 where H stores none).  What the data cannot set is
    the pattern and the stored order of M: ``csr_matmat`` lists the columns
    of a row by last first touch and drops the sums that are exact zeros.
    The product runs over the stored entries of W's row (the rows of H it
    combines) and then of T's row in their stored order, so an entry of T is
    stored later the earlier its column first comes up among those rows of
    H (``first``), and an entry of M is stored by the last-stored entry of T
    that touches it, then by its place in that row of W*.  Which entries of
    T and M are exact zeros is taken from the realization the map is derived
    from (``t_nonzero``, ``m_nonzero``); M's pattern is ``indptr``,
    ``indices`` and ``slots`` are the block entries it stores, in order."""

    def __init__(self, H: FiniteVolumeOperator):
        m, d, n = H.matrix, H.fiber.dim, H.dim
        local = _majorana_basis(1, H.fiber.r)
        self.w = local.toarray()
        stored = np.zeros((d, d), dtype=bool)  # W's row a stores column c, zero or not
        stored[np.repeat(np.arange(d), np.diff(local.indptr)), local.indices] = True
        # the site blocks (s, t) that H stores, numbered; blocks are laid out last
        row = np.repeat(np.arange(n), np.diff(m.indptr))
        indptr, s, at = _by_column(m.indptr[::d], m.indices // d, H.nsites)
        t = np.repeat(np.arange(H.nsites), np.diff(indptr))
        head = np.ones(len(s), dtype=bool)
        head[1:] = (s[1:] != s[:-1]) | (t[1:] != t[:-1])
        block = np.empty(len(at), dtype=np.intp)
        block[at] = np.cumsum(head) - 1
        s, t = s[head], t[head]
        nnz = len(m.indices)
        slot = ((row % d) * d + m.indices % d) * len(s) + block
        self.source = np.zeros(d * d * len(s), dtype=np.intp)
        self.source[slot] = np.arange(1, nnz + 1)
        # where in the product's loop over row (s, a) of W each column of H's rows s d + c
        # comes up: the rows that W's row stores, one after the other
        lens = np.diff(m.indptr).reshape(-1, 1, d) * stored  # (site, a, c)
        offset = (np.cumsum(lens, axis=2) - lens)[s].transpose(1, 2, 0)
        place = np.full(len(self.source), -1)
        place[slot] = np.arange(nnz) - m.indptr[row]
        place = place.reshape(d, d, -1)  # (c, column, block)
        touched = stored[:, :, None, None] & (place >= 0)
        first = np.where(touched, offset[:, :, None] + place, nnz).min(axis=1)  # (a, k, block)
        T = self._left(m.data)
        self.t_nonzero = T != 0
        # M's entry (a, b) is listed by the entry (a, k) of T that touches it last in the
        # stored order of T's row, then by the rank of b in row k of W*
        last = np.full(T.shape, -1)
        rank = np.zeros(T.shape, dtype=np.intp)
        ranks = np.cumsum(stored, axis=0) - 1  # of each column b in row k of W*, at [b, k]
        for k in range(d):
            touch = np.where(self.t_nonzero[:, None, k] & stored[:, k, None], first[:, None, k], -1)
            later = touch > last
            last = np.where(later, touch, last)
            rank = np.where(later, ranks[:, k, None], rank)
        rows = np.broadcast_to(s * d + np.arange(d)[:, None, None], T.shape).ravel()
        cols = np.broadcast_to(t * d + np.arange(d)[:, None], T.shape).ravel()
        key = (rows * (nnz + 1) + last.ravel()) * d + d - 1 - rank.ravel()
        self.m_nonzero = self._right(T) != 0
        kept = np.flatnonzero(self.m_nonzero)
        self.slots = kept[np.argsort(key[kept])]
        self.indptr = np.r_[0, np.cumsum(np.bincount(rows[self.slots], minlength=n))].astype(np.int32)
        self.indices = cols[self.slots].astype(np.int32)

    def _left(self, data: np.ndarray) -> np.ndarray:
        """The blocks of T = W H, from H's data, as an (a, k, block) array."""
        d = len(self.w)
        values = np.empty(len(data) + 1, dtype=complex)
        values[0] = 0.0
        values[1:] = data
        blocks = values[self.source].reshape(d, d, -1)
        T = np.zeros(blocks.shape, dtype=complex)
        for c in range(d):
            T += self.w[:, c, None, None] * blocks[c]
        return T

    def _right(self, T: np.ndarray) -> np.ndarray:
        """The blocks of M = T W*."""
        M = np.zeros(T.shape, dtype=complex)
        for k in range(len(self.w)):
            M += T[:, k, None] * self.w[:, k].conj()[:, None]
        return M

    def apply(self, data: np.ndarray) -> np.ndarray | None:
        """The stored data of M, or None when an entry of T or M is an exact
        zero where it was not in the map's realization, or the reverse: the
        product would then store another pattern."""
        T = self._left(data)
        if not np.array_equal(T != 0, self.t_nonzero):
            return None
        M = self._right(T)
        if not np.array_equal(M != 0, self.m_nonzero):
            return None
        return M.ravel()[self.slots]


def _majorana_image(H: FiniteVolumeOperator) -> sp.csr_matrix | None:
    """The real antisymmetric A with W H W* = i A, W the Majorana basis
    change I_sites (x) (1/sqrt 2)[[1, 1], [i, -i]] (x) I_r, or None when
    Re(W H W*) is above rounding: H is then not paired with C = W^T W = K.

    It is formed as M = 2 W H W* and A = Im M / 2, which rounds only in the
    sums of M, by the :class:`_ImageMap` of H's layout
    (``lattice._layout``): the map of the first realization of the call that
    asked for one, or, when H's exact zeros differ from that realization's,
    one derived from H by the same code."""
    layout = _layout(H)
    image = layout.part("image", lambda: _ImageMap(H))
    M = image.apply(H.matrix.data)
    if M is None:
        image = _ImageMap(H)
        M = image.apply(H.matrix.data)
    real = np.abs(M.real).max(initial=0.0)
    if real > 0.0 and real > _MAJORANA_TOL * np.abs(M).max():
        return None
    # "+ 0.0": the product's sums start from +0, so none of them is -0
    return sp.csr_matrix((0.5 * (M.imag + 0.0), image.indices.copy(), image.indptr.copy()),
                         shape=H.matrix.shape)


def _real_squares(H: FiniteVolumeOperator) -> np.ndarray | None:
    """The sorted spectrum of the real symmetric A^T A of
    :func:`_majorana_image`, clamped at 0 as H^2 is positive semidefinite,
    or None when the image is refused."""
    A = _majorana_image(H)
    if A is None:
        return None
    return np.maximum(np.linalg.eigvalsh((A.T @ A).toarray()), 0.0)


def _squared_spectrum(H: FiniteVolumeOperator, even: bool) -> tuple[np.ndarray, bool]:
    """The sorted spectrum of H^2 of one realization, and whether the real
    route was refused.  With ``even`` (a paired H of even parity) it is
    :func:`_real_squares`; otherwise, or when the image is refused, the
    squares of the complex spectrum of H."""
    e2 = _real_squares(H) if even else None
    if e2 is not None:
        return e2, False
    e = H.eigenvalues()
    return np.sort(e * e), even


def _real_spectrum(H: FiniteVolumeOperator) -> tuple[np.ndarray, bool]:
    """The sorted spectrum of a paired H of even parity, and whether it took
    the complex route.  The spectrum of i A is +-sigma, and each sigma^2 is a
    double eigenvalue of :func:`_real_squares`, so one of each pair gives the
    sigma.  An E = sqrt(E^2) is off by about eps ||H||^2 / (2 |E|), which
    grows without bound towards 0; a realization with a sigma below
    :data:`_ORIGIN_SHIFT` (where it is about 1e-13 ||H||^2) or a
    refused image takes the complex spectrum of H instead."""
    e2 = _real_squares(H)
    if e2 is not None:
        sigma = np.sqrt(e2[::2])
        if sigma[0] >= _ORIGIN_SHIFT:
            return np.concatenate([-sigma[::-1], sigma]), False
    return H.eigenvalues(), True


def _spectra(ens: _Ensemble, energies, squared: bool, real: bool = False) -> tuple[list, int]:
    """Sorted spectra of H, or of H^2 with ``squared``, one per realization,
    and how many realizations took the complex route where a real one was
    asked for.  A paired ensemble of even parity takes H^2 from the real
    route (:func:`_squared_spectrum`), and with ``real`` H too
    (:func:`_real_spectrum`), which pairs it by construction; any other
    squares its spectrum, with no second diagonalization.  ``energies``
    (IDS energies or a DOS range) must be finite."""
    _require_finite(energies)
    if ens.parity == "even" and (squared or real):
        one = (lambda H: _squared_spectrum(H, True)) if squared else _real_spectrum
        rows = _realization_map(one, ens)
        return [np.repeat(e, ens.multiplicity) for e, _ in rows], sum(r for _, r in rows)
    spectra = _realization_spectra(ens)
    if squared:
        spectra = [np.sort(e * e) for e in spectra]
    return spectra, 0


class _Inertia:
    """Certified counts of the eigenvalues of one finite volume H below a
    shift y, from the pivots of an LDL* factor of y - H: its positive pivots,
    as many as the negative pivots of H - y.

    Every shift factors the one :class:`~bdgtools.lattice._Pencil` of H,
    which rewrites only the diagonal.
    """

    def __init__(self, H: FiniteVolumeOperator):
        n = H.dim
        self.pencil = pencil = _Pencil(H)
        self.identity = np.arange(n)
        off = np.abs(pencil.A.data)
        off[pencil.slots] = 0.0
        cols = np.repeat(self.identity, np.diff(pencil.A.indptr))
        self.off_norms = np.bincount(cols, off, minlength=n)  # column sums off the diagonal
        rng = np.random.default_rng(0)
        self.b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def below(self, y: float) -> int | None:
        """The number of eigenvalues below y, or None when the factor is not
        certified: a pivot off the diagonal, an exactly singular y - H, or a
        backward error above :data:`_INERTIA_TOL`."""
        try:
            # Pivot threshold 0: the count is read off U = D L* of A = L U,
            # which is a congruence only while every pivot is A's diagonal
            # entry.  A threshold above 0 (ResolventSolver's 0.01) lets SuperLU
            # trade a small diagonal pivot for a row swap, and the signs of
            # U's diagonal then say nothing about the inertia.
            lu = self.pencil.factor(y, 0.0)
        except RuntimeError as err:
            if "exactly singular" not in str(err):
                raise
            return None
        if not (np.array_equal(lu.perm_r, self.identity)
                and np.array_equal(lu.perm_c, self.identity)):
            return None
        x = lu.solve(self.b)
        norm = float(np.max(self.off_norms + np.abs(y - self.pencil.h)))
        residual = np.abs(self.pencil.A @ x - self.b).sum()
        if not residual <= _INERTIA_TOL * (norm * np.abs(x).sum() + np.abs(self.b).sum()):
            return None
        return int(np.count_nonzero(lu.U.diagonal().real > 0))


def _inertia_counts(H: FiniteVolumeOperator, at, squared: bool) -> np.ndarray | None:
    """What ``_counts`` gives at the points ``at`` on the sorted spectrum of a
    paired H (of H^2 with ``squared``), from certified inertia, or None when
    a count is not certified or an eigenvalue lies within :data:`_ORIGIN_SHIFT`
    of 0.

    An IDS point x counts below x + EDGE_TOL; a squared point t counts below
    s minus below -s, s = sqrt(t + EDGE_TOL).  Both differ from the dense
    count only when an eigenvalue lies within rounding of the shift."""
    inertia = _Inertia(H)
    eta, half = _ORIGIN_SHIFT, H.dim // 2

    @cache
    def below(y: float) -> int | None:
        return half if abs(y) < eta else inertia.below(y)

    if below(-eta) != half:
        return None

    counts = []
    for x in at:
        t = x + EDGE_TOL
        if not squared:
            c = below(t)
        elif t < eta * eta:
            c = 0
        else:
            s = math.sqrt(t)
            hi, lo = below(s), below(-s)
            c = None if hi is None or lo is None else hi - lo
        if c is None:
            return None
        counts.append(c)
    return np.array(counts)


def _realization_counts(
    H: FiniteVolumeOperator, at, squared: bool, even: bool = False
) -> tuple[np.ndarray, bool, bool]:
    """The counts of one realization at ``at`` by inertia, else from its
    dense spectrum as the dense route counts them (H^2 by
    :func:`_squared_spectrum`, with ``even`` as there); whether it fell
    back, and whether the real H^2 route was refused."""
    counts = _inertia_counts(H, at, squared)
    if counts is not None:
        return counts, False, False
    if squared:
        e2, refused = _squared_spectrum(H, even)
        return _counts(e2, at), True, refused
    return _counts(H.eigenvalues(), at), True, False


def _ids(ens: _Ensemble, energies, squared: bool) -> IdsCurve:
    """Per-site signed counts of H's (or H^2's) spectrum at ``energies``,
    averaged.  A paired ensemble on a box of at least
    :data:`_COUNT_MIN_SITES` sites counts by inertia; any other diagonalizes."""
    energies = [float(e) for e in energies]
    at = np.append(energies, 0.0)  # the count at 0 is the origin N(0) = 0
    nsites = ens.box[0] * ens.box[1]
    fallbacks = 0
    if ens.route == "paired" and nsites >= _COUNT_MIN_SITES:
        _require_finite(energies)
        even = ens.parity == "even"
        rows = _realization_map(lambda H: _realization_counts(H, at, squared, even), ens)
        counts = ens.multiplicity * np.array([c for c, _, _ in rows], dtype=float)
        fallbacks = sum(dense for _, dense, _ in rows)
        refused = sum(r for _, _, r in rows)
    else:
        spectra, refused = _spectra(ens, energies, squared)
        counts = np.array([_counts(eigs, at) for eigs in spectra], dtype=float)
    counts = counts[:, :-1] - counts[:, -1:]
    mean, err = _mean_stderr(counts / nsites)
    return IdsCurve(tuple(energies), tuple(mean.tolist()), tuple(err.tolist()), fallbacks, refused)


def ids_estimate(
    model: TightBindingOperator,
    disorder: DisorderSpec | None = None,
    L=16,
    n_realizations: int = 32,
    energies=(),
    seed: int = 0,
    threads: int = 1,
) -> IdsCurve:
    """Monte-Carlo IDS with the N(0) = 0 normalization.

    The estimator counts the eigenvalues of the full torus operator per
    realization and per site; for covariant models this equals the
    trace-per-site definition on average.  A clean torus is diagonalized
    through its Bloch fibers.  A particle-hole paired ensemble on a box of
    at least 256 sites counts by certified sparse inertia, one LDL* factor
    per energy, with no spectrum; a realization whose counts are not
    certified is diagonalized instead, and ``dense_fallbacks`` counts it.
    Any other input is diagonalized densely per realization.  Realization i
    uses seed + i, so curves at different energies share the same disorder.
    """
    lam = 0.0 if disorder is None else disorder.lam
    return _ids(_Ensemble(model, disorder, lam, L, n_realizations, seed, threads), energies, False)


def ids_squared_estimate(
    model: TightBindingOperator,
    disorder: DisorderSpec | None = None,
    L=16,
    n_realizations: int = 32,
    energies=(),
    seed: int = 0,
    threads: int = 1,
) -> IdsCurve:
    """IDS of the squared operator H^2.

    Its eigenvalues at or below t + EDGE_TOL are the squares of those of H
    in [-s, s], s = sqrt(t + EDGE_TOL).  On the inertia route of
    :func:`ids_estimate` that is the count below s minus the count below -s,
    with no spectrum.  On the dense route a paired ensemble of even parity
    diagonalizes the real symmetric H^2 of the Majorana basis (see the
    module docstring: E^2 to eps ||H||^2 absolute, so a count differs from
    the squared complex spectrum's only when an E^2 lies within rounding of
    t + EDGE_TOL); any other input squares the spectrum of H.  A realization
    whose Majorana image is not real within rounding takes the complex route,
    and ``complex_fallbacks`` counts it.  N2(0) = 0 with the same
    lower-interval tie-break (zero modes within EDGE_TOL of 0 do not count).
    """
    lam = 0.0 if disorder is None else disorder.lam
    return _ids(_Ensemble(model, disorder, lam, L, n_realizations, seed, threads), energies, True)


def dos_histogram(
    model: TightBindingOperator,
    disorder: DisorderSpec | None = None,
    L=16,
    n_realizations: int = 32,
    bins=64,
    seed: int = 0,
    energy_range=None,
    squared: bool = False,
    threads: int = 1,
) -> DosHistogram:
    """Eigenvalue histogram normalized to states per site per energy.

    ``bins`` is either a whole bin count (>= 16) on ``energy_range`` (default: the
    full sampled spectrum) or an explicit finite, increasing edge array.  With
    ``squared`` the histogram is over the spectrum of H^2, which makes the
    density comparison rho(E) = |E| rho2(E^2) a bin-exact statement when the
    squared edges are the squares of the direct ones.  A paired ensemble of
    even parity takes that spectrum from the real symmetric H^2 of the
    Majorana basis: E^2 to eps ||H||^2 absolute, so a bin count differs from
    the squared complex spectrum's only when an E^2 lies within rounding of
    a shifted edge, and the default range's ends move at rounding level.
    Without ``squared`` such an ensemble takes H's spectrum as +-sqrt of the
    same real spectrum (see :func:`_real_spectrum`), which moves an E by
    eps ||H||^2 / (2 |E|); so a realization with an |E| below
    :data:`_ORIGIN_SHIFT` = 1e-3 takes the complex spectrum of H, as does
    one whose image is refused (:func:`ids_squared_estimate`), and
    ``complex_fallbacks`` counts both.  Bins that are not finite and
    increasing, and an ``energy_range`` that is not finite, empty or
    reversed, raise ``ValueError`` before any realization is drawn.
    """
    if energy_range is not None and not energy_range[0] < energy_range[1]:
        raise ValueError(
            f"energy_range must be finite and increasing (lo, hi), got {tuple(energy_range)}"
        )
    by_count = np.isscalar(bins)
    if by_count and not (bins >= 16 and float(bins).is_integer()):
        raise ValueError(f"need a whole number of at least 16 bins, got {bins}")
    if not by_count:
        edges = np.asarray(bins, dtype=float)
        if (edges.ndim != 1 or len(edges) < 2 or not np.all(np.isfinite(edges))
                or np.any(np.diff(edges) <= 0)):
            raise ValueError("explicit bins must be a finite, increasing edge array")
    lam = 0.0 if disorder is None else disorder.lam
    ens = _Ensemble(model, disorder, lam, L, n_realizations, seed, threads)
    spectra, refused = _spectra(ens, () if energy_range is None else energy_range, squared,
                                real=True)
    nsites = ens.box[0] * ens.box[1]
    if by_count:
        if energy_range is None:
            lo = min(float(e[0]) for e in spectra)
            hi = max(float(e[-1]) for e in spectra)
            pad = 1e-9 * max(hi - lo, 1.0)
            energy_range = (lo - pad, hi + pad)
        edges = np.linspace(energy_range[0], energy_range[1], int(bins) + 1)
    widths = np.diff(edges)
    per = np.array([np.diff(_counts(e, edges)) for e in spectra]) / (nsites * widths)
    density, err = _mean_stderr(per)
    return DosHistogram(
        tuple(edges.tolist()),
        tuple(density.tolist()),
        float(np.sum(density * widths)),
        tuple(err.tolist()),
        refused,
    )
