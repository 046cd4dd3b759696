"""Block tight-binding operators on the two-dimensional square lattice.

An operator is a finite sum  A = sum_j S^j B_j  where S^j is the translation
by the integer vector j = (j1, j2) and B_j ("block") is a complex matrix on
the on-site fiber.  The fiber is C^r for one-particle operators and
C^r (x) C^2 for particle-hole doubled (Bogoliubov-de Gennes) operators.

Conventions fixed here once and for all:

* A term with displacement j contributes e^{i k.j} B_j to the Bloch matrix,
  so the elementary shift S_1 corresponds to j = (1, 0) with block 1.
* Complex conjugation of an operator is entrywise conjugation in the
  standard basis: conj(A) has blocks conj(B_j) at the same displacements.
* Adjoints: A* has block B_{-j}^dagger at displacement j.  "Hermiticity
  closure" of a term set means B_{-j} = B_j^dagger for every j.
* Finite-volume (torus) row index = fiber_component + fiberdim*(l1 + L1*l2).

Particle-hole symmetry is checked in the two flavours

    even:  K* conj(B_j) K = -B_j,   K = [[0, 1], [1, 0]]   (blocks of size r)
    odd:   I* conj(B_j) I = -B_j,   I = [[0, -1], [1, 0]]

and the pairing-potential constraint Delta* = -conj(Delta) reads
B_{-j}^T = -B_j term by term.

Every sparse factor of a finite volume factors its pencil z - H
(:class:`_Pencil`), laid out in the nested-dissection order of its box.  The
realizations of one ensemble call share one index layout (:class:`_Layout`),
derived from the first of them that asks: the stored pattern, the hopping
range, the order and the gathers that fill each pencil from a matrix's data.
A realization whose stored pattern equals the layout's takes its pencils by
gather; any other derives a layout of its own.  The layout lives for the call.
"""

from __future__ import annotations

import json
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Literal, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = [
    "FiberShape",
    "TightBindingOperator",
    "BlochMatrix",
    "FiniteVolumeOperator",
    "SymmetryReport",
    "tight_binding",
    "operator_adjoint",
    "operator_conj",
    "closure_defect",
    "assemble_bloch",
    "assemble_finite_volume",
    "check_phs",
    "spectrum_symmetry_check",
    "check_bdg_equation",
    "model_to_json",
    "model_from_json",
]

#: Relative tolerance for hermiticity of assembled matrices.
HERMITICITY_RTOL = 1e-12

#: Absolute tolerance below which a particle-hole symmetry is declared to hold.
PHS_TOL = 1e-12

Displacement = tuple[int, int]


@dataclass(frozen=True)
class FiberShape:
    """Shape of the on-site fiber: C^r, doubled to C^r (x) C^2 when ``ph`` is set."""

    r: int
    ph: bool = False

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"fiber dimension r must be >= 1, got {self.r}")

    @property
    def dim(self) -> int:
        """Total fiber dimension (r, or 2r with particle-hole doubling)."""
        return 2 * self.r if self.ph else self.r


def _freeze(a: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TightBindingOperator:
    """Finite collection of lattice hopping terms with matrix blocks.

    ``terms`` is a read-only mapping displacement -> block (complex,
    fiber.dim x fiber.dim, itself read-only), sorted by displacement; the
    operator cannot change after construction.  The type itself does not
    require hermiticity closure: pairing potentials are legitimately
    non-self-adjoint.  Operations that assemble Hermitian matrices check
    closure as a precondition; the verdict is computed once per operator
    and reused.
    """

    fiber: FiberShape
    terms: Mapping[Displacement, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        d = self.fiber.dim
        clean: dict[Displacement, np.ndarray] = {}
        for j, block in self.terms.items():
            j = (int(j[0]), int(j[1]))
            b = np.asarray(block, dtype=complex)
            if b.shape != (d, d):
                raise ValueError(
                    f"block at displacement {j} has shape {b.shape}, expected {(d, d)}"
                )
            if not np.all(np.isfinite(b)):
                raise ValueError(f"non-finite entries in block at displacement {j}")
            if j in clean:  # duplicate displacements merge by summation
                clean[j] = clean[j] + b
            else:
                clean[j] = b
        object.__setattr__(
            self,
            "terms",
            MappingProxyType({j: _freeze(b) for j, b in sorted(clean.items())}),
        )

    @property
    def range(self) -> int:
        """Hopping range R = max ||j||_inf over the stored terms."""
        if not self.terms:
            return 0
        return max(max(abs(j[0]), abs(j[1])) for j in self.terms)

    def block(self, j: Displacement) -> np.ndarray:
        """Block at displacement ``j`` (zero matrix if absent)."""
        d = self.fiber.dim
        return self.terms.get((int(j[0]), int(j[1])), np.zeros((d, d), dtype=complex))

    @cached_property
    def _closure(self) -> tuple[float, Displacement | None, float]:
        """(worst closure defect, offending displacement, largest block entry)."""
        scale = max(
            (float(np.abs(b).max()) for b in self.terms.values() if b.size), default=0.0
        )
        return (*closure_defect(self), scale)

    @cached_property
    def _bloch_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms as arrays for :func:`_bloch_points`: the displacements'
        two components, each ``(T,)`` float, and the ``(T, d, d)`` block stack."""
        d = self.fiber.dim
        j = np.array(list(self.terms), dtype=float).reshape(-1, 2)
        blocks = np.array(list(self.terms.values())).reshape(-1, d, d)
        return j[:, 0], j[:, 1], blocks

    @cached_property
    def _transfer_slices(self) -> tuple[TightBindingOperator, TightBindingOperator]:
        """The terms with j2 = -1 and those with j2 = 0, as two operators: the
        slices whose Bloch sums at k2 = 0 are the transfer route's a(k1), b(k1)."""
        return tuple(
            TightBindingOperator(self.fiber, {j: b for j, b in self.terms.items() if j[1] == row})
            for row in (-1, 0)
        )


def tight_binding(
    fiber: FiberShape, terms: Mapping[Displacement, np.ndarray]
) -> TightBindingOperator:
    """Build a :class:`TightBindingOperator`, merging duplicate displacements."""
    return TightBindingOperator(fiber, dict(terms))


def operator_adjoint(model: TightBindingOperator) -> TightBindingOperator:
    """Adjoint A*: block at j is the conjugate transpose of the block at -j."""
    return TightBindingOperator(
        model.fiber,
        {(-j[0], -j[1]): b.conj().T for j, b in model.terms.items()},
    )


def operator_conj(model: TightBindingOperator) -> TightBindingOperator:
    """Entrywise complex conjugate conj(A): blocks conj(B_j), same displacements."""
    return TightBindingOperator(
        model.fiber, {j: b.conj() for j, b in model.terms.items()}
    )


def closure_defect(model: TightBindingOperator) -> tuple[float, Displacement | None]:
    """Largest violation of B_{-j} = B_j^dagger and the offending displacement."""
    worst, where = 0.0, None
    for j, b in model.terms.items():
        defect = float(np.linalg.norm(model.block((-j[0], -j[1])) - b.conj().T, 2))
        if defect > worst:
            worst, where = defect, j
    return worst, where


def _require_closure(model: TightBindingOperator, what: str) -> None:
    defect, where, scale = model._closure
    if defect > HERMITICITY_RTOL * max(scale, 1.0):
        raise ValueError(
            f"{what}: term set is not hermiticity-closed; "
            f"block at displacement {where} has no matching adjoint at {(-where[0], -where[1])} "
            f"(defect {defect:.3e})"
        )


def _hermiticity_violations(m: np.ndarray) -> np.ndarray:
    """Mask over the matrices of a ``(..., d, d)`` stack (0-d for one matrix)
    whose hermiticity defect exceeds HERMITICITY_RTOL times their scale."""
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    defect = np.abs(m - np.swapaxes(m.conj(), -1, -2)).max(axis=(-2, -1))
    return defect > HERMITICITY_RTOL * scale


@dataclass(frozen=True)
class BlochMatrix:
    """Fiber matrix of a translation-invariant operator at quasi-momentum k."""

    k: tuple[float, float]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if _hermiticity_violations(m):
            raise ValueError("Bloch matrix is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", _freeze(m))


def assemble_bloch(model: TightBindingOperator, k) -> BlochMatrix:
    """Bloch matrix  H(k) = sum_j e^{i k.j} B_j  of a hermiticity-closed model.

    Parameters
    ----------
    model : TightBindingOperator
        Term set with hermiticity closure (checked once per operator and
        reused; a structural error names the offending displacement
        otherwise).
    k : pair of floats
        Quasi-momentum in [-pi, pi)^2 (any reals are accepted; the assembly
        is 2pi-periodic).
    """
    _require_closure(model, "assemble_bloch")
    k = (float(k[0]), float(k[1]))
    return BlochMatrix(k, _bloch_points(model, k[0], k[1]))


def _bloch_points(model: TightBindingOperator, k1, k2) -> np.ndarray:
    """Sum_j e^{i k.j} B_j at broadcast momenta, without checks.

    The one Bloch summation kernel: ``k1`` and ``k2`` broadcast against each
    other (a product grid, a point list or a single point) and the result
    is the ``(..., d, d)`` stack of Bloch matrices.  The phases of all terms
    come from one ``exp`` over the operator's cached term arrays
    (``_bloch_terms``), and every entry is then summed term by term, in
    term order and starting from zero, with the same arithmetic for every
    shape, so a stack agrees bit for bit with single-point calls.  It serves
    non-self-adjoint operators such as pairing potentials directly;
    Hermitian consumers go through :func:`_hermitian_bloch_points` or
    :func:`assemble_bloch`.
    """
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    j1, j2, blocks = model._bloch_terms
    shape = np.broadcast_shapes(k1.shape, k2.shape)
    axes = (-1,) + (1,) * len(shape)  # the term axis first, so each term's phases are contiguous
    phases = 1j * (k1 * j1.reshape(axes) + k2 * j2.reshape(axes))
    np.exp(phases, out=phases)
    m = np.zeros(shape + blocks.shape[1:], dtype=complex)
    for t, b in enumerate(blocks):
        m += phases[t, ..., None, None] * b
    return m


def _periodic_grid(n: int) -> np.ndarray:
    """The n momenta -pi + 2 pi m / n, m = 0 .. n-1, of a periodic grid on [-pi, pi)."""
    return -np.pi + 2 * np.pi * np.arange(n) / n


def _local_minima(values: np.ndarray) -> np.ndarray:
    """Mask of the cells of a periodic grid that are no larger than any of their
    eight neighbours: the coarse basins that seed every refined momentum search."""
    shifts = [(s1, s2) for s1 in (-1, 0, 1) for s2 in (-1, 0, 1) if s1 or s2]
    return np.logical_and.reduce([values <= np.roll(values, s, axis=(0, 1)) for s in shifts])


def _hermitian_bloch_points(model: TightBindingOperator, k1, k2, what: str) -> np.ndarray:
    """:func:`_bloch_points` with the checks of :func:`assemble_bloch`.

    The operator must be hermiticity-closed (``what`` names the caller in
    the error), and every matrix of the stack must pass the
    :class:`BlochMatrix` hermiticity tolerance; the first one that does not
    is named by its momentum.
    """
    _require_closure(model, what)
    m = _bloch_points(model, k1, k2)
    bad = _hermiticity_violations(m)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        k = [float(np.broadcast_to(x, bad.shape)[at]) for x in (k1, k2)]
        raise ValueError(
            f"Bloch matrix is not Hermitian within tolerance at "
            f"k = ({k[0]:.6g}, {k[1]:.6g})"
        )
    return m


@dataclass(frozen=True)
class FiniteVolumeOperator:
    """Realization of a lattice operator on an L1 x L2 torus (or open box).

    The matrix is stored sparse (CSR); ``dense()`` returns a dense copy.
    Row layout: fiber component a at site l = (l1, l2) sits at row
    ``a + fiberdim*(l1 + L1*l2)``.
    """

    L: tuple[int, int]
    fiber: FiberShape
    matrix: sp.csr_matrix
    bc: Literal["periodic", "open"] = "periodic"

    @property
    def nsites(self) -> int:
        return self.L[0] * self.L[1]

    @property
    def dim(self) -> int:
        return self.nsites * self.fiber.dim

    def site_index(self, l, component: int = 0) -> int:
        """Row index of fiber ``component`` at site ``l`` (bijection)."""
        l1, l2 = int(l[0]) % self.L[0], int(l[1]) % self.L[1]
        return component + self.fiber.dim * (l1 + self.L[0] * l2)

    def site_of(self, row: int) -> tuple[tuple[int, int], int]:
        """Inverse of :meth:`site_index`."""
        component = row % self.fiber.dim
        site = row // self.fiber.dim
        return (site % self.L[0], site // self.L[0]), component

    def site_slice(self, l) -> slice:
        """Row slice covering the whole fiber over site ``l``."""
        base = self.site_index(l, 0)
        return slice(base, base + self.fiber.dim)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    @cached_property
    def range(self) -> int:
        """Hopping range of the stored matrix: the largest ||l - m||_inf over
        its nonzero site blocks (l, m), nearest image on a periodic box."""
        d, m = self.fiber.dim, self.matrix
        rows = np.repeat(np.arange(m.shape[0]) // d, np.diff(m.indptr))
        cols = m.indices // d
        reach = 0
        for a, b, n in ((rows % self.L[0], cols % self.L[0], self.L[0]),
                        (rows // self.L[0], cols // self.L[0], self.L[1])):
            s = np.abs(a - b)
            if self.bc == "periodic":
                s = np.minimum(s, n - s)
            reach = max(reach, int(s.max(initial=0)))
        return reach

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending (dense diagonalization)."""
        return np.linalg.eigvalsh(self.dense())


def _as_box(L) -> tuple[int, int]:
    """An ``L1 x L2`` box from a side length or a pair of them."""
    return (int(L), int(L)) if np.isscalar(L) else (int(L[0]), int(L[1]))


def _hop(L: tuple[int, int], bc: str, j: Displacement, l1, l2):
    """Targets ``(t1, t2)`` of the hops l -> l + j from the sites ``(l1, l2)``
    (arrays or ints) and the mask of the hops that exist: the one boundary
    rule.  A periodic box wraps l + j around; an open box drops hops leaving it.
    """
    t1, t2 = np.add(l1, j[0]), np.add(l2, j[1])
    if bc == "periodic":
        return t1 % L[0], t2 % L[1], np.ones(t1.shape, dtype=bool)
    return t1, t2, (t1 >= 0) & (t1 < L[0]) & (t2 >= 0) & (t2 < L[1])


@lru_cache(maxsize=None)
def _dissection_order(L: tuple[int, int], bc: str, d: int, R: int) -> np.ndarray:
    """The nested-dissection order of the fiber rows of the ``L1 x L2`` box
    for hops of range ``R``: row ``p[i]`` of the finite-volume order comes
    i-th, and the d rows of a site stay together.

    A block of sites is split across its longer side by a separator strip
    of width R (at least 1): no hop of range R joins the two halves, so
    each half is ordered (recursively) before the strip, and eliminating
    one half never fills the other (George, SIAM J. Numer. Anal. 10, 345,
    1973).  A block no longer than R on either side is ordered as in the
    finite volume.  On a periodic box the two wrap strips, columns and rows
    L - R .. L - 1, come last; what they leave is an open
    ``(L1 - R) x (L2 - R)`` block.  The order depends on the geometry alone,
    so it is computed once per (box, bc, d, R) and returned read-only.
    """
    w = max(R, 1)
    blocks: list[np.ndarray] = []

    def dissect(a1: int, b1: int, a2: int, b2: int) -> None:  # sites [a1, b1) x [a2, b2)
        n1, n2 = b1 - a1, b2 - a2
        if n1 <= 0 or n2 <= 0:
            return
        if max(n1, n2) <= w:
            blocks.append((np.arange(a1, b1) + L[0] * np.arange(a2, b2)[:, None]).ravel())
        elif n1 >= n2:
            m = a1 + (n1 - w) // 2
            dissect(a1, m, a2, b2)
            dissect(m + w, b1, a2, b2)
            dissect(m, m + w, a2, b2)
        else:
            m = a2 + (n2 - w) // 2
            dissect(a1, b1, a2, m)
            dissect(a1, b1, m + w, b2)
            dissect(a1, b1, m, m + w)

    if bc == "periodic":
        e1, e2 = L[0] - w, L[1] - w
        dissect(0, e1, 0, e2)
        dissect(e1, L[0], 0, e2)
        dissect(0, L[0], e2, L[1])
    else:
        dissect(0, L[0], 0, L[1])
    sites = np.concatenate(blocks)
    return _freeze((d * sites[:, None] + np.arange(d)).ravel(), dtype=np.intp)


class _Layout:
    """The index layout of the realizations of one box: everything a sparse
    factor or a Majorana image of a realization needs that depends only on
    its stored pattern, derived once from one realization ``H``.

    It holds H's pattern (``indptr``, ``indices``), its hopping range and the
    dissection order ``p`` of its box.  Further parts, such as the gather of
    a pencil (:class:`_PencilGather`) or ``spectral``'s map of the Majorana
    image, are derived on first use by :meth:`part` and kept; the pool
    threads of an ensemble share them read-only.  A realization whose box
    and stored pattern equal ``H``'s (:meth:`holds`) takes every part by
    gather; any other derives a layout of its own (:func:`_layout`).
    """

    def __init__(self, H: FiniteVolumeOperator):
        m = H.matrix
        self.geometry = (H.L, H.bc, H.fiber)
        self.indptr, self.indices = m.indptr.copy(), m.indices.copy()
        self.range = H.range
        self.p = _dissection_order(H.L, H.bc, H.fiber.dim, self.range)
        self._parts: dict = {}
        self._lock = threading.Lock()

    def holds(self, H: FiniteVolumeOperator) -> bool:
        """Whether ``H`` lies on this layout's box with its stored pattern."""
        m = H.matrix
        return ((H.L, H.bc, H.fiber) == self.geometry
                and np.array_equal(m.indptr, self.indptr)
                and np.array_equal(m.indices, self.indices))

    def part(self, key, derive):
        """The part ``key``, derived by ``derive()`` when first asked for."""
        with self._lock:
            if key not in self._parts:
                self._parts[key] = derive()
            return self._parts[key]


class _CallLayout:
    """The layout of one ensemble call, derived from the first of its
    realizations that asks for it (:func:`_layout`)."""

    def __init__(self):
        self.layout: _Layout | None = None
        self._lock = threading.Lock()

    def of(self, H: FiniteVolumeOperator) -> _Layout:
        with self._lock:
            if self.layout is None:
                self.layout = _Layout(H)
            return self.layout


#: The layout of the ensemble call whose realizations are being mapped
#: (``disorder._realization_map``), or None outside one.
_CALL_LAYOUT: ContextVar[_CallLayout | None] = ContextVar("_CALL_LAYOUT", default=None)


def _layout(H: FiniteVolumeOperator) -> _Layout:
    """The layout of ``H``: its call's, when that holds H's pattern, else one
    derived from H alone, by the same code."""
    call = _CALL_LAYOUT.get()
    if call is not None:
        layout = call.of(H)
        if layout.holds(H):
            return layout
    return _Layout(H)


def _by_column(indptr: np.ndarray, indices: np.ndarray, ncol: int):
    """A stable sort of the stored entries of a CSR pattern by column, rows
    ascending within a column and stored order within a row: SciPy's CSR to
    CSC transposition, applied to the entries' positions.  Returns the CSC
    ``indptr``, each sorted entry's row and its position in the CSR."""
    nrow = len(indptr) - 1
    positions = np.arange(len(indices), dtype=float)
    t = sp.csr_matrix((positions, indices, indptr), shape=(nrow, ncol)).tocsc()
    return t.indptr, t.indices, t.data.astype(np.intp)


class _PencilGather:
    """Where every stored entry of a pencil comes from: ``matrix``'s pattern
    in CSC, rows in the order ``q`` and columns in the order ``p``, with every
    diagonal slot stored and each column's rows ascending.  ``source[k]`` is
    1 + the index in ``matrix.data`` of the entry k holds, or 0 for a
    diagonal slot that ``matrix`` does not store."""

    def __init__(self, matrix: sp.spmatrix, p: np.ndarray, q: np.ndarray):
        n = matrix.shape[0]
        self.pattern = (matrix.indptr.copy(), matrix.indices.copy())
        self.shape, self.q = matrix.shape, q
        position = np.arange(n)
        column = np.empty(n, dtype=np.intp)
        column[p] = position  # where each finite-volume column goes in the order
        # row i of the pencil: the entries of matrix row q[i], then the slot (i, i)
        lens = np.diff(matrix.indptr)[q] + 1
        ends = np.cumsum(lens)
        source = np.arange(ends[-1]) + np.repeat(matrix.indptr[q] - (ends - lens), lens) + 1
        source[ends - 1] = 0
        cols = np.repeat(position, lens)
        entry = source > 0
        cols[entry] = column[matrix.indices[source[entry] - 1]]
        indptr, rows, at = _by_column(np.r_[0, ends], cols, n)
        # a stored diagonal entry comes before its slot; the slot is dropped
        cols = np.repeat(position, np.diff(indptr))
        keep = np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]
        self.source = source[at[keep]]
        self.indices = rows[keep].astype(np.int32)
        self.indptr = np.r_[0, np.cumsum(np.bincount(cols[keep], minlength=n))].astype(np.int32)
        self.slots = np.flatnonzero(self.indices == cols[keep])
        self.diagonal = self.source[self.slots]

    def serves(self, matrix: sp.spmatrix) -> bool:
        """Whether ``matrix`` has the stored pattern this gather was derived from."""
        return (np.array_equal(matrix.indptr, self.pattern[0])
                and np.array_equal(matrix.indices, self.pattern[1]))

    def fill(self, data: np.ndarray) -> tuple[sp.csc_matrix, np.ndarray]:
        """The pencil of a matrix with stored entries ``data``, holding ``0 -``
        each entry (``0.0 -``, as in z I - H, where an entry alone is
        subtracted from 0), and the matrix's diagonal in the order."""
        values = np.empty(len(data) + 1, dtype=data.dtype)
        values[0] = 0.0
        values[1:] = data
        A = sp.csc_matrix((0.0 - values[self.source], self.indices.copy(), self.indptr.copy()),
                          shape=self.shape)
        return A, values[self.diagonal]


class _Pencil:
    """``z - H`` of one finite volume, laid out for every sparse factor: CSC
    in the nested-dissection order ``p`` of its box, every diagonal slot
    stored, so a shift z rewrites only the ``slots`` with ``z - h``.

    Given ``image``, a real matrix of H's layout (the Majorana image A of an
    even-parity paired H), the pencil is ``z - A`` in the order p, or with
    ``swap`` ``z S - A``: its rows come in the order ``q``, which is p with
    the two halves of every site's fiber swapped, and S is that swap.  A has
    a zero diagonal, so at z = 0 in the order p symmetric-mode pivoting would
    leave the diagonal and the order (at L = 32 it more than doubled the
    fill); the swap puts each mode's on-site coupling of its two halves on
    the diagonal instead.  At a real z != 0 the diagonal is z and the
    symmetric part of z - A is z I, definite, so the order p needs no swap.

    The pencil is gathered from the matrix's data by a :class:`_PencilGather`
    of H's layout (:func:`_layout`), one per kind (H, the image, the swapped
    image), derived for the first matrix of that kind and reused by every
    matrix with the same stored pattern."""

    def __init__(self, H: FiniteVolumeOperator, image: sp.spmatrix | None = None,
                 swap: bool = False):
        layout = _layout(H)
        self.p = p = layout.p
        matrix = H.matrix if image is None else image

        def derive() -> _PencilGather:
            return _PencilGather(matrix, p, p.reshape(-1, 2, H.fiber.r)[:, ::-1].ravel() if swap else p)

        gather = layout.part(("pencil", image is not None, swap), derive)
        if image is not None and not gather.serves(image):  # an image of another pattern
            gather = derive()
        self.q, self.slots = gather.q, gather.slots
        self.A, self.h = gather.fill(matrix.data)

    def at(self, z: complex) -> sp.csc_matrix:
        """``A`` holding ``z - H``, until the next shift."""
        self.A.data[self.slots] = z - self.h
        return self.A

    def factor(self, z: complex, threshold: float):
        """The one SuperLU call, on the pencil at z; symmetric mode pivots on the
        diagonal unless it falls below ``threshold`` of its column.  Exact zeros
        are dropped first, as ``z I - H`` drops them (at z = 0 a stored zero
        would change the supernodes and so the rounding), and a singular
        pencil raises ``RuntimeError``."""
        A = self.at(z)
        if not A.data[self.slots].all():
            A = A.copy()
            A.eliminate_zeros()
        return splu(A, permc_spec="NATURAL", diag_pivot_thresh=threshold,
                    options={"SymmetricMode": True})

    def solve(self, lu, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """``(z - H)^{-1} b`` (trans "N") or ``(conj(z) - H)^{-1} b`` ("H") from
        ``lu``; of an image's pencil, its inverse or ("T") inverse transpose."""
        rows, cols = (self.q, self.p) if trans == "N" else (self.p, self.q)
        y = lu.solve(b[rows], trans=trans)
        x = np.empty(b.shape, dtype=y.dtype)
        x[cols] = y
        return x

    def gram_solve(self, lu, b: np.ndarray) -> np.ndarray:
        """``(P^T P)^{-1} b = P^{-1} P^{-T} b`` of the pencil P factored in
        ``lu``: ``solve(lu, solve(lu, b, "T"))`` without the scatter to q that
        the plain solve gathers back from q, so bit for bit the same."""
        y = lu.solve(lu.solve(b[self.p], trans="T"))
        x = np.empty(b.shape, dtype=y.dtype)
        x[self.p] = y
        return x


def _require_periodic_box(L: tuple[int, int], R: int) -> None:
    """The periodic box rule: L1, L2 > 2R, so that no hop of range R wraps onto
    itself and the hops by j and -j never share a matrix entry."""
    if L[0] <= 2 * R or L[1] <= 2 * R:
        raise ValueError(
            f"periodic box {L} too small for hopping range R={R}: "
            f"need L1, L2 > 2R={2 * R} so no single hop wraps onto itself"
        )


def _assemble(L: tuple[int, int], bc: str, d: int, entries) -> sp.csr_matrix:
    """One CSR matrix from ``(j, weights, block)`` entries in one COO pass.

    Each hop l -> l + j of :func:`_hop` puts ``weights[l] * block`` (weights an
    (L1, L2) array, or None for 1) in the fiber rows of l + j and columns of l.
    A periodic box must pass :func:`_require_periodic_box` for R the largest
    ||j||_inf of the entries; H0 and a disorder term V follow this one rule.
    Coinciding hops are summed and exact zeros dropped; a result that is not
    Hermitian within :data:`HERMITICITY_RTOL` of its largest entry (or not
    finite) raises ``ValueError``.
    """
    entries = list(entries)
    if bc == "periodic":
        R = max((max(abs(j[0]), abs(j[1])) for j, _, _ in entries), default=0)
        _require_periodic_box(L, R)
    l1, l2 = np.indices(L)
    rows, cols, data = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
    for j, weights, block in entries:
        t1, t2, keep = _hop(L, bc, j, l1, l2)
        w = np.ones(L) if weights is None else np.asarray(weights, dtype=float)
        a, b = np.nonzero(block)
        rows.append((d * (t1 + L[0] * t2)[keep][:, None] + a).ravel())
        cols.append((d * (l1 + L[0] * l2)[keep][:, None] + b).ravel())
        data.append((w[keep][:, None] * block[a, b]).ravel())
    # "+ 0.0" as in a sum that starts from zero: no part of an entry stays -0.0
    ijv = (np.concatenate(data) + 0.0, (np.concatenate(rows), np.concatenate(cols)))
    total = sp.coo_matrix(ijv, shape=(L[0] * L[1] * d,) * 2, dtype=complex).tocsr()
    total.eliminate_zeros()
    defect = float(np.abs(total - total.getH()).max())
    if not defect <= HERMITICITY_RTOL * max(float(np.abs(total.data).max(initial=0.0)), 1.0):
        raise ValueError(
            f"assembled finite-volume matrix lost hermiticity (defect {defect:.3e})"
        )
    return total


def assemble_finite_volume(
    model: TightBindingOperator,
    L,
    bc: Literal["periodic", "open"] = "periodic",
) -> FiniteVolumeOperator:
    """Realize a hermiticity-closed model on an L1 x L2 box.

    ``L`` may be a single integer (square box) or a pair (L1, L2).  Periodic
    boundary conditions require L1, L2 > 2R so that a single hop cannot wrap
    onto itself; open boundary conditions drop hops leaving the box
    (Dirichlet truncation).
    """
    _require_closure(model, "assemble_finite_volume")
    L = _as_box(L)
    if L[0] < 1 or L[1] < 1:
        raise ValueError(f"box side lengths must be positive, got {L}")
    if bc not in ("periodic", "open"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    entries = ((j, None, b) for j, b in model.terms.items())
    return FiniteVolumeOperator(L, model.fiber, _assemble(L, bc, model.fiber.dim, entries), bc)


def _box_fibers(model: TightBindingOperator, L) -> np.ndarray:
    """The Bloch fibers of the periodic L1 x L2 box, with the checks of
    :func:`assemble_finite_volume`.

    A clean periodic box is block-diagonal in momentum.  On the grid
    k_i = 2 pi m_i / L_i the plane wave e^{i k.l} u is mapped to
    e^{i k.l} H(-k) u in the convention of :func:`_assemble` (row l + j,
    column l), so the fiber at (m1, m2) is ``_bloch_points(model, -k1, -k2)``.
    Returns the ``(L1, L2, d, d)`` stack indexed by (m1, m2).
    """
    _require_closure(model, "assemble_finite_volume")
    L = _as_box(L)
    _require_periodic_box(L, model.range)
    k1, k2 = (2 * np.pi * np.arange(n) / n for n in L)
    return _bloch_points(model, -k1[:, None], -k2[None, :])


def _box_action(stack: np.ndarray):
    """V -> AV for the block-circulant box matrix A with Bloch fibers ``stack``
    (the layout of :func:`_box_fibers`): A(n, m) = a(n - m), ``a`` the ``ifft2``
    of the stack, so AV is one ``fft2`` of the site blocks of V (rows in the
    finite-volume order), the fiber product and one ``ifft2``; A is never built."""
    fibers = stack.transpose(1, 0, 2, 3)  # indexed (m2, m1), as V's site blocks (l2, l1)

    def apply(V: np.ndarray) -> np.ndarray:
        blocks = np.fft.fft2(V.reshape(fibers.shape[:3] + (-1,)), axes=(0, 1))
        return np.fft.ifft2(fibers @ blocks, axes=(0, 1)).reshape(V.shape)

    return apply


@dataclass(frozen=True)
class SymmetryReport:
    holds: bool
    max_violation: float


def phs_conjugation(parity: Literal["even", "odd"], r: int) -> np.ndarray:
    """The fiber matrix implementing the particle-hole conjugation.

    even: K = [[0, 1], [1, 0]] in r x r blocks (K^2 = 1);
    odd:  I = [[0, -1], [1, 0]] in r x r blocks (I^2 = -1).
    """
    one = np.eye(r)
    zero = np.zeros((r, r))
    if parity == "even":
        return np.block([[zero, one], [one, zero]])
    if parity == "odd":
        return np.block([[zero, -one], [one, zero]])
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def check_phs(
    model: TightBindingOperator, parity: Literal["even", "odd"]
) -> SymmetryReport:
    """Check the particle-hole symmetry  C* conj(H) C = -H  term by term.

    C is K (even) or I (odd).  Per term the condition reads
    C* conj(B_j) C = -B_j; the report carries the worst violation in
    spectral norm over all displacements.
    """
    if not model.fiber.ph:
        raise ValueError("particle-hole symmetry check requires a doubled fiber")
    c = phs_conjugation(parity, model.fiber.r)
    worst = 0.0
    for _, b in model.terms.items():
        v = float(np.linalg.norm(c.conj().T @ b.conj() @ c + b, 2))
        worst = max(worst, v)
    return SymmetryReport(holds=worst <= PHS_TOL, max_violation=worst)


def spectrum_symmetry_check(eigs) -> float:
    """Max pairing defect  max_i |E_i + E_{N-1-i}|  of a sorted spectrum."""
    e = np.sort(np.asarray(eigs, dtype=float))
    if e.size == 0:
        return 0.0
    return float(np.abs(e + e[::-1]).max())


def check_bdg_equation(delta: TightBindingOperator) -> float:
    """Violation of  Delta* = -conj(Delta),  i.e. max_j ||B_{-j}^T + B_j||.

    The pairing potential acts on the undoubled fiber; a zero return value
    (up to rounding) certifies that the particle-hole doubled Hamiltonian
    built from it is self-adjoint.
    """
    worst = 0.0
    for j, b in delta.terms.items():
        worst = max(
            worst,
            float(np.linalg.norm(delta.block((-j[0], -j[1])).T + b, 2)),
        )
    return worst


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trip)

def _complex_to_json(x: complex) -> dict:
    return {"re": float(x.real), "im": float(x.imag)}


def model_to_json(model: TightBindingOperator) -> str:
    """Serialize to JSON; floats keep full precision so round trips are bit-exact."""
    doc = {
        "fiber": {"r": model.fiber.r, "ph": model.fiber.ph},
        "terms": [
            {
                "j": [j[0], j[1]],
                "block": [[_complex_to_json(x) for x in row] for row in b.tolist()],
            }
            for j, b in model.terms.items()
        ],
    }
    return json.dumps(doc, indent=1)


def model_from_json(text: str) -> TightBindingOperator:
    doc = json.loads(text)
    fiber = FiberShape(int(doc["fiber"]["r"]), bool(doc["fiber"]["ph"]))
    terms: dict[Displacement, np.ndarray] = {}
    for entry in doc["terms"]:
        j = (int(entry["j"][0]), int(entry["j"][1]))
        block = np.array(
            [[complex(x["re"], x["im"]) for x in row] for row in entry["block"]],
            dtype=complex,
        )
        terms[j] = block
    return TightBindingOperator(fiber, terms)
