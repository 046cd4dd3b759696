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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Literal, Mapping

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FiberShape",
    "HoppingTerm",
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


@dataclass(frozen=True)
class HoppingTerm:
    """A single displacement/block pair of a tight-binding operator."""

    displacement: Displacement
    block: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
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

    def hopping_terms(self) -> Iterable[HoppingTerm]:
        for j, b in self.terms.items():
            yield HoppingTerm(j, b)

    @cached_property
    def _closure(self) -> tuple[float, Displacement | None, float]:
        """(worst closure defect, offending displacement, largest block entry)."""
        scale = max(
            (float(np.abs(b).max()) for b in self.terms.values() if b.size), default=0.0
        )
        return (*closure_defect(self), scale)


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


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max())


@dataclass(frozen=True)
class BlochMatrix:
    """Fiber matrix of a translation-invariant operator at quasi-momentum k."""

    k: tuple[float, float]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        scale = max(float(np.abs(m).max()), 1.0)
        if _hermiticity_defect(m) > HERMITICITY_RTOL * scale:
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
    return BlochMatrix(k, _bloch_sum(model, k))


def _bloch_sum(model: TightBindingOperator, k) -> np.ndarray:
    """Sum_j e^{i k.j} B_j without the closure/hermiticity checks.

    The one Bloch summation kernel: :func:`assemble_bloch` wraps it with the
    checks, and it serves non-self-adjoint operators such as pairing
    potentials directly.
    """
    k1, k2 = float(k[0]), float(k[1])
    d = model.fiber.dim
    m = np.zeros((d, d), dtype=complex)
    for j, b in model.terms.items():
        m += np.exp(1j * (k1 * j[0] + k2 * j[1])) * b
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

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending (dense diagonalization)."""
        return np.linalg.eigvalsh(self.dense())


def _site_permutation(
    L: tuple[int, int], j: Displacement, bc: str
) -> sp.coo_matrix:
    """Sparse matrix of the site map l -> l + j (wrapping or truncating)."""
    L1, L2 = L
    l1, l2 = np.meshgrid(np.arange(L1), np.arange(L2), indexing="ij")
    l1, l2 = l1.ravel(), l2.ravel()
    if bc == "periodic":
        keep = np.ones(l1.shape, dtype=bool)
        t1, t2 = (l1 + j[0]) % L1, (l2 + j[1]) % L2
    else:  # open: hops leaving the box are dropped
        t1, t2 = l1 + j[0], l2 + j[1]
        keep = (t1 >= 0) & (t1 < L1) & (t2 >= 0) & (t2 < L2)
        t1, t2 = t1[keep], t2[keep]
        l1, l2 = l1[keep], l2[keep]
    rows = t1 + L1 * t2
    cols = l1 + L1 * l2
    n = L1 * L2
    return sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n)
    )


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
    L = (int(L), int(L)) if np.isscalar(L) else (int(L[0]), int(L[1]))
    if L[0] < 1 or L[1] < 1:
        raise ValueError(f"box side lengths must be positive, got {L}")
    R = model.range
    if bc == "periodic" and (L[0] <= 2 * R or L[1] <= 2 * R):
        raise ValueError(
            f"periodic box {L} too small for hopping range R={R}: "
            f"need L1, L2 > 2R={2 * R} so no single hop wraps onto itself"
        )
    if bc not in ("periodic", "open"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    d = model.fiber.dim
    n = L[0] * L[1] * d
    total = sp.csr_matrix((n, n), dtype=complex)
    for j, b in model.terms.items():
        perm = _site_permutation(L, j, bc)
        total = total + sp.kron(perm, sp.csr_matrix(b), format="csr")
    defect = float(np.abs(total - total.getH()).max()) if total.nnz else 0.0
    scale = max(float(np.abs(total).max()) if total.nnz else 0.0, 1.0)
    if defect > HERMITICITY_RTOL * scale:
        raise AssertionError(
            f"assembled finite-volume matrix lost hermiticity (defect {defect:.3e})"
        )
    return FiniteVolumeOperator(L, model.fiber, total, bc)


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
