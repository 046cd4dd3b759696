"""Random perturbations of BdG operators.

The disorder operator is

    V = sum_{l, |j| <= R}  v_{j,l} pi*_{l+j} W_j pi_l

with deterministic fiber matrices W_j and real random couplings v_{j,l}.
Self-adjointness is guaranteed by the two closure rules

    W_{-j} = W_j*         (term set),
    v_{j,l} = v_{-j,l+j}  (random field),

so each unordered pair {(j,l), (-j,l+j)} carries a single random draw.  The
draw is produced by a counter-based generator (Philox) keyed on
(seed, j, l) of the canonical class representative; the field is therefore
reproducible, order-independent and safe to sample in parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.stats import truncnorm

from .lattice import (
    FiberShape,
    FiniteVolumeOperator,
    TightBindingOperator,
    assemble_finite_volume,
)

__all__ = [
    "Distribution",
    "DisorderTerm",
    "DisorderSpec",
    "DisorderRealization",
    "standard_W",
    "default_spec",
    "sample_realization",
    "build_random_hamiltonian",
    "gap_closure_threshold",
    "spec_to_json",
    "spec_from_json",
    "realization_to_csv",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Distribution:
    """Distribution of a single coupling v.

    kinds:
      * ``uniform``: uniform on [-r_support, r_support];
      * ``truncated_gaussian``: N(0, sigma^2) conditioned on [-cutoff, cutoff].

    Both have bounded (1-Hoelder) densities, all moments finite and
    compactly supported tails.  Sampling is by inverse CDF from a single
    uniform draw, which keeps the counter-based stream one-draw-per-class.
    """

    kind: str = "uniform"
    r_support: float = 1.0
    sigma: float = 1.0
    cutoff: float = 3.0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "truncated_gaussian"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "uniform" and not self.r_support > 0:
            raise ValueError("uniform distribution needs r_support > 0")
        if self.kind == "truncated_gaussian" and not (
            self.sigma > 0 and self.cutoff > 0
        ):
            raise ValueError("truncated gaussian needs sigma > 0 and cutoff > 0")

    @property
    def support_radius(self) -> float:
        return self.r_support if self.kind == "uniform" else self.cutoff

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniform [0,1) draws."""
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            return self.r_support * (2.0 * u - 1.0)
        a = -self.cutoff / self.sigma
        return truncnorm.ppf(u, a, -a, loc=0.0, scale=self.sigma)

    def to_json(self) -> dict:
        if self.kind == "uniform":
            return {"kind": "uniform", "params": {"r_support": self.r_support}}
        return {
            "kind": "truncated_gaussian",
            "params": {"sigma": self.sigma, "cutoff": self.cutoff},
        }

    @staticmethod
    def from_json(doc: dict) -> "Distribution":
        params = doc.get("params", {})
        return Distribution(kind=doc["kind"], **params)


def standard_W(name: str, r: int) -> np.ndarray:
    """The catalog matrices W_{(0,0)}, W_{(1,0)}, W_{(0,1)} on the 2r fiber.

    In r x r blocks (particle components first):

        W00 = [[1, 0], [0, -1]],  W10 = [[0, 1], [-1, 0]],  W01 = [[0, i], [i, 0]].
    """
    if r < 1:
        raise ValueError("fiber dimension r must be >= 1")
    one = np.eye(r, dtype=complex)
    zero = np.zeros((r, r), dtype=complex)
    if name == "W00":
        return np.block([[one, zero], [zero, -one]])
    if name == "W10":
        return np.block([[zero, one], [-one, zero]])
    if name == "W01":
        return np.block([[zero, 1j * one], [1j * one, zero]])
    raise ValueError(f"unknown disorder matrix {name!r}; choose W00, W10 or W01")


@dataclass(frozen=True)
class DisorderTerm:
    """One (j, W_j, nu_j) entry of the disorder operator."""

    j: tuple[int, int]
    W: np.ndarray
    nu: Distribution = field(default_factory=Distribution)
    name: str | None = None  # W catalog name when constructed from one

    def __post_init__(self) -> None:
        object.__setattr__(self, "j", (int(self.j[0]), int(self.j[1])))
        w = np.array(self.W, dtype=complex)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"W at {self.j} must be a square matrix")
        w.setflags(write=False)
        object.__setattr__(self, "W", w)


def _canonical(j: tuple[int, int]) -> bool:
    """Lexicographically positive representative of the pair {j, -j} (or j=0)."""
    return j > (0, 0) or j == (0, 0)


@dataclass(frozen=True)
class DisorderSpec:
    """Closed set of disorder terms plus the default coupling strength."""

    terms: tuple[DisorderTerm, ...]
    lam: float = 0.0

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        by_j = {t.j: t for t in terms}
        if len(by_j) != len(terms):
            raise ValueError("duplicate displacements in disorder spec")
        completed = dict(by_j)
        for t in terms:
            mj = (-t.j[0], -t.j[1])
            if t.j == (0, 0):
                if np.abs(t.W - t.W.conj().T).max() > 1e-12:
                    raise ValueError("W at j=(0,0) must be self-adjoint")
                continue
            if mj in by_j:
                partner = by_j[mj]
                if np.abs(partner.W - t.W.conj().T).max() > 1e-12:
                    raise ValueError(
                        f"terms at {t.j} and {mj} violate W_-j = W_j*"
                    )
                if partner.nu != t.nu:
                    raise ValueError(
                        f"terms at {t.j} and {mj} must share one distribution"
                    )
            else:  # complete the closure automatically; a catalog name
                # labels W_j only, so the mirror W_j* is stored unnamed
                completed[mj] = DisorderTerm(mj, t.W.conj().T, t.nu)
        object.__setattr__(
            self, "terms", tuple(completed[j] for j in sorted(completed))
        )
        if not self.lam >= 0:
            raise ValueError("coupling lam must be >= 0")

    @property
    def fiber_dim(self) -> int:
        return int(self.terms[0].W.shape[0]) if self.terms else 0

    @property
    def range(self) -> int:
        return max((max(abs(t.j[0]), abs(t.j[1])) for t in self.terms), default=0)

    def term(self, j) -> DisorderTerm:
        j = (int(j[0]), int(j[1]))
        for t in self.terms:
            if t.j == j:
                return t
        raise KeyError(f"no disorder term at displacement {j}")


def default_spec(r: int = 1, lam: float = 0.0, nu: Distribution | None = None) -> DisorderSpec:
    """Random on-site potential only: the single term (j=(0,0), W00, uniform)."""
    nu = nu or Distribution()
    return DisorderSpec(
        (DisorderTerm((0, 0), standard_W("W00", r), nu, "W00"),), lam=lam
    )


@dataclass(frozen=True)
class DisorderRealization:
    """One sampled field v_{j,l} on the L1 x L2 torus.

    ``values`` carries every (j, l) pair of the spec, mirrors included, so
    the constraint v_{j,l} = v_{-j,l+j} can be read off directly.
    """

    L: tuple[int, int]
    values: dict
    seed: int

    def field(self, j) -> np.ndarray:
        """Couplings at displacement j as an (L1, L2) array indexed by l."""
        j = (int(j[0]), int(j[1]))
        out = np.empty(self.L, dtype=float)
        for l1 in range(self.L[0]):
            for l2 in range(self.L[1]):
                out[l1, l2] = self.values[(j, (l1, l2))]
        return out


def _pack(x: tuple[int, int]) -> int:
    return ((x[0] + (1 << 31)) << 32) + (x[1] + (1 << 31))


def _class_uniform(seed: int, j: tuple[int, int], l: tuple[int, int]) -> float:
    """The single uniform [0,1) draw attached to the disorder class (j, l)."""
    # dtype must be explicit: a plain list would go through float64 and lose
    # the low counter bits for values >= 2^63
    counter = np.array([_pack(j), _pack(l), 0, 0], dtype=np.uint64)
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    return float(np.random.Generator(np.random.Philox(counter=counter, key=key)).random())


def sample_realization(spec: DisorderSpec, L, seed: int) -> DisorderRealization:
    """Draw the constrained random field for one disorder realization.

    Each equivalence class {(j,l), (-j,l+j)} receives exactly one draw,
    attached to the representative with lexicographically positive j; the
    partner entry is filled with the same value.  The stream depends only on
    (seed, j, l), not on evaluation order.
    """
    L = (int(L), int(L)) if np.isscalar(L) else (int(L[0]), int(L[1]))
    values: dict = {}
    for t in spec.terms:
        if not _canonical(t.j):
            continue
        us = np.array(
            [
                _class_uniform(seed, t.j, (l1, l2))
                for l2 in range(L[1])
                for l1 in range(L[0])
            ]
        )
        vs = t.nu.transform(us)
        i = 0
        for l2 in range(L[1]):
            for l1 in range(L[0]):
                v = float(vs[i])
                i += 1
                values[(t.j, (l1, l2))] = v
                if t.j != (0, 0):
                    lp = ((l1 + t.j[0]) % L[0], (l2 + t.j[1]) % L[1])
                    values[((-t.j[0], -t.j[1]), lp)] = v
    return DisorderRealization(L, values, int(seed))


def build_random_hamiltonian(
    H0: TightBindingOperator,
    spec: DisorderSpec,
    lam: float,
    realization: DisorderRealization,
    bc: str = "periodic",
) -> FiniteVolumeOperator:
    """Finite-volume H = H0 + lam * V for one disorder realization."""
    base = assemble_finite_volume(H0, realization.L, bc=bc)
    if lam == 0.0 or not spec.terms:
        return base
    if spec.fiber_dim != H0.fiber.dim:
        raise ValueError(
            f"disorder matrices act on dimension {spec.fiber_dim}, "
            f"model fiber has dimension {H0.fiber.dim}"
        )
    L1, L2 = realization.L
    n = L1 * L2
    v_total = sp.csr_matrix((n * spec.fiber_dim,) * 2, dtype=complex)
    for t in spec.terms:
        rows = np.empty(n, dtype=int)
        cols = np.empty(n, dtype=int)
        data = np.empty(n, dtype=float)
        i = 0
        for l2 in range(L2):
            for l1 in range(L1):
                lp = ((l1 + t.j[0]) % L1, (l2 + t.j[1]) % L2)
                rows[i] = lp[0] + L1 * lp[1]
                cols[i] = l1 + L1 * l2
                data[i] = realization.values[(t.j, (l1, l2))]
                i += 1
        sites = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
        v_total = v_total + sp.kron(sites, sp.csr_matrix(t.W), format="csr")
    defect = float(np.abs(v_total - v_total.getH()).max())
    if defect > 1e-12 * max(float(np.abs(v_total).max()), 1.0):
        raise AssertionError(f"disorder operator not self-adjoint (defect {defect:.3e})")
    return FiniteVolumeOperator(
        realization.L, base.fiber, base.matrix + float(lam) * v_total, base.bc
    )


def gap_closure_threshold(mu: float, r_support: float) -> float:
    """Coupling strength lam = mu / r_support beyond which the gap closes a.s."""
    if not r_support > 0:
        raise ValueError("r_support must be > 0")
    if not mu > 0:
        raise ValueError("threshold formula assumes mu > 0")
    return mu / r_support


# ---------------------------------------------------------------------------
# serialization

def spec_to_json(spec: DisorderSpec) -> str:
    doc = {
        "lambda": spec.lam,
        "terms": [
            {
                "j": list(t.j),
                "W": t.name
                if t.name is not None
                else [[{"re": x.real, "im": x.imag} for x in row] for row in t.W.tolist()],
                "nu": t.nu.to_json(),
            }
            for t in spec.terms
        ],
    }
    return json.dumps(doc, indent=1)


def spec_from_json(text: str, r: int | None = None) -> DisorderSpec:
    """Parse a spec document; W entries may be catalog names (needs ``r``)."""
    doc = json.loads(text)
    terms = []
    for entry in doc["terms"]:
        w = entry["W"]
        name = None
        if isinstance(w, str):
            if r is None:
                raise ValueError("catalog W names require the fiber dimension r")
            name = w
            w = standard_W(w, r)
        else:
            w = np.array(
                [[complex(x["re"], x["im"]) for x in row] for row in w], dtype=complex
            )
        nu = Distribution.from_json(entry["nu"]) if "nu" in entry else Distribution()
        terms.append(DisorderTerm(tuple(entry["j"]), w, nu, name))
    return DisorderSpec(tuple(terms), lam=float(doc.get("lambda", 0.0)))


def realization_to_csv(realization: DisorderRealization) -> str:
    """Audit dump, one row per stored entry: j1,j2,l1,l2,v."""
    lines = ["j1,j2,l1,l2,v"]
    for (j, l) in sorted(realization.values):
        lines.append(
            "%d,%d,%d,%d,%.17g" % (j[0], j[1], l[0], l[1], realization.values[(j, l)])
        )
    return "\n".join(lines) + "\n"
