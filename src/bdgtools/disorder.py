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
reproducible, order-independent and safe to sample in parallel.  One
vectorized Philox pass draws every site of a displacement at once, bit for
bit the draws of NumPy's ``Philox``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._parallel import parallel_map
from .lattice import (
    FiniteVolumeOperator,
    TightBindingOperator,
    _as_box,
    _assemble,
    assemble_finite_volume,
    check_phs,
)
from .models import reduce_su2

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
        if self.kind == "uniform" and not 0 < self.r_support < np.inf:
            raise ValueError("uniform distribution needs a finite r_support > 0")
        if self.kind == "truncated_gaussian" and not (
            0 < self.sigma < np.inf and 0 < self.cutoff < np.inf
        ):
            raise ValueError("truncated gaussian needs finite sigma > 0 and cutoff > 0")

    @property
    def support_radius(self) -> float:
        return self.r_support if self.kind == "uniform" else self.cutoff

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniform [0,1) draws."""
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            return self.r_support * (2.0 * u - 1.0)
        from scipy.stats import truncnorm  # here, not at the top: it dominates import time

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
        if len(self.j) != 2:
            raise ValueError(f"a disorder term's displacement j is a pair, got {self.j!r}")
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
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"coupling lam must be finite and >= 0, got {self.lam!r}")

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


class _FieldView(Mapping):
    """Read-only (j, l) -> v view of one read-only (L1, L2) array per j.

    Iteration is sorted by (j, l).
    """

    def __init__(self, fields: dict):
        for a in fields.values():
            a.setflags(write=False)
        self.fields = MappingProxyType(fields)

    @classmethod
    def from_items(cls, L: tuple[int, int], values) -> "_FieldView":
        """Arrays from a (j, l) -> v mapping covering every site of each j."""
        by_j: dict = {}
        for (j, l), v in values.items():
            by_j.setdefault((int(j[0]), int(j[1])), {})[(int(l[0]), int(l[1]))] = float(v)
        sites = set(np.ndindex(L))
        fields = {}
        for j, by_l in by_j.items():
            if by_l.keys() != sites:
                raise ValueError(f"field at displacement {j} does not cover the box {L}")
            fields[j] = np.array([by_l[l] for l in np.ndindex(L)], dtype=float).reshape(L)
        return cls(fields)

    def __getitem__(self, key) -> float:
        j, l = key
        a = self.fields.get((j[0], j[1]))
        if a is None or not (0 <= l[0] < a.shape[0] and 0 <= l[1] < a.shape[1]):
            raise KeyError(key)
        return float(a[l[0], l[1]])

    def __iter__(self):
        for j in sorted(self.fields):
            for l in np.ndindex(self.fields[j].shape):
                yield (j, l)

    def __len__(self) -> int:
        return sum(a.size for a in self.fields.values())


@dataclass(frozen=True)
class DisorderRealization:
    """One sampled field v_{j,l} on the L1 x L2 torus.

    The field is stored as one read-only (L1, L2) array per displacement j,
    mirrors included, so the constraint v_{j,l} = v_{-j,l+j} reads
    ``field(-j) == np.roll(field(j), j, axis=(0, 1))``.  ``values`` is a
    read-only (j, l) -> v Mapping view of the same arrays.  A realization
    may also be built from any such mapping, as long as it covers every
    site of each displacement it names.
    """

    L: tuple[int, int]
    values: Mapping
    seed: int

    def __post_init__(self) -> None:
        L = _as_box(self.L)
        object.__setattr__(self, "L", L)
        if not isinstance(self.values, _FieldView):
            object.__setattr__(self, "values", _FieldView.from_items(L, self.values))

    def field(self, j) -> np.ndarray:
        """Couplings at displacement j as a read-only (L1, L2) array indexed by l."""
        return self.values.fields[(int(j[0]), int(j[1]))]


def _pack(x: tuple[int, int]) -> int:
    return ((x[0] + (1 << 31)) << 32) + (x[1] + (1 << 31))


# Philox4x64-10 round multipliers and key increments (Salmon et al.,
# "Parallel random numbers: as easy as 1, 2, 3", SC'11)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * b."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = a_hi * b_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * b


def _philox_uniforms(seed: int, j: tuple[int, int], L: tuple[int, int]) -> np.ndarray:
    """The uniform [0, 1) draw of every disorder class (j, l) of the box, as an (L1, L2) array.

    ``tests/test_disorder.py`` keeps the scalar reference, one NumPy
    ``Philox`` generator per class.

    One Philox4x64-10 block per class, as NumPy's ``Philox`` computes it:
    the counter (pack(j), pack(l), 0, 0) is bumped once, with carry, before
    the first block, and word 0 becomes the double (x >> 11) * 2^-53.
    """
    l1, l2 = np.indices(L, dtype=np.uint64)
    offset = np.uint64(1 << 31)
    ctr = [
        np.full(L, _pack(j), dtype=np.uint64),
        ((l1 + offset) << _SHIFT32) + (l2 + offset),
        np.zeros(L, dtype=np.uint64),
        np.zeros(L, dtype=np.uint64),
    ]
    carry = np.ones(L, dtype=bool)
    for i in range(4):
        ctr[i] = ctr[i] + carry.astype(np.uint64)
        carry &= ctr[i] == 0
    k0, k1 = seed & _MASK64, 0
    for rnd in range(10):
        if rnd:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ np.uint64(k0), lo1, hi0 ^ ctr[3] ^ np.uint64(k1), lo0]
    return (ctr[0] >> np.uint64(11)) * (1.0 / (1 << 53))


def sample_realization(spec: DisorderSpec, L, seed: int) -> DisorderRealization:
    """Draw the constrained random field for one disorder realization.

    Each equivalence class {(j,l), (-j,l+j)} receives exactly one draw,
    attached to the representative with lexicographically positive j; the
    mirror field at -j is the same array rolled by j.  The stream depends
    only on (seed, j, l), not on evaluation order.
    """
    L = _as_box(L)
    fields = {}
    for t in spec.terms:
        if _canonical(t.j):
            v = t.nu.transform(_philox_uniforms(seed, t.j, L))
            fields[t.j] = v
            if t.j != (0, 0):
                fields[(-t.j[0], -t.j[1])] = np.roll(v, t.j, axis=(0, 1))
    return DisorderRealization(L, _FieldView(fields), int(seed))


def _is_clean(spec: DisorderSpec | None, lam: float) -> bool:
    """True when ``lam * V`` vanishes: no spec, ``lam = 0`` or no terms."""
    return spec is None or lam == 0.0 or not spec.terms


def build_random_hamiltonian(
    H0: TightBindingOperator | FiniteVolumeOperator,
    spec: DisorderSpec,
    lam: float,
    realization: DisorderRealization,
    bc: str = "periodic",
) -> FiniteVolumeOperator:
    """Finite-volume H = H0 + lam * V for one disorder realization.

    ``H0`` is the clean operator, or its finite volume already assembled on
    the realization's box with boundary condition ``bc``; the ensemble path
    passes the latter, so it assembles H0 once per ensemble.  With
    ``bc="open"`` a disorder hop leaving the box is dropped, as in H0; its
    mirror class, which re-enters across the opposite face, goes with it,
    so V stays Hermitian.
    """
    if isinstance(H0, FiniteVolumeOperator):
        if (H0.L, H0.bc) != (realization.L, bc):
            raise ValueError(
                f"H0 is assembled on the {H0.bc} box {H0.L}, "
                f"the realization needs the {bc} box {realization.L}"
            )
        base = H0
    else:
        base = assemble_finite_volume(H0, realization.L, bc=bc)
    if _is_clean(spec, lam):
        return base
    if spec.fiber_dim != H0.fiber.dim:
        raise ValueError(
            f"disorder matrices act on dimension {spec.fiber_dim}, "
            f"model fiber has dimension {H0.fiber.dim}"
        )
    V = _assemble(
        realization.L, bc, spec.fiber_dim,
        ((t.j, realization.field(t.j), t.W) for t in spec.terms),
    )
    return FiniteVolumeOperator(
        realization.L, base.fiber, base.matrix + float(lam) * V, base.bc
    )


def _su2_sector(model: TightBindingOperator, spec: DisorderSpec):
    """The sector input ``(H+, spec+)`` of a disordered input that reduces, or
    None.  It reduces when ``models.reduce_su2`` accepts the model and every
    spec term: no spin-mixing entries, and a second block equal to
    sigma3 W+ sigma3, both within ``models._SU2_TOL``.  ``spec+`` keeps every
    term's j and distribution, with W restricted to the first sector, so it
    draws the same field and every realization ``H+ + lam V+`` is exactly the
    first sector of ``H0 + lam V``; the second sector is sigma3 (H+ + lam V+)
    sigma3, with the same spectrum."""
    try:
        plus, _ = reduce_su2(model)
        v_plus, _ = reduce_su2(TightBindingOperator(model.fiber, {t.j: t.W for t in spec.terms}))
    except ValueError:
        return None
    terms = tuple(DisorderTerm(t.j, v_plus.block(t.j), t.nu) for t in spec.terms)
    return plus, DisorderSpec(terms, spec.lam)


@dataclass(frozen=True)
class _Ensemble:
    """One disorder-averaged input, checked once: realization i of
    ``H0 + lam * V`` on the periodic ``box`` is drawn from ``seed + i`` and
    mapped on ``threads`` pool threads.

    A disordered input whose model and spec split into the two 2x2 SU(2)
    sectors (:func:`_su2_sector`) is realized on the first sector alone:
    ``realized_model`` and ``realized_spec`` are then H+ and spec+, and
    ``multiplicity`` is 2, the number of sectors with the same spectrum.
    Any other input is realized as given, with multiplicity 1.  ``route``
    is the one route rule, on the realized input:

    * ``"bloch"``: ``lam * V`` vanishes (no spec, ``lam = 0`` or no terms),
      so the clean box is exact through its Bloch fibers;
    * ``"paired"``: disordered, and the model and every spec term obey
      ``C* conj(B) C = -B`` with one parity (``lattice.check_phs``).  The
      couplings are real, so every realization's spectrum pairs as (E, -E);
    * ``"general"``: any other input.

    ``parity`` is the parity that made the input ``"paired"``, ``"even"``
    when both hold, and None on the other routes.

    ``reach`` is the R of the distance rule ``L/2 - R``: the model range, or
    the larger of the model and disorder ranges on a disordered input.
    """

    model: TightBindingOperator
    spec: DisorderSpec | None
    lam: float
    box: tuple[int, int]
    n_realizations: int
    seed: int
    threads: int
    route: str = field(init=False)
    reach: int = field(init=False)
    realized_model: TightBindingOperator = field(init=False)
    realized_spec: DisorderSpec | None = field(init=False)
    multiplicity: int = field(init=False)
    parity: str | None = field(init=False)

    def __post_init__(self) -> None:
        model, spec = self.model, self.spec
        if not isinstance(model, TightBindingOperator):
            raise TypeError("model must be a TightBindingOperator")
        if self.n_realizations < 1:
            raise ValueError(f"n_realizations must be >= 1, got {self.n_realizations}")
        object.__setattr__(self, "box", _as_box(self.box))
        route, reach, multiplicity, parity = "bloch", model.range, 1, None
        if not _is_clean(spec, self.lam):
            reach = max(reach, spec.range)
            sector = _su2_sector(model, spec)
            if sector is not None:
                (model, spec), multiplicity = sector, 2
            route = "general"
            if model.fiber.ph and spec.fiber_dim == model.fiber.dim:
                V = TightBindingOperator(model.fiber, {t.j: t.W for t in spec.terms})
                parity = next((p for p in ("even", "odd")
                               if check_phs(model, p).holds and check_phs(V, p).holds), None)
                if parity is not None:
                    route = "paired"
        object.__setattr__(self, "route", route)
        object.__setattr__(self, "reach", reach)
        object.__setattr__(self, "realized_model", model)
        object.__setattr__(self, "realized_spec", spec)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "parity", parity)


def _realization_map(fn, ens: _Ensemble) -> list:
    """``fn`` of every realization's finite-volume Hamiltonian, in order: the
    one disorder-ensemble path.  H0 is assembled once, and realization i is
    drawn from ``seed + i`` and added as ``H0 + lam * V``, both of the
    realized input: the first SU(2) sector when ``ens.multiplicity`` is 2,
    and each caller accounts for the second.  A ``"bloch"`` ensemble is the
    one clean box, ``[fn(H0)]``."""
    model, spec = ens.realized_model, ens.realized_spec
    base = assemble_finite_volume(model, ens.box)
    if ens.route == "bloch":
        return [fn(base)]
    return parallel_map(
        lambda i: fn(
            build_random_hamiltonian(
                base, spec, ens.lam, sample_realization(spec, ens.box, ens.seed + i)
            )
        ),
        range(ens.n_realizations),
        ens.threads,
    )


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the realizations (axis 0) and its standard error
    ``std(ddof=1) / sqrt(n)``, zero for a single realization."""
    mean = samples.mean(axis=0)
    if len(samples) < 2:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / np.sqrt(len(samples))


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
    """Parse a spec document; W entries may be catalog names (needs ``r``).

    A document that is not an object with a ``terms`` list of objects, each
    with ``j`` and ``W``, or a term whose entries do not parse, raises
    ``ValueError``.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("terms"), list):
        raise ValueError('a disorder spec is a JSON object with a "terms" list')
    terms = []
    for entry in doc["terms"]:
        if not isinstance(entry, dict) or not {"j", "W"} <= entry.keys():
            raise ValueError(f'a disorder term needs "j" and "W", got {entry!r}')
        w = entry["W"]
        name = None
        if isinstance(w, str):
            if r is None:
                raise ValueError("catalog W names require the fiber dimension r")
            name = w
            w = standard_W(w, r)
        try:
            if name is None:
                w = np.array(
                    [[complex(x["re"], x["im"]) for x in row] for row in w], dtype=complex
                )
            nu = Distribution.from_json(entry["nu"]) if "nu" in entry else Distribution()
            terms.append(DisorderTerm(tuple(entry["j"]), w, nu, name))
        except (AttributeError, TypeError, KeyError, IndexError) as err:
            raise ValueError(f"bad disorder term {entry!r}: {err!r}") from None
    return DisorderSpec(tuple(terms), lam=float(doc.get("lambda", 0.0)))


def realization_to_csv(realization: DisorderRealization) -> str:
    """Audit dump, one row per stored entry sorted by (j, l): j1,j2,l1,l2,v."""
    lines = ["j1,j2,l1,l2,v"]
    for (j, l), v in realization.values.items():
        lines.append("%d,%d,%d,%d,%.17g" % (j[0], j[1], l[0], l[1], v))
    return "\n".join(lines) + "\n"
