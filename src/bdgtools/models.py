"""Concrete lattice superconductor models.

The catalog covers the standard translation-invariant pairing potentials on
the square lattice (s, extended s, p, chiral p, spinful p, triplet p, d and
chiral d waves), the nearest-neighbour one-electron Hamiltonian, and the
particle-hole doubled Bogoliubov-de Gennes (BdG) form

    H_mu = 1/2 [[h - mu, Delta], [-conj(Delta), -(conj(h) - mu)]] .

Spin-1/2 matrices are s^a = sigma^a / 2; constant factors from this choice
are absorbed into the pairing amplitudes.  For the chiral d-wave the two
amplitudes are normalized so that the reduced 2x2 Bloch blocks carry exactly
delta*(cos k1 - cos k2) and delta*sin k1*sin k2, which fixes the relative
lattice weights of the x^2-y^2 and xy parts to 2:1.

Two families have closed-form bands:

* chiral p-wave (r=1):  E_+(k)^2 = (cos k1 + cos k2 - mu/2)^2
                                   + delta^2 (sin^2 k1 + sin^2 k2)
* chiral d-wave (r=2):  E_+(k)^2 = (cos k1 + cos k2 - mu/2)^2
                                   + delta^2 (cos k1 cos k2 - 1)^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import (
    FiberShape,
    TightBindingOperator,
    _bloch_points,
    _hermitian_bloch_points,
    _local_minima,
    _periodic_grid,
    _require_closure,
    check_bdg_equation,
    tight_binding,
)

__all__ = [
    "PairingKind",
    "ModelParams",
    "BandPoint",
    "MODEL_NAMES",
    "pairing_kind",
    "build_pairing",
    "build_one_electron",
    "build_bdg",
    "build_model",
    "reduce_su2",
    "example_bands",
    "central_gap",
]


SIGMA = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}

def spin_matrix(a: int) -> np.ndarray:
    """Spin-1/2 operator s^a = sigma^a / 2."""
    return SIGMA[a] / 2


# Scalar shift polynomials as displacement -> coefficient maps.
_SYM1 = {(1, 0): 1.0, (-1, 0): 1.0}          # S1 + S1*
_ASYM1 = {(1, 0): 1.0, (-1, 0): -1.0}        # S1 - S1*
_SYM2 = {(0, 1): 1.0, (0, -1): 1.0}          # S2 + S2*
_ASYM2 = {(0, 1): 1.0, (0, -1): -1.0}        # S2 - S2*
# (S1 - S1*)(S2 - S2*)
_ASYM12 = {(1, 1): 1.0, (1, -1): -1.0, (-1, 1): -1.0, (-1, -1): 1.0}


def _poly(*weighted) -> dict:
    """Combine scalar polynomials: _poly((c1, p1), (c2, p2), ...)."""
    out: dict = {}
    for c, p in weighted:
        for j, w in p.items():
            out[j] = out.get(j, 0.0) + c * w
    return out


def _tensor(poly: dict, mat: np.ndarray) -> dict:
    return {j: c * mat for j, c in poly.items()}


_SIGNED_TAGS = frozenset({"p_ip", "p_triplet", "d_id"})
_TAG_FIBER_R = {
    "s": 2,
    "s_star": 2,
    "p_x": 2,
    "p_ip": 1,
    "p_spinful": 2,
    "p_triplet": 2,
    "d_xy": 2,
    "d_x2y2": 2,
    "d_id": 2,
}


@dataclass(frozen=True)
class PairingKind:
    """Tag plus chirality sign selecting one pairing potential of the catalog."""

    tag: str
    sign: int = +1

    def __post_init__(self) -> None:
        if self.tag not in _TAG_FIBER_R:
            raise ValueError(f"unknown pairing tag {self.tag!r}")
        if self.tag in _SIGNED_TAGS:
            if self.sign not in (+1, -1):
                raise ValueError(f"sign must be +1 or -1 for {self.tag!r}")
        else:
            object.__setattr__(self, "sign", +1)

    @property
    def r(self) -> int:
        """Internal fiber dimension the pairing acts on (1 spinless, 2 spinful)."""
        return _TAG_FIBER_R[self.tag]


#: Command-line model names -> pairing kinds.
MODEL_NAMES: dict[str, PairingKind] = {
    "s": PairingKind("s"),
    "s-star": PairingKind("s_star"),
    "px": PairingKind("p_x"),
    "pip+": PairingKind("p_ip", +1),
    "pip-": PairingKind("p_ip", -1),
    "p-spinful": PairingKind("p_spinful"),
    "p-triplet+": PairingKind("p_triplet", +1),
    "p-triplet-": PairingKind("p_triplet", -1),
    "dxy": PairingKind("d_xy"),
    "dx2y2": PairingKind("d_x2y2"),
    "did+": PairingKind("d_id", +1),
    "did-": PairingKind("d_id", -1),
}


def pairing_kind(name: str) -> PairingKind:
    """Resolve a command-line model name to its :class:`PairingKind`."""
    try:
        return MODEL_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}"
        ) from None


@dataclass(frozen=True)
class ModelParams:
    """Pairing amplitude and chemical potential of a closed-form band model."""

    delta: float
    mu: float

    def __post_init__(self) -> None:
        for name in ("delta", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class BandPoint:
    """Closed-form band energies at one quasi-momentum."""

    k: tuple[float, float]
    E_plus: float
    E_minus: float

    def __post_init__(self) -> None:
        if self.E_plus < 0 or abs(self.E_minus + self.E_plus) > 1e-12:
            raise ValueError("bands must satisfy E_minus = -E_plus <= 0")


def build_pairing(
    kind: PairingKind | str,
    delta: float,
    *,
    delta_x2y2: float | None = None,
    delta_xy: float | None = None,
) -> TightBindingOperator:
    """Pairing potential Delta of the requested kind on its natural fiber.

    ``delta`` is the single amplitude of the kind; for the chiral d-wave the
    two parts may instead be weighted independently via ``delta_x2y2`` and
    ``delta_xy`` (amplitudes of cos k1 - cos k2 and sin k1 sin k2 in the
    reduced Bloch blocks).  Every output satisfies Delta* = -conj(Delta)
    exactly.
    """
    if isinstance(kind, str):
        kind = PairingKind(kind) if kind in _TAG_FIBER_R else pairing_kind(kind)
    d = float(delta)
    is2 = 1j * spin_matrix(2)
    if kind.tag == "s":
        terms = {(0, 0): d * is2}
    elif kind.tag == "s_star":
        terms = _tensor(_poly((d, _SYM1), (d, _SYM2)), is2)
    elif kind.tag == "p_x":
        terms = _tensor(_poly((d, _ASYM1)), spin_matrix(1))
    elif kind.tag == "p_ip":
        # "+" labels the branch whose pairing lobe is sin k1 - i sin k2, the
        # one carrying Chern number -1 at (delta, mu) = (0.3, -0.5).
        poly = _poly((d, _ASYM1), (-kind.sign * 1j * d, _ASYM2))
        terms = {j: np.array([[c]], dtype=complex) for j, c in poly.items()}
    elif kind.tag == "p_spinful":
        # chiral combination with the spin part s^1 on both lobes
        terms = _tensor(_poly((d, _ASYM1), (1j * d, _ASYM2)), spin_matrix(1))
    elif kind.tag == "p_triplet":
        terms = _poly(
            (1.0, _tensor(_poly((d, _ASYM1)), np.eye(2, dtype=complex))),
            (1.0, _tensor(_poly((kind.sign * 1j * d, _ASYM2)), spin_matrix(3))),
        )
    elif kind.tag == "d_xy":
        terms = _tensor(_poly((d, _ASYM12)), is2)
    elif kind.tag == "d_x2y2":
        terms = _tensor(_poly((d, _SYM1), (-d, _SYM2)), is2)
    elif kind.tag == "d_id":
        w1 = d if delta_x2y2 is None else float(delta_x2y2)
        w2 = d if delta_xy is None else float(delta_xy)
        # lattice weights 2*w1 and w2 give reduced Bloch coefficients w1, w2
        poly = _poly(
            (2 * w1, _SYM1),
            (-2 * w1, _SYM2),
            (kind.sign * 1j * w2, _ASYM12),
        )
        terms = _tensor(poly, is2)
    else:  # pragma: no cover - guarded by PairingKind
        raise ValueError(f"unhandled pairing tag {kind.tag!r}")
    return tight_binding(FiberShape(kind.r, ph=False), terms)


def build_one_electron(r: int = 1) -> TightBindingOperator:
    """Nearest-neighbour one-electron Hamiltonian h = S1 + S1* + S2 + S2*.

    Tensored with the identity on the internal fiber C^r.  Random on-site
    potentials are the job of the disorder layer, which perturbs the
    finite-volume realization directly.
    """
    one = np.eye(r, dtype=complex)
    terms = {j: c * one for j, c in _poly((1.0, _SYM1), (1.0, _SYM2)).items()}
    return tight_binding(FiberShape(r, ph=False), terms)


def build_bdg(
    h: TightBindingOperator, delta: TightBindingOperator, mu: float
) -> TightBindingOperator:
    """Particle-hole double h and Delta into the BdG operator at chemical potential mu.

    The output acts on the fiber C^r (x) C^2 ordered particle-first and
    satisfies the even particle-hole symmetry exactly by construction.
    """
    if h.fiber.ph or delta.fiber.ph:
        raise ValueError("h and Delta must act on the undoubled fiber")
    if h.fiber.r != delta.fiber.r:
        raise ValueError(
            f"fiber mismatch: h has r={h.fiber.r}, Delta has r={delta.fiber.r}"
        )
    _require_closure(h, "build_bdg")
    defect = check_bdg_equation(delta)
    if defect > 1e-10:
        raise ValueError(
            f"Delta violates Delta* = -conj(Delta) (defect {defect:.3e})"
        )
    r = h.fiber.r
    mu = float(mu)
    zero = np.zeros((r, r), dtype=complex)
    one = np.eye(r, dtype=complex)
    terms: dict = {}
    for j in sorted(set(h.terms) | set(delta.terms)):
        hj = h.block(j)
        dj = delta.block(j)
        if j == (0, 0):
            hj = hj - mu * one
        terms[j] = 0.5 * np.block([[hj, dj], [-dj.conj(), -hj.conj()]])
    if (0, 0) not in terms and mu != 0.0:
        terms[(0, 0)] = 0.5 * np.block(
            [[-mu * one, zero], [zero, mu * one]]
        )
    return tight_binding(FiberShape(r, ph=True), terms)


def build_model(name: str, delta: float, mu: float) -> TightBindingOperator:
    """BdG operator for a catalog model name with clean nearest-neighbour h."""
    kind = pairing_kind(name)
    return build_bdg(
        build_one_electron(kind.r), build_pairing(kind, delta), mu
    )


# Fiber index layout of the spin-1/2 BdG operator: (p-up, p-down, h-up, h-down).
_SU2_BLOCK_A = (0, 3)   # particle-up / hole-down
_SU2_BLOCK_B = (1, 2)   # particle-down / hole-up

#: Largest spin-mixing or sector-mismatch entry that ``reduce_su2`` accepts.
_SU2_TOL = 1e-12


def reduce_su2(H: TightBindingOperator) -> tuple[TightBindingOperator, TightBindingOperator]:
    """Split an SU(2)-invariant spin-1/2 BdG operator into its two 2x2 sectors.

    The operator must be block-diagonal in the (p-up, h-down) / (p-down, h-up)
    split, and SU(2) invariance forces the second sector to equal
    sigma3 H+ sigma3 (verified).  Returned are (H+, H-) with H- = conj(H+),
    the representative of the second sector with the opposite chirality;
    the original operator is recovered as H+ (+) sigma3 conj(H-) sigma3
    under the fixed fiber permutation (p-up, h-down, p-down, h-up).  Both
    outputs satisfy the odd particle-hole symmetry.  Entries that break
    either condition by more than 1e-12 raise ``ValueError``.
    """
    if not (H.fiber.ph and H.fiber.r == 2):
        raise ValueError("reduce_su2 expects a spin-1/2 particle-hole operator")
    s3 = SIGMA[3]
    plus: dict = {}
    for j, b in H.terms.items():
        cross = max(
            float(np.abs(b[np.ix_(_SU2_BLOCK_A, _SU2_BLOCK_B)]).max()),
            float(np.abs(b[np.ix_(_SU2_BLOCK_B, _SU2_BLOCK_A)]).max()),
        )
        if cross > _SU2_TOL:
            raise ValueError(
                f"not SU(2)-decomposable: spin-mixing entries of size {cross:.3e} "
                f"at displacement {j}"
            )
        pj = b[np.ix_(_SU2_BLOCK_A, _SU2_BLOCK_A)]
        qj = b[np.ix_(_SU2_BLOCK_B, _SU2_BLOCK_B)]
        if float(np.abs(qj - s3 @ pj @ s3).max()) > _SU2_TOL:
            raise ValueError(
                f"not SU(2)-invariant: sectors at displacement {j} are not "
                "sigma3-conjugates"
            )
        plus[j] = pj
    fiber = FiberShape(1, ph=True)
    h_plus = tight_binding(fiber, plus)
    h_minus = tight_binding(fiber, {j: b.conj() for j, b in plus.items()})
    return h_plus, h_minus


_CLOSED_FORM_TAGS = ("p_ip", "d_id")

#: Side of the coarse momentum grid that seeds every band-distance refinement.
_GAP_GRID = 64


def _square(x):
    """``x ** 2`` rounded as the C library's ``pow(x, 2.0)`` rounds it.

    A float or NumPy scalar ``** 2`` calls ``pow``, but NumPy turns
    ``array ** 2`` into ``x * x``, which differs in the last bit for about
    0.1 % of inputs.  Arrays therefore go through ``float_power`` with a
    scalar exponent, which takes no such shortcut, so a grid and its
    per-point values agree bit for bit (pinned by the coarse-grid
    equivalence tests).  Scalars keep ``** 2``, which costs a tenth of a
    ufunc call in the Nelder-Mead loop.
    """
    if isinstance(x, (float, np.floating)):
        return x ** 2
    return np.float_power(x, 2)


def _closed_form_eplus(tag: str, params: ModelParams, xp=np) -> Callable:
    """E_+(k1, k2), written once over the ufunc module ``xp``: ``numpy`` for
    grids, ``math`` for single points, which it evaluates on plain floats at a
    fraction of the cost of a NumPy scalar call.  Both give the same bits (the
    coarse-grid equivalence tests pin the grid to the ``math`` points)."""
    delta, mu = params.delta, params.mu
    if tag == "p_ip":
        def eplus(k1, k2):
            band = xp.cos(k1) + xp.cos(k2) - mu / 2
            return xp.sqrt(
                band * band
                + delta * delta * (_square(xp.sin(k1)) + _square(xp.sin(k2)))
            )
    elif tag == "d_id":
        def eplus(k1, k2):
            c1, c2 = xp.cos(k1), xp.cos(k2)
            band = c1 + c2 - mu / 2
            pair = c1 * c2 - 1.0
            return xp.sqrt(band * band + delta * delta * pair * pair)
    else:
        raise ValueError(
            f"no closed-form bands for {tag!r}; use the generic Bloch route"
        )
    return eplus


def _resolve_band_tag(model) -> str:
    if isinstance(model, PairingKind):
        return model.tag
    if isinstance(model, str):
        kind = MODEL_NAMES.get(model)
        tag = kind.tag if kind is not None else model
        return tag
    raise TypeError(f"expected model name or PairingKind, got {type(model)}")


def example_bands(model, params: ModelParams, k) -> BandPoint:
    """Closed-form bands E_+- (chiral p- or d-wave) at quasi-momentum k."""
    tag = _resolve_band_tag(model)
    eplus = _closed_form_eplus(tag, params, math)
    e = eplus(float(k[0]), float(k[1]))
    return BandPoint((float(k[0]), float(k[1])), e, -e)


def _grid_bands(model: TightBindingOperator, ks: np.ndarray, what: str) -> np.ndarray:
    """The Bloch eigenvalues of ``model`` on the product grid ``ks x ks``,
    ``(len(ks), len(ks), d)``, with the checks of ``assemble_bloch``."""
    return np.linalg.eigvalsh(_hermitian_bloch_points(model, ks[:, None], ks[None, :], what))


def _gap_objective(model, params, ks: np.ndarray, E: float = 0.0, what: str = "central_gap",
                   bands: np.ndarray | None = None):
    """Squared distance from the energy ``E`` to the bands of ``model``.

    Returns ``(values, esq, label)``: ``values[a, b]`` is min_i (E_i(k) - E)^2
    at ``k = (ks[a], ks[b])`` from one vectorized pass, ``esq(k)`` the same
    quantity at one point (bitwise equal on the grid), and ``label`` names
    the model in error messages (``what``, the caller, in the Bloch checks).
    An operator's grid eigenvalues may be passed as ``bands``
    (:func:`_grid_bands` of ``ks``), so that several energies share one
    diagonalization.  On closed-form bands +-E_+ it is (E_+ - |E|)^2, E_+^2
    at E = 0.
    """
    if isinstance(model, TightBindingOperator):
        def min_esq(e):  # smallest (E_i - E)^2 of one Bloch spectrum or of a stack
            return _square(np.abs(e - E).min(axis=-1))

        def esq(k):
            return float(min_esq(np.linalg.eigvalsh(_bloch_points(model, k[0], k[1]))))

        values = min_esq(_grid_bands(model, ks, what) if bands is None else bands)
        label = (
            f"operator (fiber dimension {model.fiber.dim}, "
            f"{len(model.terms)} terms)"
        )
    else:
        tag = _resolve_band_tag(model)
        grid, point = (_closed_form_eplus(tag, params, xp) for xp in (np, math))

        def esq(k):
            return _square(point(k[0], k[1]) - abs(E))

        values = _square(grid(*np.meshgrid(ks, ks, indexing="ij")) - abs(E))
        label = f"{model!r} at delta={params.delta!r}, mu={params.mu!r}"
    return values, esq, label


@dataclass(frozen=True)
class _Simplex:
    """The outcome of :func:`_nelder_mead`, with the fields of SciPy's
    ``OptimizeResult`` that the callers read."""

    x: tuple[float, float]
    fun: float
    nfev: int
    nit: int
    success: bool
    message: str


def _nan_last(vertex) -> tuple:
    """Sort key of a ``(value, point)`` vertex in NumPy's order: NaN after all."""
    f = vertex[0]
    return (f != f, f)


def _nelder_mead(f, x0, xatol: float, fatol: float, maxiter: int) -> _Simplex:
    """Minimize ``f`` of two variables from ``x0`` by SciPy's Nelder-Mead.

    The non-adaptive simplex of SciPy's ``minimize(method="Nelder-Mead")``
    without bounds, on plain floats: SciPy's NumPy bookkeeping on 3 x 2
    arrays costs several times a closed-form objective.  The start simplex,
    the centroid, the steps, the shrink and the stable sort by value copy
    SciPy's arithmetic literally, so the vertices, ``nfev``, ``nit``, ``x``
    and ``fun`` agree with it bit for bit (pinned in ``tests/test_models.py``).
    The one exception is the sign of a zero: SciPy's ``fun`` is ``np.min``
    of the final values, which may return -0.0 where the best vertex holds
    +0.0 or back; the squared objectives here never yield -0.0.  ``f``
    receives each point as a tuple of floats.  The run stops once the
    simplex spans at most ``xatol`` in each coordinate and ``fatol`` in
    value, tested before each iteration, and fails once ``nit`` reaches
    ``maxiter``.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    start = [(float(x0[0]), float(x0[1]))]
    for k in range(2):
        y = list(start[0])
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        start.append(tuple(y))
    sim = sorted([(f(p), p) for p in start], key=_nan_last)
    nfev, nit = 3, 1
    while nit < maxiter:
        (f0, (a0, b0)), (f1, (a1, b1)), (f2, (a2, b2)) = sim
        if (abs(a1 - a0) <= xatol and abs(b1 - b0) <= xatol and abs(a2 - a0) <= xatol
                and abs(b2 - b0) <= xatol and abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol):
            break
        xa, xb = (a0 + a1) / 2, (b0 + b1) / 2  # the centroid of the two best
        r = ((1 + rho) * xa - rho * a2, (1 + rho) * xb - rho * b2)
        fr = f(r)
        nfev += 1
        if fr < f0:
            e = ((1 + rho * chi) * xa - rho * chi * a2, (1 + rho * chi) * xb - rho * chi * b2)
            fe = f(e)
            nfev += 1
            sim[2] = (fe, e) if fe < fr else (fr, r)
        elif fr < f1:
            sim[2] = (fr, r)
        else:
            if fr < f2:  # outside contraction
                c = ((1 + psi * rho) * xa - psi * rho * a2, (1 + psi * rho) * xb - psi * rho * b2)
                fc = f(c)
                accept = fc <= fr
            else:  # inside contraction
                c = ((1 - psi) * xa + psi * a2, (1 - psi) * xb + psi * b2)
                fc = f(c)
                accept = fc < f2
            nfev += 1
            if accept:
                sim[2] = (fc, c)
            else:  # shrink towards the best vertex
                for j in (1, 2):
                    aj, bj = sim[j][1]
                    p = (a0 + sigma * (aj - a0), b0 + sigma * (bj - b0))
                    sim[j] = (f(p), p)
                nfev += 2
        nit += 1
        sim.sort(key=_nan_last)
    success = nit < maxiter
    return _Simplex(
        x=sim[0][1],
        fun=next((v for v, _ in sim if v != v), sim[0][0]),  # NaN wins, as in np.min
        nfev=nfev,
        nit=nit,
        success=success,
        message="Optimization terminated successfully." if success
        else "Maximum number of iterations has been exceeded.",
    )


def _distance_sq(model, params, E: float, what: str, bands: np.ndarray | None = None) -> float:
    """The refined min_k of :func:`_gap_objective`: the one search behind
    :func:`central_gap` and :func:`~bdgtools.greens.spectral_distance`.

    Nelder-Mead refines the three lowest basins of the coarse 64 x 64 scan
    (:func:`~bdgtools.lattice._local_minima`; fewer when it has fewer), so
    three cells of one shallow basin cannot hide a deeper one.  A refinement
    stops once its simplex spans less than 1e-10 in k, where the objective
    is flat to rounding; one that hits the iteration cap raises
    :class:`ArithmeticError` naming ``what``, the model and the start cell.
    ``bands`` are an operator's :func:`_grid_bands` on that grid, if known.
    """
    ks = _periodic_grid(_GAP_GRID)
    values, esq, label = _gap_objective(model, params, ks, E, what, bands)
    seeds = np.argwhere(_local_minima(values))
    best = np.inf
    for i, j in seeds[np.argsort(values[tuple(seeds.T)], kind="stable")[:3]]:
        # stop on k alone: any fatol below one ulp of the objective is unreachable
        res = _nelder_mead(esq, (ks[i], ks[j]), xatol=1e-10, fatol=math.inf, maxiter=4000)
        if not res.success:
            raise ArithmeticError(
                f"{what}: refinement for {label} from coarse cell "
                f"({i}, {j}), k = ({ks[i]:.6f}, {ks[j]:.6f}), did not "
                f"converge: {res.message}"
            )
        best = min(best, float(res.fun), values[i, j])
    return max(best, 0.0)


def central_gap(model, params: ModelParams) -> float:
    """Spectral gap around zero: g = 2 min_k E_+(k), twice the root of
    :func:`_distance_sq` at E = 0.

    ``model`` is a catalog name or :class:`PairingKind` (closed-form bands
    at ``params``) or a :class:`TightBindingOperator` (minimized through its
    Bloch matrices; ``params`` is then unused).  A gapped g is converged to
    a few ulp, and a closed gap comes out below 1e-8.
    """
    return 2.0 * math.sqrt(_distance_sq(model, params, 0.0, "central_gap"))
