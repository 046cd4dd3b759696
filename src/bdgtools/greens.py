"""Resolvents, Combes--Thomas probes, and fractional-moment localization scans.

Everything here works with finite-volume operators.  The central object is
:class:`ResolventSolver`, a sparse-LU factorization of ``z - H`` that serves
site-block queries ``G^z(n, m)`` with a certified relative residual.  Every
sparse factor of a finite volume, here and in ``spectral``, is one realization's
:class:`~bdgtools.lattice._Pencil` factored at a shift.  A clean
periodic box needs no factorization: its columns come from the Bloch fibers
(:func:`_bloch_columns`), certified by the same residual rule.  On top of
them sit

* :func:`combes_thomas_probe` -- clean-operator decay rates versus the
  distance ``D(z)`` from ``z`` to the Bloch spectrum,
* :func:`fractional_moment_scan` -- Monte-Carlo estimates of
  ``tau(d) = E ||G^z(n0, n0 + d e1)||_F^s`` with an exponential fit,
* :func:`tmatrix_update` -- the finite-rank resolvent update when one
  disorder class changes its coupling value,
* :func:`fermi_projection_decay` -- off-diagonal decay of the Fermi
  projection below a given energy,
* :func:`localization_phase_diagram` -- a (lambda, E) grid of verdicts
  backed by the scan above.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigs, eigsh

from .disorder import DisorderSpec, _Ensemble, _mean_stderr, _realization_map
from .lattice import (
    FiniteVolumeOperator,
    TightBindingOperator,
    _as_box,
    _box_action,
    _box_fibers,
    _hop,
    _Pencil,
    _periodic_grid,
    assemble_finite_volume,
)
from .models import _GAP_GRID, _distance_sq, _grid_bands
from .spectral import _majorana_image, _realization_spectra

#: every resolvent solve must beat this relative residual or it is rejected
RESIDUAL_TOL = 1e-10

#: default fractional power for the moment tau(d) = E ||G||_F^s
S_DEFAULT = 0.3

#: default imaginary offset for probing real energies, z = E + i*eps
EPS_DEFAULT = 1e-4

#: phase-diagram verdict strings
LOCALIZED = "localized"
NO_VERDICT = "spectrum-with-no-verdict"
OUTSIDE = "outside-spectrum"


# ---------------------------------------------------------------------------
# resolvent solver


def _certify(z: complex, residual: np.ndarray, b: np.ndarray) -> None:
    """The acceptance rule of every resolvent solve: the relative residual
    ``||(z - H) x - b|| / ||b||`` may not exceed :data:`RESIDUAL_TOL`.  A
    residual or a right-hand side that is not finite is rejected too."""
    scale = float(np.linalg.norm(b))
    if not math.isfinite(scale):
        raise ArithmeticError(
            f"resolvent solve at z = {z} rejected: right-hand side norm {scale} is not finite"
        )
    if scale > 0.0:
        res = float(np.linalg.norm(residual)) / scale
        if not res <= RESIDUAL_TOL:
            raise ArithmeticError(
                f"resolvent solve at z = {z} rejected: relative residual "
                f"{res:.3e} exceeds {RESIDUAL_TOL:g} (z too close to the spectrum)"
            )


class ResolventSolver:
    """Sparse-LU backed resolvent ``G = (z - H)^{-1}`` of a finite volume.

    The pencil of H (:class:`~bdgtools.lattice._Pencil`) is factored once at
    z, pivot threshold 0.01; right-hand sides are served with one step of
    iterative refinement and checked against :data:`RESIDUAL_TOL`, both on the
    residual of ``z - H`` in the finite-volume order, kept for them since its
    summation order sets the bits of every refined column.  A ``z`` sitting on
    an eigenvalue therefore fails loudly (singular factorization or rejected
    residual) instead of returning garbage.
    """

    def __init__(self, H: FiniteVolumeOperator, z: complex):
        if not isinstance(H, FiniteVolumeOperator):
            raise TypeError(f"expected a FiniteVolumeOperator, got {type(H).__name__}")
        self.H = H
        self.z = complex(z)
        self._A = (self.z * sp.identity(H.dim, dtype=complex, format="csr") - H.matrix).tocsc()
        self._pencil = _Pencil(H)
        try:
            self._lu = self._pencil.factor(self.z, 0.01)
        except RuntimeError as err:
            raise ValueError(
                f"z = {z} makes z - H singular (z lies on the spectrum): {err}"
            ) from err

    @cached_property
    def _AH(self):
        """The adjoint ``conj(z) - H``, built on the first adjoint solve."""
        return self._A.getH().tocsc()

    def _refined(self, rhs, A, trans: str) -> np.ndarray:
        """Refined, checked ``A^{-1} rhs``: A = z - H for trans "N", its adjoint for "H"."""
        b = np.asarray(rhs, dtype=complex)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        x = self._pencil.solve(self._lu, b, trans)
        x = x + self._pencil.solve(self._lu, b - A @ x, trans)
        _certify(self.z, A @ x - b, b)
        return x[:, 0] if squeeze else x

    def solve(self, rhs) -> np.ndarray:
        """``(z - H)^{-1} rhs`` for a vector or a stack of columns."""
        return self._refined(rhs, self._A, "N")

    def solve_adjoint(self, rhs) -> np.ndarray:
        """``(conj(z) - H)^{-1} rhs`` re-using the same factorization."""
        return self._refined(rhs, self._AH, "H")

    def columns(self, m) -> np.ndarray:
        """All of ``G`` restricted to the fiber columns over site ``m``."""
        d = self.H.fiber.dim
        rhs = np.zeros((self.H.dim, d), dtype=complex)
        rhs[self.H.site_slice(m), :] = np.eye(d)
        return self.solve(rhs)

    def block(self, n, m) -> np.ndarray:
        """The site block ``G(n, m) = pi_n G pi_m^*`` (fiberdim x fiberdim)."""
        return self.columns(m)[self.H.site_slice(n), :]


def green_matrix(H: FiniteVolumeOperator, z: complex, n, m) -> np.ndarray:
    """One-shot site block ``G^z(n, m)`` of ``(z - H)^{-1}``.

    Prefer keeping a :class:`ResolventSolver` around when many blocks at the
    same ``z`` are needed; this convenience wrapper factors ``z - H`` anew
    on every call.
    """
    return ResolventSolver(H, z).block(n, m)


# ---------------------------------------------------------------------------
# shared fitting helpers


def _line_fit(x, y) -> tuple[float, float, float, float]:
    """Least squares ``y ~ a + b x``; returns (a, b, stderr_b, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    design = np.vstack([np.ones(n), x]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    sxx = float(np.sum((x - x.mean()) ** 2))
    if n > 2 and sxx > 0.0:
        se_b = math.sqrt(ss_res / (n - 2) / sxx)
    else:
        # two points pin a line exactly; refuse to pretend the slope has
        # zero uncertainty
        se_b = math.inf
    return float(coef[0]), float(coef[1]), se_b, r2


def _center(L: tuple[int, int]) -> tuple[int, int]:
    return (L[0] // 2, L[1] // 2)


def _norm_profile(H: FiniteVolumeOperator, cols: np.ndarray, n0, dists) -> np.ndarray:
    out = np.empty(len(dists))
    for i, d in enumerate(dists):
        m = (n0[0] + int(d), n0[1])
        out[i] = float(np.linalg.norm(cols[H.site_slice(m), :]))
    return out


def _bloch_columns(
    model: TightBindingOperator, H: FiniteVolumeOperator, z: complex, n0
) -> np.ndarray:
    """:meth:`ResolventSolver.columns` at site ``n0`` of the clean periodic box
    ``H``, the realization of ``model``, from its Bloch fibers.

    The :func:`~bdgtools.lattice._box_action` of the fiber resolvents
    ``(z - H(k))^{-1}`` on the site-``n0`` unit columns; no factorization of
    the box.  The columns are certified against ``z - H`` by the rule of the
    LU route, and a singular fiber (z on the box spectrum) raises
    ``ValueError`` as a singular LU does.
    """
    z = complex(z)
    fibers = _box_fibers(model, H.L)
    try:
        g = np.linalg.inv(z * np.eye(H.fiber.dim) - fibers)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"z = {z} makes z - H singular (z lies on the spectrum): {err}") from err
    b = np.zeros((H.dim, H.fiber.dim), dtype=complex)
    b[H.site_slice(n0), :] = np.eye(H.fiber.dim)
    cols = _box_action(g)(b)
    _certify(z, z * cols - H.matrix @ cols - b, b)
    return cols


def _axis_profile(H: FiniteVolumeOperator, z: complex, n0, dists) -> np.ndarray:
    """``||G^z(n0, n0 + d e1)||_F`` for each d, via one adjoint-side solve.

    Uses ``G^z(n0, m) = [G^{conj(z)}(m, n0)]^dagger``: a single column solve
    at ``conj(z)`` delivers the whole row profile, and the Frobenius norm is
    invariant under the dagger.
    """
    cols = ResolventSolver(H, np.conj(z)).columns(n0)
    return _norm_profile(H, cols, n0, dists)


def _band_centre_columns(H: FiniteVolumeOperator, z: complex, n0) -> np.ndarray | None:
    """:meth:`ResolventSolver.columns` at site ``n0`` for ``z = i y``, y != 0,
    of a paired H of even parity, from one real factor; or None when the
    Majorana image is refused, the factor is singular or the columns are
    rejected, and :class:`ResolventSolver` must serve them.

    With W H W* = i A (:func:`~bdgtools.spectral._majorana_image`),
    W (z - H) W* = i (y - A), so G = -i W* K W with K = (y - A)^{-1} real.
    The symmetric part of y - A is y I, definite, so no leading block is
    singular: the image's pencil factors in the dissection order with no row
    swap (y is on the diagonal) at pivot threshold 0.  The unit columns at
    n0 are solved and refined once in real arithmetic, mapped back site by
    site (W is site-local) and certified against z - H in the finite-volume
    order by :func:`_certify`."""
    A = _majorana_image(H)
    if A is None:
        return None
    y = z.imag
    pencil = _Pencil(H, A)
    try:
        lu = pencil.factor(y, 0.0)
    except RuntimeError:  # "exactly singular" from SuperLU
        return None
    d = H.fiber.dim
    e = np.zeros((H.dim, d))
    e[H.site_slice(n0), :] = np.eye(d)
    x = pencil.solve(lu, e)
    x = x + pencil.solve(lu, e - (y * x - A @ x))
    # W is w / sqrt 2 on every site, so W e = e w / sqrt 2 and G e = -(i / 2) W* (K e w) sqrt 2
    # takes every site block X of K e to -(i / 2) Z, Z = w* X w.  With w = [[1, 1], [i, -i]]
    # (x) I_r and X real, Z's block at the halves (h, h') is X00 + s s' X11 + i (s' X01 - s X10),
    # s and s' the signs +-1 of h and h': one exact sum per part, as the products of w's
    # entries 0, 1 and +-i sum them, and "+ 0.0" as they start from zero
    X = x.reshape(-1, 2, H.fiber.r, 2, H.fiber.r)
    sign = np.array([1.0, -1.0])
    s, t = sign[:, None, None, None], sign[:, None]  # on the axes of h and of h'
    Z = np.empty(X.shape, dtype=complex)
    Z.real = X[:, None, 0, :, None, 0] + s * t * X[:, None, 1, :, None, 1] + 0.0
    Z.imag = t * X[:, None, 0, :, None, 1] - s * X[:, None, 1, :, None, 0] + 0.0
    cols = (-0.5j * Z).reshape(H.dim, d)
    b = e.astype(complex)
    try:
        _certify(z, z * cols - H.matrix @ cols - b, b)
    except ArithmeticError:
        return None
    return cols


# ---------------------------------------------------------------------------
# Combes-Thomas probe (clean operators)


def bloch_band_grid(model: TightBindingOperator, grid_n: int = 128) -> np.ndarray:
    """All Bloch eigenvalues on a ``grid_n x grid_n`` momentum grid.

    Returns an array of shape ``(grid_n * grid_n, fiberdim)``, rows ordered
    by momentum, columns ascending: ``models._grid_bands`` of the periodic
    grid, reshaped.
    """
    return _grid_bands(model, _periodic_grid(grid_n), "bloch_band_grid").reshape(-1, model.fiber.dim)


#: A distance D(z) at or below which z counts as on the Bloch spectrum.
_DISTANCE_FLOOR = 1e-3


def spectral_distance(model: TightBindingOperator, z: complex) -> float:
    """``D(z)``: distance from ``z`` to the Bloch spectrum, hypot(Im z, d) with d
    the refined distance from Re z to the bands (the search of ``central_gap``)."""
    return _distance_to_bands(model, z, None)


def _distance_to_bands(model: TightBindingOperator, z: complex, bands: np.ndarray | None) -> float:
    """:func:`spectral_distance`, given the coarse-grid bands of its search
    (``models._grid_bands``) or None to compute them."""
    z = complex(z)
    d_sq = _distance_sq(model, None, z.real, "spectral_distance", bands)
    return math.hypot(z.imag, math.sqrt(d_sq))


@dataclass(frozen=True)
class CombesThomasPoint:
    """One probe energy: distance to the spectrum versus measured decay."""

    z: complex
    distance: float  # D(z), distance from z to the Bloch spectrum
    rate: float  # fitted decay rate of ||G(n0, n0 + d e1)||_F
    onsite_norm: float  # operator norm of G(n0, n0); bounded by 1/D(z)
    r_squared: float


def combes_thomas_probe(
    model: TightBindingOperator,
    z_list,
    L=24,
) -> list[CombesThomasPoint]:
    """Measure clean resolvent decay against the distance to the spectrum.

    For every ``z`` the probe takes ``D(z)`` from :func:`spectral_distance`,
    then fits ``log ||G^z(n0, n0 + d e1)||_F`` over ``d = 1 .. min(L)/2 - R``
    on the periodic box, the distance rule of :func:`fractional_moment_scan`.
    A ``z`` on the spectrum (``D(z)`` at or below 1e-3) is refused since
    ``D(z) = 0`` carries no bound.
    """
    box = _as_box(L)
    H = assemble_finite_volume(model, box)
    n0 = _center(box)
    dists = np.arange(0, _fit_distance(box, model.range, None) + 1)
    bands = _grid_bands(model, _periodic_grid(_GAP_GRID), "spectral_distance")  # one per probe
    out = []
    for z in z_list:
        z = complex(z)
        dist = _distance_to_bands(model, z, bands)
        if dist <= _DISTANCE_FLOOR:
            raise ValueError(
                f"z = {z} lies on the Bloch spectrum (D(z) = {dist:.3e}); "
                "the decay bound is void there"
            )
        cols = _bloch_columns(model, H, np.conj(z), n0)
        prof = _norm_profile(H, cols, n0, dists)
        # fit from d = 1, discarding values at the noise floor
        keep = (dists >= 1) & (prof > 1e-12 * prof[0])
        _, slope, _, r2 = _line_fit(dists[keep], np.log(prof[keep]))
        # G^z(n0,n0) is the dagger of this block; the operator norm agrees
        onsite = float(np.linalg.norm(cols[H.site_slice(n0), :], 2))
        out.append(CombesThomasPoint(z, dist, max(0.0, -slope), onsite, r2))
    return out


# ---------------------------------------------------------------------------
# fractional-moment scan


@dataclass(frozen=True)
class DecayEstimate:
    """Exponential fit of the fractional moment ``tau(d) = E ||G||_F^s``.

    ``tau`` and ``tau_stderr`` cover every probed distance along ``e1``;
    the log-linear fit runs only over ``fit_window`` (distances with a
    signal above the Monte-Carlo noise and free of wrap-around
    contamination).  A non-decaying profile clamps ``rate`` at zero rather
    than reporting a negative rate.  ``complex_fallbacks`` counts the
    realizations whose resolvent took the complex :class:`ResolventSolver`
    rather than the real band-centre factor (:func:`fractional_moment_scan`);
    it is written neither to the CSV nor to the manifest.
    """

    distances: np.ndarray
    tau: np.ndarray
    tau_stderr: np.ndarray
    rate: float
    rate_err: float
    amplitude: float
    r_squared: float
    fit_window: tuple[int, ...]
    n_realizations: int
    s: float
    z: complex
    complex_fallbacks: int = 0

    def significant(self) -> bool:
        """Decay established at two standard errors."""
        return self.rate - 2.0 * self.rate_err > 0.0


def _max_distance(box, reach: int, max_dist: int | None) -> int:
    """``max_dist``, by default and at most L/2 - R, R the ``reach`` of the
    input (:attr:`~bdgtools.disorder._Ensemble.reach`)."""
    limit = min(box) // 2 - reach
    if max_dist is None:
        max_dist = limit
    if max_dist > limit:
        raise ValueError(
            f"max_dist = {max_dist} exceeds L/2 - R = {limit}; distances that "
            "far wrap around the torus"
        )
    if max_dist < 1:
        raise ValueError(f"max_dist = {max_dist} leaves nothing to fit")
    return max_dist


def _fit_distance(box, reach: int, max_dist: int | None) -> int:
    """:func:`_max_distance`, refused below the two distances a decay fit needs."""
    max_dist = _max_distance(box, reach, max_dist)
    if max_dist < 2:
        raise ValueError(f"max_dist = {max_dist} leaves fewer than the two distances a fit needs")
    return max_dist


def _scan_settings(ens: _Ensemble, s: float, max_dist: int | None) -> int:
    """Everything :func:`fractional_moment_scan` refuses before it solves:
    ``s`` outside (0, 1), a ``max_dist`` or box that leaves fewer than the
    two distances a fit needs, and fewer than eight realizations on a
    disordered input.  Returns the checked ``max_dist``."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional power s must lie in (0, 1), got {s}")
    max_dist = _fit_distance(ens.box, ens.reach, max_dist)
    if ens.route != "bloch" and ens.n_realizations < 8:
        raise ValueError(
            f"n_realizations = {ens.n_realizations} is below the minimum of 8 "
            "for a disorder average"
        )
    return max_dist


def _clean_axis_profile(model, z, box, dists) -> np.ndarray:
    """:func:`_axis_profile` of the clean periodic box, from its Bloch fibers."""
    H = assemble_finite_volume(model, box)
    n0 = _center(box)
    return _norm_profile(H, _bloch_columns(model, H, np.conj(z), n0), n0, dists)


def _wrap_exclusions(model, z, box, dists, small=None) -> np.ndarray:
    """Distances whose clean profile shifts by >1% when the box doubles.

    Comparing the lam = 0 profile on ``L`` (``small``, when a clean scan
    has it already) against ``2L`` flags distances where the periodic images
    contribute; those are dropped from the fit window.  If the clean
    resolvent is unavailable at this ``z`` (inside the clean spectrum) the
    check is skipped and only the geometric bound ``d <= L/2 - R`` protects
    the window.
    """
    try:
        if small is None:
            small = _clean_axis_profile(model, z, box, dists)
        big = _clean_axis_profile(model, z, (2 * box[0], 2 * box[1]), dists)
    except (ValueError, ArithmeticError):
        return np.zeros(len(dists), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(small - big) / np.where(big > 0.0, big, np.inf)
    return rel > 0.01


#: The wrap checks of the phase diagram being computed, by (z, distances), or
#: None outside one.  Every lambda row of a diagram scans the same model on
#: the same box, and the clean check depends on nothing else.
_DIAGRAM_WRAPS: ContextVar[dict | None] = ContextVar("_DIAGRAM_WRAPS", default=None)


def _wrap_mask(model, z, box, dists, small=None) -> np.ndarray:
    """:func:`_wrap_exclusions`, computed once per (z, distances) within a
    phase diagram."""
    wraps = _DIAGRAM_WRAPS.get()
    if wraps is None:
        return _wrap_exclusions(model, z, box, dists, small)
    key = (z, len(dists))
    if key not in wraps:
        wraps[key] = _wrap_exclusions(model, z, box, dists, small)
    return wraps[key]


_EMPTY_WINDOW = (
    "fit window is empty after noise and wrap exclusions; increase "
    "n_realizations or the box size"
)


def fractional_moment_scan(
    model: TightBindingOperator,
    spec: DisorderSpec | None,
    lam: float,
    z: complex,
    *,
    s: float = S_DEFAULT,
    L=32,
    n_realizations: int = 64,
    max_dist: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> DecayEstimate:
    """Monte-Carlo estimate of ``tau(d) = E ||G^z(n0, n0 + d e1)||_F^s``.

    ``n0`` is the torus center.  With ``lam = 0`` (or no disorder terms)
    the profile is deterministic and a single solve suffices; otherwise at
    least eight realizations are required.  ``max_dist`` defaults to
    ``L/2 - R``, R the larger of the model and disorder ranges, and may not
    exceed it (beyond that the two arcs around the torus have comparable
    length and the decay law is polluted).  The wrap check comes first on a
    disordered input: when it leaves fewer than two distances, the scan
    raises before it draws a realization.  A ``z`` that is not finite, and a
    coupling ``lam`` that is not finite and >= 0, are refused first.

    A paired input of even parity scanned at the band centre (``Re z = 0``
    exactly, ``Im z != 0``) takes each realization's columns from one real,
    unpivoted factor of its Majorana image (:func:`_band_centre_columns`).
    Every other realization, and one whose image, factor or certificate is
    refused there, is solved by :class:`ResolventSolver`, and
    ``complex_fallbacks`` counts it.
    """
    z = complex(z)
    if not np.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    ens = _Ensemble(model, spec, lam, L, n_realizations, seed, threads)
    max_dist = _scan_settings(ens, s, max_dist)
    dists = np.arange(0, max_dist + 1)
    n0 = _center(ens.box)
    fallbacks = 0
    if ens.route == "bloch":  # its profile is kept for the wrap check
        clean = _clean_axis_profile(model, z, ens.box, dists)
        profiles = [clean**s]
        wrapped = _wrap_mask(model, z, ens.box, dists, clean)
    else:
        wrapped = _wrap_mask(model, z, ens.box, dists)
        if np.count_nonzero((dists >= 1) & ~wrapped) < 2:
            raise ValueError(_EMPTY_WINDOW)
        band_centre = ens.parity == "even" and z.real == 0.0 and z.imag != 0.0

        def profile(H: FiniteVolumeOperator) -> tuple[np.ndarray, bool]:
            cols = _band_centre_columns(H, np.conj(z), n0) if band_centre else None
            if cols is None:
                return _axis_profile(H, z, n0, dists), True
            return _norm_profile(H, cols, n0, dists), False

        rows = _realization_map(profile, ens)
        # a reduced ensemble's site block is G+ (+) sigma3 G+ sigma3: sqrt(2) ||G+||_F
        root = math.sqrt(ens.multiplicity)
        profiles = [(root * p) ** s for p, _ in rows]
        fallbacks = sum(c for _, c in rows)
    tau, stderr = _mean_stderr(np.array(profiles))
    keep = (
        (dists >= 1)
        & ~wrapped
        & (tau > 10.0 * stderr)
        & (tau > (1e-12**s) * max(tau[0], np.finfo(float).tiny))
    )
    window = tuple(int(d) for d in dists[keep])
    if len(window) < 2:
        raise ValueError(_EMPTY_WINDOW)
    intercept, slope, se, r2 = _line_fit(dists[keep], np.log(tau[keep]))
    return DecayEstimate(
        distances=dists,
        tau=tau,
        tau_stderr=stderr,
        rate=max(0.0, -slope),
        rate_err=se,
        amplitude=math.exp(intercept),
        r_squared=r2,
        fit_window=window,
        n_realizations=len(profiles),
        s=float(s),
        z=z,
        complex_fallbacks=fallbacks,
    )


# ---------------------------------------------------------------------------
# finite-rank resolvent update (single disorder class)


class ResolventUpdate:
    """Resolvent of ``H + lam*v*(W-class at (j, l))`` via a finite-rank update.

    Holds the unperturbed factorization plus the T-matrix of the
    perturbation supported on sites ``{l, l+j}``; blocks of the updated
    resolvent come out of ``G' = G + (G pi^*) T (pi G)`` without a second
    factorization.
    """

    def __init__(self, base: ResolventSolver, support_sites, rows, tmatrix, gcols, grows):
        self._base = base
        self.support_sites = tuple(support_sites)
        self._rows = rows
        self._tmatrix = tmatrix  # None encodes a vanishing perturbation
        self._gcols = gcols  # G pi^*  (dim x k)
        self._grows = grows  # pi G    (k x dim)

    @property
    def tmatrix(self) -> np.ndarray | None:
        return self._tmatrix

    def correction(self, n, m) -> np.ndarray:
        """The update term ``(G pi^*) T (pi G)`` restricted to block (n, m)."""
        H = self._base.H
        if self._tmatrix is None:
            d = H.fiber.dim
            return np.zeros((d, d), dtype=complex)
        sl_n, sl_m = H.site_slice(n), H.site_slice(m)
        return self._gcols[sl_n, :] @ self._tmatrix @ self._grows[:, sl_m]

    def block(self, n, m) -> np.ndarray:
        """Site block of the updated resolvent ``(z - H - lam*v*A)^{-1}``."""
        return self._base.block(n, m) + self.correction(n, m)


def tmatrix_update(
    H: FiniteVolumeOperator,
    lam: float,
    v: float,
    W: np.ndarray,
    l,
    j,
    z: complex,
) -> ResolventUpdate:
    """Rank-limited update of ``(z - H)^{-1}`` for one disorder class.

    The class ``{(j, l), (-j, l+j)}`` with coupling value ``v`` perturbs the
    operator by ``lam*v*(W_op + W_op^*)`` for ``j != 0`` and by
    ``lam*v*W_op`` for the on-site class (which has no mirror partner and a
    self-adjoint ``W``).  The partner site l + j follows the box's boundary
    rule: on an open box a class whose hop leaves the box is dropped, as in
    :func:`~bdgtools.disorder.build_random_hamiltonian`.  ``v = 0`` or a
    dropped class returns the unperturbed resolvent exactly; otherwise the
    Woodbury identity confines the work to the support of the perturbation,
    so the correction has rank at most ``rank(W + W^*)``.  The site ``l``
    must lie in the box.
    """
    W = np.asarray(W, dtype=complex)
    d = H.fiber.dim
    if W.shape != (d, d):
        raise ValueError(f"W has shape {W.shape}, expected ({d}, {d})")
    j = (int(j[0]), int(j[1]))
    l = (int(l[0]), int(l[1]))
    if not (0 <= l[0] < H.L[0] and 0 <= l[1] < H.L[1]):
        raise ValueError(f"site {l} lies outside the box {H.L}")
    base = ResolventSolver(H, z)
    if j == (0, 0):
        if np.abs(W - W.conj().T).max() > 1e-12 * max(np.abs(W).max(), 1.0):
            raise ValueError("on-site disorder matrix must be self-adjoint")
        sites = [l]
        a = lam * v * W
    else:
        t1, t2, kept = _hop(H.L, H.bc, j, *l)
        if not kept:
            return ResolventUpdate(base, [], None, None, None, None)
        lp = (int(t1), int(t2))
        if lp == l:
            raise ValueError(f"displacement {j} wraps onto its own site on box {H.L}")
        sites = [l, lp]
        zero = np.zeros((d, d))
        a = lam * v * np.block([[zero, W.conj().T], [W, zero]])
    if lam * v == 0.0:
        return ResolventUpdate(base, sites, None, None, None, None)

    svals = np.linalg.svd(a, compute_uv=False)
    if svals.min() <= 1e-12 * svals.max():
        raise ValueError(
            "perturbation block is singular on its support; the T-matrix "
            "update is undefined"
        )
    rows = np.concatenate(
        [np.arange(H.site_slice(site).start, H.site_slice(site).stop) for site in sites]
    )
    k = len(rows)
    rhs = np.zeros((H.dim, k), dtype=complex)
    rhs[rows, np.arange(k)] = 1.0
    gcols = base.solve(rhs)  # G pi^*
    grows = base.solve_adjoint(rhs).conj().T  # pi G, via G^z(v,:) = [G^zbar(:,v)]^dagger
    core = gcols[rows, :]  # pi G pi^*
    tmatrix = np.linalg.inv(np.linalg.inv(a) - core)
    return ResolventUpdate(base, sites, rows, tmatrix, gcols, grows)


# ---------------------------------------------------------------------------
# Fermi projection decay


@dataclass(frozen=True)
class ProjectionDecay:
    """Off-diagonal decay of the Fermi projection ``P = 1[H <= E]``."""

    energy: float  # Fermi level actually used
    requested_energy: float
    shifted: bool  # True if the requested level sat on an eigenvalue
    distances: np.ndarray
    norms: np.ndarray  # E ||<n0| P |n0 + d e1>||_F
    stderr: np.ndarray
    exponent: float  # slope of log norm vs log distance (diagnostic)
    idempotency_defect: float  # max ||P^2 - P||_2 over realizations


def fermi_projection_decay(
    model: TightBindingOperator,
    spec: DisorderSpec | None,
    lam: float,
    E: float,
    *,
    L=16,
    n_realizations: int = 8,
    max_dist: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> ProjectionDecay:
    """Block norms ``E ||<n0| P |n0 + d e1>||_F`` of the Fermi projection.

    Each realization is diagonalized densely; P = V V*, V the eigenvectors at
    or below the Fermi level, is never built: its blocks are V(n0) V(m)*, and
    ||P^2 - P||_2 is max |g^2 - g| over the eigenvalues g of the Gram matrix
    V* V, which shares P's nonzero spectrum.  An SU(2)-reduced input
    diagonalizes one 2x2 sector, and its block norms take the factor sqrt(2)
    of the two sectors.  If the requested level lies within
    1e-8 of any realization eigenvalue it is moved to the midpoint of the wider
    adjacent spacing (pooled over realizations) and the shift is reported
    via ``shifted`` / ``energy``.  ``max_dist`` follows the rule of
    :func:`fractional_moment_scan`: by default and at most ``L/2 - R``.
    """
    ens = _Ensemble(model, spec, lam, L, n_realizations, seed, threads)
    box = ens.box
    max_dist = _max_distance(box, ens.reach, max_dist)
    n0 = _center(box)
    systems = _realization_map(lambda H: np.linalg.eigh(H.dense()), ens)
    n_used = len(systems)

    pooled = np.sort(np.concatenate([w for w, _ in systems]))
    E_used, shifted = float(E), False
    if np.abs(pooled - E).min() < 1e-8:
        below = pooled[pooled < E - 1e-8]
        above = pooled[pooled > E + 1e-8]
        lo = float(below.max()) if below.size else E - 1.0
        hi = float(above.min()) if above.size else E + 1.0
        E_used, shifted = 0.5 * (lo + hi), True

    dists = np.arange(0, max_dist + 1)
    # the fiber rows of the sites n0 + d e1, in the finite-volume order
    dim = ens.realized_model.fiber.dim
    rows = dim * ((n0[0] + dists) % box[0] + box[0] * n0[1])[:, None] + np.arange(dim)
    # a reduced ensemble's P is P+ (+) sigma3 P+ sigma3: its blocks have sqrt(2) times
    # the Frobenius norm, and the same idempotency defect
    root = math.sqrt(ens.multiplicity)
    profiles = np.empty((n_used, len(dists)))
    defect = 0.0
    for i, (w, vecs) in enumerate(systems):
        filled = vecs[:, w <= E_used]
        g = np.linalg.eigvalsh(filled.conj().T @ filled)
        defect = max(defect, float(np.abs(g * g - g).max(initial=0.0)))
        blocks = filled[rows[0]] @ np.swapaxes(filled[rows].conj(), 1, 2)  # P(n0, n0 + d e1)
        profiles[i] = root * np.linalg.norm(blocks, axis=(1, 2))
    norms, stderr = _mean_stderr(profiles)
    keep = (dists >= 1) & (norms > 0.0)
    if keep.sum() >= 2:
        _, slope, _, _ = _line_fit(np.log(dists[keep]), np.log(norms[keep]))
    else:
        slope = math.nan
    return ProjectionDecay(
        energy=E_used,
        requested_energy=float(E),
        shifted=shifted,
        distances=dists,
        norms=norms,
        stderr=stderr,
        exponent=slope,
        idempotency_defect=defect,
    )


# ---------------------------------------------------------------------------
# localization phase diagram


@dataclass(frozen=True)
class SpectralEdges:
    """Realization statistics of the spectral range and the central gap.

    On a ``"paired"`` row each realization's edges come from sparse solves;
    the real (even-parity) ones are certified to within ``_EDGE_BOUND`` hi
    by their Ritz residuals, far below the deviations that :meth:`outside`
    compares against, and a realization whose certificate fails takes its
    dense spectrum (:func:`_paired_edges`)."""

    lam: float
    lo: float
    lo_std: float
    hi: float
    hi_std: float
    gap_lo: float
    gap_lo_std: float
    gap_hi: float
    gap_hi_std: float

    def outside(self, E: float) -> bool:
        """``E`` clears the spectral range, or sits inside the central gap,
        by three standard deviations of the edge statistics."""
        return bool(
            E < self.lo - 3.0 * self.lo_std
            or E > self.hi + 3.0 * self.hi_std
            or self.gap_lo + 3.0 * self.gap_lo_std < E < self.gap_hi - 3.0 * self.gap_hi_std
        )


@dataclass(frozen=True)
class PhaseDiagram:
    """Verdict grid over (lambda, E) with the per-cell fit diagnostics.

    ``reasons`` says why each ``spectrum-with-no-verdict`` cell got none
    ("" elsewhere), and ``edge_fallbacks`` counts, per row, the realizations
    whose edges fell back from the sparse to the dense solve.  Neither is
    written to the CSV or the manifest."""

    lambda_grid: np.ndarray
    energy_grid: np.ndarray
    verdicts: tuple[tuple[str, ...], ...]  # [i_lambda][i_energy]
    reasons: tuple[tuple[str, ...], ...]  # [i_lambda][i_energy]
    rates: np.ndarray
    rate_errs: np.ndarray
    r_squared: np.ndarray
    n_realizations: np.ndarray
    edges: tuple[SpectralEdges, ...]
    edge_fallbacks: tuple[int, ...]
    s: float
    eps: float
    L: tuple[int, int]
    seed: int

    def to_csv(self) -> str:
        lines = ["lambda,E,verdict,rate,rate_err,r2,n_realizations"]
        for i, lam in enumerate(self.lambda_grid):
            for k, E in enumerate(self.energy_grid):
                lines.append(
                    "%.17g,%.17g,%s,%.17g,%.17g,%.17g,%d"
                    % (
                        lam,
                        E,
                        self.verdicts[i][k],
                        self.rates[i, k],
                        self.rate_errs[i, k],
                        self.r_squared[i, k],
                        self.n_realizations[i, k],
                    )
                )
        return "\n".join(lines) + "\n"

    def manifest(self) -> dict:
        return {
            "lambda_grid": [float(x) for x in self.lambda_grid],
            "energy_grid": [float(x) for x in self.energy_grid],
            "s": self.s,
            "eps": self.eps,
            "L": list(self.L),
            "seed": self.seed,
            # SpectralEdges' fields in their order, "lam" written as "lambda"
            "edges": [{"lambda" if k == "lam" else k: v for k, v in asdict(e).items()}
                      for e in self.edges],
        }


#: seed of the fixed ARPACK start vector and restart draws of the sparse edges
_EDGE_SEED = 0

#: ARPACK's relative accuracy for the Ritz values of the real edges' Lanczos solves
_EDGE_ARPACK_TOL = 1e-8

#: largest certified error of a real edge, relative to hi = ||H||_2; a larger
#: one sends the realization to the dense spectrum
_EDGE_BOUND = 1e-6


def _spectrum_edges(e: np.ndarray) -> tuple[float, float, float, float]:
    """(lo, hi, gap_lo, gap_hi) of a sorted spectrum: its ends and the
    eigenvalues next to 0 (the largest negative, the smallest non-negative)."""
    neg = e[e < 0.0]
    pos = e[e >= 0.0]
    return (
        float(e[0]),
        float(e[-1]),
        float(neg.max()) if neg.size else 0.0,
        float(pos.min()) if pos.size else 0.0,
    )


def _paired_edges(
    H: FiniteVolumeOperator, even: bool = True
) -> tuple[tuple[float, float, float, float], bool]:
    """:func:`_spectrum_edges` of a particle-hole symmetric ``H`` from two
    sparse solves, and whether it fell back to the dense spectrum.

    The pairing gives lo = -hi and gap_lo = -gap_hi, so ARPACK finds the
    top eigenvalue, and the one nearest 0 by shift-invert.  With ``even``
    (H paired with even parity) and a Majorana image A of H
    (:func:`~bdgtools.spectral._majorana_image`), both are real symmetric
    Lanczos solves on A^T A (:func:`_majorana_edges`), each edge certified
    by its Ritz residual to within ``_EDGE_BOUND`` hi; otherwise, or when
    the image is refused, complex Arnoldi solves on H at ARPACK's machine
    precision.  Both start from one seeded vector and draw any restart
    from a seeded generator, so a realization's edges do not depend on the
    call (``eigsh`` forwards a complex ``A`` to ``eigs`` without the
    generator, so ``eigs`` is called directly).  A singular shift-invert
    factorization (0 is an eigenvalue to rounding), a solve that does not
    converge or a real edge whose certificate fails takes the dense route.
    The complex shift-invert solves negate those of the pencil's ``0 - H``,
    factored as :class:`ResolventSolver` factors, on H's own pattern (zeros
    dropped).
    """
    A = _majorana_image(H) if even else None
    try:
        if A is not None:
            return _majorana_edges(H, A), False
        u = np.random.default_rng(_EDGE_SEED).uniform(-1.0, 1.0, (2, H.dim))
        kw = dict(k=1, v0=u[0] + 1j * u[1], rng=_EDGE_SEED, return_eigenvectors=False)
        hi = float(eigs(H.matrix, which="LR", **kw)[0].real)
        pencil = _Pencil(H)
        lu = pencil.factor(0.0, 0.01)
        OPinv = LinearOperator(H.matrix.shape, matvec=lambda b: -pencil.solve(lu, b), dtype=complex)
        g = abs(float(eigs(H.matrix, sigma=0.0, OPinv=OPinv, **kw)[0].real))
    except RuntimeError:  # "exactly singular" from SuperLU, or an ArpackError
        return _spectrum_edges(H.eigenvalues()), True
    return (-hi, hi, -g, g), False


def _majorana_edges(H: FiniteVolumeOperator, A: sp.spmatrix) -> tuple[float, float, float, float]:
    """The edges of H = W* (i A) W from its real Majorana image A: H's
    eigenvalues are +-sigma, sigma^2 those of the real symmetric A^T A, so
    hi^2 is its top eigenvalue and g^2 its bottom one, 1 / the top
    eigenvalue of A^-1 A^-T.  Both come from real Lanczos (ARPACK's
    ``dsaupd`` in place of ``znaupd``) at ``_EDGE_ARPACK_TOL``; A^-1 and A^-T
    share one real factor of A in the dissection order, rows swapped within
    each site (:class:`~bdgtools.lattice._Pencil`).  The pencil at 0 is -A,
    and the two signs cancel in A^-1 A^-T (``_Pencil.gram_solve``).  Each
    edge is certified by its Ritz residual (:func:`_majorana_ritz`): both
    bounds must be at most ``_EDGE_BOUND`` hi, or this raises
    ``RuntimeError`` and the caller takes the dense spectrum, as it does for
    every ``RuntimeError`` of the complex route."""
    (hi, g), bounds = _majorana_ritz(H, A)
    if not max(bounds) <= _EDGE_BOUND * hi:  # a NaN bound fails too
        raise RuntimeError(f"edges (hi, g) = ({hi}, {g}) certified only to {bounds}")
    return (-hi, hi, -g, g)


def _majorana_ritz(H: FiniteVolumeOperator, A: sp.spmatrix) -> tuple[tuple[float, float],
                                                                      tuple[float, float]]:
    """The edges (hi, g) of :func:`_majorana_edges` and their certified
    errors.  A Ritz pair (theta, x) of the symmetric A^T A with residual
    r = A^T A x - theta x has an eigenvalue lambda within ||r|| / ||x|| of
    theta, so the edge sqrt(theta) lies within ||r|| / (||x|| sqrt(theta)) of
    sqrt(lambda) (Parlett, *The Symmetric Eigenvalue Problem*, ch. 4); a
    theta <= 0 has no bound (inf)."""
    v0 = np.random.default_rng(_EDGE_SEED).uniform(-1.0, 1.0, H.dim)
    kw = dict(k=1, v0=v0, rng=_EDGE_SEED, tol=_EDGE_ARPACK_TOL)
    At = A.T.tocsr()

    def gram(x):
        return At @ (A @ x)

    AtA = LinearOperator(A.shape, matvec=gram, dtype=float)
    top = eigsh(AtA, which="LA", **kw)
    pencil = _Pencil(H, A, swap=True)
    lu = pencil.factor(0.0, 0.01)
    OPinv = LinearOperator(A.shape, matvec=lambda b: pencil.gram_solve(lu, b), dtype=float)
    bottom = eigsh(AtA, sigma=0.0, OPinv=OPinv, **kw)
    certified = []
    for w, v in (top, bottom):
        theta, x = float(w[0]), v[:, 0]
        edge = math.sqrt(max(theta, 0.0))
        r = float(np.linalg.norm(gram(x) - theta * x) / np.linalg.norm(x))
        certified.append((edge, r / edge if edge > 0.0 else math.inf))
    (hi, hi_bound), (g, g_bound) = certified
    return (hi, g), (hi_bound, g_bound)


def _edge_stats(ens: _Ensemble) -> tuple[SpectralEdges, int]:
    """Realization statistics of the spectral ends and the gap edges next
    to 0, and the number of realizations that fell back to a dense solve.

    A ``"paired"`` row takes :func:`_paired_edges`; a ``"bloch"`` row is the
    periodic box's Bloch spectrum and a ``"general"`` one a dense spectrum
    per realization."""
    if ens.route == "paired":
        even = ens.parity == "even"
        rows, dense = zip(*_realization_map(lambda H: _paired_edges(H, even), ens))
    else:
        rows, dense = [_spectrum_edges(e) for e in _realization_spectra(ens)], [0]
    stats = []
    for c in zip(*rows):  # the mean and sample deviation of lo, hi, gap_lo and gap_hi
        a = np.array(c)
        stats += [float(a.mean()), float(a.std(ddof=1)) if len(a) > 1 else 0.0]
    return SpectralEdges(float(ens.lam), *stats), sum(dense)


def localization_phase_diagram(
    model: TightBindingOperator,
    spec: DisorderSpec,
    lambda_grid,
    energy_grid,
    *,
    s: float = S_DEFAULT,
    eps: float = EPS_DEFAULT,
    L=16,
    n_realizations: int = 16,
    seed: int = 0,
    threads: int = 1,
) -> PhaseDiagram:
    """Classify every (lambda, E) cell by fractional-moment decay.

    A cell is ``outside-spectrum`` when ``E`` clears the realization-averaged
    spectral range -- or sits inside the surviving central gap -- by three
    standard deviations of the edge statistics.  Otherwise a scan at
    ``z = E + i*eps`` runs, and the cell is ``localized`` when the fitted
    rate is positive at two standard errors with ``r^2 > 0.8``; anything
    weaker stays ``spectrum-with-no-verdict``, and its reason is kept: the
    scan's error text, ``"insignificant rate"`` or ``"r² ≤ 0.8"``.  Each scan
    probes every distance up to its default ``L/2 - R``.

    Every row's edges come first (:func:`_edge_stats`; sparse on a
    ``"paired"`` row, and each dense fallback is counted).  Then a setting
    the scans refuse (``s`` outside (0, 1), fewer than eight realizations on
    a disordered row, a box too small for a fit) raises the ``ValueError``
    of the first row with a cell inside the spectrum, before any scan runs.
    The scans' clean wrap checks depend only on (E, distances), so each is
    computed once and serves every row.  An ``eps`` or an energy that is not
    finite, and a coupling that is not finite and >= 0, are refused before
    anything is drawn.
    """
    box = _as_box(L)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    energy_grid = np.asarray(energy_grid, dtype=float)
    if not (math.isfinite(eps) and np.all(np.isfinite(energy_grid))):
        raise ValueError(f"every z = E + i eps must be finite, got eps = {eps} "
                         f"and energies {energy_grid.tolist()}")
    rows = [_Ensemble(model, spec, lam, box, n_realizations, seed, threads) for lam in lambda_grid]
    stats = [_edge_stats(ens) for ens in rows]
    edges, fallbacks = tuple(e for e, _ in stats), tuple(n for _, n in stats)
    outside = [[edge.outside(E) for E in energy_grid] for edge in edges]
    for ens, out in zip(rows, outside):
        if not all(out):  # a setting the scans refuse is an error, not a verdict
            _scan_settings(ens, s, None)

    shape = (len(lambda_grid), len(energy_grid))
    rates = np.full(shape, np.nan)
    rate_errs = np.full(shape, np.nan)
    r2s = np.full(shape, np.nan)
    n_reals = np.zeros(shape, dtype=int)
    verdicts: list[tuple[str, ...]] = []
    reasons: list[tuple[str, ...]] = []
    token = _DIAGRAM_WRAPS.set({})  # each (E, distances) wrap check serves every row
    try:
        for i, lam in enumerate(lambda_grid):
            row: list[tuple[str, str]] = []
            for k, E in enumerate(energy_grid):
                if outside[i][k]:
                    row.append((OUTSIDE, ""))
                    continue
                try:
                    est = fractional_moment_scan(model, spec, float(lam), complex(E, eps), s=s,
                                                 L=box, n_realizations=n_realizations, seed=seed,
                                                 threads=threads)
                except (ValueError, ArithmeticError) as err:
                    row.append((NO_VERDICT, str(err)))
                    continue
                rates[i, k] = est.rate
                rate_errs[i, k] = est.rate_err
                r2s[i, k] = est.r_squared
                n_reals[i, k] = est.n_realizations
                if not est.significant():
                    row.append((NO_VERDICT, "insignificant rate"))
                elif not est.r_squared > 0.8:
                    row.append((NO_VERDICT, "r² ≤ 0.8"))
                else:
                    row.append((LOCALIZED, ""))
            verdicts.append(tuple(v for v, _ in row))
            reasons.append(tuple(why for _, why in row))
    finally:
        _DIAGRAM_WRAPS.reset(token)
    return PhaseDiagram(
        lambda_grid=lambda_grid,
        energy_grid=energy_grid,
        verdicts=tuple(verdicts),
        reasons=tuple(reasons),
        rates=rates,
        rate_errs=rate_errs,
        r_squared=r2s,
        n_realizations=n_reals,
        edges=edges,
        edge_fallbacks=fallbacks,
        s=float(s),
        eps=float(eps),
        L=box,
        seed=int(seed),
    )
