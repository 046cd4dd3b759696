"""Integrated density of states and DOS histograms on finite volumes.

The IDS is normalized so that N(0) = 0: for E >= 0 it counts eigenvalues per
site in (0, E], for E < 0 it is minus the count in (E, 0].  With that
convention the particle-hole symmetry of the spectrum reads

    N(E) = -N(-E)           and           N(E) = N2(E^2) / 2   (E >= 0)

where N2 is the IDS of the squared operator.  Both identities are exact in
the infinite-volume limit and hold within Monte-Carlo error at finite L.

Eigenvalues within 1e-12 of an interval or bin edge are assigned to the
lower interval; this fixed tie-break keeps every count reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec, _Ensemble, _mean_stderr, _realization_map
from .lattice import TightBindingOperator, _box_fibers

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


@dataclass(frozen=True)
class IdsCurve:
    """IDS samples N(E) with per-point Monte-Carlo standard errors."""

    energies: tuple
    values: tuple
    stderr: tuple

    def to_csv(self) -> str:
        lines = ["E,N,stderr"]
        for e, v, s in zip(self.energies, self.values, self.stderr):
            lines.append("%.17g,%.17g,%.17g" % (e, v, s))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DosHistogram:
    """Histogram estimate of the DOS (states per site per energy)."""

    bin_edges: tuple
    density: tuple
    total_weight: float
    stderr: tuple = ()

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
    diagonalized densely, realization by realization."""
    if ens.route == "bloch":
        return [np.sort(np.linalg.eigvalsh(_box_fibers(ens.model, ens.box)), axis=None)]
    return _realization_map(lambda H: H.eigenvalues(), ens)


def _spectra(ens: _Ensemble, energies, squared: bool):
    """Sorted spectra of H, or of H^2 with ``squared`` (its squared spectrum,
    so no second diagonalization), one per realization, and the site count.
    ``energies`` (IDS energies or a DOS range) must be finite."""
    if not np.all(np.isfinite(energies)):
        raise ValueError(f"energies must be finite, got {tuple(energies)}")
    spectra = _realization_spectra(ens)
    if squared:
        spectra = [np.sort(e * e) for e in spectra]
    return spectra, ens.box[0] * ens.box[1]


def _ids(ens: _Ensemble, energies, squared: bool) -> IdsCurve:
    """Per-site signed counts of H's (or H^2's) spectrum at ``energies``, averaged."""
    energies = [float(e) for e in energies]
    spectra, nsites = _spectra(ens, energies, squared)
    at = np.append(energies, 0.0)  # the count at 0 is the origin N(0) = 0
    counts = np.array([_counts(eigs, at) for eigs in spectra], dtype=float)
    counts = counts[:, :-1] - counts[:, -1:]
    mean, err = _mean_stderr(counts / nsites)
    return IdsCurve(tuple(energies), tuple(mean.tolist()), tuple(err.tolist()))


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

    The estimator diagonalizes the full torus operator per realization (a
    clean torus through its Bloch fibers) and counts eigenvalues per site;
    for covariant models this equals the trace-per-site definition on
    average.  Realization i uses seed + i, so curves at different energies
    share the same disorder.
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
    """IDS of the squared operator H^2, from the squared spectrum of H.

    No second diagonalization: the eigenvalues of H^2 are the squares of
    those of H, so each realization is diagonalized once.  N2(0) = 0 with
    the same lower-interval tie-break (zero modes within EDGE_TOL of 0 do
    not count).
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

    ``bins`` is either a bin count (>= 16) on ``energy_range`` (default: the
    full sampled spectrum) or an explicit increasing edge array.  With
    ``squared`` the histogram is over the spectrum of H^2, which makes the
    density comparison rho(E) = |E| rho2(E^2) a bin-exact statement when the
    squared edges are the squares of the direct ones.  An ``energy_range``
    that is not finite, empty or reversed raises ``ValueError``.
    """
    if energy_range is not None and not energy_range[0] < energy_range[1]:
        raise ValueError(
            f"energy_range must be finite and increasing (lo, hi), got {tuple(energy_range)}"
        )
    by_count = np.isscalar(bins)
    if by_count and bins < 16:
        raise ValueError("need at least 16 bins")
    if not by_count:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("explicit bins must be an increasing edge array")
    lam = 0.0 if disorder is None else disorder.lam
    spectra, nsites = _spectra(
        _Ensemble(model, disorder, lam, L, n_realizations, seed, threads),
        () if energy_range is None else energy_range, squared,
    )
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
    )
