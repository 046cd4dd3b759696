"""Fixtures shared by the test files."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest


@pytest.fixture(scope="session")
def reference_spectrum():
    """``spectrum(H)``: the dense spectrum of a finite volume H, ascending and
    read-only, as ``H.eigenvalues()`` gives it, computed once per matrix in a
    test session.  A matrix is known by its shape and the bytes of its CSR
    arrays.  It serves the references of the tests only: the routes under
    test keep calling ``FiniteVolumeOperator.eigenvalues`` themselves."""
    spectra: dict = {}

    def spectrum(H) -> np.ndarray:
        m = H.matrix
        digest = hashlib.sha256()
        for a in (m.data, m.indices, m.indptr):
            digest.update(a.dtype.str.encode())
            digest.update(np.ascontiguousarray(a).tobytes())
        key = (m.shape, m.nnz, digest.hexdigest())
        if key not in spectra:
            e = np.linalg.eigvalsh(m.toarray())
            e.setflags(write=False)
            spectra[key] = e
        return spectra[key]

    return spectrum
