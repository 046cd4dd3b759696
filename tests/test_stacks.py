"""Per-momentum work as stacks, pinned to the per-point paths it replaced.

* The Bloch kernel ``lattice._bloch_points`` (one ``exp`` for the phases of
  all terms) against the per-term loop, bit for bit.
* The stacked transfer scan ``chern._u_scan`` against the per-k loop of the
  one-point path: the same error, from the first failing k1, and the same
  shifts past singular hopping blocks.
* The closed-form band-distance objective: its ``numpy`` grid against its
  ``math`` points, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from test_chern import _bits, _random_closed_operator, _u_reference
from test_models import _CATALOG_DELTAS, _CATALOG_MUS, _random_bdg

from bdgtools import chern, lattice, models
from bdgtools.lattice import FiberShape, tight_binding
from bdgtools.models import MODEL_NAMES, ModelParams, build_model

# ---------------------------------------------------------------------------
# the Bloch kernel


def _per_term_loop(model, k1, k2):
    """The Bloch sum one term at a time, one ``exp`` per term: the reference."""
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    d = model.fiber.dim
    m = np.zeros(np.broadcast_shapes(k1.shape, k2.shape) + (d, d), dtype=complex)
    for j, b in model.terms.items():
        phase = np.asarray(np.exp(1j * (k1 * j[0] + k2 * j[1])))
        m += phase[..., None, None] * b
    return m


_OPERATORS = (
    [pytest.param(build_model(name, delta=0.6, mu=0.9), id=name) for name in sorted(MODEL_NAMES)]
    + [pytest.param(_random_closed_operator(seed), id=f"random-{seed}") for seed in range(6)]
    + [pytest.param(_random_bdg(seed), id=f"bdg-{seed}") for seed in (34, 90)]
)
_EDGES = (-math.pi, -0.0, 0.0, math.pi)


@pytest.mark.parametrize("model", _OPERATORS)
def test_bloch_kernel_is_bit_exact_to_the_per_term_loop(model):
    rng = np.random.default_rng(8)
    ks = np.concatenate([_EDGES, rng.uniform(-math.pi, math.pi, 12)])
    cases = [
        (ks[:, None], ks[None, :]),                                       # product grid
        tuple(rng.uniform(-math.pi, math.pi, size=(2, 3, 5))),            # point list
        (ks[None, :], -0.0),                                              # one row
    ]
    cases += [(k1, k2) for k1 in _EDGES + (0.7,) for k2 in _EDGES + (-2.3,)]  # 0-d points
    for k1, k2 in cases:
        got = lattice._bloch_points(model, k1, k2)
        want = _per_term_loop(model, k1, k2)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want)), (k1, k2)


# ---------------------------------------------------------------------------
# the stacked transfer scan


def _first_error(model, ks):
    """The error of the per-k loop over the one-point path, or None."""
    for k in ks:
        try:
            chern._u_of(model, float(k))
        except (ValueError, ArithmeticError) as err:
            return err
    return None


def _pinned_chain():
    """a(k1) = diag(0.5 + 0.5 cos k1, 0.3) is singular at k1 = pi and still is at
    pi + 1e-6; the band -1 + 0.5 cos k1 + 0.6 cos k2 crosses zero for |k1| < 0.64,
    while 2.5 + (1 + cos k1) cos k2 stays gapped."""
    a0, a1 = np.diag([0.5, 0.3]), np.diag([0.25, 0.0])
    return tight_binding(
        FiberShape(2),
        {
            (0, 0): np.diag([2.5, -1.0]), (1, 0): np.diag([0.0, 0.25]), (-1, 0): np.diag([0.0, 0.25]),
            (0, -1): a0, (0, 1): a0, (1, -1): a1, (-1, -1): a1, (-1, 1): a1, (1, 1): a1,
        },
    )


@pytest.mark.parametrize(
    "model, ks, kind, where",
    [
        # the p-wave at mu = 0 closes its gap at k1 = 0 and k1 = pi
        (build_model("pip+", 0.3, 0.0), [-2.0, -1.0, 0.0, 0.5, math.pi, 2.0], "unit circle", "k1 = 0:"),
        (_pinned_chain(), [-2.0, 0.0, math.pi, 1.0], "unit circle", "k1 = 0:"),
        (_pinned_chain(), [-2.0, math.pi, 0.0, 1.0], "numerically singular", "k1 = 3.14159365 "),
        (_pinned_chain(), [-2.5, 2.0, 0.3, math.pi, -0.2], "unit circle", "k1 = 0.3:"),
    ],
)
def test_stacked_scan_raises_the_per_k_error_of_the_first_failing_momentum(model, ks, kind, where):
    reference = _first_error(model, ks)
    assert reference is not None and kind in str(reference) and where in str(reference)
    with pytest.raises(type(reference)) as raised:
        chern._u_scan(model, np.array(ks))
    assert str(raised.value) == str(reference)


def test_stacked_scan_shifts_every_singular_block_as_the_per_k_loop_does():
    # a(k1) = diag(cos k1, 0.3) is singular at k1 = +-pi/2, four times in this list
    half, third = np.diag([0.5, 0.0]), np.diag([0.0, 0.3])
    chain = tight_binding(
        FiberShape(2),
        {
            (0, 0): np.diag([2.5, -1.0]), (0, -1): third, (0, 1): third,
            (1, -1): half, (-1, -1): half, (-1, 1): half, (1, 1): half,
        },
    )
    ks = np.concatenate([lattice._periodic_grid(16), [math.pi / 2, 0.3, -math.pi / 2]])
    samples = chern._u_scan(chain, ks)
    shifted = [i for i, u in enumerate(samples) if u.k1 != ks[i]]
    assert shifted == [4, 12, 16, 18]
    for k, u in zip(ks, samples):
        for ref in (chern._u_of(chain, float(k)), _u_reference(chain, float(k))):
            assert u.k1 == ref.k1
            assert np.array_equal(_bits(u.U), _bits(ref.U)), k


def test_stacked_scan_checks_each_object_once(monkeypatch):
    built = []

    def counting(self):
        built.append(type(self).__name__)

    monkeypatch.setattr(chern.UMatrix, "__post_init__", counting)
    monkeypatch.setattr(chern.TransferData, "__post_init__", counting)
    samples = chern._u_scan(build_model("pip+", 0.3, -0.5), lattice._periodic_grid(16))
    assert len(samples) == 16 and built == []
    assert all(not u.U.flags.writeable for u in samples)


# ---------------------------------------------------------------------------
# closed-form points


@pytest.mark.parametrize("E", [0.0, 0.3])
@pytest.mark.parametrize("name", ["pip+", "did+"])
def test_closed_form_grid_is_bit_exact_to_its_math_points(name, E):
    assert MODEL_NAMES[name].tag in models._CLOSED_FORM_TAGS
    ks = lattice._periodic_grid(models._GAP_GRID)
    for delta in _CATALOG_DELTAS:
        for mu in _CATALOG_MUS:
            values, esq, _ = models._gap_objective(name, ModelParams(delta, mu), ks, E)
            points = np.array([[esq((k1, k2)) for k2 in ks] for k1 in ks])
            assert np.array_equal(_bits(values), _bits(points)), (delta, mu)
