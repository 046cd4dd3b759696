"""Chern numbers: transfer-matrix winding, Berry flux, transition-function
contour, real-space marker, and the cross-method agreements between them."""

from __future__ import annotations

import cmath
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, minimize

import bdgtools.chern as chern
import bdgtools.lattice as lattice
from bdgtools.chern import (
    ChernResult,
    MuScanEntry,
    PauliVector,
    TransferData,
    UMatrix,
    berry_flux_chern,
    chern_mu_scan,
    chern_transfer,
    contracting_subspace,
    eigenphase_table,
    fermi_projector,
    pauli_decompose,
    real_space_chern,
    scan_csv,
    transfer_matrix,
    transition_winding,
    u_matrix,
    winding_number,
)
from bdgtools.disorder import (
    build_random_hamiltonian,
    default_spec,
    sample_realization,
)
from bdgtools.lattice import (
    FiberShape,
    assemble_bloch,
    assemble_finite_volume,
    tight_binding,
)
from bdgtools.models import MODEL_NAMES, build_model, reduce_su2

PIP = build_model("pip+", delta=0.3, mu=-0.5)
DID_PLUS, DID_MINUS = reduce_su2(build_model("did+", delta=1.0, mu=2.0))


# ---------------------------------------------------------------------------
# transfer data

def test_transfer_blocks_match_half_fourier_transform():
    for k1 in (0.0, 0.7, -2.1):
        data = transfer_matrix(PIP, k1)
        # b is the on-site block of the chain operator, hence Hermitian,
        # with band diagonal (cos k1 - mu/2, -cos k1 + mu/2)
        np.testing.assert_allclose(data.b, data.b.conj().T, atol=1e-15)
        np.testing.assert_allclose(
            np.diag(data.b).real,
            [math.cos(k1) + 0.25, -math.cos(k1) - 0.25],
            atol=1e-15,
        )
        expect_a = sum(
            np.exp(1j * k1 * j[0]) * np.asarray(blk)
            for j, blk in PIP.terms.items()
            if j[1] == -1
        )
        np.testing.assert_allclose(data.a, expect_a, atol=1e-15)


def test_transfer_conserves_symplectic_form():
    form = np.block(
        [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    )
    rng = np.random.default_rng(11)
    for k1 in rng.uniform(-np.pi, np.pi, 40):
        T = transfer_matrix(PIP, float(k1)).T
        defect = np.linalg.norm(T.conj().T @ form @ T - form, 2)
        assert defect < 1e-12 * np.linalg.norm(T, 2) ** 2


def test_transfer_eigenvalues_pair_across_unit_circle():
    eigs = np.linalg.eigvals(transfer_matrix(PIP, 0.7).T)
    mirrored = 1.0 / np.conj(eigs)
    for t in eigs:
        assert np.abs(mirrored - t).min() < 1e-10 * max(1.0, abs(t))


def test_transfer_data_rejects_nonconserving_matrix():
    rng = np.random.default_rng(3)
    bad = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValueError, match="conserve"):
        TransferData(k1=0.0, a=np.eye(2), b=np.eye(2), T=bad, cond_a=1.0)


def test_transfer_rejects_long_range_across_direction_2():
    m = tight_binding(
        FiberShape(1), {(0, 2): [[0.5]], (0, -2): [[0.5]]}
    )
    with pytest.raises(ValueError, match="direction 2"):
        transfer_matrix(m, 0.3)


def test_transfer_singular_hopping_reports_retry_hint():
    chain = tight_binding(FiberShape(1), {(1, 0): [[1.0]], (-1, 0): [[1.0]]})
    with pytest.raises(ValueError, match="singular"):
        transfer_matrix(chain, 0.3)


def test_contracting_subspace_is_half_dimensional_lagrangian_plane():
    form = np.block(
        [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    )
    for k1 in (-2.5, 0.0, 1.3):
        phi = contracting_subspace(transfer_matrix(PIP, k1))
        assert phi.shape == (4, 2)
        np.testing.assert_allclose(phi.conj().T @ phi, np.eye(2), atol=1e-12)
        assert np.linalg.norm(phi.conj().T @ form @ phi, 2) < 1e-8


def test_contracting_subspace_detects_closed_gap():
    closed = build_model("pip+", delta=0.3, mu=0.0)  # bands touch at (pi, 0)
    with pytest.raises(ValueError, match="unit circle"):
        contracting_subspace(transfer_matrix(closed, math.pi))


def test_u_matrix_does_not_depend_on_the_plane_basis():
    phi = contracting_subspace(transfer_matrix(PIP, 0.7))
    rng = np.random.default_rng(7)
    mix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u1 = u_matrix(phi, 0.7).U
    u2 = u_matrix(phi @ mix, 0.7).U
    assert np.abs(u1 - u2).max() < 1e-10


def test_u_matrix_rejects_wrong_shape():
    with pytest.raises(ValueError, match="2d x d"):
        u_matrix(np.ones((3, 2)))


def test_u_matrix_constructor_rejects_nonunitary():
    with pytest.raises(ValueError, match="unitary"):
        UMatrix(k1=0.0, U=np.array([[1.0, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# winding of det U

def test_winding_of_constant_u_is_zero():
    ks = -math.pi + 2 * math.pi * np.arange(8) / 8
    samples = [UMatrix(float(k), np.eye(2)) for k in ks]
    res = winding_number(samples)
    assert res.value == 0 and res.residual < 1e-12


def test_winding_of_single_phase_loop_is_one():
    ks = -math.pi + 2 * math.pi * np.arange(16) / 16
    samples = [
        UMatrix(float(k), np.diag([np.exp(1j * k), 1.0])) for k in ks
    ]
    res = winding_number(samples)
    assert res.value == 1 and res.residual < 1e-12


def test_winding_refuses_aliased_sampling_without_refinement():
    ks = -math.pi + 2 * math.pi * np.arange(8) / 8
    fast = lambda k: UMatrix(float(k), np.array([[np.exp(5j * k)]]))
    with pytest.raises(ValueError, match="alias"):
        winding_number([fast(k) for k in ks])
    res = winding_number([fast(k) for k in ks], refine=fast)
    assert res.value == 5 and res.residual < 1e-12
    assert "refined" in res.grid


def test_winding_needs_at_least_two_samples():
    with pytest.raises(ValueError, match="two samples"):
        winding_number([UMatrix(0.0, np.eye(2))])


def test_chern_transfer_chiral_p_across_the_transition():
    for mu, expect in ((-0.5, -1), (-0.01, -1), (0.01, 1)):
        res = chern_transfer(build_model("pip+", delta=0.3, mu=mu))
        assert res.value == expect, (mu, res)
        assert res.residual < 1e-8
        assert res.method == "transfer"


def test_chern_transfer_opposite_chirality_flips_the_sign():
    plus = chern_transfer(build_model("pip+", delta=0.3, mu=-0.5))
    minus = chern_transfer(build_model("pip-", delta=0.3, mu=-0.5))
    assert (plus.value, minus.value) == (-1, 1)


def test_chern_transfer_full_chiral_d_counts_both_spin_sectors():
    # the 4x4 operator splits into two unitarily equivalent sectors, each
    # carrying -2
    res = chern_transfer(build_model("did+", delta=1.0, mu=2.0))
    assert res.value == -4 and res.residual < 1e-8


def test_chern_transfer_rejects_tiny_grid():
    with pytest.raises(ValueError, match="n_k"):
        chern_transfer(PIP, n_k=4)


def test_eigenphase_table_layout():
    table = eigenphase_table(PIP, n_k=31)
    assert table.shape == (31, 3)
    np.testing.assert_allclose(table[0, 0], -math.pi, atol=1e-12)
    np.testing.assert_allclose(table[-1, 0], math.pi, atol=1e-12)
    phases = table[:, 1:]
    assert (np.diff(phases, axis=1) >= 0).all()
    assert (np.abs(phases) <= math.pi + 1e-12).all()


# ---------------------------------------------------------------------------
# the transfer route on the Bloch kernel against the per-term loop it replaced

def _blocks_reference(model, k1):
    """a(k1), b(k1) summed term by term, e^{i k1 j1} B_j over j2 = -1 and j2 = 0."""
    d = model.fiber.dim
    a = np.zeros((d, d), dtype=complex)
    b = np.zeros((d, d), dtype=complex)
    for j, blk in model.terms.items():
        w = np.exp(1j * k1 * j[0])
        if j[1] == -1:
            a = a + w * blk
        elif j[1] == 0:
            b = b + w * blk
    return a, b


def _transfer_reference(model, k1):
    """The one-point transfer matrix from the per-term blocks."""
    a, b = _blocks_reference(model, k1)
    svals = np.linalg.svd(a, compute_uv=False)
    if not svals[-1] > 0 or svals[0] / svals[-1] >= chern.COND_MAX:
        raise ValueError("singular")
    a_inv = np.linalg.inv(a)
    d = a.shape[0]
    T = np.block([[-b @ a_inv, -a.conj().T], [a_inv, np.zeros((d, d), dtype=complex)]])
    return TransferData(k1=float(k1), a=a, b=b, T=T, cond_a=float(svals[0] / svals[-1]))


def _u_reference(model, k1):
    try:
        data = _transfer_reference(model, k1)
    except ValueError:
        data = _transfer_reference(model, k1 + 1e-6)
    return u_matrix(contracting_subspace(data), data.k1)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _random_closed_operator(seed):
    """A hermiticity-closed operator with random blocks, |j1| <= 2, |j2| <= 1."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    rand = lambda: rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    onsite = rand()
    terms = {(0, 0): onsite + onsite.conj().T}
    for j in ((1, 0), (2, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1)):
        if rng.uniform() < 0.7 or j == (0, 1):
            blk = rand()
            terms[j] = blk
            terms[(-j[0], -j[1])] = blk.conj().T
    return tight_binding(FiberShape(d), terms)


_KERNEL_MODELS = [
    pytest.param(build_model(name, delta=0.6, mu=0.9), id=name) for name in sorted(MODEL_NAMES)
] + [pytest.param(_random_closed_operator(seed), id=f"random-{seed}") for seed in range(6)]


@pytest.mark.parametrize("model", _KERNEL_MODELS)
def test_transfer_blocks_and_matrix_are_bit_exact_to_the_per_term_loop(model):
    rng = np.random.default_rng(5)
    ks = np.concatenate([[-math.pi, -0.0, 0.0, math.pi], rng.uniform(-math.pi, math.pi, 24)])
    a_stack, b_stack = chern._transfer_blocks(model, ks)
    for i, k1 in enumerate(ks):
        a, b = _blocks_reference(model, float(k1))
        one_a, one_b = chern._transfer_blocks(model, float(k1))
        for got in (one_a, a_stack[i]):
            assert np.array_equal(_bits(got), _bits(a)), k1
        for got in (one_b, b_stack[i]):
            assert np.array_equal(_bits(got), _bits(b)), k1
        try:
            ref = _transfer_reference(model, float(k1))
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                transfer_matrix(model, float(k1))
            continue
        for data in (transfer_matrix(model, k1), chern._transfer_data(float(k1), a_stack[i], b_stack[i])):
            assert data.cond_a == ref.cond_a
            for name in ("a", "b", "T"):
                assert np.array_equal(_bits(getattr(data, name)), _bits(getattr(ref, name))), (k1, name)


@pytest.mark.parametrize(
    "name, mu", [("pip+", -0.5), ("pip+", 0.5), ("did+", 2.0), ("did+", -1.0)]
)
def test_chern_transfer_and_eigenphases_are_bit_exact_to_the_per_point_path(name, mu):
    model = build_model(name, delta=0.3 if name == "pip+" else 1.0, mu=mu)
    ks = -math.pi + 2.0 * math.pi * np.arange(64) / 64
    reference = winding_number(
        [_u_reference(model, float(k)) for k in ks],
        refine=lambda k: _u_reference(model, k),
    )
    result = chern_transfer(model, n_k=64)
    assert (result.raw, result.grid, result.value) == (
        reference.raw, reference.grid, reference.value
    )
    rows = []
    for k in np.linspace(-math.pi, math.pi, 61):
        u = _u_reference(model, float(k))
        rows.append([u.k1, *np.sort(np.angle(np.linalg.eigvals(u.U)))])
    assert np.array_equal(_bits(eigenphase_table(model, n_k=61)), _bits(np.array(rows)))


def test_transfer_scan_assembles_its_blocks_once(monkeypatch):
    calls = []

    def counting(model, k1):
        calls.append(np.shape(k1))
        return blocks(model, k1)

    blocks = chern._transfer_blocks
    monkeypatch.setattr(chern, "_transfer_blocks", counting)
    chern_transfer(PIP, n_k=32)
    assert calls == [(32,)]
    calls.clear()
    eigenphase_table(PIP, n_k=17)
    assert calls == [(17,)]


def test_transfer_route_shifts_past_a_singular_hopping_block():
    # a(k1) = diag(cos k1, 0.3) is singular at k1 = +-pi/2, samples of n_k = 8;
    # the bands 2.5 + 2 cos k1 cos k2 and -1 + 0.6 cos k2 keep zero energy gapped
    half, third = np.diag([0.5, 0.0]), np.diag([0.0, 0.3])
    chain = tight_binding(
        FiberShape(2),
        {
            (0, 0): np.diag([2.5, -1.0]), (0, -1): third, (0, 1): third,
            (1, -1): half, (-1, -1): half, (-1, 1): half, (1, 1): half,
        },
    )
    with pytest.raises(ValueError, match="singular"):
        transfer_matrix(chain, math.pi / 2)
    ks = -math.pi + 2.0 * math.pi * np.arange(8) / 8
    samples = chern._u_scan(chain, ks)
    assert [u.k1 for u in samples] == [
        float(k) + 1e-6 if i in (2, 6) else float(k) for i, k in enumerate(ks)
    ]
    assert [u.k1 for u in samples] == [_u_reference(chain, float(k)).k1 for k in ks]


def test_transfer_route_retries_only_the_singular_block_refusal(monkeypatch):
    # the retry goes by the refusal's type, not by the word "singular" in a message
    calls = []

    def refuse(k1, a, b):
        calls.append(k1)
        raise ValueError("some other refusal that mentions a singular matrix")

    monkeypatch.setattr(chern, "_transfer_data", refuse)
    with pytest.raises(ValueError, match="some other refusal"):
        chern._u_of(PIP, 0.7)
    assert calls == [0.7]


# ---------------------------------------------------------------------------
# Pauli decomposition

def test_pauli_decompose_chiral_d_sector_points():
    at = lambda k: pauli_decompose(assemble_bloch(DID_PLUS, k))
    for k, expect in (
        ((0.0, 0.0), (0.0, 0.0, 1.0)),
        ((math.pi, 0.0), (-2.0, 0.0, -1.0)),
        ((math.pi / 2, math.pi / 2), (0.0, 1.0, -1.0)),
    ):
        p = at(k)
        np.testing.assert_allclose((p.p1, p.p2, p.p3), expect, atol=1e-14)
    # the conjugate sector flips p2
    q = pauli_decompose(assemble_bloch(DID_MINUS, (math.pi / 2, math.pi / 2)))
    np.testing.assert_allclose((q.p1, q.p2, q.p3), (0.0, -1.0, -1.0), atol=1e-14)


def test_pauli_decompose_chiral_p_points():
    for name, sign in (("pip+", 1.0), ("pip-", -1.0)):
        model = build_model(name, delta=0.3, mu=0.0)
        at = lambda k: pauli_decompose(assemble_bloch(model, k))
        p = at((math.pi / 2, 0.0))  # branch-independent point
        np.testing.assert_allclose((p.p1, p.p2, p.p3), (0.0, -0.3, 1.0), atol=1e-14)
        q = at((0.0, math.pi / 2))  # branch-revealing point
        np.testing.assert_allclose(
            (q.p1, q.p2, q.p3), (sign * 0.3, 0.0, 1.0), atol=1e-14
        )


def test_pauli_decompose_rejects_traceful_matrix():
    with pytest.raises(ValueError, match="trace"):
        pauli_decompose(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_pauli_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        pauli_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(
    p1=st.floats(-5, 5, allow_subnormal=False),
    p2=st.floats(-5, 5, allow_subnormal=False),
    p3=st.floats(-5, 5, allow_subnormal=False),
)
def test_pauli_decompose_inverts_reconstruction(p1, p2, p3):
    p = pauli_decompose(PauliVector(p1, p2, p3).matrix())
    assert (p.p1, p.p2, p.p3) == (p1, p2, p3)


# ---------------------------------------------------------------------------
# Berry flux

def test_berry_flux_of_flat_trivial_band_is_zero():
    flat = tight_binding(FiberShape(2), {(0, 0): np.diag([1.0, -1.0])})
    res = berry_flux_chern(flat, grid_n=24)
    assert res.value == 0 and res.residual < 1e-12


def test_berry_flux_chiral_d_sectors_are_opposite():
    plus = berry_flux_chern(DID_PLUS, grid_n=48)
    minus = berry_flux_chern(DID_MINUS, grid_n=48)
    assert (plus.value, minus.value) == (-2, 2)
    assert plus.residual < 1e-10 and minus.residual < 1e-10


def test_berry_flux_trivial_outside_the_band():
    for mu in (5.0, -5.0):
        sector = reduce_su2(build_model("did+", delta=1.0, mu=mu))[0]
        res = berry_flux_chern(sector, grid_n=24)
        assert res.value == 0 and res.residual < 1e-10


def test_berry_flux_is_stable_under_grid_doubling():
    coarse = berry_flux_chern(PIP, grid_n=24)
    fine = berry_flux_chern(PIP, grid_n=48)
    assert coarse.value == fine.value == -1


def test_berry_flux_reports_gap_closure():
    closed = build_model("pip+", delta=0.3, mu=0.0)
    with pytest.raises(ValueError, match="gap closes"):
        berry_flux_chern(closed, grid_n=24)


def test_berry_flux_rejects_coarse_grid():
    with pytest.raises(ValueError, match="grid_n"):
        berry_flux_chern(PIP, grid_n=12)


def test_berry_flux_agrees_with_transfer_winding():
    for delta, mu in ((0.3, -0.5), (0.5, 1.0)):
        model = build_model("pip+", delta=delta, mu=mu)
        assert (
            berry_flux_chern(model, grid_n=24).value
            == chern_transfer(model).value
        )


# ---------------------------------------------------------------------------
# transition-function contour

def test_transition_winding_chiral_d_sectors():
    plus = transition_winding(DID_PLUS, mu=2.0)
    minus = transition_winding(DID_MINUS, mu=2.0)
    assert (plus.value, minus.value) == (-2, 2)
    assert plus.residual < 1e-6 and minus.residual < 1e-6
    assert plus.method == "contour"


def test_transition_winding_needs_mu_inside_the_band():
    for mu in (0.0, 4.5, -4.0):
        with pytest.raises(ValueError, match="mu"):
            transition_winding(DID_PLUS, mu=mu)


def test_transition_winding_refuses_unexpected_zero_set():
    # sin k1, sin k2 vanish jointly at all four half-period points
    family = _sin_family()
    with pytest.raises(ValueError, match="zero set"):
        transition_winding(family, mu=2.0)


def _sin_family():
    """H(k) = sin k1 sigma1 + sin k2 sigma2 + 0.5 sigma3 as an operator."""
    s1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    s2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    return tight_binding(
        FiberShape(2),
        {
            (1, 0): s1 / 2j, (-1, 0): -s1 / 2j,
            (0, 1): s2 / 2j, (0, -1): -s2 / 2j,
            (0, 0): np.diag([0.5, -0.5]),
        },
    )


def test_sin_family_operator_has_the_pauli_components():
    model = _sin_family()
    for k in ((0.3, -1.2), (math.pi / 2, 2.0), (-2.5, 0.7)):
        p = pauli_decompose(assemble_bloch(model, k))
        np.testing.assert_allclose(
            (p.p1, p.p2, p.p3), (math.sin(k[0]), math.sin(k[1]), 0.5), atol=1e-15
        )


def test_transition_winding_refuses_a_non_2x2_fiber():
    with pytest.raises(ValueError, match=r"2x2 matrix, got shape \(4, 4\)"):
        transition_winding(build_model("did+", delta=1.0, mu=2.0), mu=2.0)


def test_transition_winding_reports_a_polish_that_does_not_converge(monkeypatch):
    def stalled(fun, x0, **kwargs):
        return OptimizeResult(
            x=np.asarray(x0), fun=fun(x0), success=False, nit=2000,
            message="Maximum number of iterations has been exceeded.",
        )

    monkeypatch.setattr(chern, "_nelder_mead", stalled)
    with pytest.raises(ArithmeticError, match=r"grid cell \(\d+, \d+\).*did not converge"):
        transition_winding(DID_PLUS, mu=2.0)


# ---------------------------------------------------------------------------
# batched Berry and contour routes against their per-point references

def _berry_reference(model, grid_n):
    """The per-point Berry loop: one assemble_bloch and eigh per grid point."""
    ks = -math.pi + 2.0 * math.pi * np.arange(grid_n) / grid_n
    frames = []
    for i in range(grid_n):
        for j in range(grid_n):
            w, v = np.linalg.eigh(assemble_bloch(model, (ks[i], ks[j])).matrix)
            if float(np.abs(w).min()) <= 1e-6:
                return None
            frames.append(v[:, w < 0.0])
    at = lambda i, j: frames[(i % grid_n) * grid_n + (j % grid_n)]
    link1 = np.empty((grid_n, grid_n), dtype=complex)
    link2 = np.empty((grid_n, grid_n), dtype=complex)
    for i in range(grid_n):
        for j in range(grid_n):
            f = at(i, j)
            link1[i, j] = np.linalg.det(f.conj().T @ at(i + 1, j))
            link2[i, j] = np.linalg.det(f.conj().T @ at(i, j + 1))
    flux = 0.0
    for i in range(grid_n):
        for j in range(grid_n):
            plaq = (
                link1[i, j]
                * link2[(i + 1) % grid_n, j]
                * np.conj(link1[i, (j + 1) % grid_n])
                * np.conj(link2[i, j])
            )
            flux += cmath.phase(plaq)
    return -flux / (2.0 * math.pi)


def _zeros_reference(model, grid_n):
    """The per-point rho scan and polish of the zero-set search."""
    ks = -math.pi + 2.0 * math.pi * np.arange(grid_n) / grid_n

    def rho(k):
        p = pauli_decompose(assemble_bloch(model, k))
        return p.p1 * p.p1 + p.p2 * p.p2

    values = np.array([[rho((k1, k2)) for k2 in ks] for k1 in ks])
    scale = max(float(values.max()), 1e-300)
    is_min = np.ones_like(values, dtype=bool)
    for s1 in (-1, 0, 1):
        for s2 in (-1, 0, 1):
            if (s1, s2) != (0, 0):
                is_min &= values <= np.roll(values, (s1, s2), axis=(0, 1))
    zeros = []
    for i, j in np.argwhere(is_min):
        res = minimize(
            rho, x0=(ks[i], ks[j]), method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-20, "maxiter": 2000},
        )
        if float(res.fun) > 1e-14 * scale:
            continue
        z = tuple(chern._wrap_angle(np.asarray(res.x)))
        if all(chern._torus_dist(z, seen) > 1e-4 for seen in zeros):
            zeros.append((float(z[0]), float(z[1])))
    return sorted(zeros)


def _contour_reference(model, eps, n_samples=720):
    t = 2.0 * math.pi * np.arange(n_samples) / n_samples
    theta = np.empty(n_samples)
    for i in range(n_samples):
        k = (eps * math.cos(t[i]), eps * math.sin(t[i]))
        p = pauli_decompose(assemble_bloch(model, k))
        theta[i] = math.atan2(p.p2, p.p1)
    inc = chern._wrap_angle(np.diff(np.append(theta, theta[0])))
    return float(inc.sum() / (2.0 * math.pi))


@pytest.mark.parametrize("model", _KERNEL_MODELS)
def test_transfer_slices_are_cached_and_bit_exact_to_the_uncached_build(model):
    ks = np.linspace(-math.pi, math.pi, 17)
    first = chern._transfer_blocks(model, ks)
    slices = model._transfer_slices
    again = chern._transfer_blocks(model, ks)
    assert model._transfer_slices is slices  # built once per operator
    for i, row in enumerate((-1, 0)):
        row_terms = {j: b for j, b in model.terms.items() if j[1] == row}
        uncached = tight_binding(model.fiber, row_terms)
        want = _bits(chern._bloch_points(uncached, ks, 0.0))
        assert np.array_equal(_bits(first[i]), want) and np.array_equal(_bits(again[i]), want)


def test_cached_transfer_slices_keep_the_range_refusal():
    model = tight_binding(
        FiberShape(1), {(0, 2): np.ones((1, 1)), (0, -2): np.ones((1, 1)), (0, 0): np.eye(1)}
    )
    for _ in range(2):
        with pytest.raises(ValueError, match="hopping range <= 1 in direction 2"):
            transfer_matrix(model, 0.3)


@pytest.mark.parametrize("grid_n", [24, 32, 48])
def test_berry_flux_is_bit_exact_to_the_per_point_loop(grid_n):
    models = [build_model(name, delta=0.6, mu=0.9) for name in sorted(MODEL_NAMES)]
    models += [DID_PLUS, DID_MINUS]
    checked = 0
    for model in models:
        reference = _berry_reference(model, grid_n)
        if reference is None:  # gap closed on this grid
            with pytest.raises(ValueError, match="gap closes"):
                berry_flux_chern(model, grid_n)
            continue
        assert berry_flux_chern(model, grid_n).raw == reference
        checked += 1
    assert checked >= 8


def test_contour_zero_set_and_winding_are_bit_exact_to_the_per_point_scan():
    for sector in (DID_PLUS, DID_MINUS):
        assert chern._pauli_plane_zeros(sector, 120) == _zeros_reference(sector, 120)
        res = transition_winding(sector, mu=2.0)
        assert res.raw == _contour_reference(sector, 0.01)


def test_batched_routes_refuse_a_non_closed_operator():
    one_way = tight_binding(FiberShape(2), {(1, 0): np.eye(2)})
    with pytest.raises(ValueError, match="not hermiticity-closed"):
        berry_flux_chern(one_way, grid_n=24)
    with pytest.raises(ValueError, match="not hermiticity-closed"):
        transition_winding(one_way, mu=2.0)


def _nearly_closed_chain():
    """Closed within the block tolerance, but H(k) is not Hermitian near k1 = pi/2."""
    big = np.diag([1e6, 0.0])
    return tight_binding(
        FiberShape(2),
        {(1, 0): big, (-1, 0): big + np.diag([5e-7, 0.0]), (0, 0): np.diag([1.0, -1.0])},
    )


def test_batched_routes_refuse_a_non_hermitian_stack():
    model = _nearly_closed_chain()
    with pytest.raises(ValueError, match="not Hermitian"):
        assemble_bloch(model, (math.pi / 2, 0.0))
    with pytest.raises(ValueError, match="not Hermitian"):
        berry_flux_chern(model, grid_n=24)
    with pytest.raises(ValueError, match="not Hermitian"):
        transition_winding(model, mu=2.0)


def test_berry_flux_reports_a_varying_occupied_count():
    # E(k) = cos k1 + 0.1 changes sign between grid points, never on one
    chain = tight_binding(
        FiberShape(1), {(1, 0): [[0.5]], (-1, 0): [[0.5]], (0, 0): [[0.1]]}
    )
    with pytest.raises(ValueError, match=r"occupied-band count varies across the grid: \[0, 1\]"):
        berry_flux_chern(chain, grid_n=24)


def test_berry_gap_closure_names_the_minimum():
    closed = build_model("pip+", delta=0.3, mu=0.0)
    ks = -math.pi + 2.0 * math.pi * np.arange(24) / 24
    gaps = np.array(
        [[np.abs(np.linalg.eigvalsh(assemble_bloch(closed, (a, b)).matrix)).min()
          for b in ks] for a in ks]
    )
    i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    with pytest.raises(ValueError) as err:
        berry_flux_chern(closed, grid_n=24)
    assert f"k = ({ks[i]:.6g}, {ks[j]:.6g})" in str(err.value)


def test_batched_routes_check_each_bloch_matrix_once(monkeypatch):
    stack_checks, pauli_checks, polish = [], [], []

    def counting(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    # BlochMatrix and the stacked checks look the lattice test up at call time
    monkeypatch.setattr(
        lattice, "_hermiticity_violations",
        counting(stack_checks, lattice._hermiticity_violations),
    )
    monkeypatch.setattr(
        chern, "_hermiticity_violations",
        counting(pauli_checks, chern._hermiticity_violations),
    )
    monkeypatch.setattr(chern, "pauli_decompose", counting(polish, chern.pauli_decompose))
    berry_flux_chern(PIP, grid_n=24)
    assert len(stack_checks) == 1
    transition_winding(DID_PLUS, mu=2.0)
    assert len(stack_checks) == 3  # the rho scan and the circles, one check each
    assert 0 < len(polish) < 300  # the Nelder-Mead polishes only
    assert len(pauli_checks) == 2 + len(polish)  # one per stack, one per polish point


# ---------------------------------------------------------------------------
# real-space marker

def test_marker_clean_chiral_p():
    P = fermi_projector(assemble_finite_volume(PIP, (20, 20)))
    res = real_space_chern(P, (20, 20))
    assert res.value == -1
    assert abs(res.raw + 1.0) < 0.15
    assert res.sobolev is not None and 0.0 < res.sobolev < 5.0


def test_marker_trivial_without_pairing():
    empty = build_model("pip+", delta=0.0, mu=-5.0)  # Fermi level below the band
    P = fermi_projector(assemble_finite_volume(empty, (12, 12)))
    res = real_space_chern(P, (12, 12))
    assert res.value == 0 and abs(res.raw) < 0.05


def test_marker_withholds_verdict_too_close_to_the_transition():
    # at L = 8 the marker of a mu = -0.05 chiral p-wave has not converged
    near = build_model("pip+", delta=0.3, mu=-0.05)
    P = fermi_projector(assemble_finite_volume(near, (8, 8)))
    res = real_space_chern(P, (8, 8))
    assert res.value is None
    assert res.residual > 0.3


def test_marker_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="torus"):
        real_space_chern(np.eye(10), (3, 3))
    with pytest.raises(ValueError, match="torus"):
        real_space_chern(np.eye(7), (4, 4))


def test_marker_refuses_an_empty_fiber():
    with pytest.raises(ValueError, match="nonempty fiber"):
        real_space_chern(np.zeros((0, 0)), (4, 4))


def test_marker_refuses_non_finite_entries():
    P = fermi_projector(assemble_finite_volume(PIP, (8, 8)))
    P[3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite entries"):
        real_space_chern(P, (8, 8))


def test_marker_refuses_a_projector_that_is_not_hermitian():
    P = fermi_projector(assemble_finite_volume(PIP, (8, 8)))
    P[3, 5] += 1e-6  # the windowed formula reads P's rows as its columns' adjoint
    with pytest.raises(ValueError, match="not Hermitian"):
        real_space_chern(P, (8, 8))


def test_marker_survives_weak_disorder():
    spec = default_spec(r=1)
    values = []
    for seed in range(8):
        realization = sample_realization(spec, (12, 12), seed=seed)
        H = build_random_hamiltonian(PIP, spec, 0.05, realization)
        values.append(real_space_chern(fermi_projector(H), (12, 12)).value)
    assert sum(v == -1 for v in values) > 4


# ---------------------------------------------------------------------------
# chemical-potential scans

def test_mu_scan_chiral_p_transition():
    family = lambda mu: build_model("pip+", delta=0.3, mu=mu)
    entries = chern_mu_scan(family, [-0.5, -0.01, 0.01])
    assert [e.error for e in entries] == [None, None, None]
    assert [e.result.value for e in entries] == [-1, -1, 1]


def test_mu_scan_records_gap_closure_and_continues():
    family = lambda mu: build_model("pip+", delta=0.3, mu=mu)
    entries = chern_mu_scan(family, [-0.5, 0.0, 0.5])
    assert entries[0].result.value == -1
    assert entries[1].result is None and "gap-closed" in entries[1].error
    assert entries[2].result.value == 1


def test_mu_scan_berry_chiral_d_plateau_and_trivial_side():
    family = lambda mu: reduce_su2(build_model("did+", delta=1.0, mu=mu))[0]
    entries = chern_mu_scan(family, [2.0, 5.0], method="berry")
    assert [e.result.value for e in entries] == [-2, 0]


def test_mu_scan_contour_route():
    family = lambda mu: reduce_su2(build_model("did+", delta=1.0, mu=mu))[0]
    (entry,) = chern_mu_scan(family, [2.0], method="contour")
    assert entry.result.value == -2


@pytest.mark.parametrize(
    "method, kwargs, family, message",
    [
        ("transfer", {"n_k": 4}, "pip+", "n_k must be >= 8, got 4"),
        ("berry", {"grid_n": 5}, "pip+", "grid_n must be >= 24, got 5"),
        ("realspace", {"L": 3}, "pip+", "torus side L must be >= 4, got 3"),
        ("realspace", {"L": (12, 3)}, "pip+", "torus side L must be >= 4, got 3"),
        ("contour", {}, "did+", "needs a 2x2 fiber"),
    ],
    ids=["transfer-n_k", "berry-grid_n", "realspace-L", "realspace-L2", "contour-fiber"],
)
def test_mu_scan_refuses_a_setting_its_route_refuses_at_every_mu(
    method, kwargs, family, message
):
    built = []

    def models(mu):
        built.append(mu)
        return build_model(family, delta=0.3, mu=mu)

    with pytest.raises(ValueError, match=message):
        chern_mu_scan(models, [-0.5, 0.5], method=method, **kwargs)
    assert built == ([-0.5] if method == "contour" else [])


def test_mu_scan_checks_only_the_settings_its_route_reads():
    family = lambda mu: build_model("pip+", delta=0.3, mu=mu)
    (entry,) = chern_mu_scan(family, [-0.5], grid_n=5, L=3)
    assert entry.result.value == -1
    (entry,) = chern_mu_scan(family, [-0.5], method="berry", n_k=4, L=3)
    assert entry.result.value == -1


def test_mu_scan_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        chern_mu_scan(lambda mu: PIP, [0.5], method="spin")


def test_mu_scan_entry_requires_exactly_one_of_result_and_error():
    res = ChernResult(value=1, method="berry", raw=1.0, grid="", residual=0.0)
    with pytest.raises(ValueError, match="exactly one"):
        MuScanEntry(mu=0.5, method="berry", result=res, error="boom")
    with pytest.raises(ValueError, match="exactly one"):
        MuScanEntry(mu=0.5, method="berry", result=None, error=None)


def test_scan_csv_layout_keeps_error_rows():
    family = lambda mu: build_model("pip+", delta=0.3, mu=mu)
    text = scan_csv(chern_mu_scan(family, [-0.5, 0.0]))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["mu", "method", "raw", "value", "residual", "grid"]
    ok, bad = rows[1], rows[2]
    assert ok[0] == "-0.5" and ok[1] == "transfer" and ok[3] == "-1"
    assert float(ok[2]) == pytest.approx(-1.0, abs=1e-8)
    assert bad[0] == "0" and bad[3] == "" and bad[5].startswith("error: ")
