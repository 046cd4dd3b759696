"""Random potential layer: W catalog, constrained field sampling,
random Hamiltonian assembly and the coupling threshold."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bdgtools import disorder
from bdgtools.disorder import (
    DisorderRealization,
    DisorderSpec,
    DisorderTerm,
    Distribution,
    build_random_hamiltonian,
    default_spec,
    gap_closure_threshold,
    realization_to_csv,
    sample_realization,
    spec_from_json,
    spec_to_json,
    standard_W,
)
from bdgtools.disorder import (
    _MASK64,
    _Ensemble,
    _mean_stderr,
    _pack,
    _philox_uniforms,
    _realization_map,
)
from bdgtools.lattice import assemble_finite_volume, spectrum_symmetry_check, tight_binding
from bdgtools.models import build_model


def _three_term_spec(r: int = 1) -> DisorderSpec:
    return DisorderSpec(
        (
            DisorderTerm((0, 0), standard_W("W00", r)),
            DisorderTerm((1, 0), standard_W("W10", r)),
            DisorderTerm((0, 1), standard_W("W01", r)),
        )
    )


# ---------------------------------------------------------------------------
# W catalog

def test_standard_W_matrices():
    np.testing.assert_array_equal(standard_W("W00", 1), [[1, 0], [0, -1]])
    np.testing.assert_array_equal(standard_W("W10", 1), [[0, 1], [-1, 0]])
    np.testing.assert_array_equal(standard_W("W01", 1), [[0, 1j], [1j, 0]])


def test_standard_W_tensors_to_fiber():
    w = standard_W("W00", 2)
    np.testing.assert_array_equal(w, np.diag([1, 1, -1, -1]))
    assert standard_W("W10", 3).shape == (6, 6)


def test_W_adjoint_pairing():
    # W00 is self-adjoint (needed at j = 0); W10 and W01 are not and are
    # paired with their mirror displacement through W_{-j} = W_j*
    w00, w10, w01 = (standard_W(n, 1) for n in ("W00", "W10", "W01"))
    assert np.abs(w00 - w00.conj().T).max() == 0.0
    np.testing.assert_array_equal(w10.conj().T, -w10)
    np.testing.assert_array_equal(w01.conj().T, [[0, -1j], [-1j, 0]])
    assert np.abs(w01 - w01.conj().T).max() > 1


def test_standard_W_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown"):
        standard_W("W11", 1)
    with pytest.raises(ValueError):
        standard_W("W00", 0)


# ---------------------------------------------------------------------------
# distributions

def test_uniform_distribution_transform():
    nu = Distribution("uniform", r_support=2.0)
    np.testing.assert_allclose(nu.transform([0.0, 0.5, 1.0]), [-2.0, 0.0, 2.0])
    assert nu.support_radius == 2.0


def test_truncated_gaussian_transform():
    nu = Distribution("truncated_gaussian", sigma=0.5, cutoff=1.0)
    x = nu.transform(np.linspace(1e-6, 1 - 1e-6, 1001))
    assert x.min() >= -1.0 and x.max() <= 1.0
    assert abs(nu.transform(0.5)) < 1e-12
    assert nu.support_radius == 1.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution("uniform", r_support=0.0)
    with pytest.raises(ValueError):
        Distribution("truncated_gaussian", sigma=-1.0)
    with pytest.raises(ValueError):
        Distribution("cauchy")


@pytest.mark.parametrize(
    "params",
    [dict(kind="uniform", r_support=np.inf), dict(kind="uniform", r_support=np.nan),
     dict(kind="truncated_gaussian", sigma=np.inf), dict(kind="truncated_gaussian", cutoff=np.inf),
     dict(kind="truncated_gaussian", sigma=np.nan)],
    ids=["inf-support", "nan-support", "inf-sigma", "inf-cutoff", "nan-sigma"],
)
def test_distribution_refuses_non_finite_parameters(params):
    with pytest.raises(ValueError, match="finite"):
        Distribution(**params)


def test_non_finite_field_fails_the_hermiticity_check():
    spec = default_spec(r=1)
    field = {((0, 0), l): 0.5 for l in np.ndindex(4, 4)}
    field[((0, 0), (1, 2))] = np.inf
    rz = DisorderRealization((4, 4), field, seed=0)
    with pytest.raises(ValueError, match="hermiticity"), np.errstate(invalid="ignore"):
        build_random_hamiltonian(build_model("pip+", delta=0.3, mu=-0.5), spec, 0.5, rz)


def test_uniform_moments():
    spec = default_spec(r=1)
    rz = sample_realization(spec, (100, 100), seed=9)
    v = np.array(list(rz.values.values()))
    n = len(v)
    assert abs(v.mean()) < 4 / np.sqrt(3 * n)  # 4 sigma on the mean of U[-1,1]
    assert abs(v.var() - 1 / 3) < 4 * np.sqrt(4 / 45 / n)


# ---------------------------------------------------------------------------
# spec closure

def test_spec_autocompletes_mirror_terms():
    spec = DisorderSpec((DisorderTerm((1, 0), standard_W("W10", 1)),))
    js = [t.j for t in spec.terms]
    assert js == [(-1, 0), (1, 0)]
    np.testing.assert_array_equal(
        spec.term((-1, 0)).W, standard_W("W10", 1).conj().T
    )


def test_spec_rejects_closure_violations():
    w10 = standard_W("W10", 1)
    with pytest.raises(ValueError, match="W_-j"):
        DisorderSpec(
            (DisorderTerm((1, 0), w10), DisorderTerm((-1, 0), w10))
        )
    with pytest.raises(ValueError, match="self-adjoint"):
        DisorderSpec((DisorderTerm((0, 0), w10),))
    with pytest.raises(ValueError, match="distribution"):
        DisorderSpec(
            (
                DisorderTerm((1, 0), w10),
                DisorderTerm((-1, 0), w10.conj().T, Distribution("uniform", 2.0)),
            )
        )


def test_default_spec_is_onsite_potential():
    spec = default_spec(r=2, lam=0.3)
    assert [t.j for t in spec.terms] == [(0, 0)]
    np.testing.assert_array_equal(spec.terms[0].W, standard_W("W00", 2))
    assert spec.lam == 0.3 and spec.range == 0


# ---------------------------------------------------------------------------
# field sampling

def test_field_constraint_exhaustive():
    spec = _three_term_spec()
    rz = sample_realization(spec, (6, 6), seed=11)
    for t in spec.terms:
        for l1 in range(6):
            for l2 in range(6):
                v = rz.values[(t.j, (l1, l2))]
                lp = ((l1 + t.j[0]) % 6, (l2 + t.j[1]) % 6)
                assert v == rz.values[((-t.j[0], -t.j[1]), lp)]


def test_sampling_is_deterministic_and_seed_sensitive():
    spec = _three_term_spec()
    a = sample_realization(spec, (8, 8), seed=5)
    b = sample_realization(spec, (8, 8), seed=5)
    assert a.values == b.values
    c = sample_realization(spec, (8, 8), seed=6)
    frac = np.mean([a.values[k] != c.values[k] for k in a.values])
    assert frac > 0.99


def test_draws_are_distinct_across_sites_and_displacements():
    rz = sample_realization(_three_term_spec(), (8, 8), seed=0)
    canonical = [v for (j, l), v in rz.values.items() if j >= (0, 0)]
    assert len(set(canonical)) == len(canonical)


def test_field_accessor_matches_values():
    spec = default_spec(r=1)
    rz = sample_realization(spec, (5, 7), seed=2)
    f = rz.field((0, 0))
    assert f.shape == (5, 7)
    assert f[3, 4] == rz.values[((0, 0), (3, 4))]


# ---------------------------------------------------------------------------
# vectorized field sampling against the scalar per-class reference

SEEDS = [0, 5, 2**63 + 7, 2**64 - 1]


def _class_uniform(seed: int, j: tuple[int, int], l: tuple[int, int]) -> float:
    """The single uniform [0,1) draw attached to the disorder class (j, l).

    The scalar reference of :func:`_philox_uniforms`, which the sampler uses.
    """
    # dtype must be explicit: a plain list would go through float64 and lose
    # the low counter bits for values >= 2^63
    counter = np.array([_pack(j), _pack(l), 0, 0], dtype=np.uint64)
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    return float(np.random.Generator(np.random.Philox(counter=counter, key=key)).random())
BOXES = pytest.mark.parametrize("L", [(37, 23), (1, 3)], ids=["37x23", "1x3"])


@BOXES
@pytest.mark.parametrize("j", [(0, 0), (1, 0), (2, -3)])
@pytest.mark.parametrize("seed", SEEDS)
def test_vectorized_draws_equal_the_scalar_philox_bit_for_bit(seed, j, L):
    got = _philox_uniforms(seed, j, L)
    ref = np.array(
        [[_class_uniform(seed, j, (l1, l2)) for l2 in range(L[1])] for l1 in range(L[0])]
    )
    assert got.shape == L
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def _scalar_realization(spec: DisorderSpec, L, seed: int) -> dict:
    """Reference field: one ``_class_uniform`` per class, mirrors filled by hand."""
    values = {}
    for t in spec.terms:
        if not (t.j > (0, 0) or t.j == (0, 0)):
            continue
        sites = [(l1, l2) for l2 in range(L[1]) for l1 in range(L[0])]
        vs = t.nu.transform(np.array([_class_uniform(seed, t.j, l) for l in sites]))
        for (l1, l2), v in zip(sites, vs):
            values[(t.j, (l1, l2))] = float(v)
            if t.j != (0, 0):
                lp = ((l1 + t.j[0]) % L[0], (l2 + t.j[1]) % L[1])
                values[((-t.j[0], -t.j[1]), lp)] = float(v)
    return values


def _spec_with(nu: Distribution) -> DisorderSpec:
    return DisorderSpec(
        (
            DisorderTerm((0, 0), standard_W("W00", 1), nu),
            DisorderTerm((1, 0), standard_W("W10", 1), nu),
            DisorderTerm((2, -3), standard_W("W01", 1), nu),
        )
    )


@pytest.mark.parametrize(
    "nu",
    [Distribution("uniform", r_support=1.5),
     Distribution("truncated_gaussian", sigma=0.5, cutoff=1.5)],
    ids=["uniform", "truncated_gaussian"],
)
@BOXES
@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_field_equals_the_scalar_construction(seed, L, nu):
    spec = _spec_with(nu)
    rz = sample_realization(spec, L, seed)
    ref = _scalar_realization(spec, L, seed)
    assert dict(rz.values) == ref and list(rz.values) == sorted(ref)
    for (j, l), v in ref.items():
        assert rz.field(j)[l] == v
    csv = "".join(
        "%d,%d,%d,%d,%.17g\n" % (j[0], j[1], l[0], l[1], ref[(j, l)]) for (j, l) in sorted(ref)
    )
    assert realization_to_csv(rz) == "j1,j2,l1,l2,v\n" + csv
    assert realization_to_csv(DisorderRealization(L, ref, seed)) == realization_to_csv(rz)


def test_values_and_field_arrays_are_read_only():
    spec = _three_term_spec()
    sampled = sample_realization(spec, (5, 6), seed=1)
    built = DisorderRealization((5, 6), dict(sampled.values), seed=1)
    for rz in (sampled, built):
        with pytest.raises(TypeError):
            rz.values[((0, 0), (0, 0))] = 1.0
        for t in spec.terms:
            f = rz.field(t.j)
            assert not f.flags.writeable
            with pytest.raises(ValueError):
                f[0, 0] = 1.0
    assert built.values == sampled.values


def test_realization_from_a_mapping_keeps_its_entries():
    L = (4, 3)
    mapping = {((0, 0), (l1, l2)): 0.1 * l1 - l2 for l1 in range(4) for l2 in range(3)}
    rz = DisorderRealization(L, mapping, seed=7)
    assert rz.L == L and rz.seed == 7 and dict(rz.values) == mapping
    np.testing.assert_array_equal(
        rz.field((0, 0)), [[0.1 * l1 - l2 for l2 in range(3)] for l1 in range(4)]
    )
    assert ((0, 0), (4, 0)) not in rz.values and ((0, 0), (-1, 0)) not in rz.values
    with pytest.raises(KeyError):
        rz.field((1, 0))
    del mapping[((0, 0), (2, 1))]
    with pytest.raises(ValueError, match="cover"):
        DisorderRealization(L, mapping, seed=7)


# ---------------------------------------------------------------------------
# random Hamiltonians

def test_zero_coupling_reproduces_clean_operator():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    spec = default_spec(r=1)
    rz = sample_realization(spec, (6, 6), seed=1)
    dirty = build_random_hamiltonian(H, spec, 0.0, rz)
    clean = assemble_finite_volume(H, (6, 6))
    assert (dirty.matrix != clean.matrix).nnz == 0


def test_random_hamiltonians_are_self_adjoint():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    spec = _three_term_spec()
    for seed in range(4):
        rz = sample_realization(spec, (6, 6), seed=seed)
        m = build_random_hamiltonian(H, spec, 0.7, rz).dense()
        assert np.abs(m - m.conj().T).max() <= 1e-12


def test_onsite_disorder_preserves_spectral_symmetry():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    spec = default_spec(r=1)
    for seed in range(3):
        rz = sample_realization(spec, (8, 8), seed=seed)
        fv = build_random_hamiltonian(H, spec, 0.6, rz)
        assert spectrum_symmetry_check(fv.eigenvalues()) <= 1e-10


def test_constant_potential_shifts_mu():
    # v = c with W00 acts as mu -> mu - 2*lam*c
    c, lam = 0.37, 0.21
    const = DisorderRealization(
        (6, 6),
        {((0, 0), (l1, l2)): c for l1 in range(6) for l2 in range(6)},
        seed=0,
    )
    spec = default_spec(r=1)
    lhs = build_random_hamiltonian(
        build_model("pip+", delta=0.3, mu=-0.5), spec, lam, const
    )
    rhs = assemble_finite_volume(
        build_model("pip+", delta=0.3, mu=-0.5 - 2 * lam * c), (6, 6)
    )
    assert np.abs((lhs.matrix - rhs.matrix)).max() < 1e-14


def test_fiber_mismatch_rejected():
    H = build_model("s", delta=0.5, mu=0.2)  # fiber dimension 4
    spec = default_spec(r=1)  # W on dimension 2
    rz = sample_realization(spec, (6, 6), seed=0)
    with pytest.raises(ValueError, match="dimension"):
        build_random_hamiltonian(H, spec, 0.5, rz)


def test_translated_field_gives_translated_operator():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    spec = _three_term_spec()
    L = (6, 6)
    base = sample_realization(spec, L, seed=4)
    t = (2, 5)
    shifted = DisorderRealization(
        L,
        {
            (j, l): base.values[(j, ((l[0] + t[0]) % 6, (l[1] + t[1]) % 6))]
            for (j, l) in base.values
        },
        seed=4,
    )
    Ha = build_random_hamiltonian(H, spec, 0.8, base).dense()
    Hb = build_random_hamiltonian(H, spec, 0.8, shifted).dense()
    fv = assemble_finite_volume(H, L)
    n = fv.dim
    perm = np.zeros((n, n))
    for l1 in range(6):
        for l2 in range(6):
            src = fv.site_slice((l1 + t[0], l2 + t[1]))
            dst = fv.site_slice((l1, l2))
            perm[dst, src] = np.eye(2)
    np.testing.assert_allclose(Hb, perm @ Ha @ perm.T, atol=1e-14)


def test_open_boundary_disorder_does_not_wrap_around_the_box():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    spec = _three_term_spec()
    L = (6, 6)
    rz = sample_realization(spec, L, seed=2)

    def disorder_part(bc):
        fv = build_random_hamiltonian(H, spec, 1.0, rz, bc=bc)
        return fv, (fv.matrix - assemble_finite_volume(H, L, bc=bc).matrix).tocoo()

    fv, v_open = disorder_part("open")
    _, v_periodic = disorder_part("periodic")
    dense = v_open.toarray()
    assert np.abs(dense - dense.conj().T).max() <= 1e-12

    def hops(v):  # (row, col) -> site displacement, not reduced mod L
        return {
            (row, col): np.subtract(fv.site_of(row)[0], fv.site_of(col)[0])
            for row, col in zip(v.row, v.col)
        }

    assert all(np.abs(d).sum() <= 1 for d in hops(v_open).values())
    # the open V is the periodic V without the hops across a face
    inside = {rc for rc, d in hops(v_periodic).items() if np.abs(d).sum() <= 1}
    assert len(inside) < v_periodic.nnz
    keep = np.array([rc in inside for rc in zip(v_periodic.row, v_periodic.col)])
    expected = np.zeros_like(dense)
    expected[v_periodic.row[keep], v_periodic.col[keep]] = v_periodic.data[keep]
    np.testing.assert_array_equal(dense, expected)


def _per_site_disorder(H0, spec, lam, realization, bc):
    """Reference H0 + lam*V, one hop at a time with explicit face checks."""
    base = assemble_finite_volume(H0, realization.L, bc=bc)
    L1, L2 = realization.L
    n = L1 * L2
    v_total = sp.csr_matrix((n * spec.fiber_dim,) * 2, dtype=complex)
    for t in spec.terms:
        rows, cols, data = [], [], []
        for l2 in range(L2):
            for l1 in range(L1):
                t1, t2 = l1 + t.j[0], l2 + t.j[1]
                if bc == "open" and not (0 <= t1 < L1 and 0 <= t2 < L2):
                    continue
                rows.append(t1 % L1 + L1 * (t2 % L2))
                cols.append(l1 + L1 * l2)
                data.append(realization.values[(t.j, (l1, l2))])
        sites = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
        v_total = v_total + sp.kron(sites, sp.csr_matrix(t.W), format="csr")
    return (base.matrix + float(lam) * v_total).toarray()


def _offsite_spec(r: int) -> DisorderSpec:
    gauss = Distribution("truncated_gaussian", sigma=0.5, cutoff=1.5)
    return DisorderSpec(
        (
            DisorderTerm((0, 0), standard_W("W00", r)),
            DisorderTerm((1, 0), standard_W("W10", r)),
            DisorderTerm((1, 1), standard_W("W01", r), gauss),
        )
    )


@pytest.mark.parametrize("spec_kind", ["onsite", "three-term"])
@pytest.mark.parametrize("name", ["pip+", "did+"])
def test_site_map_assembly_matches_per_site_reference(name, spec_kind):
    H = build_model(name, delta=0.6, mu=-0.5)
    r = H.fiber.r
    spec = default_spec(r=r) if spec_kind == "onsite" else _offsite_spec(r)
    for L in [(6, 6), (5, 7), (8, 8), (16, 16)]:
        for seed in range(3):
            rz = sample_realization(spec, L, seed=seed)
            for bc in ("periodic", "open"):
                got = build_random_hamiltonian(H, spec, 0.7, rz, bc=bc).dense()
                ref = _per_site_disorder(H, spec, 0.7, rz, bc)
                assert np.array_equal(got, ref), (L, seed, bc)


@pytest.mark.parametrize("name", ["pip+", "did+"])
def test_a_periodic_box_too_small_for_the_disorder_range_is_refused(name):
    # on the periodic 4 x 5 box the hops l -> l + (2, 0) and l -> l - (2, 0)
    # would land on the same site pair; H0 of range 2 is refused there too
    H = build_model(name, delta=0.6, mu=-0.5)
    r = H.fiber.r
    spec = DisorderSpec(
        (DisorderTerm((0, 0), standard_W("W00", r)), DisorderTerm((2, 0), standard_W("W10", r)))
    )
    L = (4, 5)
    message = re.escape(
        "periodic box (4, 5) too small for hopping range R=2: "
        "need L1, L2 > 2R=4 so no single hop wraps onto itself"
    )
    wide = tight_binding(H.fiber, {(2, 0): np.eye(H.fiber.dim), (-2, 0): np.eye(H.fiber.dim)})
    with pytest.raises(ValueError, match=message):
        assemble_finite_volume(wide, L)
    rz = sample_realization(spec, L, seed=0)
    for h0 in (H, assemble_finite_volume(H, L)):
        with pytest.raises(ValueError, match=message):
            build_random_hamiltonian(h0, spec, 0.7, rz)
    with pytest.raises(ValueError, match=message):  # the ensemble path
        _realization_map(lambda fv: fv, _Ensemble(H, spec, 0.7, L, 2, 0, 1))
    # an open box has no wrap-around, and the clean periodic box stays valid
    got = build_random_hamiltonian(H, spec, 0.7, rz, bc="open").dense()
    assert np.array_equal(got, _per_site_disorder(H, spec, 0.7, rz, "open"))
    assert build_random_hamiltonian(H, spec, 0.0, rz) is not None


@pytest.mark.parametrize("L", [(6, 6), (5, 7)])
@pytest.mark.parametrize("name", ["pip+", "did+"])
def test_ensemble_path_assembles_H0_once_and_matches_build_random_hamiltonian(
    name, L, monkeypatch
):
    H = build_model(name, delta=0.6, mu=-0.5)
    spec = _offsite_spec(H.fiber.r)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble_finite_volume(*args, **kwargs)

    monkeypatch.setattr(disorder, "assemble_finite_volume", counted)
    got = _realization_map(lambda fv: fv.matrix, _Ensemble(H, spec, 0.7, L, 4, 10, 2))
    assert len(calls) == 1
    monkeypatch.undo()
    for i, m in enumerate(got):
        ref = build_random_hamiltonian(H, spec, 0.7, sample_realization(spec, L, 10 + i))
        assert m.shape == ref.matrix.shape and (m != ref.matrix).nnz == 0


def test_assembled_H0_must_fit_the_realization():
    H = build_model("pip+", delta=0.3, mu=-0.5)
    spec = default_spec(r=1)
    rz = sample_realization(spec, (6, 6), seed=0)
    for base, bc in [(assemble_finite_volume(H, (6, 7)), "periodic"),
                     (assemble_finite_volume(H, (6, 6)), "open")]:
        with pytest.raises(ValueError, match="box"):
            build_random_hamiltonian(base, spec, 0.5, rz, bc=bc)
    for bc in ("periodic", "open"):
        base = assemble_finite_volume(H, (6, 6), bc=bc)
        got = build_random_hamiltonian(base, spec, 0.5, rz, bc=bc).matrix
        assert (got != build_random_hamiltonian(H, spec, 0.5, rz, bc=bc).matrix).nnz == 0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 2.0))
def test_disorder_operator_self_adjoint_property(seed, lam):
    H = build_model("pip+", delta=0.3, mu=-0.5)
    spec = _three_term_spec()
    rz = sample_realization(spec, (5, 5), seed=seed)
    m = build_random_hamiltonian(H, spec, lam, rz).dense()
    assert np.abs(m - m.conj().T).max() <= 1e-12


def test_mean_stderr_is_the_standard_error_and_zero_for_one_realization():
    samples = np.array([[1.0, 2.0], [3.0, 2.0], [8.0, 2.0]])
    mean, err = _mean_stderr(samples)
    np.testing.assert_array_equal(mean, [4.0, 2.0])
    np.testing.assert_array_equal(err, samples.std(axis=0, ddof=1) / np.sqrt(3))
    mean, err = _mean_stderr(samples[:1])
    np.testing.assert_array_equal(mean, [1.0, 2.0])
    np.testing.assert_array_equal(err, [0.0, 0.0])


@pytest.mark.parametrize("lam", [np.inf, np.nan, -0.5])
def test_spec_refuses_a_coupling_that_is_not_finite_and_nonnegative(lam):
    with pytest.raises(ValueError, match="lam"):
        default_spec(r=1, lam=lam)
    doc = json.loads(spec_to_json(default_spec(r=1)))
    doc["lambda"] = lam  # written as Infinity or NaN
    with pytest.raises(ValueError, match="lam"):
        spec_from_json(json.dumps(doc), r=1)


# ---------------------------------------------------------------------------
# threshold and serialization

def test_gap_closure_threshold_values():
    assert gap_closure_threshold(0.5, 1.0) == 0.5
    assert gap_closure_threshold(0.1, 2.0) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        gap_closure_threshold(0.5, 0.0)
    with pytest.raises(ValueError):
        gap_closure_threshold(-0.5, 1.0)


def test_spec_json_round_trip():
    spec = DisorderSpec(
        (
            DisorderTerm((0, 0), standard_W("W00", 1), name="W00"),
            DisorderTerm(
                (1, 0),
                standard_W("W10", 1),
                Distribution("truncated_gaussian", sigma=0.5, cutoff=2.0),
            ),
        ),
        lam=0.25,
    )
    back = spec_from_json(spec_to_json(spec), r=1)
    assert back.lam == 0.25
    assert [t.j for t in back.terms] == [t.j for t in spec.terms]
    for a, b in zip(back.terms, spec.terms):
        np.testing.assert_array_equal(a.W, b.W)
        assert a.nu == b.nu


def test_spec_json_round_trip_with_catalog_named_offsite_terms():
    # the completed mirrors at (-1, 0) and (0, -1) hold W_j*, not the named W_j
    spec = DisorderSpec(
        (
            DisorderTerm((1, 0), standard_W("W10", 2), name="W10"),
            DisorderTerm((0, 1), standard_W("W01", 2), name="W01"),
        ),
        lam=0.5,
    )
    text = spec_to_json(spec)
    back = spec_from_json(text, r=2)
    assert [t.j for t in back.terms] == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    for a, b in zip(back.terms, spec.terms):
        np.testing.assert_array_equal(a.W, b.W)
        assert a.nu == b.nu
    assert spec_to_json(back) == text


def test_spec_json_catalog_names_need_fiber():
    text = spec_to_json(default_spec(r=1))
    with pytest.raises(ValueError, match="fiber"):
        spec_from_json(text)
    assert spec_from_json(text, r=1).fiber_dim == 2


@pytest.mark.parametrize(
    "text",
    ["[1]", '{"lambda": 0.3}', '{"terms": 3}', '{"terms": [[0, 0]]}',
     '{"terms": [{"j": [0, 0]}]}', '{"terms": [{"W": "W00"}]}',
     '{"terms": [{"j": 5, "W": "W00"}]}', '{"terms": [{"j": [1], "W": "W00"}]}',
     '{"terms": [{"j": [1, 0, 5], "W": "W10"}]}',
     '{"terms": [{"j": [0, 0], "W": [[1]]}]}',
     '{"terms": [{"j": [0, 0], "W": "W00", "nu": 3}]}',
     '{"terms": [{"j": [0, 0], "W": "W00", "nu": {"kind": "uniform", "params": {"r": 1}}}]}'],
)
def test_spec_from_json_refuses_a_document_that_is_not_a_spec(text):
    with pytest.raises(ValueError, match="terms|term"):
        spec_from_json(text, r=1)


def test_realization_csv_format():
    rz = sample_realization(default_spec(r=1), (3, 3), seed=0)
    lines = realization_to_csv(rz).splitlines()
    assert lines[0] == "j1,j2,l1,l2,v"
    assert len(lines) == 1 + 9
    j1, j2, l1, l2, v = lines[1].split(",")
    assert (int(j1), int(j2)) == (0, 0)
    assert float(v) == rz.values[((0, 0), (int(l1), int(l2)))]


def test_a_clean_ensemble_is_the_clean_body_when_one_is_given():
    H = build_model("pip+", delta=0.6, mu=-0.5)

    def refused(fv):
        raise AssertionError("the clean body replaces fn on a clean ensemble")

    for spec, lam in ((None, 0.7), (default_spec(r=1), 0.0)):
        ens = _Ensemble(H, spec, lam, 6, 3, 0, 1)
        # the Bloch route's body takes (model, box); no realization is mapped
        got = [(ens.model, ens.box)] if ens.route == "bloch" else _realization_map(refused, ens)
        assert got == [(H, (6, 6))]
    with pytest.raises(ValueError, match="n_realizations must be >= 1"):
        _Ensemble(H, None, 0.0, 6, 0, 0, 1)
    with pytest.raises(TypeError, match="TightBindingOperator"):
        _Ensemble("pip+", None, 0.0, 6, 1, 0, 1)
