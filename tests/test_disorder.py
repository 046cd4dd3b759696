"""Random potential layer: W catalog, constrained field sampling,
random Hamiltonian assembly and the coupling threshold."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bdgtools.lattice import assemble_finite_volume, spectrum_symmetry_check
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


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 2.0))
def test_disorder_operator_self_adjoint_property(seed, lam):
    H = build_model("pip+", delta=0.3, mu=-0.5)
    spec = _three_term_spec()
    rz = sample_realization(spec, (5, 5), seed=seed)
    m = build_random_hamiltonian(H, spec, lam, rz).dense()
    assert np.abs(m - m.conj().T).max() <= 1e-12


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


def test_realization_csv_format():
    rz = sample_realization(default_spec(r=1), (3, 3), seed=0)
    lines = realization_to_csv(rz).splitlines()
    assert lines[0] == "j1,j2,l1,l2,v"
    assert len(lines) == 1 + 9
    j1, j2, l1, l2, v = lines[1].split(",")
    assert (int(j1), int(j2)) == (0, 0)
    assert float(v) == rz.values[((0, 0), (int(l1), int(l2)))]
