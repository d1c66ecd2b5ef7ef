import numpy as np
import pytest

from pseudospec import is_member
from pseudospec.errors import BadParams, UnknownFamily
from pseudospec.families import FAMILIES, generate
from pseudospec.structures import pattern_from_dict, pattern_to_dict


@pytest.mark.parametrize("family,n", [
    ("tridiag_toeplitz", 5),
    ("pentadiag_toeplitz", 6),
    ("hamiltonian_random", 8),
])
class TestGenerate:
    def test_matrix_matches_pattern(self, family, n):
        A, pattern, params = generate(family, n, seed=0)
        assert A.shape == (n, n)
        assert is_member(A, pattern)
        assert params

    def test_seed_determinism(self, family, n):
        A1, _, p1 = generate(family, n, seed=5)
        A2, _, p2 = generate(family, n, seed=5)
        A3, _, _ = generate(family, n, seed=6)
        np.testing.assert_array_equal(A1, A2)
        assert p1 == p2
        assert not np.array_equal(A1, A3)


def test_tridiag_interval_scales():
    for seed in range(10):
        A, _, params = generate("tridiag_toeplitz", 4, seed=seed)
        assert 0.0 <= params["sub"] <= 5.0
        assert 0.0 <= params["diag"] <= 1.0
        assert 0.0 <= params["super"] <= 1.0
        assert np.all(A.imag == 0)


def test_pentadiag_is_complex():
    A, pattern, _ = generate("pentadiag_toeplitz", 6, seed=1)
    assert np.any(A.imag != 0)
    assert pattern.support == frozenset({-2, -1, 0, 1, 2})


def test_hamiltonian_is_real_even():
    A, pattern, _ = generate("hamiltonian_random", 8, seed=1)
    assert np.all(A.imag == 0)
    assert pattern.n_half == 4 and pattern.real


def test_bad_inputs():
    with pytest.raises(UnknownFamily):
        generate("nope", 4, seed=0)
    with pytest.raises(BadParams):
        generate("tridiag_toeplitz", 1, seed=0)
    with pytest.raises(BadParams):
        generate("hamiltonian_random", 5, seed=0)
    assert len(FAMILIES) == 3


def test_pattern_dict_round_trip():
    for family, n in [("tridiag_toeplitz", 5), ("hamiltonian_random", 8)]:
        _, pattern, _ = generate(family, n, seed=0)
        assert pattern_from_dict(pattern_to_dict(pattern), n) == pattern
