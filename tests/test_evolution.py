import numpy as np
import pytest
import scipy.sparse as sp

from geomqm import (
    LatticeSpec,
    OperatorError,
    build_lattice,
    constant_metric,
    covariant_laplacian,
    eigenvalues,
    heisenberg_evolve,
    heisenberg_residual,
    mult_op,
    propagator,
    unitarity_defect,
)
from geomqm.operators import DENSE_LIMIT


def interval(n):
    return build_lattice(LatticeSpec("interval", (n,), (1.0,)))


def free_hamiltonian(lat, m=1.0):
    return covariant_laplacian(lat, constant_metric(lat), None, m)


def test_diagonal_propagator_matches_exponential_oracle():
    lat = interval(12)
    vals = np.linspace(-1.0, 1.5, 12)
    H = mult_op(lat, vals)
    T = 2.0
    exact = np.diag(np.exp(-1j * vals * T))
    errs = []
    for steps in (20, 40):
        U = propagator(H, 0.0, T, steps)
        errs.append(np.max(np.abs(U - exact)))
    assert 3.2 < errs[0] / errs[1] < 4.8  # O(delta^2), ratio ~ 4


def test_unitarity_defect_many_steps():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    H = sp.csr_matrix(M + M.conj().T)
    U = propagator(H, 0.0, 1.0, 1000)
    assert unitarity_defect(U) <= 1e-10


def test_composition_with_aligned_steps():
    lat = interval(16)
    H = free_hamiltonian(lat)
    U02 = propagator(H, 0.0, 2.0, 20)
    U01 = propagator(H, 0.0, 1.0, 10)
    U12 = propagator(H, 1.0, 2.0, 10)
    assert np.max(np.abs(U12 @ U01 - U02)) <= 1e-12


def test_cyclicity_backward_is_dagger():
    lat = interval(16)
    H = free_hamiltonian(lat)
    U = propagator(H, 0.0, 1.5, 15)
    eye = U.conj().T @ U
    assert np.max(np.abs(eye - np.eye(16))) <= 1e-10


def test_propagator_preconditions():
    lat = interval(8)
    H = free_hamiltonian(lat)
    with pytest.raises(OperatorError):
        propagator(H, 0.0, 1.0, 0)
    with pytest.raises(OperatorError):
        propagator(H, 1.0, 1.0, 4)


def test_time_dependent_sampler():
    lat = interval(8)
    base = free_hamiltonian(lat)

    def sampler(t):
        return (1.0 + 0.5 * t) * base.mat

    U = propagator(sampler, 0.0, 1.0, 50)
    assert unitarity_defect(U) <= 1e-10


def test_heisenberg_identity_evolution():
    lat = interval(8)
    a = np.arange(8.0)
    at = heisenberg_evolve(a, np.eye(8, dtype=complex))
    assert np.allclose(at, np.diag(a))


def test_heisenberg_spectrum_preserved():
    lat = interval(24)
    H = free_hamiltonian(lat)
    rng = np.random.default_rng(1)
    a = rng.normal(size=24)
    U = propagator(H, 0.0, 1.0, 30)
    at = heisenberg_evolve(a, U)
    assert np.max(np.abs(np.linalg.eigvalsh(at) - np.sort(a))) <= 1e-10
    assert abs(np.max(np.abs(np.linalg.eigvalsh(at))) - np.max(np.abs(a))) <= 1e-10


def test_slices_fail_to_commute():
    lat = interval(64)
    H = free_hamiltonian(lat)
    x = lat.positions[:, 0]
    U = propagator(H, 0.0, 1.0, 40)
    xt = heisenberg_evolve(x, U)
    x0 = np.diag(x.astype(complex))
    assert np.linalg.norm(x0 @ xt - xt @ x0, 2) > 0.01


def test_heisenberg_residual_constant_field():
    lat = interval(16)
    H = free_hamiltonian(lat)
    assert heisenberg_residual(H, np.full(16, 2.0), 1.0, 0.1) <= 1e-12


def test_heisenberg_residual_second_order():
    lat = interval(24)
    H = free_hamiltonian(lat)
    x = lat.positions[:, 0]
    r1 = heisenberg_residual(H, x, 1.0, 0.2)
    r2 = heisenberg_residual(H, x, 1.0, 0.1)
    assert 3.2 < r1 / r2 < 4.8


def test_heisenberg_residual_diagonal_hamiltonian():
    lat = interval(12)
    H = mult_op(lat, np.linspace(0.0, 1.0, 12))
    rng = np.random.default_rng(2)
    a = rng.normal(size=12)
    # diagonal H commutes with mult(a) evolution: a_t = a for all t
    assert heisenberg_residual(H, a, 1.0, 0.1) <= 1e-12


@pytest.mark.parametrize("call", [
    lambda H, a: eigenvalues(H),
    lambda H, a: propagator(H, 0.0, 1.0, 2),
    lambda H, a: propagator(lambda t: H, 0.0, 1.0, 2),
    lambda H, a: heisenberg_residual(H, a, 0.5, 0.5),  # t = delta: the identity branch
], ids=["eigenvalues", "propagator", "propagator-sampler", "heisenberg_residual"])
def test_dense_paths_refuse_above_the_dense_limit_before_allocating(monkeypatch, call):
    n = DENSE_LIMIT + 1
    H = sp.identity(n, dtype=complex, format="csr")

    def refuse(*args, **kwargs):
        raise AssertionError("an n x n dense matrix was made")

    monkeypatch.setattr(sp.csr_matrix, "toarray", refuse)
    monkeypatch.setattr(np, "eye", refuse)
    with pytest.raises(OperatorError, match=f"dimension {n} exceeds the dense limit 4096"):
        call(H, np.zeros(n))
