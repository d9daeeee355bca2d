import numpy as np
import pytest
import scipy.sparse as sp

from geomqm import (
    LatticeError,
    LatticeSpec,
    OperatorError,
    build_hamiltonian,
    build_lattice,
    commutator,
    constant_metric,
    covariant_laplacian,
    d0,
    eigenvalues,
    flat_connection,
    gauge_transform,
    identity_op,
    load_operator,
    mult_op,
    save_operator,
    validate_operator,
)


def free_ring_spectrum(n, h, m, alpha=0.0):
    """Fourier oracle: plane waves diagonalize the twisted ring stencil."""
    k = np.arange(n)
    return np.sort((1.0 - np.cos((2 * np.pi * k - alpha) / n)) / (m * h * h))


@pytest.fixture
def ring4():
    return build_lattice(LatticeSpec("ring", (4,), (1.0,)))


def test_mult_identity(ring4):
    assert np.allclose(mult_op(ring4, np.ones(4)).dense(), np.eye(4))


def test_mult_coordinate_diagonal():
    lat = build_lattice(LatticeSpec("interval", (5,), (0.5,)))
    M = mult_op(lat, lat.positions[:, 0]).dense()
    assert np.allclose(M, np.diag([0.0, 0.5, 1.0, 1.5, 2.0]))


def test_mult_pointwise_product(ring4):
    rng = np.random.default_rng(0)
    f, g = rng.normal(size=4), rng.normal(size=4)
    lhs = (mult_op(ring4, f) @ mult_op(ring4, g)).dense()
    assert np.allclose(lhs, mult_op(ring4, f * g).dense())


def test_commutator_of_multiplications_vanishes(ring4):
    rng = np.random.default_rng(1)
    f, g = rng.normal(size=4), rng.normal(size=4)
    c = commutator(mult_op(ring4, f), mult_op(ring4, g))
    assert c.nnz == 0


def test_commutator_diagonal_identity(ring4):
    # [diag(a), M]_ij = (a_i - a_j) M_ij
    rng = np.random.default_rng(2)
    a = rng.normal(size=4)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c = commutator(mult_op(ring4, a), sp.csr_matrix(M)).toarray()
    expect = (a[:, None] - a[None, :]) * M
    assert np.allclose(c, expect, atol=1e-13)


def test_commutator_self_vanishes(ring4):
    H = covariant_laplacian(ring4, constant_metric(ring4), None, 1.0)
    assert np.max(np.abs(commutator(H, H).toarray())) < 1e-14


def test_commutator_dimension_mismatch(ring4):
    other = sp.identity(7, dtype=complex, format="csr")
    with pytest.raises(OperatorError):
        commutator(identity_op(ring4), other)


def test_free_ring_matches_fourier_oracle(ring4):
    H = covariant_laplacian(ring4, constant_metric(ring4), None, 1.0)
    dense = H.dense()
    assert np.allclose(np.diag(dense), np.ones(4))
    offs = dense[~np.eye(4, dtype=bool)]
    coupled = offs[np.abs(offs) > 0]
    assert np.allclose(coupled, -0.5)
    assert np.allclose(eigenvalues(H), free_ring_spectrum(4, 1.0, 1.0), atol=1e-12)


def test_laplacian_linear_in_metric(ring4):
    H1 = covariant_laplacian(ring4, constant_metric(ring4), None, 1.0)
    H2 = covariant_laplacian(ring4, 2.0 * constant_metric(ring4), None, 1.0)
    assert np.allclose(H2.dense(), 2.0 * H1.dense())


def test_laplacian_mass_scaling(ring4):
    H1 = covariant_laplacian(ring4, constant_metric(ring4), None, 1.0)
    H2 = covariant_laplacian(ring4, constant_metric(ring4), None, 2.0)
    assert np.allclose(H2.dense(), 0.5 * H1.dense())


def test_hamiltonian_free_ground_state(ring4):
    H = build_hamiltonian(ring4, constant_metric(ring4), None, None, 1.0)
    assert abs(eigenvalues(H)[0]) < 1e-12


def test_constant_potential_shifts_spectrum(ring4):
    g = constant_metric(ring4)
    base = eigenvalues(build_hamiltonian(ring4, g, None, None, 1.0))
    shifted = eigenvalues(build_hamiltonian(ring4, g, None, np.full(4, 2.5), 1.0))
    assert np.allclose(shifted, base + 2.5, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_potential_is_refused(ring4, bad):
    phi = np.zeros(4)
    phi[2] = bad
    with pytest.raises(LatticeError, match="non-finite"):
        build_hamiltonian(ring4, constant_metric(ring4), None, phi, 1.0)
    with pytest.raises(LatticeError, match="non-finite"):
        mult_op(ring4, phi)


@pytest.mark.parametrize("alpha", [0.7, np.pi, -1.2])
def test_twisted_ring_spectrum(alpha):
    lat = build_lattice(LatticeSpec("ring", (8,), (0.5,)))
    theta = flat_connection(lat, (alpha,))
    H = build_hamiltonian(lat, constant_metric(lat), theta, None, 1.0)
    assert np.allclose(eigenvalues(H), free_ring_spectrum(8, 0.5, 1.0, alpha), atol=1e-10)


def test_builder_hermiticity_and_positivity():
    lat = build_lattice(LatticeSpec("torus", (6, 6), (1.0, 0.8)))
    pos = lat.positions
    g = np.zeros((lat.n_sites, 2, 2))
    g[:, 0, 0] = 1.0 + 0.3 * np.sin(2 * np.pi * pos[:, 0] / 6)
    g[:, 1, 1] = 1.5 + 0.2 * np.cos(2 * np.pi * pos[:, 1] / 4.8)
    g[:, 0, 1] = g[:, 1, 0] = 0.2
    theta = flat_connection(lat, (0.5, -0.8))
    H = covariant_laplacian(lat, g, theta, 1.3)
    assert H.hermiticity_defect() < 1e-12
    assert eigenvalues(H)[0] > -1e-9


def test_row_sums_vanish_on_closed_topology():
    lat = build_lattice(LatticeSpec("torus", (5, 4), (1.0, 1.0)))
    g = constant_metric(lat, np.array([[1.0, 0.3], [0.3, 2.0]]))
    H = covariant_laplacian(lat, g, None, 1.0)
    sums = np.asarray(H.mat.sum(axis=1)).ravel()
    assert np.max(np.abs(sums)) < 1e-12


def test_gauge_covariance_entrywise():
    lat = build_lattice(LatticeSpec("cylinder", (6, 5), (1.0, 1.0)))
    rng = np.random.default_rng(9)
    g = constant_metric(lat, np.array([[1.0, 0.2], [0.2, 1.4]]))
    theta = flat_connection(lat, (0.6,))
    phi = rng.normal(size=lat.n_sites)
    chi = 0.3 * np.sin(2 * np.pi * lat.positions[:, 0] / 6)
    H1 = build_hamiltonian(lat, g, theta + d0(lat, chi), phi, 1.0)
    H2 = gauge_transform(build_hamiltonian(lat, g, theta, phi, 1.0), chi)
    assert np.max(np.abs((H1.mat - H2.mat).toarray())) < 1e-12


def test_nonpositive_metric_rejected(ring4):
    g = constant_metric(ring4)
    g[1, 0, 0] = -0.5
    with pytest.raises(OperatorError):
        covariant_laplacian(ring4, g, None, 1.0)


def test_phase_out_of_range_rejected(ring4):
    theta = np.zeros(ring4.n_links)
    link = ring4.link_index(0, (1,))
    theta[link] = np.pi / 2
    theta[ring4.link_reverse[link]] = -np.pi / 2
    with pytest.raises(OperatorError):
        covariant_laplacian(ring4, constant_metric(ring4), theta, 1.0)


def test_nonpositive_mass_rejected(ring4):
    with pytest.raises(OperatorError):
        covariant_laplacian(ring4, constant_metric(ring4), None, 0.0)


def test_validate_diagonal_operator(ring4):
    M = mult_op(ring4, np.array([1.0, -2.0, 3.0, 0.5]))
    rep = validate_operator(ring4, M)
    assert rep["commutant_defect"] == (0.0, 0.0)
    assert rep["locality_radius"] == 0


def test_validate_free_laplacian_locality(ring4):
    H = covariant_laplacian(ring4, constant_metric(ring4), None, 1.0)
    rep = validate_operator(ring4, H)
    assert rep["locality_radius"] == 1
    assert rep["hermiticity_defect"] < 1e-14


def test_commutant_defect_pair_vanishes_together():
    # dense Hermitian on 6 sites: both defects nonzero; they vanish only
    # together because coordinate fields separate every site pair
    lat = build_lattice(LatticeSpec("interval", (6,), (1.0,)))
    rng = np.random.default_rng(11)
    for _ in range(25):
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        M = sp.csr_matrix(M + M.conj().T)
        off, comm = validate_operator(lat, M)["commutant_defect"]
        assert off > 0 and comm > 0
        diag = sp.diags(rng.normal(size=6).astype(complex)).tocsr()
        off0, comm0 = validate_operator(lat, diag)["commutant_defect"]
        assert off0 == 0.0 and comm0 == 0.0


def test_triplet_serialization_roundtrip(tmp_path, ring4):
    theta = flat_connection(ring4, (0.9,))
    H = build_hamiltonian(ring4, constant_metric(ring4), theta,
                          np.array([0.1, -0.2, 0.3, 0.0]), 1.0)
    path = tmp_path / "op.txt"
    save_operator(path, H)
    first = path.read_text().splitlines()[0].split()
    assert first[0] == "4"  # header is `dim nnz`
    loaded = load_operator(path)
    assert np.max(np.abs((loaded.mat - H.mat).toarray())) == 0.0


def test_header_only_and_blank_lines_load_and_signed_zeros_survive(tmp_path):
    path = tmp_path / "op.txt"
    path.write_text("3 0\n", encoding="utf-8")
    assert load_operator(path).mat.nnz == 0
    path.write_text("3 2\n\n0 0 -0.0 1.5\n\n2 1 0.25 -0.0\n\n", encoding="utf-8")
    data = load_operator(path).mat.tocoo().data
    assert np.signbit(data.real).tolist() == [True, False]
    assert np.signbit(data.imag).tolist() == [False, True]


@pytest.mark.parametrize("rows", ["0 1 1\n", "0 1 1 0 0\n1 0 1 0 0\n"])
def test_rows_of_one_wrong_width_are_refused(tmp_path, rows):
    path = tmp_path / "op.txt"
    path.write_text(f"2 {rows.count(chr(10))}\n{rows}", encoding="utf-8")
    with pytest.raises(OperatorError, match="op.txt, line 2: expected `i j re im`"):
        load_operator(path)
