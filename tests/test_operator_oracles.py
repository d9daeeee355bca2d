"""Numpy operator records against scipy's CSR results.

Operators are Triplets records (row, col, data) in CSR canonical order,
and every constructor and product is computed entrywise in numpy.  The
oracles below are the scipy expressions they replace: the sparse add of
the links and the diagonal, `diags`, the CSR constructor, `M - M^H`, the
row sum, the matvec and the `diags` products.  Each record must equal
scipy's CSR result bit for bit: the same nnz, the same entries in the
same (sorted) order, the same values, signs of zeros included.  scipy is
imported here only; the package's shipped paths do not load it.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from geomqm import (
    LatticeSpec,
    OperatorError,
    build_hamiltonian,
    build_lattice,
    commutator,
    constant_metric,
    default_test_vector,
    eigenvalues,
    flat_connection,
    gauge_transform,
    hermiticity_defect,
    load_operator,
    mult_op,
    row_sum_field,
    save_operator,
    validate_operator,
    velocity,
)
from geomqm.evolution import suggested_steps
from geomqm.operators import (
    HermitianOperator,
    _asmat,
    _lower_band,
    _row_sums,
    _stencil_diagonal,
    link_couplings,
)
from geomqm.reconstruct import (
    _coordinate_cures,
    _covariant_row_sums,
    _link_couplings,
    _link_entries,
)

LATTICES = [
    ("interval", (5,), (0.7,)),
    ("ring", (3,), (1.0,)),
    ("ring", (7,), (0.5,)),
    ("rectangle", (4, 5), (1.0, 0.3)),
    ("cylinder", (5, 4), (0.5, 1.0)),
    ("torus", (3, 3), (1.0, 0.8)),
    ("torus", (4, 6), (1.0, 0.5)),
    ("box3", (3, 4, 3), (1.0, 0.5, 0.25)),
]
LATTICE_IDS = [f"{t}{s}" for t, s, _ in LATTICES]

# a file in no particular order, with explicit zeros of every sign and an
# unpaired entry
LOADED = """4 7
2 1 0.25 -0.0
0 0 -0.0 1.5
1 2 0.25 0.0
0 3 0.0 -0.0
3 0 -0.0 0.0
1 1 2.0 -0.0
0 1 -1.0 0.5
"""


def lattice(case):
    return build_lattice(LatticeSpec(*case))


def fields(lat, seed, kind):
    """(g, theta, phi) of a case: 'generic' (variable metric with cross
    terms, generic connection and potential); 'zero couplings' (a cross
    metric that vanishes on half the sites, so some diagonal links carry
    0, and a potential that cancels the stencil diagonal on some sites);
    'flat' (a constant metric, a flat connection on the periodic axes,
    zero phases elsewhere)."""
    rng = np.random.default_rng(seed)
    d = lat.ndim
    if kind == "flat":
        periodic = sum(lat.periodic)
        theta = flat_connection(lat, (0.7, -0.4)[:periodic]) if periodic else None
        return constant_metric(lat), theta, None
    a = 0.3 * rng.normal(size=(lat.n_sites, d, d))
    g = np.eye(d) + a @ np.swapaxes(a, 1, 2)
    w = rng.uniform(-0.6, 0.6, size=lat.n_links)
    theta = 0.5 * (w - w[lat.link_reverse])
    phi = rng.normal(size=lat.n_sites)
    if kind == "zero couplings":
        g = np.broadcast_to(np.eye(d), g.shape).copy()
        off = lat.positions[:, 0] <= lat.positions[:, 0].mean()
        for k in range(d):
            for l in range(k + 1, d):
                g[:, k, l] = g[:, l, k] = np.where(off, 0.0, 0.2)
        H0 = build_hamiltonian(lat, g, None, None, 1.0).mat.toarray()
        phi = np.where(rng.random(lat.n_sites) < 0.5, -np.diag(H0).real, phi)
    return g, theta, phi


CASES = [(case, kind) for case in LATTICES for kind in ("generic", "zero couplings", "flat")]
CASE_IDS = [f"{t}{s}-{kind}" for (t, s, _), kind in CASES]


def operator(case, kind):
    lat = lattice(case)
    return lat, build_hamiltonian(lat, *fields(lat, len(lat.link_src), kind), 1.3)


def assert_same(rec, mat):
    """rec equals the scipy matrix mat with its entries sorted, bit for bit."""
    mat = mat.tocsr(copy=True)
    mat.sort_indices()
    coo = mat.tocoo()
    assert rec.shape == mat.shape and rec.nnz == mat.nnz
    assert rec.row.tolist() == coo.row.tolist() and rec.col.tolist() == coo.col.tolist()
    assert rec.data.dtype == coo.data.dtype and rec.data.tobytes() == coo.data.tobytes()


def csr(op):
    """The record of op as a scipy CSR matrix, explicit zeros kept."""
    mat = _asmat(op)
    return sp.csr_matrix((mat.data, (mat.row, mat.col)), shape=mat.shape)


def loaded(tmp_path):
    path = tmp_path / "op.txt"
    path.write_text(LOADED, encoding="utf-8")
    return load_operator(path)


# ---------------------------------------------------------------- constructors

@pytest.mark.parametrize("case, kind", CASES, ids=CASE_IDS)
def test_build_matches_the_sparse_add(case, kind):
    lat = lattice(case)
    g, theta, phi = fields(lat, len(lat.link_src), kind)
    H = build_hamiltonian(lat, g, theta, phi, 1.3).mat
    c = link_couplings(lat, g, 1.3)
    t = np.zeros(lat.n_links) if theta is None else theta
    diagonal = _stencil_diagonal(lat, c) + (0.0 if phi is None else phi)
    want = (sp.csr_matrix((-c * np.exp(-1j * t), (lat.link_src, lat.link_dst)),
                          shape=(lat.n_sites, lat.n_sites))
            + sp.diags(diagonal.astype(complex))).tocsr()
    assert_same(H, want)
    if kind == "zero couplings" and lat.ndim > 1:
        assert np.count_nonzero(c == 0.0) > 0 and H.nnz < lat.n_links + lat.n_sites
    if kind == "flat":
        # the phase factors carry -0.0 imaginary parts; as after scipy's add, no stored
        # entry keeps a -0.0 part
        assert np.signbit(np.exp(-1j * t).imag[t == 0.0]).all()
        assert not np.signbit(H.data.imag[H.data.imag == 0.0]).any()


@pytest.mark.parametrize("f", [[0.5, -0.0, 2.0, 0.0, -1.5, 3.0, 0.0], np.arange(7) - 3.0])
def test_mult_op_matches_diags(f):
    lat = lattice(("ring", (7,), (0.5,)))
    assert_same(mult_op(lat, np.array(f)).mat, sp.diags(np.asarray(f, dtype=complex)).tocsr())


def test_load_keeps_explicit_zeros_in_csr_order(tmp_path):
    rows = [line.split() for line in LOADED.splitlines()[1:]]
    i, j = (np.array([int(r[k]) for r in rows]) for k in (0, 1))
    vals = np.empty(len(rows), dtype=complex)
    vals.real, vals.imag = ([float(r[k]) for r in rows] for k in (2, 3))
    op = loaded(tmp_path)
    assert_same(op.mat, sp.csr_matrix((vals, (i, j)), shape=(4, 4)))
    assert op.mat.nnz == 7
    # save then load reads the same record, in the same order
    save_operator(tmp_path / "again.txt", op)
    assert_same(load_operator(tmp_path / "again.txt").mat, csr(op))


def test_toarray_matches_scipy(tmp_path):
    for op in (loaded(tmp_path), operator(LATTICES[4], "generic")[1]):
        want = csr(op).toarray()
        assert op.mat.toarray().tobytes() == want.tobytes()


def test_asmat_reads_dense_and_scipy_input():
    rng = np.random.default_rng(3)
    dense = np.where(rng.random((6, 6)) < 0.4, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)),
                     0.0)
    dense[2, 3] = complex(0.0, -0.0)  # a zero of either sign is not stored
    assert_same(_asmat(dense), sp.csr_matrix(dense))
    assert_same(_asmat(dense.real), sp.csr_matrix(dense.real.astype(complex)))
    vector = np.array([0.0, 2.0, -1.0])  # one row, as scipy reads it
    assert_same(_asmat(vector), sp.csr_matrix(vector.astype(complex)))
    # an unsorted COO with a repeated (i, j) and an explicit zero; the
    # caller's matrix is left as it was
    coo = sp.coo_matrix((np.array([1.0 + 2j, 0.0, -3.0, 0.5j]), ([2, 0, 2, 1], [1, 0, 1, 3])),
                        shape=(4, 4))
    before = (coo.row.copy(), coo.col.copy(), coo.data.copy())
    want = coo.tocsr()
    want.sum_duplicates()
    assert_same(_asmat(coo), want)
    assert_same(_asmat(sp.lil_matrix(coo.toarray())), sp.csr_matrix(coo.toarray()))
    assert all(np.array_equal(a, b) for a, b in zip((coo.row, coo.col, coo.data), before))
    rec = _asmat(coo)
    assert _asmat(rec) is rec and _asmat(HermitianOperator(rec)) is rec


# ---------------------------------------------------------------- products

def scipy_defect(mat):
    return np.max(np.abs((mat - mat.getH()).data), initial=0.0)


@pytest.mark.parametrize("case, kind", CASES, ids=CASE_IDS)
def test_hermiticity_defect_matches_m_minus_m_dagger(case, kind):
    lat, H = operator(case, kind)
    assert hermiticity_defect(H) == scipy_defect(csr(H))
    assert validate_operator(lat, H)["hermiticity_defect"] == scipy_defect(csr(H))


def test_hermiticity_defect_of_unpaired_entries(tmp_path):
    rng = np.random.default_rng(8)
    for density in (0.05, 0.3, 1.0):
        M = sp.random(40, 40, density=density, random_state=rng, dtype=complex, format="csr")
        M.data[::3] = -M.data[::3]
        assert hermiticity_defect(_asmat(M)) == scipy_defect(M)
        # an unpaired entry alone gives its magnitude
        one = sp.csr_matrix(([3.0 - 4.0j], ([5], [9])), shape=(40, 40))
        assert hermiticity_defect(_asmat(M + one)) == scipy_defect(M + one)
    op = loaded(tmp_path)
    assert hermiticity_defect(op) == scipy_defect(csr(op)) > 0.0
    assert hermiticity_defect(_asmat(np.zeros((3, 3)))) == 0.0


@pytest.mark.parametrize("case, kind", CASES, ids=CASE_IDS)
def test_row_sums_match_csr_sum(case, kind):
    lat, H = operator(case, kind)
    want = np.asarray(csr(H).sum(axis=1)).ravel()
    assert _row_sums(H.mat, H.mat.data).tobytes() == want.tobytes()
    if kind == "flat" and lat.spec.topology in ("interval", "rectangle"):  # no flux: real sums
        assert row_sum_field(H).tobytes() == want.real.tobytes()
    norm = float(np.max(np.abs(csr(H)).sum(axis=1)))
    assert suggested_steps(H, 0.0, 2.0) == max(1, int(np.ceil(norm * 2.0 / 0.1)))


@pytest.mark.parametrize("case, kind", CASES, ids=CASE_IDS)
def test_cure_matvec_matches_csr_matvec(case, kind):
    lat, H = operator(case, kind)
    entries = _link_entries(lat, H)
    rows, cols, vals, _, steps = entries
    c = _link_couplings(lat, entries)
    psi = default_test_vector(lat).astype(complex)
    pairs = [(k, l) for k in range(lat.ndim) for l in range(k, lat.ndim)]
    h, n = lat.spacings, lat.n_sites
    want = []
    for k, l in pairs:
        dxx = -(steps[:, k] * h[k]) * (steps[:, l] * h[l]) * vals
        M = sp.csr_matrix((dxx, (rows, cols)), shape=(n, n))
        s = _covariant_row_sums(lat, c, k, l)
        want.append(((k, l), float(np.linalg.norm(M @ psi - s * psi))))
    assert _coordinate_cures(lat, entries, c, psi, pairs) == tuple(want)


def scipy_gauge(H, chi):
    u = np.exp(1j * np.asarray(chi, dtype=float))
    return sp.diags(u) @ csr(H) @ sp.diags(u.conj())


def scipy_velocity(H, a):
    d = sp.diags(np.asarray(a, dtype=float).astype(complex))
    xm = csr(H)
    c = (xm @ d - d @ xm).tocsr()
    c.eliminate_zeros()
    return 1j * c


@pytest.mark.parametrize("case, kind", CASES, ids=CASE_IDS)
def test_gauge_transform_and_velocity_match_diags_products(case, kind):
    lat, H = operator(case, kind)
    rng = np.random.default_rng(lat.n_sites)
    for chi in (rng.uniform(-2.0, 2.0, lat.n_sites), np.zeros(lat.n_sites)):
        assert_same(gauge_transform(H, chi).mat, scipy_gauge(H, chi))
    for a in (lat.positions[:, 0], rng.normal(size=lat.n_sites), np.full(lat.n_sites, 4.2),
              np.where(rng.random(lat.n_sites) < 0.5, 0.0, 1.5)):
        assert_same(velocity(H, a).mat, scipy_velocity(H, a))


def test_products_of_a_loaded_file_with_signed_zeros(tmp_path):
    op = loaded(tmp_path)
    for chi in (np.zeros(4), np.array([0.3, -1.0, 2.0, 0.0])):
        assert_same(gauge_transform(op, chi).mat, scipy_gauge(op, chi))
    for a in (np.array([0.0, 1.0, -2.0, 0.5]), np.ones(4)):
        assert_same(velocity(op, a).mat, scipy_velocity(op, a))
    assert _row_sums(op.mat, op.mat.data).tobytes() == np.asarray(csr(op).sum(axis=1)).ravel().tobytes()


def test_commutator_still_returns_scipy_csr():
    lat, H = operator(LATTICES[3], "generic")
    a = lat.positions[:, 1]
    C = commutator(H, mult_op(lat, a))
    want = (csr(H) @ csr(mult_op(lat, a)) - csr(mult_op(lat, a)) @ csr(H)).tocsr()
    want.eliminate_zeros()
    assert sp.issparse(C) and (C != want).nnz == 0


# ---------------------------------------------------------------- band

def queue_band(mat):
    """The lower band of a scipy CSR matrix in the breadth-first order from
    site 0 over its pattern, read through indptr and indices (None where
    _lower_band gives None)."""
    n = mat.shape[0]
    indptr, indices = mat.indptr.tolist(), mat.indices.tolist()
    seen = [True] + [False] * (n - 1)
    order = [0]
    for i in order:
        for j in indices[indptr[i]:indptr[i + 1]]:
            if not seen[j]:
                seen[j] = True
                order.append(j)
    if len(order) < n:
        return None
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    coo = mat.tocoo()
    rows, cols = rank[coo.row], rank[coo.col]
    b = int(np.max(np.abs(rows - cols), initial=0))
    if b * b > n:
        return None
    band = np.zeros((b + 1, n), dtype=np.result_type(coo.data, float))
    lower = rows >= cols
    np.add.at(band, (rows[lower] - cols[lower], cols[lower]), coo.data[lower])
    return band


BAND_LATTICES = LATTICES + [("ring", (64,), (1.0,)), ("cylinder", (40, 3), (1.0, 1.0)),
                            ("torus", (50, 3), (1.0, 1.0)), ("interval", (33,), (0.5,))]


@pytest.mark.parametrize("case", BAND_LATTICES, ids=[f"{t}{s}" for t, s, _ in BAND_LATTICES])
def test_band_matches_the_band_of_the_csr_pattern(case):
    lat, H = operator(case, "generic")
    got, want = _lower_band(H.mat), queue_band(csr(H))
    assert (got is None) == (want is None)
    if got is not None:
        assert got.tobytes() == want.tobytes()
    # a shuffled site numbering reaches the sites in another order
    perm = np.random.default_rng(lat.n_sites).permutation(lat.n_sites)
    P = csr(H)[perm][:, perm]
    P.sort_indices()
    got, want = _lower_band(_asmat(P)), queue_band(P)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.tobytes() == want.tobytes()


def test_band_of_explicit_zeros_and_disconnected_patterns(tmp_path):
    op = loaded(tmp_path)  # explicit zeros count as pattern
    assert _lower_band(op.mat).tobytes() == queue_band(csr(op)).tobytes()
    assert eigenvalues(op).shape == (4,)
    lat, H = operator(("ring", (7,), (0.5,)), "generic")
    two = sp.block_diag([csr(H), csr(H)], format="csr")
    assert _lower_band(_asmat(two)) is None and queue_band(two) is None


def test_diagonal_products_refuse_a_field_of_another_size():
    lat, H = operator(LATTICES[2], "generic")
    for call in (lambda: velocity(H, np.ones(lat.n_sites + 1)),
                 lambda: gauge_transform(H, np.zeros(lat.n_sites - 1))):
        with pytest.raises(OperatorError, match=r"dimension mismatch \(7, 7\) vs diagonal"):
            call()
