"""Sparse Hermitian operator algebra and the covariant Hamiltonian builder.

Operators are sparse complex matrices over lattice sites.  The builder
assembles the covariant Laplacian in symmetrized divergence form: every
directed link i->j carries the entry

    H_ij = -c_l * exp(-i * theta_l)

with real amplitude c_l from the link-averaged inverse metric,

    axis link, axis k:        c = (g^kk_i + g^kk_j) / (4 m h_k^2)
    plane diagonal (k,l):     c = s * (g^kl_i + g^kl_j) / (8 m h_k h_l)

where s is the product of the two step signs, and theta_l is the
integrated connection phase on the link (straight-path line integral for
diagonals).  Diagonal entries are the sum of the incident amplitudes, so
that every row of Delta(0, g) sums to zero; they do not depend on the
connection, which makes the builder exactly gauge covariant.

Units: hbar = 1; inverse-metric entries carry 1/length^2 per unit mass,
so couplings are energies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .lattice import link_field, metric_field, scalar_field

PHASE_LIMIT = np.pi / 2  # per-link phases must stay inside (-pi/2, pi/2)
DENSE_LIMIT = 4096  # largest dimension of a dense spectrum or propagator


class OperatorError(ValueError):
    """Invalid operator construction or algebra."""


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Sparse complex self-adjoint matrix over lattice sites."""

    mat: sp.csr_matrix

    @property
    def dim(self):
        return self.mat.shape[0]

    def hermiticity_defect(self):
        d = self.mat - self.mat.getH()
        return np.max(np.abs(d.data), initial=0.0)


def _asmat(x):
    if isinstance(x, HermitianOperator):
        return x.mat
    if sp.issparse(x):
        return x.tocsr()
    return sp.csr_matrix(np.asarray(x, dtype=complex))


def _site_matrix(lattice, x):
    """x as a sparse matrix, refused unless it is n_sites x n_sites."""
    mat = _asmat(x)
    if mat.shape != (lattice.n_sites, lattice.n_sites):
        raise OperatorError(
            f"operator is {mat.shape[0]}x{mat.shape[1]} but the lattice has "
            f"{lattice.n_sites} sites"
        )
    return mat


def mult_op(lattice, f):
    """Multiplication operator: the diagonal matrix of a scalar field."""
    return HermitianOperator(sp.diags(scalar_field(lattice, f).astype(complex)).tocsr())


def commutator(x, y):
    """XY - YX as a sparse matrix."""
    xm, ym = _asmat(x), _asmat(y)
    if xm.shape != ym.shape:
        raise OperatorError(f"dimension mismatch {xm.shape} vs {ym.shape}")
    c = (xm @ ym - ym @ xm).tocsr()
    c.eliminate_zeros()
    return c


def link_couplings(lattice, g, m):
    """Per-link real amplitudes c_l of the covariant Laplacian stencil."""
    if not 0 < m < np.inf:
        raise OperatorError(f"mass must be positive and finite, got {m}")
    return _link_mean(lattice, metric_field(lattice, g)) / _link_weights(lattice, m)


def _link_mean(lattice, g):
    """Per-link mean (g^kl_i + g^kl_j) / 2 of the metric entry of the link's class."""
    k, l = lattice.stencil.axes[lattice.link_step].T
    return 0.5 * (g[lattice.link_src, k, l] + g[lattice.link_dst, k, l])


def _link_weights(lattice, m):
    """Stencil weight w, with c = link mean / w: 2 m h_k^2 on axis links,
    4 m h_k h_l s on diagonals (s = +-1, so dividing by it is exact)."""
    k, l = lattice.stencil.axes.T
    h = np.asarray(lattice.spacings)
    w = np.where(k == l, 2.0 * m * h[k] ** 2, 4.0 * m * h[k] * h[l] * lattice.stencil.signs)
    return w[lattice.link_step]


def build_hamiltonian(lattice, g, A, phi, m):
    """H = Delta(A, g) + multiplication by phi for mass m.

    g is an inverse-metric field (n_sites, d, d); A is a LinkField of
    integrated connection phases and phi a ScalarField (None means zero
    for either).  Raises LatticeError unless each is a valid field of the
    lattice (metric_field, link_field, scalar_field), and OperatorError if
    any |phase| reaches pi/2.  That phase window is a contract of the builder
    and of saved operators: inside it every entry splits uniquely into an
    amplitude sign and a phase, which is what
    `reconstruct.peierls_decompose` inverts.
    """
    c = link_couplings(lattice, g, m)
    theta = np.zeros(lattice.n_links) if A is None else link_field(lattice, A)
    worst = np.max(np.abs(theta), initial=0.0)
    if worst >= PHASE_LIMIT:
        raise OperatorError(
            f"link phase magnitude {worst:g} >= pi/2; refine the lattice "
            "or reduce the connection"
        )
    diagonal = _stencil_diagonal(lattice, c)
    if phi is not None:
        diagonal = diagonal + scalar_field(lattice, phi)
    return _assemble(lattice, c, theta, diagonal)


def _stencil_diagonal(lattice, c):
    """Sum of a link field over the links leaving each site; of the link
    amplitudes, the diagonal that gives Delta(0, g) zero row sums."""
    return np.bincount(lattice.link_src, weights=c, minlength=lattice.n_sites)


def _assemble(lattice, couplings, phases, diagonal):
    """The operator with -c * exp(-i*theta) on every link and the given
    diagonal.  Any phase is accepted; the sparse add drops zero entries."""
    n = lattice.n_sites
    off = sp.csr_matrix(
        (-couplings * np.exp(-1j * phases), (lattice.link_src, lattice.link_dst)),
        shape=(n, n),
    )
    return HermitianOperator((off + sp.diags(diagonal.astype(complex))).tocsr())


def row_sum_field(op):
    """Real row sums of an operator (imaginary parts must be rounding)."""
    s = np.asarray(_asmat(op).sum(axis=1)).ravel()
    if np.max(np.abs(s.imag), initial=0.0) > 1e-9 * max(1.0, np.max(np.abs(s))):
        raise OperatorError("row sums are not real")
    return s.real


def validate_operator(lattice, M):
    """Structural report: hermiticity, locality radius, commutant defect.

    locality_radius is the largest graph distance of an off-diagonal
    entry above 1e-12 in magnitude.  commutant_defect is the pair (max
    off-diagonal magnitude, max over the d raveled coordinate fields a of
    max |[M, mult(a)]_ij|).  The two vanish together: coordinate fields
    separate every pair of distinct sites, so M commutes with all
    multiplication operators iff it is diagonal.
    """
    mat = _site_matrix(lattice, M).tocoo()
    herm = HermitianOperator(mat.tocsr()).hermiticity_defect()

    offdiag = mat.row != mat.col
    significant = offdiag & (np.abs(mat.data) > 1e-12)
    radius = lattice.graph_distance(mat.row[significant], mat.col[significant]).max(initial=0)
    return {
        "hermiticity_defect": float(herm),
        "locality_radius": int(radius),
        "commutant_defect": _commutant_defect(
            lattice, mat.row[offdiag], mat.col[offdiag], mat.data[offdiag]),
    }


def _commutant_defect(lattice, rows, cols, vals):
    """validate_operator's commutant pair from the off-diagonal entries of M."""
    comm_max = 0.0
    for k in range(lattice.ndim):
        a = lattice.positions[:, k]
        comm_max = max(comm_max, np.max(np.abs(vals * a[cols] - a[rows] * vals), initial=0.0))
    return float(np.max(np.abs(vals), initial=0.0)), float(comm_max)


def save_operator(path, op):
    """Write the documented sparse triplet text format.

    Header line `dim nnz`, then one `i j re im` row per stored entry,
    17-significant-digit decimals.
    """
    mat = _asmat(op).tocoo()
    write_rows(path, f"{mat.shape[0]} {mat.nnz}\n",
               [("", (mat.row, mat.col, mat.data.real, mat.data.imag))], " ")


def write_rows(path, header, blocks, sep):
    """Write the header, then per row of each (prefix, columns) block the prefix and the
    row's numbers as '%.17g' joined by sep (integers below 2^53 print as integers); the
    equal-length 1-D columns are stacked 1024 rows at a time, never as one table."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for prefix, columns in blocks:
            fmt = sep.join(["%.17g"] * len(columns)) + "\n"
            for start in range(0, len(columns[0]), 1024):
                chunk = np.column_stack([c[start:start + 1024] for c in columns]).tolist()
                fh.writelines(prefix + fmt % tuple(row) for row in chunk)


def load_operator(path):
    """Read the sparse triplet text format written by save_operator.

    Blank lines are skipped.  A file may not contain (OperatorError
    naming the file and the line): a header other than two non-negative
    integers, a row other than four numbers, a non-finite value, an
    index that is not an integer in 0..dim-1, or a repeated (i, j); nor
    a row count other than the header's nnz.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        body = fh.read()
    if len(header) != 2 or not all(v.isdecimal() for v in header):
        raise OperatorError(f"{path}, line 1: bad triplet header, expected `dim nnz`")
    dim, nnz = int(header[0]), int(header[1])
    lines = body.splitlines()
    try:
        data = np.loadtxt(lines, ndmin=2, comments=None) if body.strip() else np.empty((0, 4))
    except ValueError:
        data = None
    if data is None or data.shape[1] != 4:
        bad = next(r for r, line in enumerate(lines) if line.split() and not _is_row(line))
        raise OperatorError(f"{path}, line {bad + 2}: expected `i j re im`, got "
                            f"{lines[bad]!r}") from None
    ij = data[:, :2]

    def refuse(bad, why):
        if bad.any():
            row = [r for r, line in enumerate(lines) if line.split()][np.argmax(bad)]
            raise OperatorError(f"{path}, line {row + 2}: {why}: {lines[row]!r}")

    refuse(~np.isfinite(data).all(axis=1), "non-finite value")
    refuse(((ij != np.floor(ij)) | (ij < 0) | (ij >= dim)).any(axis=1),
           f"index not an integer in 0..{dim - 1}")
    key = ij[:, 0] * dim + ij[:, 1]
    order = np.argsort(key, kind="stable")
    repeated = np.zeros(len(key), dtype=bool)
    repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
    refuse(repeated, "repeated (i, j)")
    if len(data) != nnz:
        raise OperatorError(f"{path}: triplet row count {len(data)} != header nnz {nnz}")
    vals = np.empty(len(data), dtype=complex)
    vals.real, vals.imag = data[:, 2], data[:, 3]  # re + 1j * im would turn -0.0 into 0.0
    ij = ij.astype(int)
    return HermitianOperator(sp.csr_matrix((vals, (ij[:, 0], ij[:, 1])), shape=(dim, dim)))


def _is_row(line):
    """Whether np.loadtxt reads the line as four numbers."""
    try:
        return np.loadtxt([line], comments=None).shape == (4,)
    except ValueError:
        return False


def eigenvalues(op):
    """Sorted spectrum of a Hermitian operator; dimensions above
    DENSE_LIMIT are refused.

    Sites are ordered breadth-first from site 0 over the sparsity
    pattern (Cuthill & McKee).  When that ordering gives a half-bandwidth
    b with b^2 <= n, as on chain-like lattices (ring, interval, thin
    cylinders and tori), LAPACK's Hermitian band solver finds the spectrum
    in O(b n^2) work, O(n^2) on rings and intervals.  Wider bands and
    disconnected patterns take the dense O(n^3) eigvalsh.
    """
    mat = _asmat(op)
    _dense_size(mat.shape[0])
    band = _lower_band(mat)
    if band is None:
        return np.linalg.eigvalsh(mat.toarray())
    return sla.eigvals_banded(band, lower=True, overwrite_a_band=True)


def _lower_band(mat):
    """The lower band (b + 1, n) of mat with its sites in breadth-first
    order, band[i - j, j] = mat[i, j]; None when the pattern from site 0
    does not reach every site or b^2 > n."""
    n = mat.shape[0]
    if n == 0:
        return None
    indptr, indices = mat.indptr.tolist(), mat.indices.tolist()
    seen = [True] + [False] * (n - 1)
    order = [0]
    for i in order:  # the loop also visits the sites appended while it runs
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


def _dense(op):
    """op as a dense array, refused above DENSE_LIMIT before it is made."""
    mat = _asmat(op)
    _dense_size(mat.shape[0])
    return mat.toarray()


def _dense_size(n):
    """Refuse a dimension n above DENSE_LIMIT: an n x n complex matrix
    takes 16 n^2 bytes, and the dense paths hold several."""
    if n > DENSE_LIMIT:
        raise OperatorError(f"dimension {n} exceeds the dense limit {DENSE_LIMIT}")
