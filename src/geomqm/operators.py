"""Sparse Hermitian operator algebra and the covariant Hamiltonian builder.

Operators are sparse complex matrices over lattice sites, held as numpy
Triplets records; each product rounds as scipy's CSR product would, and
only `commutator` imports scipy's sparse package.  The builder assembles
the covariant Laplacian in symmetrized divergence form: every directed
link i->j carries the entry

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

from .lattice import link_field, metric_field, scalar_field

PHASE_LIMIT = np.pi / 2  # per-link phases must stay inside (-pi/2, pi/2)
DENSE_LIMIT = 4096  # largest dimension of a dense spectrum or propagator


class OperatorError(ValueError):
    """Invalid operator construction or algebra."""


@dataclass(frozen=True, eq=False)
class Triplets:
    """A sparse matrix: data[k] at (row[k], col[k]) in CSR canonical order (row-major,
    columns increasing, no repeated (i, j)); explicit zeros may be stored."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return len(self.data)

    def toarray(self):
        """The dense matrix, each entry added onto 0 as scipy's are (a -0.0 part reads 0.0)."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.row, self.col] = self.data + 0
        return out


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Sparse complex self-adjoint matrix over lattice sites; mat is its Triplets record."""

    mat: object


def _asmat(x):
    """x as Triplets: a record passes through, a scipy matrix is read through its
    own tocsr and tocoo (duplicates summed), anything else as a dense array."""
    if isinstance(x, HermitianOperator):
        return x.mat
    if isinstance(x, Triplets):
        return x
    if hasattr(x, "tocsr"):
        x = x.tocsr(copy=True)
        x.sum_duplicates()
        x = x.tocoo()
        return Triplets(x.row.astype(np.intp), x.col.astype(np.intp), x.data, x.shape)
    x = np.atleast_2d(np.asarray(x, dtype=complex))  # a vector is one row, as in scipy
    row, col = np.nonzero(x)
    return Triplets(row, col, x[row, col], x.shape)


def _cmul(x, y):
    """0 + x * y, a term of a scipy sparse product: each part rounded as xr yr - xi yi
    and xr yi + xi yr, then added to 0; numpy's own product may fuse a multiply-add."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = 0 + (x.real * y.real - x.imag * y.imag)
    out.imag = 0 + (x.real * y.imag + x.imag * y.real)
    return out


def _row_sums(mat, values):
    """Row sums of values (one per entry of mat) as scipy's CSR row sum adds them:
    np.add.reduceat over each non-empty row in column order, then added to 0."""
    out = np.zeros(mat.shape[0], dtype=values.dtype)
    starts = np.flatnonzero(np.diff(mat.row, prepend=-1))
    out[mat.row[starts]] = 0 + np.add.reduceat(values, starts)
    return out


def _site_matrix(lattice, x):
    """x as Triplets, refused unless it is n_sites x n_sites."""
    mat = _asmat(x)
    _site_shape(lattice, mat.shape)
    return mat


def _site_shape(lattice, shape):
    """Refuse a matrix shape other than n_sites x n_sites."""
    if shape != (lattice.n_sites, lattice.n_sites):
        raise OperatorError(f"operator is {shape[0]}x{shape[1]} but the lattice has "
                            f"{lattice.n_sites} sites")


def mult_op(lattice, f):
    """Multiplication operator: the diagonal matrix of a scalar field, its zeros not stored."""
    f = scalar_field(lattice, f).astype(complex)
    sites = np.flatnonzero(f)
    return HermitianOperator(Triplets(sites, sites, f[sites], (len(f), len(f))))


def commutator(x, y):
    """XY - YX as a scipy CSR matrix."""
    import scipy.sparse as sp
    xm, ym = (sp.csr_matrix((m.data, (m.row, m.col)), shape=m.shape) for m in map(_asmat, (x, y)))
    if xm.shape != ym.shape:
        raise OperatorError(f"dimension mismatch {xm.shape} vs {ym.shape}")
    c = (xm @ ym - ym @ xm).tocsr()
    c.eliminate_zeros()
    return c


def link_couplings(lattice, g, m):
    """Per-link real amplitudes c_l of the covariant Laplacian stencil."""
    return _link_mean(lattice, metric_field(lattice, g)) / _link_weights(lattice, m)


def _link_mean(lattice, g):
    """Per-link mean (g^kl_i + g^kl_j) / 2 of the metric entry of the link's class."""
    k, l = lattice.stencil.axes[lattice.link_step].T
    return 0.5 * (g[lattice.link_src, k, l] + g[lattice.link_dst, k, l])


def _link_weights(lattice, m):
    """Stencil weight w, with c = link mean / w: 2 m h_k^2 on axis links,
    4 m h_k h_l s on diagonals (s = +-1, so dividing by it is exact).
    The one mass gate: the builder and the reconstruction both read it."""
    if not 0 < m < np.inf:
        raise OperatorError(f"mass must be positive and finite, got {m}")
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
    _phase_window(theta)
    diagonal = _stencil_diagonal(lattice, c)
    if phi is not None:
        diagonal = diagonal + scalar_field(lattice, phi)
    return _assemble(lattice, c, theta, diagonal)


def _phase_window(theta):
    """Refuse link phases theta unless every |phase| < PHASE_LIMIT = pi/2."""
    worst = np.max(np.abs(theta), initial=0.0)
    if worst >= PHASE_LIMIT:
        raise OperatorError(f"link phase magnitude {worst:g} >= pi/2; refine the lattice "
                            "or reduce the connection")


def _stencil_diagonal(lattice, c):
    """Sum of a link field over the links leaving each site; of the link
    amplitudes, the diagonal that gives Delta(0, g) zero row sums."""
    return np.bincount(lattice.link_src, weights=c, minlength=lattice.n_sites)


def _assemble(lattice, couplings, phases, diagonal):
    """The operator with -c * exp(-i*theta) on every link and the given
    diagonal.  Any phase is accepted.  Each entry is added to 0, as in scipy's
    sparse add (a -0.0 part becomes 0.0), and the zeros are dropped."""
    n = lattice.n_sites
    row = np.concatenate([lattice.link_src, np.arange(n)])
    col = np.concatenate([lattice.link_dst, np.arange(n)])
    data = np.concatenate([-couplings * np.exp(-1j * phases), diagonal.astype(complex)]) + 0
    keep = np.flatnonzero(data != 0)
    keep = keep[np.argsort(row[keep] * n + col[keep], kind="stable")]  # radix sort: row-major
    return HermitianOperator(Triplets(row[keep], col[keep], data[keep], (n, n)))


def row_sum_field(op):
    """Real row sums of an operator (imaginary parts must be rounding)."""
    mat = _asmat(op)
    s = _row_sums(mat, mat.data)
    if np.max(np.abs(s.imag), initial=0.0) > 1e-9 * max(1.0, np.max(np.abs(s))):
        raise OperatorError("row sums are not real")
    return s.real


def hermiticity_defect(op):
    """Largest |M - M^H| entry: |a - conj(b)| over stored pairs a, b = M_ij, M_ji, else |a|."""
    mat = _asmat(op)
    n = mat.shape[0]
    key, partner = mat.row * n + mat.col, mat.col * n + mat.row
    at = np.searchsorted(key, partner)  # the keys are sorted
    b = np.where(np.append(key, -1)[at] == partner, np.append(mat.data, 0)[at], 0)
    return np.max(np.abs(mat.data - np.conj(b)), initial=0.0)


def validate_operator(lattice, M):
    """Structural report: hermiticity, locality radius, commutant defect.

    locality_radius is the largest graph distance of an off-diagonal
    entry above 1e-12 in magnitude.  commutant_defect is the pair (max
    off-diagonal magnitude, max over the d raveled coordinate fields a of
    max |[M, mult(a)]_ij|).  The two vanish together: coordinate fields
    separate every pair of distinct sites, so M commutes with all
    multiplication operators iff it is diagonal.
    """
    mat = _site_matrix(lattice, M)
    herm = hermiticity_defect(mat)

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
    mat = _asmat(op)
    write_rows(path, f"{mat.shape[0]} {mat.nnz}\n",
               [("", (mat.row, mat.col, mat.data.real, mat.data.imag))], " ")


def write_rows(path, header, blocks, sep):
    """Write the header, then per row of each (prefix, columns) block the prefix and the
    row's numbers joined by sep: an integer-dtype column as '%d', any other as '%.17g'.
    The equal-length 1-D array columns are interleaved in chunks of whole rows, at most
    2048 numbers (or one row) each, never as one table, and each chunk is formatted by
    one '%' of the row format (the prefix, its '%' doubled, then the numbers) repeated
    once per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for prefix, columns in blocks:
            width = len(columns)
            fmt = prefix.replace("%", "%%") + sep.join(
                "%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns) + "\n"
            rows = max(1, 2048 // width)
            for start in range(0, len(columns[0]), rows):
                stop = min(start + rows, len(columns[0]))
                chunk = [None] * (width * (stop - start))
                for k, c in enumerate(columns):
                    chunk[k::width] = c[start:stop].tolist()
                fh.write((fmt * (stop - start)) % tuple(chunk))


def load_operator(path):
    """Read the sparse triplet text format written by save_operator.

    Blank lines are skipped.  A file may not contain (OperatorError
    naming the file and the line): a header other than two non-negative
    integers, a row other than four numbers, a non-finite value, an
    index that is not an integer in 0..dim-1, or a repeated (i, j); nor
    a row count other than the header's nnz.  Entries are sorted
    row-major; explicit zeros are kept.
    """
    with open(path, encoding="utf-8") as fh:
        dim, nnz = _read_header(fh, path)
        body = fh.read()
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
    return HermitianOperator(Triplets(*ij[order].astype(np.intp).T, vals[order], (dim, dim)))


def _read_header(fh, path):
    """dim and nnz from the header line of the operator file path, open as fh."""
    header = fh.readline().split()
    if len(header) != 2 or not all(v.isdecimal() for v in header):
        raise OperatorError(f"{path}, line 1: bad triplet header, expected `dim nnz`")
    return int(header[0]), int(header[1])


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
    import scipy.linalg as sla
    return sla.eigvals_banded(band, lower=True, overwrite_a_band=True)


def _lower_band(mat):
    """The lower band (b + 1, n) of mat with its sites in breadth-first
    order, band[i - j, j] = mat[i, j]; None when the pattern from site 0
    does not reach every site or b^2 > n."""
    n = mat.shape[0]
    if n == 0:
        return None
    indptr, indices = np.searchsorted(mat.row, np.arange(n + 1)).tolist(), mat.col.tolist()
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
    rows, cols = rank[mat.row], rank[mat.col]
    b = int(np.max(np.abs(rows - cols), initial=0))
    if b * b > n:
        return None
    band = np.zeros((b + 1, n), dtype=np.result_type(mat.data, float))
    lower = rows >= cols
    np.add.at(band, (rows[lower] - cols[lower], cols[lower]), mat.data[lower])
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
