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
import scipy.sparse as sp

PHASE_LIMIT = np.pi / 2  # per-link phases must stay inside (-pi/2, pi/2)


class OperatorError(ValueError):
    """Invalid operator construction or algebra."""


@dataclass(frozen=True)
class HermitianOperator:
    """Sparse complex self-adjoint matrix over lattice sites."""

    mat: sp.csr_matrix

    @property
    def dim(self):
        return self.mat.shape[0]

    def dense(self):
        return self.mat.toarray()

    def hermiticity_defect(self):
        d = self.mat - self.mat.getH()
        return np.max(np.abs(d.data), initial=0.0)

    def __matmul__(self, other):
        return HermitianOperator((self.mat @ _asmat(other)).tocsr())


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
    f = np.asarray(f, dtype=float)
    if f.shape != (lattice.n_sites,):
        raise OperatorError("field length does not match site count")
    return HermitianOperator(sp.diags(f.astype(complex)).tocsr())


def identity_op(lattice):
    return HermitianOperator(sp.identity(lattice.n_sites, dtype=complex, format="csr"))


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
    if m <= 0:
        raise OperatorError(f"mass must be positive, got {m}")
    g = np.asarray(g, dtype=float)
    if np.min(np.linalg.eigvalsh(g)) <= 0:
        raise OperatorError("inverse metric must be positive definite at every site")
    i, j = lattice.link_src, lattice.link_dst
    k, l = lattice.link_axes[:, 0], lattice.link_axes[:, 1]
    h = np.asarray(lattice.spacings)
    gbar = 0.5 * (g[i, k, l] + g[j, k, l])
    axis = k == l
    c = np.where(
        axis,
        gbar / (2.0 * m * h[k] ** 2),
        lattice.link_diag_sign * gbar / (4.0 * m * h[k] * h[l]),
    )
    return c


def covariant_laplacian(lattice, g, A=None, m=1.0):
    """Covariant Laplacian Delta(A, g) for mass m.

    g is an inverse-metric field (n_sites, d, d); A is a LinkField of
    integrated connection phases (None means zero).  Raises if g is not
    positive definite or any |phase| reaches pi/2 (the amplitude-sign /
    phase decomposition would become ambiguous).
    """
    c = link_couplings(lattice, g, m)
    theta = np.zeros(lattice.n_links) if A is None else np.asarray(A, dtype=float)
    worst = np.max(np.abs(theta), initial=0.0)
    if worst >= PHASE_LIMIT:
        raise OperatorError(
            f"link phase magnitude {worst:g} >= pi/2; refine the lattice "
            "or reduce the connection"
        )
    n = lattice.n_sites
    off = sp.csr_matrix(
        (-c * np.exp(-1j * theta), (lattice.link_src, lattice.link_dst)),
        shape=(n, n),
    )
    diag = np.bincount(lattice.link_src, weights=c, minlength=n)
    mat = (off + sp.diags(diag.astype(complex))).tocsr()
    mat.eliminate_zeros()
    return HermitianOperator(mat)


def build_hamiltonian(lattice, g, A, phi, m):
    """H = Delta(A, g) + multiplication by phi."""
    lap = covariant_laplacian(lattice, g, A, m)
    if phi is None:
        return lap
    phi = np.asarray(phi, dtype=float)
    return HermitianOperator((lap.mat + sp.diags(phi.astype(complex))).tocsr())


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
    max_offdiag = np.max(np.abs(mat.data[offdiag]), initial=0.0)

    comm_max = 0.0
    for k in range(lattice.ndim):
        a = lattice.positions[:, k]
        cm = commutator(M, sp.diags(a.astype(complex)))
        comm_max = max(comm_max, np.max(np.abs(cm.data), initial=0.0))

    return {
        "hermiticity_defect": float(herm),
        "locality_radius": int(radius),
        "commutant_defect": (float(max_offdiag), float(comm_max)),
    }


def save_operator(path, op):
    """Write the documented sparse triplet text format.

    Header line `dim nnz`, then one `i j re im` row per stored entry,
    17-significant-digit decimals.
    """
    mat = _asmat(op).tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mat.shape[0]} {mat.nnz}\n")
        for i, j, v in zip(mat.row, mat.col, mat.data):
            fh.write(f"{i} {j} {v.real:.17g} {v.imag:.17g}\n")


def load_operator(path):
    """Read the sparse triplet text format written by save_operator."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().split()
        if len(first) != 2:
            raise OperatorError(f"bad triplet header in {path}")
        dim, nnz = int(first[0]), int(first[1])
        rows, cols, vals = [], [], []
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise OperatorError(f"bad triplet row {line!r}")
            rows.append(int(parts[0]))
            cols.append(int(parts[1]))
            vals.append(complex(float(parts[2]), float(parts[3])))
    if len(vals) != nnz:
        raise OperatorError(f"triplet row count {len(vals)} != header nnz {nnz}")
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return HermitianOperator(mat)


def eigenvalues(op):
    """Dense sorted spectrum (desk scale: dimensions <= a few thousand)."""
    return np.linalg.eigvalsh(_asmat(op).toarray())
