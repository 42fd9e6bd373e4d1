"""The operators assembled entry by entry in COO format: the test oracle for
the DIA assembly of `motorflux.discretize`.

Each face adds its two weights to the COO lists and to the column sums with
``np.add.at``; the system is the block-diagonal transport plus the Kronecker
product of the weighted coupling with the identity, summed in CSR.
"""

import numpy as np
from scipy import sparse

from motorflux import bernoulli, eval_potential


def coo_transport(grid, sigma, psi) -> sparse.csr_array:
    pot = np.asarray(eval_potential(psi, grid.centers(), grid), dtype=float).reshape(grid.cells)
    idx = np.arange(grid.size).reshape(grid.cells)
    rows, cols, vals = [], [], []
    colsum = np.zeros(grid.size)
    for ax in range(grid.dim):
        w = sigma / (grid.h[ax] * grid.h[ax])
        lo = tuple(slice(None, -1) if a == ax else slice(None) for a in range(grid.dim))
        hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(grid.dim))
        s = (pot[hi] - pot[lo]).ravel() / sigma
        left, right = idx[lo].ravel(), idx[hi].ravel()
        c_left, c_right = w * bernoulli(s), w * bernoulli(-s)
        rows += [left, right]
        cols += [right, left]
        vals += [c_right, c_left]
        np.add.at(colsum, left, c_left)
        np.add.at(colsum, right, c_right)
    diag = np.arange(grid.size)
    return sparse.coo_array(
        (np.concatenate(vals + [-colsum]),
         (np.concatenate(rows + [diag]), np.concatenate(cols + [diag]))),
        shape=(grid.size, grid.size),
    ).tocsr()


def coo_system(spec) -> sparse.csr_array:
    block = sparse.block_diag([coo_transport(spec.grid, sp.sigma, sp.potential)
                               for sp in spec.species], format="csr")
    weighted = spec.alphas[:, None] * spec.coupling.lam
    coupling = sparse.kron(sparse.csr_array(weighted),
                           sparse.eye_array(spec.grid.size, format="csr"), format="csr")
    return sparse.csr_array(block + coupling)
