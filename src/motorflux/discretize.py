"""Finite-volume assembly of the transport operators and the coupled system.

The per-species operator discretizes div(sigma grad u + u grad psi) with
exponential-fitting (Scharfetter-Gummel) two-point fluxes on a uniform grid.
For the face between cells L and R with s = (psi_R - psi_L)/sigma the flux is

    F = (sigma/h) * (B(s) * u_L - B(-s) * u_R),        B(x) = x / (exp(x) - 1),

and cell L gains (F_in - F_out)/h.  Because B(-s) = exp(s) * B(s), the sampled
profile u = exp(-psi/sigma) gives F = 0 on every face, so that profile is an
exact discrete steady state.  Boundary faces carry zero flux, which is the
finite-volume form of the no-flux condition sigma du/dn + u dpsi/dn = 0.

The assembled matrices are Metzler (nonnegative off-diagonal) and their
volume-weighted column sums vanish, so implicit steps are positivity
preserving and the weighted total mass is conserved by construction.
2-D operators are tensor sums of the per-axis 1-D stencils.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import ScalingError, UnsupportedConfigurationError
from .model import Grid, PotentialSpec, ProblemSpec, State, eval_potential

__all__ = [
    "bernoulli",
    "TransportOperator",
    "SystemOperator",
    "assemble_transport",
    "assemble_system",
    "conjugate_to_neumann",
    "gauge_transform",
    "write_matrix_market",
]

#: below this magnitude B(x) is evaluated by its Taylor polynomial
_TAYLOR_CUTOFF = 1e-5
#: above this, exp(x) would overflow; B(x) ~ x*exp(-x) there
_OVERFLOW_CUTOFF = 700.0
#: gauge factors exp(psi/sigma) are refused beyond this exponent
_GAUGE_EXP_CAP = 700.0


def bernoulli(x):
    """The Bernoulli function B(x) = x/(exp(x) - 1), accurate to ~1e-12 relative.

    B(0) = 1 (removable singularity); for |x| <= 1e-5 the 4-term Taylor
    expansion 1 - x/2 + x^2/12 - x^4/720 is used.  B(x) -> 0 as x -> +inf and
    B(x) -> -x as x -> -inf; both limits are reached without overflow.
    """
    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    small = np.abs(arr) <= _TAYLOR_CUTOFF
    big = arr > _OVERFLOW_CUTOFF
    mid = ~(small | big)
    xs = arr[small]
    out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0 - xs ** 4 / 720.0
    xb = arr[big]
    out[big] = xb * np.exp(-xb)
    xm = arr[mid]
    out[mid] = xm / np.expm1(xm)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


@dataclass(frozen=True)
class TransportOperator:
    """Sparse generator of one species' drift-diffusion flow with no-flux walls."""

    species: int
    matrix: sparse.csr_array
    grid: Grid
    gauge: str = "physical"

    @property
    def shape(self):
        return self.matrix.shape


@dataclass(frozen=True)
class SystemOperator:
    """Block generator of the coupled linear system: transport plus coupling.

    Block i holds species i; the off-diagonal block (i, j) is
    alpha_i * lam[i, j] times the identity, so the row vector with value
    cell_volume/alpha_i on block i annihilates the matrix (mass conservation).
    """

    transports: tuple[TransportOperator, ...]
    matrix: sparse.csr_array
    spec: ProblemSpec
    gauge: str = "physical"

    @property
    def n(self) -> int:
        return len(self.transports)

    @property
    def cells(self) -> int:
        return self.transports[0].grid.size

    @property
    def shape(self):
        return self.matrix.shape


def assemble_transport(grid: Grid, sigma: float, psi: PotentialSpec,
                       species: int = 0) -> TransportOperator:
    """Assemble one species' transport operator from cell-center potential samples.

    The diagonal is set to the exact negative of each column's off-diagonal
    sum, which pins the discrete conservation property down to round-off.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    psi_vals = np.asarray(eval_potential(psi, grid.centers(), grid), dtype=float).ravel()
    shape = grid.cells
    pot = psi_vals.reshape(shape)
    idx = np.arange(grid.size).reshape(shape)

    rows, cols, vals = [], [], []
    colsum = np.zeros(grid.size)
    for ax in range(grid.dim):
        h = grid.h[ax]
        w = sigma / (h * h)
        take_lo = tuple(slice(None, -1) if a == ax else slice(None) for a in range(grid.dim))
        take_hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(grid.dim))
        s = (pot[take_hi] - pot[take_lo]).ravel() / sigma
        left = idx[take_lo].ravel()
        right = idx[take_hi].ravel()
        c_left = w * bernoulli(s)     # weight of u_left in the face flux
        c_right = w * bernoulli(-s)   # weight of u_right
        rows.append(left)
        cols.append(right)
        vals.append(c_right)
        rows.append(right)
        cols.append(left)
        vals.append(c_left)
        np.add.at(colsum, left, c_left)
        np.add.at(colsum, right, c_right)

    diag = np.arange(grid.size)
    rows.append(diag)
    cols.append(diag)
    vals.append(-colsum)
    matrix = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.size, grid.size),
    ).tocsr()
    return TransportOperator(species=species, matrix=matrix, grid=grid)


def assemble_system(spec: ProblemSpec) -> SystemOperator:
    """Assemble the block operator for a fully linear problem.

    A nonlinear reaction has no block-operator matrix.  The evolver steps such
    problems by IMEX: it assembles and factors each species' transport
    operator and takes the reactions explicitly.
    """
    if not spec.is_linear:
        raise UnsupportedConfigurationError(
            "assemble_system requires linear reactions: a nonlinear reaction has "
            "no block-operator matrix (the evolver factors only the per-species "
            "transport operators and takes the reactions explicitly)"
        )
    transports = tuple(
        assemble_transport(spec.grid, sp.sigma, sp.potential, species=i)
        for i, sp in enumerate(spec.species)
    )
    block = sparse.block_diag([t.matrix for t in transports], format="csr")
    weighted = spec.alphas[:, None] * spec.coupling.lam
    coupling = sparse.kron(sparse.csr_array(weighted),
                           sparse.eye_array(spec.grid.size, format="csr"),
                           format="csr")
    return SystemOperator(transports=transports,
                          matrix=sparse.csr_array(block + coupling),
                          spec=spec)


def _gauge_factors(spec: ProblemSpec) -> np.ndarray:
    """exp(psi_i/sigma_i) sampled at cell centers, shape (n, cells)."""
    pts = spec.grid.centers()
    rows = []
    for sp in spec.species:
        z = np.asarray(eval_potential(sp.potential, pts, spec.grid), dtype=float).ravel()
        z = z / sp.sigma
        if np.abs(z).max() > _GAUGE_EXP_CAP:
            raise ScalingError(
                f"|psi/sigma| reaches {np.abs(z).max():.3g} > {_GAUGE_EXP_CAP:g}; "
                "gauge factor would overflow"
            )
        rows.append(np.exp(z))
    return np.stack(rows)


def conjugate_to_neumann(op, spec: ProblemSpec):
    """Similarity-transform an operator into the Neumann gauge: D @ A @ inv(D).

    D is the diagonal matrix of exp(psi_i/sigma_i) cell samples.  The result
    generates the dynamics of w = u * exp(psi/sigma) and shares A's spectrum.
    """
    factors = _gauge_factors(spec)
    if isinstance(op, TransportOperator):
        if op.gauge != "physical":
            raise ValueError("operator is already in the Neumann gauge")
        d = factors[op.species]
        mat = sparse.csr_array(
            sparse.diags_array(d) @ op.matrix @ sparse.diags_array(1.0 / d)
        )
        return replace(op, matrix=mat, gauge="neumann")
    if isinstance(op, SystemOperator):
        if op.gauge != "physical":
            raise ValueError("operator is already in the Neumann gauge")
        d = factors.ravel()
        mat = sparse.csr_array(
            sparse.diags_array(d) @ op.matrix @ sparse.diags_array(1.0 / d)
        )
        transports = tuple(conjugate_to_neumann(t, spec) for t in op.transports)
        return replace(op, matrix=mat, transports=transports, gauge="neumann")
    raise TypeError(f"cannot conjugate object of type {type(op).__name__}")


def gauge_transform(state: State, spec: ProblemSpec, direction: str) -> State:
    """Move a state between the physical and Neumann gauges.

    'to_neumann' multiplies species i by exp(psi_i/sigma_i); 'to_physical'
    divides.  The round trip restores the input to round-off.
    """
    if direction not in ("to_neumann", "to_physical"):
        raise ValueError(f"unknown direction {direction!r}")
    source = "physical" if direction == "to_neumann" else "neumann"
    if state.gauge != source:
        raise ValueError(
            f"state is in gauge {state.gauge!r}; {direction} expects {source!r}"
        )
    factors = _gauge_factors(spec)
    if direction == "to_neumann":
        return state.with_fields(state.fields * factors, gauge="neumann")
    return state.with_fields(state.fields / factors, gauge="physical")


def write_matrix_market(op, path) -> None:
    """Dump an operator (or raw sparse matrix) as Matrix Market coordinate text."""
    matrix = getattr(op, "matrix", op)
    coo = sparse.coo_array(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    for k in order:
        lines.append(f"{coo.row[k] + 1} {coo.col[k] + 1} {float(coo.data[k])!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
