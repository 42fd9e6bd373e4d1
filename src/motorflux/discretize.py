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
Every operator is a DIA matrix from assembly to the solver: a few full
diagonals, written with slices and read by a matvec without indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import ScalingError, UnsupportedConfigurationError
from .model import Grid, PotentialSpec, ProblemSpec, State, _samples, eval_potential

__all__ = [
    "bernoulli",
    "TransportOperator",
    "SystemOperator",
    "assemble_transport",
    "assemble_system",
    "conjugate_to_neumann",
    "gauge_transform",
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
    # x/expm1(x) over the whole array, the Taylor and overflow entries then
    # overwritten, is about twice as fast as gathering the entries in between
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.divide(arr, np.expm1(arr), out=np.empty_like(arr))
    small = np.abs(arr) <= _TAYLOR_CUTOFF
    xs = arr[small]
    out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0 - xs ** 4 / 720.0
    big = arr > _OVERFLOW_CUTOFF
    xb = arr[big]
    out[big] = xb * np.exp(-xb)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


@dataclass(frozen=True)
class TransportOperator:
    """Sparse generator of one species' drift-diffusion flow with no-flux walls."""

    species: int
    matrix: sparse.dia_array
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
    matrix: sparse.dia_array
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
    psi_vals = np.asarray(eval_potential(psi, grid.centers(), grid), dtype=float).ravel()
    return _transport(grid, sigma, psi_vals, species)


def _transports(spec: ProblemSpec):
    """Each species' transport operator, from the potential samples ``spec`` keeps."""
    potentials = _samples(spec)[0]
    return (_transport(spec.grid, sp.sigma, psi, i)
            for i, (sp, psi) in enumerate(zip(spec.species, potentials)))


def _transport(grid: Grid, sigma: float, psi_vals: np.ndarray,
               species: int) -> TransportOperator:
    """`assemble_transport` from the flat cell-centre samples ``psi_vals``."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    shape = grid.cells
    pot = psi_vals.reshape(shape)
    # a step along axis a moves the flat index (axis 0 outermost) by strides[a]
    strides = [math.prod(shape[ax + 1:]) for ax in range(grid.dim)]
    offsets = [-s for s in strides] + [0] + strides[::-1]
    data = np.zeros((len(offsets), grid.size))
    rows = {off: row.reshape(shape) for off, row in zip(offsets, data)}
    colsum = rows[0]  # negated into the diagonal below
    # (offset, cells) in the order in which a non-finite weight is reported
    checked = []
    # a potential jump too steep for double precision gives an inf or nan
    # weight, which the check below reports instead of a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for ax, stride in enumerate(strides):
            h = grid.h[ax]
            w = sigma / (h * h)
            lo = tuple(slice(None, -1) if a == ax else slice(None) for a in range(grid.dim))
            hi = tuple(slice(1, None) if a == ax else slice(None) for a in range(grid.dim))
            s = (pot[hi] - pot[lo]) / sigma
            c_lo = w * bernoulli(s)     # weight of u_lo in the face flux
            c_hi = w * bernoulli(-s)    # weight of u_hi
            # DIA keeps entry (i, i + off) in column i + off
            rows[stride][hi] = c_hi     # entry (lo, hi)
            rows[-stride][lo] = c_lo    # entry (hi, lo)
            colsum[lo] += c_lo
            colsum[hi] += c_hi
            checked += [(stride, hi), (-stride, lo)]
    np.negative(colsum, out=colsum)
    if not np.isfinite(data).all():
        cells = np.arange(grid.size).reshape(shape)
        cell = next(int(cells[where][~np.isfinite(rows[off][where])][0])
                    for off, where in checked + [(0, ...)]
                    if not np.isfinite(rows[off][where]).all())
        raise ScalingError(
            f"species {species + 1}: the Scharfetter-Gummel weight of cell {cell} is not "
            "finite; the potential jump between neighbouring cells divided by sigma "
            "is too large for double precision"
        )
    matrix = sparse.dia_array((data, offsets), shape=(grid.size, grid.size))
    return TransportOperator(species=species, matrix=matrix, grid=grid)


def assemble_system(spec: ProblemSpec) -> SystemOperator:
    """Assemble the block operator for a fully linear problem.

    Coupling block (i, j), alpha_i * lam[i, j] times the identity, is the
    diagonal at offset (j - i) * cells.  A nonlinear reaction has no
    block-operator matrix.  The evolver steps such problems by IMEX: it
    assembles and factors each species' transport operator and takes the
    reactions explicitly.
    """
    if not spec.is_linear:
        raise UnsupportedConfigurationError(
            "assemble_system requires linear reactions: a nonlinear reaction has "
            "no block-operator matrix (the evolver factors only the per-species "
            "transport operators and takes the reactions explicitly)"
        )
    transports = tuple(_transports(spec))
    return SystemOperator(transports=transports, matrix=_block_matrix(spec, transports),
                          spec=spec)


def _block_matrix(spec: ProblemSpec, transports, slopes=None) -> sparse.dia_array:
    """The transport blocks and coupling blocks alpha_i * lam[i, j] * diag(slopes[j])
    in DIA: a linear problem's operator without ``slopes``; with the reaction
    slopes r_j'(u_j), shape (species, cells), the Jacobian of a nonlinear one."""
    size = spec.grid.size
    weighted = spec.alphas[:, None] * spec.coupling.lam
    pairs = [(int(i), int(j)) for i, j in zip(*np.nonzero(weighted))]
    inner = transports[0].matrix.offsets.tolist()
    offsets = sorted({*inner, *((j - i) * size for i, j in pairs)})
    data = np.zeros((len(offsets), spec.n_species * size))
    rows = {off: k for k, off in enumerate(offsets)}
    for i, t in enumerate(transports):
        for off, diagonal in zip(inner, t.matrix.data):
            data[rows[off], i * size:(i + 1) * size] = diagonal
    for i, j in pairs:
        data[rows[(j - i) * size], j * size:(j + 1) * size] += (
            weighted[i, j] if slopes is None else weighted[i, j] * slopes[j])
    return sparse.dia_array((data, offsets), shape=(data.shape[1], data.shape[1]))


def _gauge_factors(spec: ProblemSpec) -> np.ndarray:
    """exp(psi_i/sigma_i) sampled at cell centers, shape (n, cells)."""
    rows = []
    for sp, psi in zip(spec.species, _samples(spec)[0]):
        z = psi / sp.sigma
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
    if not isinstance(op, (TransportOperator, SystemOperator)):
        raise TypeError(f"cannot conjugate object of type {type(op).__name__}")
    if op.gauge != "physical":
        raise ValueError("operator is already in the Neumann gauge")
    factors = _gauge_factors(spec)
    d = factors[op.species] if isinstance(op, TransportOperator) else factors.ravel()
    mat = sparse.dia_array(sparse.diags_array(d) @ op.matrix @ sparse.diags_array(1.0 / d))
    if isinstance(op, TransportOperator):
        return replace(op, matrix=mat, gauge="neumann")
    transports = tuple(conjugate_to_neumann(t, spec) for t in op.transports)
    return replace(op, matrix=mat, transports=transports, gauge="neumann")


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
