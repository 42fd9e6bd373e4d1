"""Problem definition: grids, potentials, reactions, coupling, and admissibility.

A problem couples n nonnegative species densities u_1..u_n on an interval or
axis-aligned rectangle through

    du_i/dt = div(sigma_i grad u_i + u_i grad psi_i)
              + alpha_i * sum_j lam[i, j] * r_j(u_j)

with zero combined normal flux (sigma du/dn + u dpsi/dn = 0) on the boundary.
Everything downstream relies on four admissibility conditions:

    H1  sigma_i > 0 and alpha_i > 0 for every species,
    H2  lam has nonpositive diagonal, nonnegative off-diagonal entries
        (Metzler pattern) and every column sums to zero,
    H3  every reaction r_i is nondecreasing with r_i(0) = 0 (here: the
        identity, or a power law s**p with p >= 1),
    H4  initial data are nonnegative.

H2 is what makes the weighted total mass  sum_i (1/alpha_i) integral(u_i)
a conserved quantity, and H2+H3 make the flow order-preserving.  `validate`
reports violations of H1-H4 as data; it never raises.

A `ProblemSpec` samples each potential and each initial profile at the cell
centres once and keeps the samples, as it keeps its validation report:
`validate`, `initial_state` and the operator assembly of `discretize` all
read them, so one command evaluates each profile there once.  The samples
live on the instance, never in a cache shared between problems.

The smoothed sawtooth is a sum of `terms` sines sin(k*arg).  It is summed
from one cos/sin pair: sin(k*arg) is the imaginary part of z**k with
z = exp(i*arg), and each power is one complex product more, so the series
costs two transcendental calls instead of one per term.  Each product
rounds once, so z**k is within a few k ulps of the exact power and term k,
divided by k, within a few ulps of its value; the sum stays within
1e-14 * terms * |amplitude| of the term-by-term sum of np.sin(k*arg) for
|arg| up to about 40 (a property test covers 1 to 1024 terms, the most a
`PotentialSpec` takes).  For larger |arg| the term-by-term sum is the less
accurate of the two, since it rounds k*arg before taking the sine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError, UnsupportedConfigurationError

__all__ = [
    "Grid",
    "PotentialSpec",
    "ReactionSpec",
    "SpeciesSpec",
    "CouplingMatrix",
    "State",
    "ProblemSpec",
    "ValidationReport",
    "validate",
    "eval_potential",
    "eval_reaction",
    "eval_power",
    "reaction_lipschitz",
    "initial_state",
    "POTENTIAL_KINDS",
    "REACTION_KINDS",
    "MAX_UNKNOWNS",
]

POTENTIAL_KINDS = ("zero", "linear", "cosine", "sawtooth_smoothed", "tabulated")
REACTION_KINDS = ("linear", "power")

#: most sines of a smoothed sawtooth: its evaluation loops once per term over
#: every sample, and the module docstring's accuracy bound is tested up to here
_MAX_TERMS = 1024

#: tolerance on a coupling-matrix column sum (H2), relative to the sum of the
#: column's |entries|
COLUMN_SUM_TOL = 1e-14

#: most unknowns (species x cells) a problem may have, 16 times the largest
#: sweep point (4 species x 65,536 cells): `validate` rejects a larger problem
#: before any array of its size is allocated.  A 1-D run takes about 230 bytes
#: per unknown, so about 1 GB at the cap.
MAX_UNKNOWNS = 2**22

#: most species x unknowns (species^2 x cells, the entries of K's species-by-species
#: cell blocks) of a 2-D problem.  SuperLU's factors grow with it: one step at
#: this cap (1 species x 1024^2, 2 x 512^2, 4 x 256^2 or 8 x 128^2 cells)
#: peaked at 1.1, 0.88, 0.72 and 0.50 GB; 2 x 1024^2 extrapolates to about 4 GB.
MAX_2D_BLOCK_ENTRIES = 2**20


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered partition of an interval (1-D) or rectangle (2-D)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        object.__setattr__(self, "cells", tuple(int(v) for v in self.cells))
        if not (len(self.lo) == len(self.hi) == len(self.cells)):
            raise ValueError("lo, hi and cells must have the same length")
        if len(self.cells) not in (1, 2):
            raise ValueError("only 1-D intervals and 2-D rectangles are supported")
        for a, (lo, hi, n) in enumerate(zip(self.lo, self.hi, self.cells)):
            if n < 2:
                raise ValueError(f"axis {a}: need at least 2 cells, got {n}")
            if not hi > lo:
                raise ValueError(f"axis {a}: hi={hi} must exceed lo={lo}")
        if not math.isfinite(math.prod(hi - lo for lo, hi in zip(self.lo, self.hi))):
            raise ValueError("the domain volume must be finite")

    @classmethod
    def interval(cls, lo: float, hi: float, n: int) -> "Grid":
        return cls((lo,), (hi,), (n,))

    @classmethod
    def box(cls, lo, hi, cells) -> "Grid":
        return cls(tuple(lo), tuple(hi), tuple(cells))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((hi - lo) / n for lo, hi, n in zip(self.lo, self.hi, self.cells))

    @property
    def size(self) -> int:
        return math.prod(self.cells)  # exact: np.prod wraps around in int64

    @property
    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in zip(self.lo, self.hi)]))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.h[axis]
        return self.lo[axis] + h * (np.arange(self.cells[axis]) + 0.5)

    def axis_faces(self, axis: int) -> np.ndarray:
        h = self.h[axis]
        return self.lo[axis] + h * np.arange(self.cells[axis] + 1)

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, flattened with axis 0 outermost.

        Shape (size,) in 1-D, (size, 2) in 2-D.
        """
        if self.dim == 1:
            return self.axis_centers(0)
        axes = [self.axis_centers(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class PotentialSpec:
    """Evaluable scalar profile, used both for potentials and for initial data.

    Kinds:
      zero                identically 0
      linear              slope*x + offset
      cosine              amplitude*cos(2*pi*(x - phase)/period) + offset
      sawtooth_smoothed   truncated Fourier sawtooth (smooth ratchet profile),
                          amplitude*(2/pi)*sum_{k<=terms} (-1)**(k+1) sin(2*pi*k*(x-phase)/period)/k + offset,
                          summed by the power recurrence of the module docstring
      tabulated           piecewise-linear interpolation of (table_x, table_v)

    On 2-D grids the profile follows the coordinate selected by ``axis``.
    """

    kind: str
    amplitude: float = 1.0
    period: float = 1.0
    slope: float = 0.0
    offset: float = 0.0
    phase: float = 0.0
    terms: int = 5
    axis: int = 0
    table_x: tuple[float, ...] | None = None
    table_v: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise UnsupportedConfigurationError(
                f"unknown potential kind {self.kind!r}; expected one of {POTENTIAL_KINDS}"
            )
        if self.kind == "sawtooth_smoothed" and type(self.terms) is not int:  # nor a bool
            raise UnsupportedConfigurationError(
                f"sawtooth_smoothed potential needs an integer terms, got {self.terms!r}")
        if self.kind == "sawtooth_smoothed" and not 1 <= self.terms <= _MAX_TERMS:
            raise UnsupportedConfigurationError(
                f"sawtooth_smoothed potential needs 1 <= terms <= {_MAX_TERMS}, got {self.terms}")
        if self.kind == "tabulated":
            if self.table_x is None or self.table_v is None:
                raise UnsupportedConfigurationError("tabulated potential needs table_x and table_v")
            if len(self.table_x) != len(self.table_v) or len(self.table_x) < 2:
                raise UnsupportedConfigurationError("tabulated potential needs matching tables of length >= 2")
            object.__setattr__(self, "table_x", tuple(float(v) for v in self.table_x))
            object.__setattr__(self, "table_v", tuple(float(v) for v in self.table_v))
            # np.interp does not check the order of its abscissae; a NaN fails this too
            if not np.all(np.diff(self.table_x) > 0.0):
                raise UnsupportedConfigurationError(
                    f"tabulated potential needs strictly increasing xs, got {self.table_x}")


@dataclass(frozen=True)
class ReactionSpec:
    """Reaction rate r(s), nondecreasing on s >= 0 with r(0) = 0.

    kind 'linear' is the identity; kind 'power' is s**exponent with a finite
    exponent >= 1 (the validator rejects any other exponent).
    """

    kind: str
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in REACTION_KINDS:
            raise UnsupportedConfigurationError(
                f"unknown reaction kind {self.kind!r}; expected one of {REACTION_KINDS}"
            )


@dataclass(frozen=True)
class SpeciesSpec:
    """Per-species data: diffusion sigma, weight alpha, potential, reaction."""

    sigma: float
    alpha: float
    potential: PotentialSpec
    reaction: ReactionSpec = ReactionSpec("linear")


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """The n-by-n coupling matrix lam of the reaction network (H2 pattern).

    Two matrices are equal when their shapes and entries are, so -0.0 equals
    0.0 and a NaN entry equals nothing; the hash agrees with that equality.
    """

    lam: np.ndarray

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise ValueError("coupling matrix must be square")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)

    def __eq__(self, other):
        if not isinstance(other, CouplingMatrix):
            return NotImplemented
        return self.lam.shape == other.lam.shape and bool(np.array_equal(self.lam, other.lam))

    def __hash__(self):
        return hash(tuple(map(tuple, self.lam.tolist())))

    def column_sums(self) -> np.ndarray:
        return self.lam.sum(axis=0)


@dataclass(frozen=True)
class State:
    """Cell values of all species at one time instant.

    ``fields`` has shape (n_species, grid.size).  ``gauge`` is 'physical' for
    the densities u, or 'neumann' for w = u*exp(psi/sigma).
    """

    grid: Grid
    fields: np.ndarray
    t: float = 0.0
    gauge: str = "physical"

    def __post_init__(self):
        fields = np.array(self.fields, dtype=float)
        if fields.ndim == 1:
            fields = fields[None, :]
        if fields.ndim != 2 or fields.shape[1] != self.grid.size:
            raise ValueError(
                f"fields must have shape (n, {self.grid.size}); got {fields.shape}"
            )
        if not np.all(np.isfinite(fields)):
            raise ValueError("state fields must be finite")
        if self.gauge not in ("physical", "neumann"):
            raise ValueError(f"unknown gauge {self.gauge!r}")
        fields.flags.writeable = False
        object.__setattr__(self, "fields", fields)

    @property
    def n_species(self) -> int:
        return self.fields.shape[0]

    def with_fields(self, fields: np.ndarray, t: float | None = None,
                    gauge: str | None = None) -> "State":
        return State(self.grid, fields,
                     self.t if t is None else t,
                     self.gauge if gauge is None else gauge)


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem: grid, species, coupling, and per-species initial data."""

    grid: Grid
    species: tuple[SpeciesSpec, ...]
    coupling: CouplingMatrix
    initial: tuple[PotentialSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))
        object.__setattr__(self, "initial", tuple(self.initial))

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def alphas(self) -> np.ndarray:
        return np.array([sp.alpha for sp in self.species])

    @property
    def is_linear(self) -> bool:
        return all(sp.reaction.kind == "linear" for sp in self.species)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of `validate`: hypothesis violations are data, not exceptions."""

    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# evaluation


def _profile(pot: PotentialSpec, s: np.ndarray) -> np.ndarray:
    """Evaluate the 1-D profile of ``pot`` on coordinate samples ``s``."""
    if pot.kind == "zero":
        return np.zeros_like(s)
    if pot.kind == "linear":
        return pot.slope * s + pot.offset
    if pot.kind == "cosine":
        return pot.amplitude * np.cos(2.0 * np.pi * (s - pot.phase) / pot.period) + pot.offset
    if pot.kind == "sawtooth_smoothed":
        # sin(k*arg) = Im(z**k) with z = exp(i*arg): one cos/sin pair, then one
        # complex product per term (see the module docstring)
        arg = 2.0 * np.pi * (s - pot.phase) / pot.period
        z = np.empty(s.shape, dtype=complex)
        np.cos(arg, out=z.real)
        np.sin(arg, out=z.imag)
        power = z.copy()
        acc = np.zeros_like(s)
        for k in range(1, pot.terms + 1):
            acc += power.imag * ((-1.0) ** (k + 1) / k)
            power *= z
        return pot.amplitude * (2.0 / np.pi) * acc + pot.offset
    # tabulated
    return np.interp(s, pot.table_x, pot.table_v)


def eval_potential(pot: PotentialSpec, x, grid: Grid):
    """Evaluate ``pot`` at coordinates ``x`` inside the closure of the domain.

    ``x`` is a scalar or array of coordinates in 1-D; in 2-D it is an array
    whose last dimension holds (x, y) pairs.  Points outside the closed
    domain raise OutOfDomainError.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0 if grid.dim == 1 else arr.ndim == 1
    if grid.dim == 1:
        per_axis = [np.atleast_1d(arr)]
    else:
        if arr.shape[-1] != 2:
            raise ValueError("2-D evaluation needs coordinates with last dimension 2")
        pts = arr.reshape(-1, 2)
        per_axis = [pts[:, 0], pts[:, 1]]
    for a, vals in enumerate(per_axis):
        span = grid.hi[a] - grid.lo[a]
        tol = 1e-12 * span
        if vals.size and (vals.min() < grid.lo[a] - tol or vals.max() > grid.hi[a] + tol):
            raise OutOfDomainError(
                f"coordinate outside [{grid.lo[a]}, {grid.hi[a]}] on axis {a}"
            )
    s = per_axis[pot.axis if grid.dim == 2 else 0]
    out = _profile(pot, np.asarray(s, dtype=float))
    if scalar:
        return float(out.reshape(-1)[0])
    if grid.dim == 2:
        return out.reshape(arr.shape[:-1])
    return out.reshape(arr.shape)


def eval_reaction(r: ReactionSpec, s):
    """Evaluate the reaction rate at s >= 0 (scalar or array)."""
    arr = np.asarray(s, dtype=float)
    if arr.size and arr.min() < 0.0:
        raise OutOfDomainError("reaction rate is only defined for nonnegative arguments")
    if r.kind == "linear":
        out = arr.copy()
    else:
        out = np.empty_like(arr)
        eval_power(arr, r.exponent, out, out)
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def eval_power(x: np.ndarray, exponent: float, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
    """x**exponent for x >= 0 into ``out``, which may be ``x`` itself.

    The exponents 2 and 3 are taken by multiplication: x*x*x rounds twice,
    so it stays within 2 ulp of libm's pow and is nondecreasing in x, and it
    takes about 11 us per 16,384 values where pow takes 65 us (2-vCPU x86-64
    host).  A fourth power would round three times.  Other exponents use
    np.power.  ``scratch`` holds x*x for the cube: an array shaped like x
    that is not x, and may be ``out`` when ``out`` is not x.  The evolver's
    reaction stage and `eval_reaction` both call this, so they agree bit for bit.
    """
    if exponent == 2.0:
        np.multiply(x, x, out=out)
    elif exponent == 3.0:
        np.multiply(x, x, out=scratch)
        np.multiply(scratch, x, out=out)
    else:
        np.power(x, exponent, out=out)
    return out


def reaction_lipschitz(r: ReactionSpec, s_max: float) -> float:
    """Lipschitz constant of r on [0, s_max] (p * s_max**(p-1) for powers)."""
    if s_max < 0.0:
        raise OutOfDomainError("s_max must be nonnegative")
    if r.kind == "linear" or r.exponent == 1.0:
        return 1.0
    try:
        return float(r.exponent * s_max ** (r.exponent - 1.0))
    except OverflowError:
        return math.inf


def initial_state(spec: ProblemSpec) -> State:
    """Sample the configured initial data at cell centers (physical gauge, t=0)."""
    return State(spec.grid, np.stack(_samples(spec)[1]), t=0.0, gauge="physical")


def _samples(spec: ProblemSpec) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(potentials, initial data): each species' profiles at the cell centres, read-only.

    Sampled on the first call and kept on the frozen ``spec``, like the
    report of `validate`: the checks, the initial state and every transport
    assembly of one command read the same arrays, and a replaced copy is a
    new instance that samples anew.  A profile that overflows samples as inf
    or nan, which `validate` reports, so no warning is raised here.
    """
    if "_sampled" not in spec.__dict__:
        pts = spec.grid.centers()
        sampled = []
        with np.errstate(all="ignore"):
            for profiles in ([sp.potential for sp in spec.species], spec.initial):
                rows = tuple(np.asarray(eval_potential(p, pts, spec.grid), dtype=float).ravel()
                             for p in profiles)
                for row in rows:
                    row.flags.writeable = False
                sampled.append(rows)
        object.__setattr__(spec, "_sampled", tuple(sampled))
    return spec._sampled


# ---------------------------------------------------------------------------
# validation


def _strongly_connected(lam: np.ndarray) -> bool:
    """Is the directed coupling graph (edge j -> i when lam[i,j] > 0) strongly connected?"""
    n = lam.shape[0]
    if n == 1:
        return True
    adj = lam > 0.0
    np.fill_diagonal(adj, False)

    def reachable(a) -> np.ndarray:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            j = stack.pop()
            for i in np.nonzero(a[:, j])[0]:
                if not seen[i]:
                    seen[i] = True
                    stack.append(i)
        return seen

    return bool(reachable(adj).all() and reachable(adj.T).all())


def validate(spec: ProblemSpec) -> ValidationReport:
    """Check H1-H4, structural consistency and the MAX_UNKNOWNS and MAX_2D_BLOCK_ENTRIES
    caps; violations are data.

    Idempotent and side-effect free: validating twice yields the same report,
    so the frozen ``spec`` keeps the report of its first call (a replaced copy
    is a new instance and is checked anew).
    """
    if "_report" not in spec.__dict__:
        object.__setattr__(spec, "_report", _check(spec))
    return spec._report


# a profile that overflows or divides by zero is reported as not finite, not warned about
@np.errstate(all="ignore")
def _check(spec: ProblemSpec) -> ValidationReport:
    violations: list[str] = []
    warnings: list[str] = []
    grid = spec.grid
    n = spec.n_species

    unknowns = n * grid.size
    if unknowns > MAX_UNKNOWNS:  # the checks below would allocate per cell
        return ValidationReport(violations=(
            f"grid: {n} species x {grid.size} cells = {unknowns} unknowns "
            f"exceed the cap of {MAX_UNKNOWNS}",
        ))
    if grid.dim == 2 and n * unknowns > MAX_2D_BLOCK_ENTRIES:  # factoring would outgrow memory
        return ValidationReport(violations=(
            f"grid: 2-D, {n} species x {grid.size} cells: species x unknowns = "
            f"{n * unknowns} exceed the 2-D cap of {MAX_2D_BLOCK_ENTRIES}",
        ))

    if abs(grid.size * grid.cell_volume - grid.volume) > 1e-12 * grid.volume:
        violations.append("grid: cell volumes do not sum to the domain volume")

    potentials, initials = _samples(spec)
    for i, sp in enumerate(spec.species, start=1):
        if not 0.0 < sp.sigma < np.inf:
            violations.append(f"H1: species {i} has sigma={sp.sigma} (must be > 0 and finite)")
        if not (0.0 < sp.alpha < np.inf and 1.0 / float(sp.alpha) < np.inf):  # 1/alpha weighs mass
            violations.append(f"H1: species {i} has alpha={sp.alpha} (must be > 0 and finite, "
                              "with a finite 1/alpha)")
        try:
            faces = [eval_potential(sp.potential,
                                    _face_points(grid, a), grid) for a in range(grid.dim)]
            if not (np.all(np.isfinite(potentials[i - 1]))
                    and all(np.all(np.isfinite(f)) for f in faces)):
                violations.append(f"H3: species {i} potential is not finite on the domain")
        except OutOfDomainError:
            violations.append(f"H3: species {i} potential not evaluable on the domain closure")
        if sp.reaction.kind == "power" and not 1.0 <= sp.reaction.exponent < math.inf:
            violations.append(f"H3: species {i} reaction not admissible "
                              f"(p={sp.reaction.exponent}, must be finite and >= 1)")

    lam = spec.coupling.lam
    if lam.shape != (n, n):
        violations.append(
            f"H2: coupling matrix is {lam.shape[0]}x{lam.shape[1]}, expected {n}x{n}"
        )
    elif not np.all(np.isfinite(lam)):
        violations.append("H2: coupling matrix has non-finite entries")
    else:
        for i in range(n):
            if lam[i, i] > 0.0:
                violations.append(f"H2: diagonal entry lam[{i + 1},{i + 1}]={lam[i, i]} > 0")
            for j in range(n):
                if i != j and lam[i, j] < 0.0:
                    violations.append(
                        f"H2: off-diagonal entry lam[{i + 1},{j + 1}]={lam[i, j]} < 0"
                    )
        # each sum against its column's own scale: lam * 2^k gets one verdict for every k
        bounds = COLUMN_SUM_TOL * np.abs(lam).sum(axis=0)
        for j, (s, bound) in enumerate(zip(spec.coupling.column_sums(), bounds), start=1):
            if abs(s) > bound:
                violations.append(f"H2: column {j} sums to {float(s)!r} (must be 0)")
        if not _strongly_connected(lam):
            warnings.append(
                "coupling graph is not strongly connected; the stationary-state "
                "solver assumes an irreducible configuration"
            )

    if len(spec.initial) != n:
        violations.append(
            f"H4: {len(spec.initial)} initial profiles for {n} species"
        )
    else:
        for i, vals in enumerate(initials, start=1):
            if not np.all(np.isfinite(vals)):
                violations.append(f"H4: species {i} initial data not finite")
            elif vals.min() < 0.0:
                violations.append(
                    f"H4: species {i} initial data negative (min {float(vals.min())!r})"
                )
    if not violations:
        from .verify import weighted_mass  # verify imports this module

        if not weighted_mass(initial_state(spec), spec) < np.inf:
            violations.append("H4: the initial weighted mass sum_i integral(u_i)/alpha_i "
                              "exceeds the largest double")

    return ValidationReport(tuple(violations), tuple(warnings))


def _face_points(grid: Grid, axis: int) -> np.ndarray:
    """All face coordinates along one axis, paired with cell centers on the other."""
    if grid.dim == 1:
        return grid.axis_faces(0)
    if axis == 0:
        xs, ys = grid.axis_faces(0), grid.axis_centers(1)
    else:
        xs, ys = grid.axis_centers(0), grid.axis_faces(1)
    mx, my = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([mx.ravel(), my.ravel()], axis=-1)
