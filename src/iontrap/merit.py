"""Radial trapping figures of merit of a solved rf trap.

Conventions: the fit length scale r0 is the ion height d (distance from the
rf null to the bottom wafer). Harmonicity k is the magnitude of the quadratic
coefficient of the rf potential amplitude along a radial axis through the
null, normalized as phi ~ (V/2 r0^2) k s^2. Derived quantities:

    omega = V k e / (sqrt(2) m Omega r0^2)        radial secular frequency
    q     = 2 e V k / (m Omega^2 r0^2)            stability parameter
    omega = q Omega / (2 sqrt(2))                 equivalent identity
    q_op  = 0.250 k / 0.210  (clamped at 1)       operating point scaled from
                                                  the planar five-wire baseline
    omega_max = sqrt(q_op e V k / (4 m r0^2))     frequency at the q_op limit
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebfit, chebpts2, chebroots, chebval

from .constants import CA40, ECHARGE, IonSpecies
from .errors import (DepthError, FitError, InvalidInputError, NullAmbiguityError,
                     NullNotFoundError)
from .pseudo import MAP_POINT_BUDGET, DriveParams, PseudoField, DEFAULT_DRIVE

# operating point of the reference five-wire design: q = 0.250 at k = 0.210
Q_BASE = 0.250
K_BASE = 0.210

DEFAULT_TARGET_OMEGA = 2.0 * math.pi * 10e6  # rad/s


# -- analytic operating-point formulas --------------------------------------


def radial_frequency(voltage, k, r0, species: IonSpecies, omega_rf) -> float:
    """Radial secular frequency (rad/s) from the harmonicity."""
    return voltage * k * species.charge / (
        math.sqrt(2.0) * species.mass * omega_rf * r0 * r0)


def stability_q(voltage, k, r0, species: IonSpecies, omega_rf) -> float:
    """Mathieu stability parameter q of the radial motion."""
    return 2.0 * species.charge * voltage * k / (
        species.mass * omega_rf * omega_rf * r0 * r0)


@dataclass(frozen=True)
class OperatingPoint:
    q: float
    clamped: bool


def operating_q(k: float) -> OperatingPoint:
    """Design operating q, scaled linearly in k from the planar baseline."""
    q = Q_BASE * k / K_BASE
    if q > 1.0:
        return OperatingPoint(1.0, True)
    return OperatingPoint(q, False)


def max_frequency(k, r0, species: IonSpecies, voltage) -> float:
    """Largest radial frequency (rad/s) reachable at fixed voltage, obtained
    by raising the drive frequency until q falls to the operating value."""
    q = operating_q(k).q
    return math.sqrt(q * species.charge * voltage * k /
                     (4.0 * species.mass * r0 * r0))


def drive_for_target(q, omega_target, r0, k, species: IonSpecies):
    """(voltage V, Omega_rf rad/s) that realize omega_target at the given q.
    Raises InvalidInputError when either is not finite and positive: a
    target so far out that the drive overflows or underflows."""
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1], got {q}")
    q, r0, k = float(q), float(r0), float(k)  # Python floats overflow without a warning
    omega_rf = 2.0 * math.sqrt(2.0) * omega_target / q
    voltage = (math.sqrt(2.0) * species.mass * omega_rf * omega_target * r0 * r0
               / (k * species.charge))
    if not (0.0 < voltage < math.inf and 0.0 < omega_rf < math.inf):
        raise InvalidInputError(
            f"the drive for a target of {omega_target / (2e6 * math.pi):g} MHz is out "
            f"of floating-point range (V = {voltage:g}, Omega = {omega_rf:g} rad/s)")
    return voltage, omega_rf


def heating_norm(omega, d, omega_ref, d_ref) -> float:
    """Expected motional heating rate relative to a reference trap, from the
    1/omega^2 and 1/d^4 scalings of electric-field noise heating."""
    return (omega_ref / omega) ** 2 * (d_ref / d) ** 4


def power_norm(voltage, omega_rf, voltage_ref, omega_rf_ref) -> float:
    """Dissipated rf power relative to a reference drive: P ~ V^2 Omega^2."""
    return (voltage / voltage_ref) ** 2 * (omega_rf / omega_rf_ref) ** 2


# -- rf null -----------------------------------------------------------------


@dataclass
class NullResult:
    position: np.ndarray      # meters
    psi_J: float
    grad_norm: float          # |grad psi| at the null, J/m
    converged: bool
    iterations: int

    @property
    def height_um(self) -> float:
        """Ion height above the bottom wafer plane (y = 0)."""
        return float(self.position[1]) * 1e6


NEWTON_MAX_STEPS = 60
NULL_CHEB_NODES = 33     # psi evaluations per piece of the null segment
NULL_PIECE_UM = 1e-3     # pieces this short are not halved further


def _newton(step, p, cap):
    """Capped Newton iteration p <- p + step(p). Each step is shortened to at
    most cap; the iteration converges once a step is below 1e-13 m, and ends
    unconverged after NEWTON_MAX_STEPS steps or when step raises LinAlgError.
    Returns (p, converged, iterations)."""
    for it in range(1, NEWTON_MAX_STEPS + 1):
        try:
            delta = step(p)
        except np.linalg.LinAlgError:
            return p, False, it
        norm = np.linalg.norm(delta)
        if norm > cap:
            delta *= cap / norm
        p = p + delta
        if norm < 1e-13:
            return p, True, it
    return p, False, NEWTON_MAX_STEPS


def find_rf_null(pseudo: PseudoField, start_um, end_um) -> NullResult:
    """Locate the pseudopotential minimum on the segment from start to end.

    psi along the segment is interpolated by Chebyshev pieces of
    NULL_CHEB_NODES points, each halved until its _cheb_series tail is
    within FIT_CHEB_TAIL or it is NULL_PIECE_UM long. The candidates are the
    piece ends and the real roots of each piece's derivative, and each run
    of candidates within a hair of the lowest is a well. The lowest at a
    segment end raises NullNotFoundError, several wells NullAmbiguityError.
    Gauss-Newton in 3D on E(r) = 0, with the analytic field Jacobian and
    steps of at most 2 um, starts from the first candidate of the well. A
    psi at a node, or a |grad psi| at a segment end or at the null, that is
    not finite, a drive whose psi overflows, raises InvalidInputError.
    """
    start, end = np.asarray(start_um, float), np.asarray(end_um, float)
    length = float(np.linalg.norm(end - start))
    with np.errstate(over="ignore"):  # an overflow raises InvalidInputError
        grad = pseudo.grad(np.array([start, end]) * 1e-6)
        _check_finite(pseudo, "|grad psi|", float(np.linalg.norm(grad, axis=1).max()))

    def psi(u):  # u in [0, 1] along the segment
        vals = pseudo.psi((start + np.outer(u, end - start)) * 1e-6)
        _check_finite(pseudo, "psi", float(vals.max()))
        return vals

    # a stack of pieces, not a recursive closure: its reference cycle would
    # keep pseudo, and the solved trap, alive until the cyclic collector ran
    cand, vals, pieces = [], [], [(0.0, 1.0)]
    while pieces:
        lo, hi = pieces.pop()
        coef, tail = _cheb_series(psi, lo, hi, NULL_CHEB_NODES)
        if tail > FIT_CHEB_TAIL and (hi - lo) * length > NULL_PIECE_UM:
            pieces += [(0.5 * (lo + hi), hi), (lo, 0.5 * (lo + hi))]
            continue
        t = chebroots(chebder(coef))
        t = np.r_[-1.0, np.sort(t.real[(t.imag == 0) & (abs(t.real) < 1.0)]), 1.0]
        cand.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * t)
        vals.append(chebval(t, coef))
    cand, vals = np.concatenate(cand), np.concatenate(vals)

    i_min = int(np.argmin(vals))
    if i_min in (0, len(vals) - 1):
        raise NullNotFoundError(
            "pseudopotential minimum sits on the search segment boundary; "
            "no interior null found")
    # each run of candidates within a hair of the lowest is a well
    near = vals <= vals[i_min] + 1e-9 * float(vals.max() - vals[i_min]) + 1e-300
    firsts = np.flatnonzero(near & ~np.append(False, near[:-1]))
    pts_um = start + np.outer(cand, end - start)
    if len(firsts) > 1:
        raise NullAmbiguityError(
            f"{len(firsts)} equal pseudopotential minima on the segment",
            [tuple(float(c) for c in pts_um[i]) for i in firsts])

    def step(p):
        E = pseudo.rf_field.field(p[None, :])[0]
        J = pseudo.rf_field.jacobian(p[None, :])[0]
        return np.linalg.lstsq(J, -E, rcond=1e-9)[0]

    p, converged, it = _newton(step, pts_um[firsts[0]] * 1e-6, 2e-6)

    with np.errstate(over="ignore"):  # an overflow raises InvalidInputError below
        grad_norm = float(np.linalg.norm(pseudo.grad(p[None, :])[0]))
    _check_finite(pseudo, "|grad psi|", grad_norm)
    psi0 = float(pseudo.psi(p[None, :])[0])
    # scale check: the gradient must be tiny against psi one micron away
    ref = float(pseudo.psi((p + np.array([0.0, 1e-6, 0.0]))[None, :])[0])
    if grad_norm > 1e-3 * max(ref - psi0, 1e-300) / 1e-6:
        raise NullNotFoundError(
            f"null polish did not converge (|grad psi| = {grad_norm:.3e} J/m)")
    return NullResult(p, psi0, grad_norm, converged, it)


def _check_finite(pseudo: PseudoField, name, value):
    if not math.isfinite(value):
        drive = pseudo.drive
        raise InvalidInputError(
            f"{name} = {value:g} on the null segment: the pseudopotential of "
            f"{drive.voltage:g} V at {drive.freq_MHz:g} MHz is out of floating-point range")


# -- harmonicity --------------------------------------------------------------


@dataclass
class AxisFit:
    axis: tuple
    k: float                 # |2 c2 r0^2|, c2 per volt
    k_signed: float
    std_err: float           # standard error of k from the fit covariance
    rms_residual: float      # V per volt of drive
    n_points: int
    window_m: float
    residual_warning: bool


@dataclass
class HarmonicityResult:
    fits: dict
    k_x: float
    k_y: float
    scalar_axis: str

    @property
    def k(self) -> float:
        return self.fits[self.scalar_axis].k


FIT_POINTS = 2001       # equispaced interpolant samples of the least squares
FIT_WINDOW_FRAC = 0.2   # half-width of the fit window in units of r0
FIT_CHEB_NODES = 17     # rf potential evaluations per fit axis
# largest last-two Chebyshev coefficient allowed, relative to the largest
# non-constant one; the built-in designs measure <= 4e-11 at 17 nodes
FIT_CHEB_TAIL = 1e-8
# sample roundoff, relative to the largest coefficient: a tail below it is
# noise even on an axis with no variation to resolve
_CHEB_ROUNDOFF = 1e3 * np.finfo(float).eps


def _cheb_series(f, lo, hi, nodes):
    """(coef, tail): the Chebyshev series, in t = (s - mid) / half on [-1, 1],
    interpolating f(s) at `nodes` Chebyshev points of the second kind on
    [lo, hi], and the larger of its last two coefficients relative to the
    largest non-constant one, 0.0 when below sample roundoff."""
    t = chebpts2(nodes)
    coef = chebfit(t, f(0.5 * (lo + hi) + 0.5 * (hi - lo) * t), nodes - 1)
    mag = np.abs(coef)
    tail = mag[-2:].max()
    return coef, 0.0 if tail <= _CHEB_ROUNDOFF * mag.max() else tail / mag[1:].max()


def fit_axis_harmonicity(rf_field, null_m, r0_m, axis) -> AxisFit:
    """Quadratic least squares of the rf potential per volt along one axis.

    The potential is evaluated only at FIT_CHEB_NODES Chebyshev points of
    the second kind on the window [-w, w], w = FIT_WINDOW_FRAC r0, and
    interpolated by a Chebyshev series. The least squares runs on FIT_POINTS
    equispaced samples of that interpolant, in t = s / w so that its columns
    1, t, t^2 are of order one at any trap size. The dense sampling keeps
    the standard error of k below 1e-3 on the stock designs, where the
    quartic tail of the well is the dominant fit residual.

    The axis potential is analytic on the window (the nearest conductor is
    several window half-widths away), so its Chebyshev coefficients decay
    geometrically. If the larger of the last two exceeds FIT_CHEB_TAIL of
    the largest non-constant coefficient, the interpolant is not trusted and
    FitError is raised: the window then reaches too close to an electrode.
    A non-finite potential sample raises it too.
    """
    e = np.asarray(axis, float)
    e = e / np.linalg.norm(e)
    w = FIT_WINDOW_FRAC * r0_m
    coef, tail = _cheb_series(lambda s: rf_field.potential(
        np.asarray(null_m)[None, :] + s[:, None] * e[None, :]), -w, w, FIT_CHEB_NODES)
    if not tail <= FIT_CHEB_TAIL:
        raise FitError(
            f"axis potential not resolved by {FIT_CHEB_NODES} Chebyshev nodes "
            f"(tail coefficient {tail:.1e} of the largest)")

    t = np.linspace(-1.0, 1.0, FIT_POINTS)
    y = chebval(t, coef)
    X = np.column_stack([np.ones_like(t), t, t * t])
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    dof = FIT_POINTS - 3
    sigma2 = float(r @ r) / dof
    cov = sigma2 * np.linalg.inv(X.T @ X)
    c2 = float(beta[2]) / (w * w)
    se_c2 = math.sqrt(max(cov[2, 2], 0.0)) / (w * w)
    scale = 2.0 * r0_m * r0_m
    rms = math.sqrt(float(r @ r) / FIT_POINTS)
    # warn when the residual is large against the quadratic signal itself
    signal = abs(c2) * w * w + 1e-300
    return AxisFit(
        axis=tuple(e),
        k=abs(c2) * scale,
        k_signed=c2 * scale,
        std_err=se_c2 * scale,
        rms_residual=rms,
        n_points=FIT_POINTS,
        window_m=w,
        residual_warning=rms > 0.05 * signal,
    )


@dataclass(frozen=True)
class FitAxes:
    """Radial fit axes, name -> direction in fit order (the first two give
    k_x and k_y), and the name of the axis whose k is reported."""

    vectors: dict
    scalar_axis: str


PLANAR_AXES = FitAxes({"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0)}, "y")


def radial_axes(geom) -> FitAxes:
    """Harmonicity fit axes of an electrode layout.

    With every rf rect at one height these are x and y, reporting y. With rf
    rects at several heights the first axis e1 is the xy projection of the
    offset from the area centroid of the lowest rf rects to that of the
    others (for cross-rf the rf-to-rf diagonal), the second its in-plane
    perpendicular, and e1 is reported.
    """
    rects = [r for e in geom.electrodes if e.role == "rf" for r in e.rects]
    centers = np.array([r.corners().mean(axis=0) for r in rects])
    low = centers[:, 1] == centers[:, 1].min()
    if low.all():
        return PLANAR_AXES
    w = np.array([r.area_um2 for r in rects])
    d = (np.average(centers[~low], axis=0, weights=w[~low])
         - np.average(centers[low], axis=0, weights=w[low]))
    ex, ey = (float(c) / math.hypot(d[0], d[1]) for c in d[:2])
    return FitAxes({"diag_rf": (ex, ey, 0.0), "diag_gnd": (ey, -ex, 0.0)}, "diag_rf")


def fit_harmonicity(rf_field, null_m, r0_m,
                    axes: FitAxes = PLANAR_AXES) -> HarmonicityResult:
    """Fit k along each of the given radial axes (see radial_axes)."""
    fits = {name: fit_axis_harmonicity(rf_field, null_m, r0_m, vec)
            for name, vec in axes.vectors.items()}
    names = list(fits)
    return HarmonicityResult(fits=fits, k_x=fits[names[0]].k,
                             k_y=fits[names[1]].k, scalar_axis=axes.scalar_axis)


# -- trap depth ----------------------------------------------------------------


def flood_fill_escape(values: np.ndarray, start):
    """Escape level of a discrete landscape: the smallest threshold at which
    the connected region (face adjacency) containing `start` touches the array
    boundary. Returns (level, pass_cell, boundary_limited).

    Dijkstra-style bottleneck search: dist(c) = min over paths of the max
    value along the path (endpoints included). pass_cell is the cell where
    that max is attained; boundary_limited means the max sits on the boundary
    itself (no interior barrier). values needs only shape, ndim and
    values[cell], so an ndarray and the lazily evaluated depth grid both do.

    Among cells of equal level the lowest value is expanded first (then the
    lowest index): once the flood is over the pass, every cell beyond it
    has the pass's level, and the flood runs downhill to the boundary rather
    than sweeping the basin beyond in index order.
    """
    shape = values.shape
    start = tuple(start)
    dist = {start: float(values[start])}
    passc = {start: start}
    heap = [(dist[start], dist[start], start)]
    seen = set()
    while heap:
        d, _, c = heapq.heappop(heap)
        if c in seen:
            continue
        seen.add(c)
        if any(c[ax] in (0, shape[ax] - 1) for ax in range(values.ndim) if shape[ax] > 1):
            return d, passc[c], passc[c] == c
        for ax in range(values.ndim):
            for dd in (-1, 1):
                nb = list(c)
                nb[ax] += dd
                if not (0 <= nb[ax] < shape[ax]):
                    continue
                nb = tuple(nb)
                if nb in seen:
                    continue
                v = float(values[nb])
                nd = max(d, v)
                if nd < dist.get(nb, math.inf):
                    dist[nb] = nd
                    passc[nb] = nb if v >= d else passc[c]
                    heapq.heappush(heap, (nd, v, nb))
    raise DepthError("no path from start to the grid boundary")


DEPTH_TILE = 4   # nodes per side of the tiles the depth grid evaluates at once


class _LazyGrid:
    """psi on the nodes xs x ys (um) at axial coordinate z (m), evaluated on
    first read one tile at a time. Tiles are DEPTH_TILE nodes a side; the
    last tile along each axis also takes the remainder, so that no call
    pays the fixed cost of a psi call for a sliver of one to three nodes.

    xs must be mirror-symmetric bit for bit (_mirror_axis_um). When the
    field's mirror group holds x -> -x (x in rf_field.image_axes), a tile's
    call also evaluates the x-mirror nodes (index len(xs) - 1 - i) of its
    nodes. They have the same images, so they come at no extra kernel work,
    and the mirror tile is then read without a call. Only nodes not yet
    evaluated are evaluated. A paired 4 x 4 tile on z = 0 is at most 32
    images, one kernel block on the built-in meshes, so it runs inline on
    the calling thread: with 8 x 8 tiles the flood evaluated 1.4 to 1.7
    times the images, and the thread pool did not make up for it on two
    CPUs. A node's value is that of a dense psi call over the whole grid,
    bitwise, because psi of a point does not depend on the batch it is
    evaluated in."""

    ndim = 2

    def __init__(self, pseudo: PseudoField, xs, ys, z):
        self.pseudo, self.xs, self.ys, self.z = pseudo, xs, ys, z
        self.shape = (len(xs), len(ys))
        self.values = np.empty(self.shape)
        self.evaluated = np.zeros(self.shape, bool)
        self.tiles = [max(n // DEPTH_TILE, 1) for n in self.shape]
        self.paired = 0 in getattr(pseudo.rf_field, "image_axes", ())
        self.points = 0

    def __getitem__(self, cell):
        if not self.evaluated[cell]:
            t = (min(c // DEPTH_TILE, k - 1) for c, k in zip(cell, self.tiles))
            sl = tuple(slice(i * DEPTH_TILE, None if i == k - 1 else (i + 1) * DEPTH_TILE)
                       for i, k in zip(t, self.tiles))
            todo = np.zeros(self.shape, bool)
            todo[sl] = ~self.evaluated[sl]
            if self.paired:
                todo = (todo | todo[::-1]) & ~self.evaluated
            i, j = np.nonzero(todo)
            pts = np.column_stack([self.xs[i] * 1e-6, self.ys[j] * 1e-6,
                                   np.full(i.size, self.z)])
            self.values[i, j] = self.pseudo.psi(pts)
            self.evaluated[i, j] = True
            self.points += i.size
        return self.values[cell]


@dataclass
class DepthResult:
    depth_J: float
    saddle: np.ndarray | None       # meters, None when boundary limited
    escape_direction: np.ndarray | None
    boundary_limited: bool
    polished: bool
    grid_level_J: float
    grid_points: int                # nodes evaluated, mirror nodes included
    grid_cells: int                 # nodes of the depth box
    hessian_eigs: np.ndarray | None = None

    @property
    def depth_meV(self) -> float:
        return self.depth_J / ECHARGE * 1e3


def _depth_axes_um(null: NullResult, top_um: float | None):
    """(xs, ys, res_um): the depth box of a null under a top plane at top_um
    (None for none). x spans +/-300 um, y from 2 um to d + 300 um or 2 um
    below the top plane, whichever is lower, in steps of span / 12 held
    within [2, 8] um."""
    y_hi = null.position[1] * 1e6 + 300.0
    if top_um is not None:
        y_hi = min(top_um - 2.0, y_hi)
    res_um = max(2.0, min(8.0, (y_hi - 2.0) / 12.0))
    return _mirror_axis_um(300.0, res_um), _grid_axis_um(2.0, y_hi, res_um), res_um


def trap_depth(pseudo: PseudoField, null: NullResult,
               top_um: float | None = None) -> DepthResult:
    """Trap depth by flood fill over the radial plane through the null.

    The grid is the box of _depth_axes_um at the null's axial coordinate
    (the rf field of these linear traps is axially uniform near the trap
    center, so escape is radial). The grid only locates the pass; the depth
    value comes from an in-plane Newton polish of the saddle (grad psi = 0),
    so the resolution adapts to the box height rather than chasing grid
    accuracy. psi is evaluated only on the grid tiles the flood fill
    reaches (see _LazyGrid), which gives the same result as the whole grid.
    """
    p0 = null.position
    xs, ys, res_um = _depth_axes_um(null, top_um)
    z0 = p0[2]
    vals = _LazyGrid(pseudo, xs, ys, z0)

    i0 = int(np.argmin(np.abs(xs - p0[0] * 1e6)))
    j0 = int(np.argmin(np.abs(ys - p0[1] * 1e6)))
    level, cell, on_bnd = flood_fill_escape(vals, (i0, j0))
    grid_level = float(level)
    counts = dict(grid_points=vals.points, grid_cells=xs.size * ys.size)

    if on_bnd:
        return DepthResult(depth_J=grid_level - null.psi_J, saddle=None,
                           escape_direction=None, boundary_limited=True,
                           polished=False, grid_level_J=grid_level, **counts)

    def step(xy):
        g, H = pseudo.grad_hessian(np.append(xy, z0)[None, :])
        return np.linalg.solve(H[0][:2, :2], -g[0][:2])

    xy, polished, _ = _newton(step, np.array([xs[cell[0]], ys[cell[1]]]) * 1e-6,
                              2.0 * res_um * 1e-6)
    p = np.append(xy, z0)
    level, direction, eigs = grid_level, None, None
    if polished:
        # classify with the in-plane Hessian: the axial curvature of these
        # translationally uniform traps is ~0 and its sign is numeric noise
        eigs, vecs = np.linalg.eigh(pseudo.hessian(p[None, :])[0][:2, :2])
        neg = eigs < -1e-3 * np.abs(eigs).max()
        direction = np.append(vecs[:, int(np.argmin(eigs))], 0.0)
        saddle_val = float(pseudo.psi(p[None, :])[0])
        # a polish that wandered off the pass falls back to the grid level
        polished = bool(neg.sum() == 1 and saddle_val >= null.psi_J)
        if polished:
            level = saddle_val
    return DepthResult(depth_J=level - null.psi_J, saddle=p,
                       escape_direction=direction, boundary_limited=False,
                       polished=polished, grid_level_J=grid_level,
                       hessian_eigs=eigs, **counts)


def _grid_axis_um(lo, hi, res):
    """About res-spaced samples from lo to hi, ends kept; InvalidInputError,
    before any allocation, for more than MAP_POINT_BUDGET."""
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        n = np.round(np.linalg.norm(np.subtract(hi, lo)) / res) + 1.0
    if not n <= MAP_POINT_BUDGET:  # NaN fails too
        raise InvalidInputError(
            f"sampling {lo} to {hi} um every {res:g} um takes {n:.4g} points, "
            f"more than the {MAP_POINT_BUDGET} a scan may hold")
    return np.linspace(lo, hi, max(2, int(n)))


def _mirror_axis_um(half, res):
    """_grid_axis_um from -half to half, made mirror-symmetric bit for bit
    (x[n - 1 - i] == -x[i]); a linspace that already is stays unchanged."""
    a = _grid_axis_um(-half, half, res)
    return 0.5 * (a - a[::-1])


# -- full report ---------------------------------------------------------------


@dataclass
class TrapReport:
    design: str
    geometry_signature: str
    h_um: float | None
    species: str
    voltage_V: float
    freq_MHz: float
    d_um: float
    k_x: float
    k_y: float
    k: float
    fit_std_err: float
    D_meV: float
    depth_boundary_limited: bool
    depth_grid_points: int        # DepthResult.grid_points, grid_cells, polished
    depth_grid_cells: int
    depth_polished: bool
    omega_sim_MHz: float          # secular frequency at the simulation drive
    q_sim: float
    omega_target_MHz: float
    q_operating: float
    q_clamped: bool
    V_req_V: float                # drive realizing the target at q_operating
    Omega_req_MHz: float
    omega_max_MHz: float
    heating_norm: float
    power_norm: float
    rf_capacitance_fF: float
    eq_vs_hessian_rel: float
    null_grad_norm: float
    solver_cond: float
    solver_residual_V: float
    n_panels: int
    # the points the rf field was evaluated at, their distinct mirror images
    # and the rep corners each image reads: a copy of ChargeWeights.evaluations
    field_evaluations: dict

    CSV_HEADER = "geometry,d_um,k,q,omega_MHz,V_kV,Omega_MHz,P_norm"

    def csv_row(self) -> str:
        cells = [
            self.design,
            f"{self.d_um:.3f}",
            f"{self.k:.4f}",
            f"{self.q_operating:.4f}",
            f"{self.omega_target_MHz:.4f}",
            f"{self.V_req_V / 1e3:.4f}",
            f"{self.Omega_req_MHz:.3f}",
            f"{self.power_norm:.4e}",
        ]
        return ",".join(cells)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def full_report(solved, species: IonSpecies = CA40,
                drive: DriveParams = DEFAULT_DRIVE,
                target_omega: float = DEFAULT_TARGET_OMEGA,
                reference: "TrapReport | None" = None) -> TrapReport:
    """All figures of merit of a solved trap at one drive.

    reference supplies the trap against which heating_norm (matched drive)
    and power_norm (drive required for the same target frequency) are
    normalized; without one both come out 1.0 against the trap itself.
    """
    if reference is not None and (
            reference.voltage_V != drive.voltage
            or abs(reference.freq_MHz - drive.freq_MHz) > 1e-9):
        raise ValueError("reference report was computed at a different "
                         "drive; heating comparison needs matched drives")
    geom = solved.geometry
    top = geom.top_um
    rf = solved.charge_weights()
    pseudo = PseudoField(rf, species, drive)

    # the null sits on x = z = 0 between the bottom wafer and any top plane
    null = find_rf_null(pseudo, (0.0, 5.0, 0.0),
                        (0.0, 300.0 if top is None else top - 5.0, 0.0))
    d_m = null.position[1]

    harm = fit_harmonicity(rf, null.position, d_m, radial_axes(geom))
    k = harm.k
    depth = trap_depth(pseudo, null, top)

    omega_sim = radial_frequency(drive.voltage, k, d_m, species, drive.omega_rf)
    q_sim = stability_q(drive.voltage, k, d_m, species, drive.omega_rf)

    # secular frequency via the pseudopotential Hessian along the fit axis
    e = np.asarray(harm.fits[harm.scalar_axis].axis)
    H = pseudo.hessian(null.position[None, :])[0]
    curv = float(e @ H @ e)
    omega_hess = math.sqrt(max(curv, 0.0) / species.mass)
    eq_dev = abs(omega_sim - omega_hess) / omega_hess if omega_hess > 0 else math.inf

    op = operating_q(k)
    v_req, omega_req = drive_for_target(op.q, target_omega, d_m, k, species)
    omega_max = max_frequency(k, d_m, species, drive.voltage)

    heat = power = 1.0
    if reference is not None:
        heat = heating_norm(omega_sim, d_m,
                            reference.omega_sim_MHz * 2e6 * math.pi,
                            reference.d_um * 1e-6)
        power = power_norm(v_req, omega_req, reference.V_req_V,
                           reference.Omega_req_MHz * 2e6 * math.pi)

    return TrapReport(
        design=geom.design,
        geometry_signature=geom.signature(),
        h_um=top,
        species=species.name,
        voltage_V=drive.voltage,
        freq_MHz=drive.freq_MHz,
        d_um=null.height_um,
        k_x=harm.k_x,
        k_y=harm.k_y,
        k=k,
        fit_std_err=harm.fits[harm.scalar_axis].std_err,
        D_meV=depth.depth_meV,
        depth_boundary_limited=depth.boundary_limited,
        depth_grid_points=depth.grid_points,
        depth_grid_cells=depth.grid_cells,
        depth_polished=depth.polished,
        omega_sim_MHz=omega_sim / (2e6 * math.pi),
        q_sim=q_sim,
        omega_target_MHz=target_omega / (2e6 * math.pi),
        q_operating=op.q,
        q_clamped=op.clamped,
        V_req_V=v_req,
        Omega_req_MHz=omega_req / (2e6 * math.pi),
        omega_max_MHz=omega_max / (2e6 * math.pi),
        heating_norm=heat,
        power_norm=power,
        rf_capacitance_fF=solved.rf_capacitance() * 1e15,
        eq_vs_hessian_rel=eq_dev,
        null_grad_norm=null.grad_norm,
        solver_cond=solved.cond_estimate,
        solver_residual_V=solved.residual,
        n_panels=geom.n_panels,
        field_evaluations=dict(rf.evaluations),
    )
