"""Self-contained validation suite: every check pins its expected value to a
frozen literal or an independent numerical method (finite differences,
exhaustive search, closed forms), so a regression anywhere in the solver
chain - including a corrupted physical constant - turns a check red.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bem, constants
from .geometry import Electrode, MeshParams, Rect, TrapGeometry
from .merit import (
    FIT_POINTS,
    PLANAR_AXES,
    drive_for_target,
    fit_axis_harmonicity,
    fit_harmonicity,
    flood_fill_escape,
    max_frequency,
    power_norm,
    radial_frequency,
    stability_q,
)
from .pseudo import DriveParams, PseudoField, QuadrupoleField

# frozen reference values: deliberately NOT read from constants at run time
_EPS0_REF = 8.8541878128e-12
_ECHARGE_REF = 1.602176634e-19
_CA40_MASS_REF = 39.9625909 * 1.66053906660e-27


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _unit_square():
    origin = np.zeros(3)
    eu = np.array([1.0, 0.0, 0.0])
    ev = np.array([0.0, 1.0, 0.0])
    return origin, eu, ev


def check_kernel_far_field():
    """Panel potential at 100x panel size vs frozen point-charge value."""
    origin, eu, ev = _unit_square()
    R = 100.0
    phi = bem.panel_potential(origin, eu, ev, np.array([[0.5, 0.5, R]]))[0]
    ref = 1.0 / (4.0 * math.pi * _EPS0_REF * R)
    rel = abs(phi - ref) / ref
    return rel < 1e-3, f"rel dev {rel:.2e} (limit 1e-3)"


def check_kernel_self_potential():
    """Center-of-square potential vs the closed form 4a ln(1+sqrt 2)/4 pi eps0."""
    origin, eu, ev = _unit_square()
    phi = bem.panel_potential(origin, eu, ev, np.array([[0.5, 0.5, 0.0]]))[0]
    ref = 4.0 * math.log(1.0 + math.sqrt(2.0)) / (4.0 * math.pi * _EPS0_REF)
    rel = abs(phi - ref) / ref
    return rel < 1e-9, f"rel dev {rel:.2e} (limit 1e-9)"


def check_field_is_gradient():
    """Analytic field vs central differences of the potential."""
    origin, eu, ev = _unit_square()
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 3.0, size=(20, 3))
    pts[:, 2] = np.where(np.abs(pts[:, 2]) < 0.3, 0.5, pts[:, 2])
    E = bem.panel_field(origin, eu, ev, pts)
    h = 1e-6
    worst = 0.0
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        fd = (bem.panel_potential(origin, eu, ev, pts + dp)
              - bem.panel_potential(origin, eu, ev, pts - dp)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(E[:, i] + fd)
                                        / np.max(np.abs(E), axis=1))))
    return worst < 1e-6, f"max rel dev {worst:.2e} (limit 1e-6)"


def check_jacobian_fd():
    """Analytic field Jacobian vs central differences of the field."""
    ps = bem._single(*_unit_square())
    sig = np.ones(1)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 2.0, size=(10, 3))
    pts[:, 2] = np.sign(pts[:, 2]) * (np.abs(pts[:, 2]) + 0.4)
    J = bem.jacobian_of(ps, sig, pts)
    h = 1e-6
    worst = 0.0
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        fd = (bem.field_of(ps, sig, pts + dp) - bem.field_of(ps, sig, pts - dp)) / (2 * h)
        scale = np.max(np.abs(J), axis=(1, 2))
        worst = max(worst, float(np.max(np.abs(J[:, :, i] - fd) / scale[:, None])))
    return worst < 1e-6, f"max rel dev {worst:.2e} (limit 1e-6)"


def check_laplace_trace():
    """Trace of the field Jacobian vanishes away from sources."""
    ps = bem._single(*_unit_square())
    sig = np.ones(1)
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1.0, 2.0, size=(10, 3))
    pts[:, 2] = np.sign(pts[:, 2]) * (np.abs(pts[:, 2]) + 0.4)
    J = bem.jacobian_of(ps, sig, pts)
    tr = np.trace(J, axis1=1, axis2=2)
    scale = np.max(np.abs(J), axis=(1, 2))
    worst = float(np.max(np.abs(tr) / scale))
    return worst < 1e-9, f"max |trace|/|J| {worst:.2e} (limit 1e-9)"


def _parallel_plate_geometry(side_um=1000.0, gap_um=50.0, fine_um=60.0):
    def plate(name, role, y):
        return Electrode(name=name, role=role, rects=(
            Rect(origin=(-side_um / 2, y, -side_um / 2),
                 edge_u=(side_um, 0.0, 0.0), edge_v=(0.0, 0.0, side_um)),))
    mesh = MeshParams(coarse_um=fine_um, fine_um=fine_um)
    return TrapGeometry(design="custom", mesh=mesh, electrodes=(
        plate("top", "rf", gap_um), plate("bottom", "ground", 0.0)))


def check_bem_residual():
    """Boundary residual of a parallel-plate solve below 1e-8 V, from the
    solver's own check and through bem.potential_of on every collocation
    point, so the public evaluator must agree with the assembled rows."""
    solved = bem.solve_unit_excitations(_parallel_plate_geometry())
    pset = solved.pset
    # the rf boundary vector: 1 V on the top plate, 0 V on the bottom one
    boundary = pset.electrode_idx == solved.geometry.electrode_index("top")
    public = float(np.abs(bem.potential_of(pset, solved.sigma, pset.centers) - boundary).max())
    r = max(solved.residual, public)
    return r < 1e-8, f"max residual {r:.2e} V (limit 1e-8)"


def check_parallel_plate_capacitance():
    """Close-gap mutual capacitance vs frozen eps0*A/g.

    Fringing fields of a finite zero-thickness plate pair at gap/side = 0.05
    add about 10% over the ideal-plate value, and can only add, so the check
    requires C slightly above the formula but within a 15% band. A wrong
    force constant or unit slip would scale C far outside the band.
    """
    side, gap = 1000.0, 50.0
    solved = bem.solve_unit_excitations(_parallel_plate_geometry(side, gap))
    # by reciprocity C_top,bottom = C_bottom,top: minus the charge induced
    # on the grounded plate with the rf plate at 1 V
    c_m = -solved.charge("bottom")
    ref = _EPS0_REF * (side * 1e-6) ** 2 / (gap * 1e-6)
    rel = abs(c_m - ref) / ref
    ok = c_m > ref and rel < 0.15
    return ok, (f"C_mutual={c_m*1e12:.4f} pF vs plate formula {ref*1e12:.4f} pF, "
                f"fringing excess {rel*100:.1f}% (band 0-15%)")


def _quadrupole(k=1.0, r0=100e-6):
    return QuadrupoleField(kx=k, ky=-k, r0=r0)


def check_quadrupole_harmonicity():
    """Quadratic fit on an exact quadrupole returns k = 1.000 +/- 0.001."""
    r0 = 100e-6
    res = fit_harmonicity(_quadrupole(1.0, r0), np.zeros(3), r0, axes=PLANAR_AXES)
    dev = abs(res.k_y - 1.0)
    return dev < 1e-3, f"fitted k_y = {res.k_y:.6f} (|dev| limit 1e-3)"


class _QuarticAxisField:
    """Potential a2 y^2 + a4 y^4 per volt along y."""

    def __init__(self, a2, a4):
        self.a2, self.a4 = a2, a4

    def potential(self, points):
        y = np.atleast_2d(points)[:, 1]
        return self.a2 * y * y + self.a4 * y**4


def check_quartic_projection():
    """Quadratic fit of a2 s^2 + a4 s^4 vs its closed-form moment projection.

    Least squares of 1, s, s^2 on equispaced samples projects the quartic
    onto c2 = a2 + a4 (m6 - m2 m4) / (m4 - m2^2), m_k = mean(s^k), so an
    interpolation of the axis potential that is not exact for polynomials
    turns this check red.
    """
    r0, a2, a4 = 100e-6, 1e7, 5e14
    fit = fit_axis_harmonicity(_QuarticAxisField(a2, a4), np.zeros(3), r0, (0.0, 1.0, 0.0))
    s = np.linspace(-0.2 * r0, 0.2 * r0, FIT_POINTS)
    m2, m4, m6 = (np.mean(s**k) for k in (2, 4, 6))
    ref = a2 + a4 * (m6 - m2 * m4) / (m4 - m2 * m2)
    rel = abs(fit.k_signed / (2.0 * r0 * r0) - ref) / ref
    return rel < 1e-9, f"c2 rel dev {rel:.2e} (limit 1e-9)"


def check_frequency_hessian_identity():
    """Radial frequency formula vs pseudopotential Hessian on a quadrupole."""
    r0 = 100e-6
    drive = DriveParams.from_mhz(10.0, 20.0)
    species = constants.CA40
    pseudo = PseudoField(_quadrupole(1.0, r0), species, drive)
    H = pseudo.hessian(np.zeros((1, 3)))[0]
    omega_h = math.sqrt(H[1, 1] / species.mass)
    omega_f = radial_frequency(drive.voltage, 1.0, r0, species, drive.omega_rf)
    rel = abs(omega_h - omega_f) / omega_f
    return rel < 1e-6, f"rel dev {rel:.2e} (limit 1e-6)"


def check_q_identity():
    """q = 2 sqrt(2) omega / Omega as an exact identity of the formulas."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        v = rng.uniform(1.0, 500.0)
        k = rng.uniform(0.05, 1.0)
        r0 = rng.uniform(20e-6, 500e-6)
        om = rng.uniform(2e7, 2e9)
        w = radial_frequency(v, k, r0, constants.CA40, om)
        q = stability_q(v, k, r0, constants.CA40, om)
        worst = max(worst, abs(q - 2.0 * math.sqrt(2.0) * w / om) / q)
    return worst < 1e-12, f"max rel dev {worst:.2e} (limit 1e-12)"


def check_flood_fill_oracle():
    """Flood-fill escape level vs exhaustive threshold search on a random grid."""
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.0, 1.0, size=(9, 9, 9))
    start = (4, 4, 4)
    vals[start] = -1.0
    level, _, _ = flood_fill_escape(vals, start)
    ref = _escape_level_oracle(vals, start)
    ok = level == ref
    return ok, f"flood fill {level:.6f} vs oracle {ref:.6f} ({'equal' if ok else 'DIFFER'})"


def _escape_level_oracle(vals, start):
    """Exhaustive: smallest threshold whose sublevel set connects start to the
    boundary, by breadth-first search per candidate threshold."""
    import collections
    for t in np.unique(vals):
        if t < vals[start]:
            continue
        seen = {start}
        queue = collections.deque([start])
        while queue:
            c = queue.popleft()
            if any(c[ax] in (0, vals.shape[ax] - 1) for ax in range(vals.ndim)):
                return float(t)
            for ax in range(vals.ndim):
                for d in (-1, 1):
                    nb = list(c)
                    nb[ax] += d
                    nb = tuple(nb)
                    if (0 <= nb[ax] < vals.shape[ax] and nb not in seen
                            and vals[nb] <= t):
                        seen.add(nb)
                        queue.append(nb)
    raise RuntimeError("oracle found no escape")


def check_table_drive_frequencies():
    """Drive frequencies for the three operating q at a 10 MHz target."""
    targets = [(0.250, 110.0), (0.333, 85.0), (0.905, 31.0)]
    worst = 0.0
    vals = []
    for q, mhz_ref in targets:
        _, omega_rf = drive_for_target(q, 2 * math.pi * 10e6, 90e-6, 0.21,
                                       constants.CA40)
        mhz = omega_rf / (2e6 * math.pi)
        vals.append(f"{mhz:.1f}")
        worst = max(worst, abs(mhz - mhz_ref) / mhz_ref)
    return worst < 0.03, f"Omega/2pi = {'/'.join(vals)} MHz vs 110/85/31 (max dev {worst*100:.2f}%, limit 3%)"


def check_table_power_norms():
    """Power norms of the three reference drive pairs vs frozen values."""
    # reference amplitudes (kV) with drive frequencies from the q identity
    omega = {q: 2.0 * math.sqrt(2.0) * 2 * math.pi * 10e6 / q
             for q in (0.250, 0.333, 0.905)}
    p_gnd = power_norm(4.0e3, omega[0.333], 15.0e3, omega[0.250])
    p_cross = power_norm(0.42e3, omega[0.905], 15.0e3, omega[0.250])
    dev1 = abs(p_gnd - 4.0e-2) / 4.0e-2
    dev2 = abs(p_cross - 6.1e-5) / 6.1e-5
    ok = dev1 < 0.05 and dev2 < 0.05
    return ok, f"P=({p_gnd:.3e}, {p_cross:.3e}) vs (4.0e-2, 6.1e-5), devs ({dev1*100:.1f}%, {dev2*100:.1f}%) limit 5%"


def check_max_frequency_surface():
    """Surface-trap maximum frequency at 10 V vs the frozen 1.00 MHz."""
    w = max_frequency(0.210, 90e-6, constants.CA40, 10.0)
    mhz = w / (2e6 * math.pi)
    rel = abs(mhz - 1.00) / 1.00
    return rel < 0.02, f"f_max = {mhz:.4f} MHz vs 1.00 MHz (dev {rel*100:.2f}%, limit 2%)"


def check_pseudo_scaling():
    """psi scales as V^2 and 1/Omega^2."""
    r0 = 100e-6
    pts = np.array([[20e-6, 5e-6, 0.0]])
    base = PseudoField(_quadrupole(1.0, r0), constants.CA40,
                       DriveParams.from_mhz(10.0, 20.0)).psi(pts)[0]
    v2 = PseudoField(_quadrupole(1.0, r0), constants.CA40,
                     DriveParams.from_mhz(20.0, 20.0)).psi(pts)[0]
    o2 = PseudoField(_quadrupole(1.0, r0), constants.CA40,
                     DriveParams.from_mhz(10.0, 40.0)).psi(pts)[0]
    dev = max(abs(v2 / base - 4.0), abs(o2 / base - 0.25))
    return dev < 1e-12, f"max dev from (x4, x0.25) = {dev:.2e} (limit 1e-12)"


def check_species_constants():
    """Bundled ion species masses against frozen CODATA-derived values."""
    ca = constants.get_species("Ca40")
    dev = abs(ca.mass - _CA40_MASS_REF) / _CA40_MASS_REF
    dev_e = abs(ca.charge - _ECHARGE_REF) / _ECHARGE_REF
    ok = dev < 1e-9 and dev_e < 1e-12 and len(constants.SPECIES) >= 6
    return ok, f"Ca40 mass dev {dev:.1e}, charge dev {dev_e:.1e}, {len(constants.SPECIES)} species"


CHECKS = [
    ("kernel-far-field", check_kernel_far_field),
    ("kernel-self-potential", check_kernel_self_potential),
    ("field-is-gradient", check_field_is_gradient),
    ("jacobian-finite-difference", check_jacobian_fd),
    ("laplace-trace", check_laplace_trace),
    ("bem-boundary-residual", check_bem_residual),
    ("parallel-plate-capacitance", check_parallel_plate_capacitance),
    ("quadrupole-harmonicity", check_quadrupole_harmonicity),
    ("harmonicity-quartic-projection", check_quartic_projection),
    ("frequency-hessian-identity", check_frequency_hessian_identity),
    ("q-omega-identity", check_q_identity),
    ("flood-fill-oracle", check_flood_fill_oracle),
    ("drive-frequency-table", check_table_drive_frequencies),
    ("power-norm-table", check_table_power_norms),
    ("max-frequency-surface", check_max_frequency_surface),
    ("pseudopotential-scaling", check_pseudo_scaling),
    ("species-constants", check_species_constants),
]


def run_validation(checks=CHECKS) -> list[CheckResult]:
    results = []
    for name, fn in checks:
        t0 = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail, time.time() - t0))
    return results


def format_scoreboard(results: list[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.detail}  [{r.seconds:.2f}s]")
    n_ok = sum(r.passed for r in results)
    lines.append(f"{n_ok}/{len(results)} checks passed")
    return "\n".join(lines)
