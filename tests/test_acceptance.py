"""Release acceptance criteria.

One test per criterion, each ending in a single printed PASS line with the
measured values (visible with `pytest -rA` or `-s`; the pytest verdict line
itself is the pass/fail record). Tolerances are pinned in the asserts.

Criteria that solve traps share the session solver cache, so a warm run
takes seconds; a cold run performs every boundary-element solve once.
"""

import math

import numpy as np
import pytest
import scipy.ndimage

from iontrap import (
    CA40,
    DriveParams,
    PseudoField,
    QuadrupoleField,
    bem,
    build_default,
    drive_for_target,
    find_rf_null,
    fit_harmonicity,
    flood_fill_escape,
    full_report,
    max_frequency,
    power_norm,
    radial_frequency,
    solve_unit_excitations,
)
from iontrap.geometry import (
    Box3,
    Electrode,
    MeshParams,
    Rect,
    TrapGeometry,
    build_cross_rf_trap,
    build_gnd_surface_trap,
)
from iontrap.merit import PLANAR_AXES

TARGET = 2 * math.pi * 10e6  # 10 MHz secular target, rad/s


@pytest.fixture(scope="module")
def surface_report(surface_solved):
    return full_report(surface_solved)


@pytest.fixture(scope="module")
def cross200_report(cross_solved_200):
    return full_report(cross_solved_200)


def test_criterion_1_drive_frequency_for_operating_q():
    """Drive frequencies realizing a 10 MHz target at three operating points."""
    operating_points = [(0.250, 110.0), (0.333, 85.0), (0.905, 31.0)]
    got = []
    for q, mhz_ref in operating_points:
        _, omega_rf = drive_for_target(q, TARGET, 90e-6, 0.21, CA40)
        mhz = omega_rf / (2e6 * math.pi)
        got.append(mhz)
        assert mhz == pytest.approx(mhz_ref, rel=0.03)
    print(f"PASS criterion 1: Omega/2pi = {got[0]:.1f}/{got[1]:.1f}/{got[2]:.1f} MHz "
          f"vs 110/85/31 (tol 3%)")


def test_criterion_2_relative_drive_power():
    """Power norms of the three designs' drive pairs vs the reference column."""
    omega = {q: 2.0 * math.sqrt(2.0) * TARGET / q for q in (0.250, 0.333, 0.905)}
    p_gnd = power_norm(4.0e3, omega[0.333], 15.0e3, omega[0.250])
    p_cross = power_norm(0.42e3, omega[0.905], 15.0e3, omega[0.250])
    assert p_gnd == pytest.approx(4.0e-2, rel=0.05)
    assert p_cross == pytest.approx(6.1e-5, rel=0.05)
    print(f"PASS criterion 2: P_norm = {p_gnd:.3e}, {p_cross:.3e} "
          f"vs 4.0e-2, 6.1e-5 (tol 5%)")


def test_criterion_3_surface_maximum_frequency():
    """Depth-limited maximum secular frequency of the surface trap at 10 V."""
    w = max_frequency(0.210, 90e-6, CA40, 10.0)
    mhz = w / (2e6 * math.pi)
    assert mhz == pytest.approx(1.00, rel=0.02)
    print(f"PASS criterion 3: f_max = {mhz:.4f} MHz vs 1.00 MHz (tol 2%)")


def test_criterion_4_cross_rf_null_at_half_separation(cache_dir):
    """The crossed-rail design traps exactly midway between the wafers.

    Rails are narrowed to 70 um so they fit at every separation down to
    h = 80 um; the midpoint symmetry is independent of rail width.
    """
    drive = DriveParams.from_mhz(10.0, 20.0)
    worst = 0.0
    hs = (80.0, 130.0, 190.0, 250.0, 300.0)
    for h in hs:
        geom = build_cross_rf_trap(h_um=h, rf_width_um=70.0)
        solved = solve_unit_excitations(geom, cache_dir=cache_dir)
        pseudo = PseudoField(solved.charge_weights(), species=CA40, drive=drive)
        null = find_rf_null(pseudo, (0.0, 5.0, 0.0), (0.0, h - 5.0, 0.0))
        assert null.converged
        dev = abs(null.height_um - h / 2.0)
        worst = max(worst, dev)
        assert dev < 1.0
    print(f"PASS criterion 4: max |d - h/2| = {worst:.2e} um over h = {hs} "
          f"(tol 1 um)")


def test_criterion_5_calibrated_surface_trap(surface_report):
    """Ion height, harmonicity, and fit quality of the default surface trap."""
    rep = surface_report
    assert rep.d_um == pytest.approx(90.0, abs=2.0)
    assert rep.k_y == pytest.approx(0.210, abs=0.02)
    assert rep.fit_std_err < 0.001
    print(f"PASS criterion 5: d = {rep.d_um:.3f} um (90 +/- 2), "
          f"k_y = {rep.k_y:.4f} (0.210 +/- 0.02), "
          f"std err = {rep.fit_std_err:.2e} (< 1e-3)")


def test_criterion_6_design_trends(surface_report, cross200_report, cache_dir):
    """Cross-design orderings and limiting behavior.

    - at h = 200 um, harmonicity k, depth D, and the depth-limited maximum
      frequency are each ordered surface < gnd-surface < cross-rf;
    - with the top plane retreating to h ~ 10x the five-wire pattern width,
      the gnd-surface trap recovers the surface-trap ion height;
    - the gnd-surface maximum frequency peaks at an interior separation.
    """
    hs = (80.0, 105.0, 130.0, 200.0, 300.0)
    gnd = {}
    for h in hs:
        solved = solve_unit_excitations(build_default("gnd-surface", h_um=h),
                                        cache_dir=cache_dir)
        gnd[h] = full_report(solved)

    for attr in ("k", "D_meV", "omega_max_MHz"):
        s, g, c = (getattr(r, attr) for r in
                   (surface_report, gnd[200.0], cross200_report))
        assert s < g < c, f"{attr}: {s:.4g} < {g:.4g} < {c:.4g} violated"

    # top plane far away: same five-wire pattern as the surface trap
    far = build_gnd_surface_trap(h_um=2500.0, center_width_um=114.6, rf_width_um=57.7)
    far_solved = solve_unit_excitations(far, cache_dir=cache_dir)
    pseudo = PseudoField(far_solved.charge_weights(), species=CA40,
                         drive=DriveParams.from_mhz(10.0, 20.0))
    far_null = find_rf_null(pseudo, (0.0, 5.0, 0.0), (0.0, 400.0, 0.0))
    d_dev = abs(far_null.height_um - surface_report.d_um)
    assert d_dev < 2.0

    om = [gnd[h].omega_max_MHz for h in hs]
    peak = int(np.argmax(om))
    assert 0 < peak < len(hs) - 1, f"omega_max not interior: {om}"

    print(f"PASS criterion 6: orderings k/D/omega_max all surface < gnd < cross "
          f"at h = 200; |d_gnd(2500) - d_surface| = {d_dev:.3f} um (tol 2); "
          f"omega_max peaks at h = {hs[peak]:.0f} um interior to {hs[0]:.0f}"
          f"-{hs[-1]:.0f} (curve {['%.3f' % o for o in om]})")


def _parallel_plates(side_um=1000.0, gap_um=50.0, fine_um=60.0):
    def plate(name, role, y):
        return Electrode(name=name, role=role, rects=(
            Rect(origin=(-side_um / 2, y, -side_um / 2),
                 edge_u=(side_um, 0.0, 0.0), edge_v=(0.0, 0.0, side_um)),))
    mesh = MeshParams(coarse_um=fine_um, fine_um=fine_um,
                      fine_region=Box3(center=(0.0, gap_um / 2, 0.0),
                                       size=(side_um, gap_um + 10, side_um)))
    return TrapGeometry(design="custom", mesh=mesh,
                        electrodes=(plate("top", "rf", gap_um),
                                    plate("bottom", "ground", 0.0)))


def test_criterion_7_solver_validation(cache_dir):
    """Kernel, solve, and capacitance against independent references."""
    # far field of a unit panel vs a point charge at 100x the panel size
    origin = np.zeros(3)
    eu, ev = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    R = 100.0
    phi = bem.panel_potential(origin, eu, ev, np.array([[0.5, 0.5, R]]))[0]
    point = 1.0 / (4.0 * math.pi * 8.8541878128e-12 * R)
    far_dev = abs(phi - point) / point
    assert far_dev < 1e-3

    # analytic field vs central differences at 100 random points
    rng = np.random.default_rng(17)
    pts = rng.uniform(-2.0, 3.0, size=(100, 3))
    pts[:, 2] = np.sign(pts[:, 2] + 1e-12) * (np.abs(pts[:, 2]) + 0.4)
    E = bem.panel_field(origin, eu, ev, pts)
    h = 1e-6
    fd_dev = 0.0
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        fd = (bem.panel_potential(origin, eu, ev, pts + dp)
              - bem.panel_potential(origin, eu, ev, pts - dp)) / (2 * h)
        fd_dev = max(fd_dev, float(np.max(np.abs(E[:, i] + fd)
                                          / np.max(np.abs(E), axis=1))))
    assert fd_dev < 1e-6

    # collocation residual and close-gap capacitance of a plate pair
    solved = solve_unit_excitations(_parallel_plates(), cache_dir=cache_dir)
    assert solved.residual_max < 1e-8
    names, C = solved.capacitance_matrix()
    c_m = -C[names.index("top"), names.index("bottom")]
    ideal = 8.8541878128e-12 * (1000e-6) ** 2 / 50e-6
    cap_dev = abs(c_m - ideal) / ideal
    assert cap_dev < 0.10

    print(f"PASS criterion 7: far-field dev {far_dev:.2e} (<1e-3); "
          f"field-vs-FD dev {fd_dev:.2e} at 100 points (<1e-6); "
          f"residual {solved.residual_max:.2e} V (<1e-8); "
          f"plate capacitance dev {cap_dev * 100:.1f}% (<10%)")


def _escape_level_by_threshold_bisection(vals, start):
    """Independent escape-level oracle.

    The minimax path level equals the smallest threshold t whose sublevel
    set {v <= t} connects start to the boundary. Sublevel sets are nested,
    so connectivity is monotone in t and bisection over the sorted unique
    values finds the exact switch point; connectivity itself comes from
    scipy's connected-component labeling, independent of the flood fill.
    """
    def connects(t):
        labels, _ = scipy.ndimage.label(vals <= t)
        s = labels[start]
        if s == 0:
            return False
        faces = [labels[0], labels[-1], labels[:, 0], labels[:, -1],
                 labels[:, :, 0], labels[:, :, -1]]
        return any((f == s).any() for f in faces)

    uniq = np.unique(vals)
    lo, hi = 0, len(uniq) - 1
    assert connects(uniq[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        if connects(uniq[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(uniq[lo])


def test_criterion_8_oracle_equivalences():
    """Flood fill, harmonicity fit, and the frequency formula vs oracles."""
    rng = np.random.default_rng(41)
    vals = rng.uniform(0.0, 1.0, size=(41, 41, 41))
    start = (20, 20, 20)
    vals[start] = -1.0
    level, _, boundary_limited = flood_fill_escape(vals, start)
    ref = _escape_level_by_threshold_bisection(vals, start)
    assert not boundary_limited
    assert level == ref  # bitwise-equal floats

    r0 = 100e-6
    drive = DriveParams.from_mhz(10.0, 20.0)
    quad = QuadrupoleField(kx=1.0, ky=-1.0, r0=r0)
    harm = fit_harmonicity(quad, np.zeros(3), r0, axes=PLANAR_AXES)
    assert harm.k_y == pytest.approx(1.000, abs=1e-3)

    pseudo = PseudoField(quad, CA40, drive)
    H = pseudo.hessian(np.zeros((1, 3)))[0]
    omega_h = math.sqrt(H[1, 1] / CA40.mass)
    omega_f = radial_frequency(drive.voltage, 1.0, r0, CA40, drive.omega_rf)
    freq_dev = abs(omega_h - omega_f) / omega_f
    assert freq_dev < 1e-6

    print(f"PASS criterion 8: flood fill == bisection oracle at level "
          f"{level:.6f} on a 41^3 grid; quadrupole k_y = {harm.k_y:.6f} "
          f"(1.000 +/- 0.001); frequency-vs-Hessian dev {freq_dev:.2e} (<1e-6)")


def test_criterion_9_heating_bands(surface_report, gnd_solved_105,
                                   cross_solved_105):
    """Normalized heating at matched drive, relative to the surface trap."""
    heat_gnd = full_report(gnd_solved_105, reference=surface_report).heating_norm
    heat_cross = full_report(cross_solved_105, reference=surface_report).heating_norm
    assert 0.25 <= heat_gnd <= 1.0
    assert 0.05 <= heat_cross <= 0.2
    print(f"PASS criterion 9: heating_norm gnd-surface = {heat_gnd:.4f} "
          f"(band 0.25-1.0), cross-rf = {heat_cross:.4f} (band 0.05-0.2)")


@pytest.mark.parametrize("design", ["gnd-surface", "cross-rf"])
def test_custom_layout_reports_the_builtin_figures(design, cache_dir):
    """A two-wafer layout saved as "design": "custom" gets the built-in's
    analysis regions and fit axes from its electrodes alone, so the same
    figures of merit."""
    builtin = build_default(design, fine_um=40.0)
    layout = builtin.to_dict()
    layout["design"] = "custom"
    custom = TrapGeometry.from_dict(layout)
    assert custom.signature() != builtin.signature()

    ref, got = (full_report(solve_unit_excitations(g, cache_dir=cache_dir))
                for g in (builtin, custom))
    assert got.design == "custom"
    assert got.h_um == ref.h_um == 200
    for attr in ("d_um", "k", "k_x", "k_y", "D_meV"):
        assert getattr(got, attr) == pytest.approx(getattr(ref, attr), rel=1e-12), attr
    print(f"PASS custom {design}: d = {got.d_um:.4f} um, k = {got.k:.5f}, "
          f"D = {got.D_meV:.3f} meV, equal to the built-in's to 1e-12")
