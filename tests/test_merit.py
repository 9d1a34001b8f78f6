"""Figures of merit: operating-point formulas, null finding, harmonicity
fits, flood-fill trap depth.

Oracles used here: closed-form quadrupole and quadrupole+hexapole fields
(null, curvature, and saddle positions known analytically), the continuous
least-squares limit for a quartic-contaminated harmonicity fit, and an
exhaustive threshold-sweep escape search for the flood fill.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iontrap import (
    CA40,
    DriveParams,
    Electrode,
    FitAxes,
    FitError,
    InvalidInputError,
    MeshParams,
    NullAmbiguityError,
    NullNotFoundError,
    NullResult,
    PseudoField,
    QuadrupoleField,
    Rect,
    TrapGeometry,
    build_default,
    drive_for_target,
    find_rf_null,
    fit_axis_harmonicity,
    fit_harmonicity,
    flood_fill_escape,
    full_report,
    get_species,
    heating_norm,
    max_frequency,
    operating_q,
    power_norm,
    radial_axes,
    radial_frequency,
    stability_q,
    trap_depth,
)
from iontrap import bem, merit, pseudo
from iontrap.merit import (FIT_CHEB_NODES, PLANAR_AXES, _depth_axes_um, _grid_axis_um,
                           _mirror_axis_um)

DRIVE = DriveParams.from_mhz(10.0, 20.0)


# -- analytic operating-point formulas ----------------------------------------


def test_frequency_q_identity_spot():
    omega = radial_frequency(10.0, 0.21, 90e-6, CA40, 2 * math.pi * 20e6)
    q = stability_q(10.0, 0.21, 90e-6, CA40, 2 * math.pi * 20e6)
    assert omega == pytest.approx(q * 2 * math.pi * 20e6 / (2 * math.sqrt(2)),
                                  rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(
    voltage=st.floats(1e-2, 1e5),
    k=st.floats(1e-3, 2.0),
    r0=st.floats(1e-6, 1e-3),
    f_rf=st.floats(1e5, 1e10),
    species=st.sampled_from(["Be9", "Mg24", "Ca40", "Sr88", "Ba138", "Yb171"]),
)
def test_frequency_q_identity_property(voltage, k, r0, f_rf, species):
    # omega = q Omega / (2 sqrt(2)) must hold identically
    ion = get_species(species)
    omega_rf = 2 * math.pi * f_rf
    omega = radial_frequency(voltage, k, r0, ion, omega_rf)
    q = stability_q(voltage, k, r0, ion, omega_rf)
    assert omega == pytest.approx(q * omega_rf / (2 * math.sqrt(2)), rel=1e-12)


def test_operating_q_scales_linearly_from_baseline():
    assert operating_q(0.210).q == pytest.approx(0.250, rel=1e-15)
    assert operating_q(0.210).clamped is False
    assert operating_q(0.420).q == pytest.approx(0.500, rel=1e-15)
    assert operating_q(0.105).q == pytest.approx(0.125, rel=1e-15)


def test_operating_q_clamps_at_one():
    op = operating_q(1.0)  # 0.25 * 1.0 / 0.21 = 1.19 -> clamp
    assert op.q == 1.0
    assert op.clamped is True


def test_max_frequency_frozen_surface_point():
    f = max_frequency(0.210, 90e-6, CA40, 10.0) / (2 * math.pi)
    assert f == pytest.approx(995476.7191757085, rel=1e-9)


def test_max_frequency_consistent_with_q_and_omega():
    # at the operating q the drive that realizes omega_max satisfies both
    # the q definition and the frequency formula
    k, r0, v = 0.35, 70e-6, 12.0
    q = operating_q(k).q
    w_max = max_frequency(k, r0, CA40, v)
    omega_rf = 2 * math.sqrt(2) * w_max / q
    assert stability_q(v, k, r0, CA40, omega_rf) == pytest.approx(q, rel=1e-12)
    assert radial_frequency(v, k, r0, CA40, omega_rf) == pytest.approx(
        w_max, rel=1e-12)


def test_drive_for_target_round_trip():
    k, r0, q = 0.28, 46e-6, 1.0 / 3.0
    target = 2 * math.pi * 10e6
    v, omega_rf = drive_for_target(q, target, r0, k, CA40)
    assert stability_q(v, k, r0, CA40, omega_rf) == pytest.approx(q, rel=1e-12)
    assert radial_frequency(v, k, r0, CA40, omega_rf) == pytest.approx(
        target, rel=1e-12)


def test_drive_for_target_rejects_bad_q():
    for q in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            drive_for_target(q, 2 * math.pi * 1e6, 90e-6, 0.21, CA40)


@pytest.mark.parametrize("target_MHz", [1e300, 1e-300])
def test_drive_for_target_rejects_a_drive_out_of_range(target_MHz):
    # the voltage overflows to inf or underflows to zero
    with pytest.raises(InvalidInputError, match="out of floating-point range"):
        drive_for_target(0.25, 2e6 * math.pi * target_MHz, 90e-6, 0.21, CA40)


def test_norms_are_one_for_self_reference():
    assert heating_norm(2.0, 5.0, 2.0, 5.0) == 1.0
    assert power_norm(3.0, 7.0, 3.0, 7.0) == 1.0


def test_norm_scalings():
    # heating ~ (omega_ref/omega)^2 (d_ref/d)^4
    assert heating_norm(2.0, 1.0, 1.0, 1.0) == pytest.approx(0.25)
    assert heating_norm(1.0, 2.0, 1.0, 1.0) == pytest.approx(1.0 / 16.0)
    # power ~ V^2 Omega^2
    assert power_norm(2.0, 3.0, 1.0, 1.0) == pytest.approx(36.0)


# -- null finding --------------------------------------------------------------


def _offset_quad(center=(5e-6, 80e-6, 0.0)):
    return PseudoField(QuadrupoleField(kx=1.0, ky=-1.0, r0=100e-6,
                                       center=center),
                       species=CA40, drive=DRIVE)


def test_find_rf_null_exact_on_quadrupole():
    ps = _offset_quad()
    res = find_rf_null(ps, (-20.0, 40.0, 0.0), (30.0, 140.0, 0.0))
    assert res.converged
    np.testing.assert_allclose(res.position, [5e-6, 80e-6, 0.0], atol=1e-12)
    assert res.height_um == pytest.approx(80.0, abs=1e-6)
    assert res.psi_J == pytest.approx(0.0, abs=1e-30)
    assert res.grad_norm == pytest.approx(0.0, abs=1e-18)


def test_the_null_stays_on_the_mirror_plane_of_the_rf_charge(cross_solved_200):
    # the cross-rf rf charge keeps z -> -z but not x -> -x: the search
    # segment is on z = 0, the Newton step leaves z there, and the depth grid laid
    # at the null's z has two distinct images per point, not four
    rf = cross_solved_200.charge_weights()
    # elements identity, x, z, x & z: z keeps each element's weight column
    assert rf.column == [0, 1, 0, 1]
    null = find_rf_null(PseudoField(rf, species=CA40, drive=DRIVE),
                        (0.0, 5.0, 0.0), (0.0, 195.0, 0.0))
    assert null.converged and null.position[2] == 0.0
    assert null.height_um == pytest.approx(100.0, abs=1e-6)
    seen = full_report(cross_solved_200).field_evaluations
    # at most 16 points, the Hessian's z steps, leave z = 0
    assert seen["images"] <= 2 * seen["points"] + 2 * 16


def test_the_null_search_of_a_far_lid_costs_few_field_points(cache_dir):
    # pieces are halved only where psi needs them, so the cost of the 5 um
    # to top - 5 um segment grows slowly with the lid height: a 1 um scan
    # took 2501 field points at h = 2500 um
    def search(h_um):
        solved = bem.solve_unit_excitations(build_default("gnd-surface", h_um=h_um),
                                            cache_dir=cache_dir)
        rf = solved.charge_weights()
        null = find_rf_null(PseudoField(rf, species=CA40, drive=DRIVE),
                            (0.0, 5.0, 0.0), (0.0, h_um - 5.0, 0.0))
        return null, rf.evaluations["points"]

    null, points = search(2500.0)
    assert null.converged and points <= 400
    assert null.height_um == pytest.approx(99.834755397, rel=1e-9)
    # the scan's polish failed at h = 1e4 um; d there has no oracle yet
    assert search(1e4)[0].converged


def test_a_grid_axis_over_the_point_budget_is_refused():
    # the depth grid's axes are held to the map's point budget
    budget = pseudo.MAP_POINT_BUDGET
    assert _grid_axis_um(0.0, budget - 1.0, 1.0).size == budget
    with pytest.raises(InvalidInputError, match="takes 1.049e\\+06 points"):
        _grid_axis_um(0.0, float(budget), 1.0)


def test_the_null_search_leaves_no_reference_cycle_to_the_field():
    # a cycle would keep each solved trap alive until the cyclic collector
    # ran: a benchmark loop of warm reports grew 24 MB in 90 reports
    ps = _offset_quad()
    alive = weakref.ref(ps)
    gc.disable()
    try:
        find_rf_null(ps, (-20.0, 40.0, 0.0), (30.0, 140.0, 0.0))
        del ps
        assert alive() is None
    finally:
        gc.enable()


def test_find_rf_null_raises_when_minimum_on_boundary():
    ps = _offset_quad(center=(0.0, 200e-6, 0.0))  # outside the region below
    with pytest.raises(NullNotFoundError, match="boundary"):
        find_rf_null(ps, (-10.0, 40.0, 0.0), (10.0, 120.0, 0.0))


class _TwoWellField:
    """|E| vanishing at exactly (0, y1, *) and (0, y2, *) (test double)."""


    def __init__(self, y1, y2, s=1e-4):
        self.y1, self.y2, self.s = y1, y2, s

    def field(self, points):
        p = np.atleast_2d(points)
        out = np.zeros_like(p)
        out[:, 0] = (p[:, 1] - self.y1) * (p[:, 1] - self.y2) / self.s**2
        out[:, 1] = p[:, 0] / self.s
        return out

    def jacobian(self, points):
        p = np.atleast_2d(points)
        J = np.zeros((p.shape[0], 3, 3))
        J[:, 0, 1] = (2 * p[:, 1] - self.y1 - self.y2) / self.s**2
        J[:, 1, 0] = 1.0 / self.s
        return J


def test_find_rf_null_raises_on_ambiguous_minima():
    ps = PseudoField(_TwoWellField(60e-6, 120e-6), species=CA40, drive=DRIVE)
    with pytest.raises(NullAmbiguityError, match="minima"):
        find_rf_null(ps, (-10.0, 30.0, 0.0), (10.0, 150.0, 0.0))
    # each well is named by a root of the interpolant's derivative, the
    # zero of the field to within 1e-9 um
    ps = PseudoField(_TwoWellField(60e-6, 125e-6), species=CA40, drive=DRIVE)
    with pytest.raises(NullAmbiguityError) as err:
        find_rf_null(ps, (0.0, 30.0, 0.0), (0.0, 150.0, 0.0))
    assert err.value.candidates == [pytest.approx((0.0, 60.0, 0.0), abs=1e-9),
                                    pytest.approx((0.0, 125.0, 0.0), abs=1e-9)]


class _FlatWellsField:
    """|E| vanishing on x = 0 for y in each of the given intervals (m)."""


    def __init__(self, *intervals, s=1e-4):
        self.intervals, self.s = intervals, s

    def _dist(self, y):
        # distance of y to each interval and its derivative
        d = [np.maximum.reduce([lo - y, 0.0 * y, y - hi]) for lo, hi in self.intervals]
        dd = [1.0 * (y > hi) - (y < lo) for lo, hi in self.intervals]
        return np.array(d) / self.s, np.array(dd) / self.s

    def field(self, points):
        p = np.atleast_2d(points)
        d, _ = self._dist(p[:, 1])
        return np.column_stack([d.prod(axis=0), p[:, 0] / self.s, 0.0 * p[:, 0]])

    def jacobian(self, points):
        p = np.atleast_2d(points)
        d, dd = self._dist(p[:, 1])
        J = np.zeros((p.shape[0], 3, 3))
        for i in range(len(d)):
            J[:, 0, 1] += dd[i] * np.delete(d, i, axis=0).prod(axis=0)
        J[:, 1, 0] = 1.0 / self.s
        return J


def test_find_rf_null_takes_a_flat_well_as_one_minimum():
    # each run of candidates within a hair of the lowest is one well, named
    # by its first candidate; at the edge of a flat well the pieces are
    # halved down to their 1e-3 um floor, and the hair reaches 1.2e-3 um
    # below the second well's edge at y = 110 um
    def search(*wells_um):
        field = _FlatWellsField(*[(a * 1e-6, b * 1e-6) for a, b in wells_um])
        ps = PseudoField(field, species=CA40, drive=DRIVE)
        return find_rf_null(ps, (0.0, 30.0, 0.0), (0.0, 150.0, 0.0))

    res = search((60.0, 80.0))
    assert res.converged
    assert res.height_um == pytest.approx(60.0, abs=1e-9)
    with pytest.raises(NullAmbiguityError) as err:
        search((60.0, 80.0), (110.0, 120.0))
    assert err.value.candidates == [pytest.approx((0.0, 60.0, 0.0), abs=1e-3),
                                    pytest.approx((0.0, 110.0, 0.0), abs=2e-3)]


# -- harmonicity ---------------------------------------------------------------


def test_fit_recovers_exact_quadrupole_k():
    r0 = 100e-6
    field = QuadrupoleField(kx=1.0, ky=-1.0, r0=r0)
    fit = fit_axis_harmonicity(field, np.zeros(3), r0, (0.0, 1.0, 0.0))
    assert fit.k == pytest.approx(1.0, rel=1e-10)
    assert fit.k_signed == pytest.approx(-1.0, rel=1e-10)
    assert fit.std_err < 1e-9
    assert not fit.residual_warning
    fx = fit_axis_harmonicity(field, np.zeros(3), r0, (1.0, 0.0, 0.0))
    assert fx.k_signed == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("r0", [1e-6, 5e-6, 100e-6])
def test_fit_is_exact_at_any_trap_size(r0):
    # the fit columns are 1, t, t^2 in t = s / w, so a micron-scale window
    # does not push the quadratic column below the rank threshold
    field = QuadrupoleField(kx=1.0, ky=-1.0, r0=r0)
    fit = fit_axis_harmonicity(field, np.zeros(3), r0, (0.0, 1.0, 0.0))
    assert fit.k == pytest.approx(1.0, rel=1e-10)
    assert fit.std_err < 1e-9


class _CountingField:
    """Passes potential calls through and records the number of points."""

    def __init__(self, field):
        self.field, self.sizes = field, []

    def potential(self, points):
        self.sizes.append(len(points))
        return self.field.potential(points)


def test_interpolated_fit_matches_the_direct_bem_fit(surface_solved, surface_pseudo):
    # oracle: the quadratic least squares on 2001 direct BEM samples per axis
    rf = surface_solved.charge_weights()
    null = find_rf_null(surface_pseudo, (0.0, 5.0, 0.0), (0.0, 300.0, 0.0))
    r0 = null.position[1]
    counted = _CountingField(rf)
    res = fit_harmonicity(counted, null.position, r0, PLANAR_AXES)
    assert counted.sizes == [FIT_CHEB_NODES] * 2 == [17, 17]

    w = 0.2 * r0
    s = np.linspace(-w, w, 2001)
    for name, axis in PLANAR_AXES.vectors.items():
        pts = null.position[None, :] + s[:, None] * np.asarray(axis)[None, :]
        c, cov = np.polyfit(s, rf.potential(pts), 2, cov=True)
        scale = 2.0 * r0 * r0
        fit = res.fits[name]
        assert fit.n_points == 2001
        assert fit.k == pytest.approx(abs(c[0]) * scale, rel=1e-9)
        assert fit.std_err == pytest.approx(math.sqrt(cov[0, 0]) * scale, rel=1e-7)


class _LorentzField:
    """Potential 1 / (t^2 + 0.05^2) along y, t = y / w: a pole 0.05 window
    half-widths off the axis, which 17 Chebyshev nodes cannot resolve."""

    def __init__(self, w):
        self.w = w

    def potential(self, points):
        t = np.atleast_2d(points)[:, 1] / self.w
        return 1.0 / (t * t + 0.05**2)


def test_unresolved_axis_potential_raises():
    r0 = 100e-6
    with pytest.raises(FitError, match="not resolved by 17 Chebyshev nodes"):
        fit_axis_harmonicity(_LorentzField(0.2 * r0), np.zeros(3), r0, (0.0, 1.0, 0.0))
    with pytest.raises(FitError, match="not resolved"):
        fit_axis_harmonicity(_PolyField(1e7, math.nan), np.zeros(3), r0, (0.0, 1.0, 0.0))
    # polynomial and flat axes are resolved exactly, a constant offset included
    quartic = fit_axis_harmonicity(_PolyField(1e7, 5e14), np.zeros(3), r0, (0.0, 1.0, 0.0))
    assert quartic.k > 0.0
    flat = fit_axis_harmonicity(_XYQuadrupole(r0), np.zeros(3), r0, (0.0, 1.0, 0.0))
    offset = fit_axis_harmonicity(QuadrupoleField(kx=1.0, ky=0.0, kz=-1.0, r0=r0),
                                  np.array([30e-6, 0.0, 0.0]), r0, (0.0, 1.0, 0.0))
    assert flat.k == 0.0
    assert offset.k == pytest.approx(0.0, abs=1e-10)


class _PolyField:
    """Potential a2 y^2 + a4 y^4 along y (per volt), for fit-bias tests."""


    def __init__(self, a2, a4):
        self.a2, self.a4 = a2, a4

    def potential(self, points):
        y = np.atleast_2d(points)[:, 1]
        return self.a2 * y * y + self.a4 * y**4


def test_fit_bias_from_quartic_matches_moment_projection():
    # fitting 1, s, s^2 to a2 s^2 + a4 s^4 by least squares projects the
    # quartic onto the quadratic. Solving the normal equations by hand with
    # the even sample moments m_k = mean(s^k) gives
    #     c2 = a2 + a4 (m6 - m2 m4) / (m4 - m2^2),
    # which tends to a2 + (6/7) a4 w^2 for dense symmetric sampling.
    r0 = 100e-6
    w = 0.2 * r0
    a2, a4 = 1e7, 5e14
    fit = fit_axis_harmonicity(_PolyField(a2, a4), np.zeros(3), r0, (0.0, 1.0, 0.0))
    s = np.linspace(-w, w, merit.FIT_POINTS)
    m2, m4, m6 = (np.mean(s**k) for k in (2, 4, 6))
    c2_exact = a2 + a4 * (m6 - m2 * m4) / (m4 - m2 * m2)
    # k = 2 c2 r0^2 with c2 per volt of drive, as the potential above is
    c2_fit = fit.k_signed / (2.0 * r0 * r0)
    assert c2_fit == pytest.approx(c2_exact, rel=1e-9)
    assert c2_fit == pytest.approx(a2 + (6.0 / 7.0) * a4 * w * w, rel=1e-3)


def test_residual_warning_fires_on_gross_anharmonicity():
    r0 = 100e-6
    quiet = fit_axis_harmonicity(_PolyField(1e7, 0.0), np.zeros(3),
                                 r0, (0.0, 1.0, 0.0))
    assert not quiet.residual_warning
    loud = fit_axis_harmonicity(_PolyField(1e7, 1e17), np.zeros(3),
                                r0, (0.0, 1.0, 0.0))
    assert loud.residual_warning


class _XYQuadrupole:
    """phi = x y / r0^2 per volt: principal axes on the diagonals."""


    def __init__(self, r0):
        self.r0 = r0

    def potential(self, points):
        p = np.atleast_2d(points)
        return p[:, 0] * p[:, 1] / self.r0**2

    def field(self, points):
        p = np.atleast_2d(points)
        return -np.column_stack([p[:, 1], p[:, 0], np.zeros(p.shape[0])]) / self.r0**2

    def jacobian(self, points):
        m = np.atleast_2d(points).shape[0]
        J = np.zeros((3, 3))
        J[0, 1] = J[1, 0] = -1.0 / self.r0**2
        return np.broadcast_to(J, (m, 3, 3)).copy()


_SQ2 = math.sqrt(0.5)
# the fit axes of the cross-rf design: the rf-to-rf diagonal, then the other
CROSS_AXES = FitAxes({"diag_rf": (_SQ2, _SQ2, 0.0), "diag_gnd": (_SQ2, -_SQ2, 0.0)},
                     "diag_rf")


def test_fit_harmonicity_axes_per_design():
    r0 = 100e-6
    planar = fit_harmonicity(QuadrupoleField(kx=1.0, ky=-1.0, r0=r0), np.zeros(3), r0,
                             axes=PLANAR_AXES)
    assert planar.scalar_axis == "y"
    assert set(planar.fits) == {"x", "y"}
    assert planar.k == pytest.approx(planar.k_y)
    assert planar.k_y == pytest.approx(1.0, rel=1e-10)

    cross = fit_harmonicity(_XYQuadrupole(r0), np.zeros(3), r0,
                            axes=CROSS_AXES)
    assert cross.scalar_axis == "diag_rf"
    assert set(cross.fits) == {"diag_rf", "diag_gnd"}
    assert cross.k == pytest.approx(1.0, rel=1e-10)
    assert cross.fits["diag_gnd"].k == pytest.approx(1.0, rel=1e-10)
    # the same field fitted on the cartesian axes shows no curvature at all
    planar_view = fit_harmonicity(_XYQuadrupole(r0), np.zeros(3), r0,
                                  axes=PLANAR_AXES)
    assert planar_view.k_y == pytest.approx(0.0, abs=1e-10)


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("h", [105.0, 200.0])
def test_layout_rules_reproduce_the_builtin_choices(h):
    # the top plane and the fit axes come from the electrodes alone
    surface = build_default("surface", fine_um=200.0)
    gnd = build_default("gnd-surface", h_um=h, fine_um=200.0)
    cross = build_default("cross-rf", h_um=h, fine_um=200.0)
    assert surface.top_um is None
    assert gnd.top_um == h and cross.top_um == h
    assert radial_axes(surface) == radial_axes(gnd) == PLANAR_AXES

    axes = radial_axes(cross)
    assert axes.scalar_axis == CROSS_AXES.scalar_axis
    assert list(axes.vectors) == list(CROSS_AXES.vectors)
    for name, vec in CROSS_AXES.vectors.items():
        np.testing.assert_allclose(axes.vectors[name], vec, rtol=0, atol=2e-16)
        # the unit vectors the fit samples along are bitwise the same
        np.testing.assert_array_equal(_unit(axes.vectors[name]), _unit(vec))


def test_radial_axes_follow_the_rf_centroids():
    def rail(name, role, x0, y):
        return Electrode(name, role, (Rect((x0, y, -500.0), (40.0, 0.0, 0.0),
                                           (0.0, 0.0, 1000.0)),))

    def layout(*electrodes):
        mesh = MeshParams(200.0, 200.0)
        return TrapGeometry("custom", mesh, electrodes)

    # rf rails on two wafers, offset by (-120, 80) um: e1 points along it
    axes = radial_axes(layout(rail("rf_lo", "rf", 40.0, 0.0),
                              rail("rf_hi", "rf", -80.0, 80.0)))
    np.testing.assert_allclose(axes.vectors["diag_rf"], _unit((-3.0, 2.0, 0.0)),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(axes.vectors["diag_gnd"], _unit((2.0, 3.0, 0.0)),
                               rtol=0, atol=1e-15)
    # rf rails stacked above one another: y first and reported, then x
    axes = radial_axes(layout(rail("rf_lo", "rf", 0.0, 0.0),
                              rail("rf_hi", "rf", 0.0, 80.0)))
    assert axes == FitAxes({"diag_rf": (0.0, 1.0, 0.0), "diag_gnd": (1.0, 0.0, 0.0)},
                           "diag_rf")
    # rf rails in one plane: x and y, reporting y
    assert radial_axes(layout(rail("rf_l", "rf", -80.0, 0.0),
                              rail("rf_r", "rf", 40.0, 0.0))) == PLANAR_AXES


# -- flood fill ----------------------------------------------------------------


def _escape_oracle(values, start):
    """Exhaustive reference: smallest threshold whose sublevel component of
    `start` touches the boundary."""
    values = np.asarray(values, float)
    shape = values.shape
    levels = np.unique(values)
    for t in levels:
        if values[start] > t:
            continue
        seen = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            if any(c[ax] in (0, shape[ax] - 1)
                   for ax in range(values.ndim) if shape[ax] > 1):
                return float(t)
            for ax in range(values.ndim):
                for d in (-1, 1):
                    nb = list(c)
                    nb[ax] += d
                    nb = tuple(nb)
                    if 0 <= nb[ax] < shape[ax] and nb not in seen \
                            and values[nb] <= t:
                        seen.add(nb)
                        stack.append(nb)
    raise AssertionError("unreachable: max level floods everything")


def test_flood_fill_simple_ridge():
    values = np.array([[9.0, 9.0, 9.0, 9.0, 9.0],
                       [9.0, 0.0, 3.0, 1.0, 0.5],
                       [9.0, 9.0, 9.0, 9.0, 9.0]])
    level, cell, boundary_limited = flood_fill_escape(values, (1, 1))
    assert level == 3.0
    assert cell == (1, 2)
    assert not boundary_limited


def test_flood_fill_boundary_start_is_boundary_limited():
    values = np.array([[0.0, 1.0], [2.0, 3.0]])
    level, cell, boundary_limited = flood_fill_escape(values, (0, 0))
    assert level == 0.0
    assert boundary_limited


def test_flood_fill_monotonic_bowl_exits_at_rim():
    x = np.linspace(-1, 1, 11)
    X, Y = np.meshgrid(x, x, indexing="ij")
    values = X**2 + Y**2
    level, cell, boundary_limited = flood_fill_escape(values, (5, 5))
    assert level == pytest.approx(1.0)  # rim minimum (edge midpoint)
    assert boundary_limited


def test_flood_fill_matches_exhaustive_oracle_3d():
    rng = np.random.default_rng(42)
    for _ in range(20):
        values = rng.uniform(0.0, 1.0, size=(6, 5, 4))
        start = (rng.integers(1, 5), rng.integers(1, 4), rng.integers(1, 3))
        values[start] = 0.0
        level, cell, _ = flood_fill_escape(values, start)
        assert level == _escape_oracle(values, start)


@settings(max_examples=60, deadline=None)
@given(
    values=hnp.arrays(np.float64, (5, 5),
                      elements=st.floats(0.0, 10.0, allow_nan=False)),
    si=st.integers(1, 3), sj=st.integers(1, 3),
)
def test_flood_fill_matches_oracle_property(values, si, sj):
    level, cell, _ = flood_fill_escape(values, (si, sj))
    assert level == _escape_oracle(values, (si, sj))
    assert level >= values[si, sj]


class _CountedReads:
    """An ndarray landscape that records the cells read from it."""

    def __init__(self, values):
        self.values, self.shape, self.ndim = values, values.shape, values.ndim
        self.cells = set()

    def __getitem__(self, cell):
        self.cells.add(cell)
        return self.values[cell]


def test_flood_fill_runs_downhill_beyond_the_pass():
    # a well at i <= 5 behind a wall at i = 6 with one pass at (6, 20), and
    # beyond it a basin below the pass sloping down to the i = 40 edge, its
    # other edges walled. Every basin cell has the pass's level; expanded in
    # index order, the flood sweeps the basin row by row (1675 cells read),
    # and lowest value first, it walks straight down to the edge
    values = np.full((41, 41), 10.0)
    values[1:6, 1:40] = 0.0
    values[6, 20] = 5.0
    values[7:, 1:40] = 4.0 - 0.1 * np.arange(7, 41)[:, None]
    landscape = _CountedReads(values)
    level, cell, boundary_limited = flood_fill_escape(landscape, (3, 20))
    assert (level, cell, boundary_limited) == (5.0, (6, 20), False)
    assert level == _escape_oracle(values, (3, 20))
    # the well and its rim, then at most three cells per step along the 34
    # cells from the pass to the edge
    assert len(landscape.cells) <= 5 * 39 + (2 * 39 + 2 * 5) + 3 * 34


# -- trap depth ----------------------------------------------------------------


class _HexQuadField:
    """Quadrupole with hexapole admixture: phi = [(x'^2 - y'^2)/2
    + beta (x'^3 - 3 x' y'^2) / (3 r0)] / r0^2 about (0, y0, 0), per volt.

    |E| has nulls at x' = 0 and x' = -r0/beta on y' = 0 and a saddle of
    |E|^2 between them at x' = -r0/(2 beta), height (r0 / (4 beta))^2 / r0^4.
    """


    def __init__(self, r0, beta, y0):
        self.r0, self.beta, self.y0 = r0, beta, y0

    def _xy(self, points):
        p = np.atleast_2d(points)
        return p[:, 0], p[:, 1] - self.y0

    def potential(self, points):
        x, y = self._xy(points)
        r0, b = self.r0, self.beta
        return ((x * x - y * y) / 2 + b * (x**3 - 3 * x * y * y) / (3 * r0)) / r0**2

    def field(self, points):
        x, y = self._xy(points)
        r0, b = self.r0, self.beta
        ex = -(x + b * (x * x - y * y) / r0) / r0**2
        ey = (y + 2 * b * x * y / r0) / r0**2
        return np.column_stack([ex, ey, np.zeros_like(ex)])

    def jacobian(self, points):
        x, y = self._xy(points)
        r0, b = self.r0, self.beta
        J = np.zeros((x.size, 3, 3))
        J[:, 0, 0] = -(1 + 2 * b * x / r0) / r0**2
        J[:, 0, 1] = J[:, 1, 0] = 2 * b * y / r0 / r0**2
        J[:, 1, 1] = (1 + 2 * b * x / r0) / r0**2
        return J


def test_trap_depth_finds_analytic_saddle():
    r0, beta, y0 = 100e-6, 0.4, 100e-6
    field = _HexQuadField(r0, beta, y0)
    pseudo = PseudoField(field, species=CA40, drive=DRIVE)
    null = find_rf_null(pseudo, (-40.0, 60.0, 0.0), (40.0, 140.0, 0.0))
    np.testing.assert_allclose(null.position, [0.0, y0, 0.0], atol=1e-12)
    depth = trap_depth(pseudo, null)
    assert not depth.boundary_limited
    assert depth.polished
    x_saddle = -r0 / (2 * beta)
    np.testing.assert_allclose(depth.saddle[:2], [x_saddle, y0], atol=1e-11)
    expected = pseudo.coef * (r0 / (4 * beta)) ** 2 / r0**4
    assert depth.depth_J == pytest.approx(expected, rel=1e-8)
    # escape is along +/- x and the saddle has exactly one downhill direction
    assert abs(depth.escape_direction[0]) == pytest.approx(1.0, abs=1e-6)
    assert (depth.hessian_eigs < 0).sum() == 1
    # the polished depth is consistent with (and finer than) the grid level
    assert depth.grid_level_J == pytest.approx(expected, rel=0.05)


def test_trap_depth_pure_quadrupole_is_boundary_limited():
    # a pure quadrupole pseudopotential rises in every direction: no saddle
    ps = _offset_quad(center=(0.0, 100e-6, 0.0))
    null = find_rf_null(ps, (-20.0, 60.0, 0.0), (20.0, 140.0, 0.0))
    depth = trap_depth(ps, null)
    assert depth.boundary_limited
    assert depth.saddle is None
    assert depth.depth_J > 0.0


def test_trap_depth_value_independent_of_grid_resolution(cross_solved_105):
    # the grid only locates the pass; the Newton polish sets the value. A
    # lower top plane shrinks the box and with it the step: 8, 6.975 and
    # 6.333 um
    pseudo = PseudoField(cross_solved_105.charge_weights(), species=CA40, drive=DRIVE)
    null = _builtin_null(cross_solved_105, pseudo)
    steps, depths = [], []
    for top_um in (105.0, 87.7, 80.0):
        depth = trap_depth(pseudo, null, top_um)
        assert depth.polished
        steps.append(_depth_axes_um(null, top_um)[2])
        depths.append(depth.depth_J)
    assert steps[0] == 8.0 and steps[0] > steps[1] > steps[2] > 6.0
    assert depths[1] == pytest.approx(depths[0], rel=1e-12)
    assert depths[2] == pytest.approx(depths[0], rel=1e-12)


def _assert_lazy_depth_is_dense(pseudo, null, top_um, monkeypatch):
    """trap_depth under a top plane at top_um equals, bitwise, the flood
    fill of a dense psi grid on the axes of _depth_axes_um and trap_depth
    with one tile over the whole box (a single psi call on every node)."""
    lazy = trap_depth(pseudo, null, top_um)
    xs, ys, _ = _depth_axes_um(null, top_um)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = pseudo.psi(np.column_stack([X.ravel() * 1e-6, Y.ravel() * 1e-6,
                                       np.full(X.size, null.position[2])]))
    start = (int(np.argmin(np.abs(xs - null.position[0] * 1e6))),
             int(np.argmin(np.abs(ys - null.position[1] * 1e6))))
    level, _, on_bnd = flood_fill_escape(vals.reshape(X.shape), start)
    with monkeypatch.context() as m:
        m.setattr(merit, "DEPTH_TILE", max(X.shape))
        dense = trap_depth(pseudo, null, top_um)
    assert dense.grid_points == dense.grid_cells == lazy.grid_cells == X.size
    assert 0 < lazy.grid_points <= lazy.grid_cells
    assert lazy.grid_level_J == dense.grid_level_J == level
    assert lazy.boundary_limited == dense.boundary_limited == on_bnd
    assert lazy.depth_J == dense.depth_J
    assert lazy.polished == dense.polished
    for a, b in ((lazy.saddle, dense.saddle), (lazy.hessian_eigs, dense.hessian_eigs)):
        assert (a is None and b is None) or np.array_equal(a, b)
    return lazy


@pytest.mark.parametrize("solved", ["surface_solved", "gnd_solved_200",
                                    "cross_solved_200"])
def test_lazy_depth_grid_gives_the_dense_depth_bitwise(solved, request, monkeypatch):
    # the box of full_report; the flood reaches only part of it
    solved = request.getfixturevalue(solved)
    pseudo = PseudoField(solved.charge_weights(), species=CA40, drive=DRIVE)
    null = _builtin_null(solved, pseudo)
    depth = _assert_lazy_depth_is_dense(pseudo, null, solved.geometry.top_um, monkeypatch)
    assert depth.grid_points < depth.grid_cells


def test_lazy_depth_grid_gives_the_dense_depth_on_analytic_fields(monkeypatch):
    # the boundary-limited quadrupole bowl centred at y = 100 um floods out
    # to the nearest box edge, y = 2 um, and reads under a fifth of its grid
    ps = _offset_quad(center=(0.0, 100e-6, 0.0))
    null = find_rf_null(ps, (-20.0, 60.0, 0.0), (20.0, 140.0, 0.0))
    bowl = _assert_lazy_depth_is_dense(ps, null, None, monkeypatch)
    assert bowl.boundary_limited
    assert 0 < bowl.grid_points < bowl.grid_cells // 5
    # the polished saddle of the quadrupole + hexapole field
    r0, beta, y0 = 100e-6, 0.4, 100e-6
    pseudo = PseudoField(_HexQuadField(r0, beta, y0), species=CA40, drive=DRIVE)
    null = find_rf_null(pseudo, (-40.0, 60.0, 0.0), (40.0, 140.0, 0.0))
    saddle = _assert_lazy_depth_is_dense(pseudo, null, None, monkeypatch)
    assert saddle.polished and not saddle.boundary_limited
    expected = pseudo.coef * (r0 / (4 * beta)) ** 2 / r0**4
    assert saddle.depth_J == pytest.approx(expected, rel=1e-14)


def _builtin_null(solved, pseudo):
    """The null of a solved built-in trap, searched as full_report does."""
    top = solved.geometry.top_um
    return find_rf_null(pseudo, (0.0, 5.0, 0.0),
                        (0.0, 300.0 if top is None else top - 5.0, 0.0))


def test_mirror_axis_is_symmetric_bit_for_bit():
    for n in range(2, 400):
        a = _mirror_axis_um(300.0, 600.0 / (n - 1))
        assert a.size == n and a[0] == -300.0 and a[-1] == 300.0
        assert np.array_equal(a, -a[::-1])
        # within an ulp of the half-width of the linspace axis
        assert np.abs(a - np.linspace(-300.0, 300.0, n)).max() <= np.spacing(300.0)
    # the built-in depth axis (76 nodes) is the linspace axis unchanged
    assert np.array_equal(_mirror_axis_um(300.0, 8.0), np.linspace(-300.0, 300.0, 76))


@pytest.mark.parametrize("solved", ["surface_solved", "cross_solved_200"])
def test_a_depth_tile_and_its_mirror_share_their_images(solved, request):
    # a node and its x-mirror node have the same images, so a depth grid node
    # costs at most one image (two per mirror pair, a node on x = 0 one); a
    # polish point off the mirror planes has four
    solved = request.getfixturevalue(solved)
    pseudo = PseudoField(solved.charge_weights(), species=CA40, drive=DRIVE)
    null = _builtin_null(solved, pseudo)
    seen = pseudo.rf_field.evaluations
    before = dict(seen)
    depth = trap_depth(pseudo, null, solved.geometry.top_um)
    polish = seen["points"] - before["points"] - depth.grid_points
    assert depth.polished and polish > 0
    assert seen["images"] - before["images"] <= depth.grid_points + 4 * polish


def _assert_whole_tiles(pseudo, null, monkeypatch):
    """trap_depth with no top plane, asserting that each psi call of its grid
    evaluates exactly the nodes of one tile, no tile twice; returns the
    depth result."""
    calls = []
    psi = pseudo.psi
    monkeypatch.setattr(pseudo, "psi", lambda pts: calls.append(pts) or psi(pts))
    depth = trap_depth(pseudo, null)
    axes = _depth_axes_um(null, None)[:2]
    bounds = [np.append(np.arange(max(a.size // merit.DEPTH_TILE, 1)) * merit.DEPTH_TILE,
                        a.size) for a in axes]
    tiles = set()
    grid = [p for p in calls if len(p) > 1]  # the polish evaluates psi at one point
    for pts in grid:
        nodes = [np.searchsorted(a * 1e-6, c) for a, c in zip(axes, pts[:, :2].T)]
        for a, c, i in zip(axes, pts[:, :2].T, nodes):
            assert np.array_equal(a[i] * 1e-6, c)
        tile = {tuple(np.searchsorted(b, i, side="right") - 1 for b, i in zip(bounds, ij))
                for ij in zip(*nodes)}
        assert len(tile) == 1 and not tile & tiles
        tiles |= tile
        (ti, tj), = tile
        size = np.diff(bounds[0])[ti] * np.diff(bounds[1])[tj]
        assert len(pts) == size
    assert sum(len(p) for p in grid) == depth.grid_points
    return depth


def test_a_field_without_the_x_mirror_evaluates_whole_tiles_only(surface_solved,
                                                                  monkeypatch):
    # the quadrupole has no mirror group, and a PanelSet that no solve gave
    # a group has the trivial one: no mirror node is evaluated
    ps = _offset_quad(center=(0.0, 100e-6, 0.0))
    null = find_rf_null(ps, (0.0, 60.0, 0.0), (0.0, 140.0, 0.0))
    bowl = _assert_whole_tiles(ps, null, monkeypatch)
    assert bowl.boundary_limited
    pset = bem.PanelSet(*surface_solved.geometry.arrays_m())
    charge = bem.ChargeWeights(pset, surface_solved.sigma)
    assert charge.image_axes == [] and surface_solved.charge_weights().image_axes == [0, 2]
    pseudo = PseudoField(charge, species=CA40, drive=DRIVE)
    null = _builtin_null(surface_solved, pseudo)
    depth = _assert_whole_tiles(pseudo, null, monkeypatch)
    assert depth.polished and 0 < depth.grid_points < depth.grid_cells


def test_lazy_depth_grid_is_dense_where_the_linspace_axis_is_asymmetric(cross_solved_105,
                                                                        monkeypatch):
    # a top plane at 87.7 um gives 87 x nodes: np.linspace(-300, 300, 87) is
    # not mirror-symmetric bit for bit, the depth axis is, and the paired
    # flood gives the dense depth
    line = np.linspace(-300.0, 300.0, 87)
    assert not np.array_equal(line, -line[::-1])
    pseudo = PseudoField(cross_solved_105.charge_weights(), species=CA40, drive=DRIVE)
    null = _builtin_null(cross_solved_105, pseudo)
    assert _depth_axes_um(null, 87.7)[0].size == 87
    depth = _assert_lazy_depth_is_dense(pseudo, null, 87.7, monkeypatch)
    assert depth.polished and depth.grid_points < depth.grid_cells
