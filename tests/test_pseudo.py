"""Pseudopotential tests: scaling laws, derivative consistency, grid maps.

The frozen reference value below was computed by hand from the defining
expression psi = (q V)^2 |E_unit|^2 / (4 m Omega^2) with CODATA constants:
a unit-amplitude quadrupole with r0 = 100 um has |E_unit| = 1000 V/m at
x = 10 um, giving psi = 6.1240444391e-22 J = 3.8223278939 meV for Ca40 at
V = 10 V, Omega = 2 pi x 20 MHz.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontrap import (
    CA40,
    DriveParams,
    PseudoField,
    QuadrupoleField,
    get_species,
    pseudo_map,
)
from iontrap import bem, merit, pseudo
from iontrap.constants import ECHARGE
from iontrap.errors import InvalidInputError

RNG = np.random.default_rng(7)


def _quad_pseudo(voltage=10.0, freq=20.0, species=CA40, k=1.0, r0=100e-6):
    return PseudoField(QuadrupoleField(kx=k, ky=-k, r0=r0), species=species,
                       drive=DriveParams.from_mhz(voltage, freq))


# -- drive parameters ---------------------------------------------------------


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(voltage=-1.0, omega_rf=1.0)
    with pytest.raises(ValueError):
        DriveParams(voltage=10.0, omega_rf=0.0)
    DriveParams(voltage=0.0, omega_rf=1.0)  # flat drive is legal


@pytest.mark.parametrize("voltage, freq", [(1e300, 20.0), (1e170, 20.0), (10.0, 1e-300),
                                           (10.0, 1e300)])
def test_a_drive_out_of_floating_point_range_is_invalid_input(voltage, freq):
    # float ** raises OverflowError, / raises ZeroDivisionError, or the
    # quotient is inf: each is reported as the input it comes from
    with pytest.raises(InvalidInputError, match="out of floating-point range"):
        _quad_pseudo(voltage=voltage, freq=freq)


def test_drive_from_mhz_round_trip():
    d = DriveParams.from_mhz(42.0, 17.5)
    assert d.voltage == 42.0
    assert d.omega_rf == pytest.approx(2.0 * math.pi * 17.5e6, rel=1e-15)
    assert d.freq_MHz == pytest.approx(17.5, rel=1e-15)


def test_quadrupole_requires_traceless_coefficients():
    with pytest.raises(ValueError, match="sum to zero"):
        QuadrupoleField(kx=1.0, ky=-0.5, r0=100e-6)


# -- defining expression ------------------------------------------------------


def test_frozen_quadrupole_value():
    ps = _quad_pseudo()
    pt = np.array([[10e-6, 0.0, 0.0]])
    assert ps.psi(pt)[0] == pytest.approx(6.124044439107312e-22, rel=1e-12)
    assert ps.psi_meV(pt)[0] == pytest.approx(3.822327893908926, rel=1e-12)


def test_mev_conversion():
    ps = _quad_pseudo()
    pts = RNG.uniform(-50e-6, 50e-6, size=(10, 3))
    np.testing.assert_allclose(ps.psi_meV(pts), ps.psi(pts) / ECHARGE * 1e3,
                               rtol=1e-15)


def test_psi_scales_with_voltage_squared_and_inverse_frequency_squared():
    pts = RNG.uniform(-50e-6, 50e-6, size=(20, 3))
    base = _quad_pseudo(voltage=10.0, freq=20.0).psi(pts)
    np.testing.assert_allclose(_quad_pseudo(voltage=20.0, freq=20.0).psi(pts),
                               4.0 * base, rtol=1e-12)
    np.testing.assert_allclose(_quad_pseudo(voltage=10.0, freq=40.0).psi(pts),
                               0.25 * base, rtol=1e-12)


def test_psi_scales_inversely_with_ion_mass():
    pts = RNG.uniform(-50e-6, 50e-6, size=(5, 3))
    ca, be = get_species("Ca40"), get_species("Be9")
    ratio = _quad_pseudo(species=be).psi(pts) / _quad_pseudo(species=ca).psi(pts)
    np.testing.assert_allclose(ratio, ca.mass / be.mass, rtol=1e-12)


def test_zero_voltage_gives_identically_zero_psi():
    ps = _quad_pseudo(voltage=0.0)
    pts = RNG.uniform(-50e-6, 50e-6, size=(10, 3))
    assert np.all(ps.psi(pts) == 0.0)
    assert np.all(ps.grad(pts) == 0.0)


# -- derivatives --------------------------------------------------------------


def test_grad_matches_finite_difference_on_quadrupole():
    ps = _quad_pseudo()
    pts = RNG.uniform(-50e-6, 50e-6, size=(20, 3))
    g = ps.grad(pts)
    h = 1e-9
    for ax in range(3):
        dp = np.zeros(3)
        dp[ax] = h
        fd = (ps.psi(pts + dp) - ps.psi(pts - dp)) / (2.0 * h)
        assert np.abs(g[:, ax] - fd).max() < 1e-6 * np.abs(g).max()


def test_hessian_matches_finite_difference_and_is_symmetric():
    ps = _quad_pseudo()
    pts = RNG.uniform(-50e-6, 50e-6, size=(10, 3))
    H = ps.hessian(pts)
    np.testing.assert_allclose(H, H.transpose(0, 2, 1), rtol=0, atol=1e-9 * np.abs(H).max())
    h = 1e-8
    for ax in range(3):
        dp = np.zeros(3)
        dp[ax] = h
        fd = (ps.grad(pts + dp) - ps.grad(pts - dp)) / (2.0 * h)
        assert np.abs(H[:, :, ax] - fd).max() < 1e-5 * np.abs(H).max()


def test_quadrupole_hessian_is_exactly_harmonic():
    # |E|^2 of a pure quadrupole is quadratic, so the Hessian is constant:
    # H_xx = H_yy = 2 c k^2 / r0^4 everywhere
    k, r0 = 1.0, 100e-6
    ps = _quad_pseudo(k=k, r0=r0)
    expected = 2.0 * ps.coef * k**2 / r0**4
    pts = RNG.uniform(-50e-6, 50e-6, size=(5, 3))
    H = ps.hessian(pts)
    np.testing.assert_allclose(H[:, 0, 0], expected, rtol=1e-6)
    np.testing.assert_allclose(H[:, 1, 1], expected, rtol=1e-6)
    np.testing.assert_allclose(H[:, 2, 2], 0.0, atol=1e-6 * expected)


def test_grad_matches_finite_difference_on_bem_field(surface_pseudo):
    pts = np.array([[3e-6, 70e-6, 0.0], [-6e-6, 95e-6, 12e-6],
                    [0.0, 120e-6, -30e-6]])
    g = surface_pseudo.grad(pts)
    h = 1e-9
    fd = np.empty_like(g)
    for ax in range(3):
        dp = np.zeros(3)
        dp[ax] = h
        fd[:, ax] = (surface_pseudo.psi(pts + dp)
                     - surface_pseudo.psi(pts - dp)) / (2.0 * h)
    assert np.abs(g - fd).max() < 1e-6 * np.abs(g).max()


def test_the_rf_field_is_the_charge_weights_and_a_report_keeps_a_snapshot(
        surface_solved, monkeypatch):
    rf = surface_solved.charge_weights()
    assert isinstance(rf, bem.ChargeWeights) and rf.pset is surface_solved.pset
    made = []
    charge_weights = bem.SolvedTrap.charge_weights
    monkeypatch.setattr(bem.SolvedTrap, "charge_weights",
                        lambda self: made.append(charge_weights(self)) or made[-1])
    report = merit.full_report(surface_solved)
    (field,) = made
    snapshot = copy.deepcopy(report.field_evaluations)
    assert snapshot == field.evaluations
    field.field(np.array([[0.0, 90e-6, 0.0], [1e-6, 90e-6, 2e-6]]))
    assert report.field_evaluations == snapshot != field.evaluations


def test_psi_of_a_point_is_bitwise_alike_in_every_batch(surface_pseudo):
    # the trap depth evaluates its grid tile by tile and must read the values
    # of one psi call over the whole grid; here a grid the size of the
    # surface trap's depth grid, 76 x 50 nodes about 8 um apart
    X, Y = np.meshgrid(np.linspace(-300.0, 300.0, 76), np.linspace(2.0, 394.0, 50),
                       indexing="ij")
    grid = np.column_stack([X.ravel(), Y.ravel(), np.zeros(X.size)]) * 1e-6
    whole = surface_pseudo.psi(grid)
    others = grid[np.random.default_rng(11).permutation(grid.shape[0])[:62]]
    for i in (0, 37, 1234, 2011, grid.shape[0] - 1):
        probe = grid[i:i + 1]
        alone = surface_pseudo.psi(probe)[0]
        assert whole[i] == alone, i
        for m in (2, 5, 64):
            batch = surface_pseudo.psi(np.vstack([probe, others[:m - 2], probe]))
            assert batch.shape[0] == m
            assert batch[0] == alone and batch[-1] == alone, (i, m)


# -- property: psi is non-negative for any drive/field ------------------------


@settings(max_examples=50, deadline=None)
@given(
    kx=st.floats(-5.0, 5.0, allow_nan=False),
    x=st.floats(-1e-4, 1e-4, allow_nan=False),
    y=st.floats(-1e-4, 1e-4, allow_nan=False),
    z=st.floats(-1e-4, 1e-4, allow_nan=False),
    voltage=st.floats(0.0, 1e4, allow_nan=False),
)
def test_psi_is_non_negative(kx, x, y, z, voltage):
    field = QuadrupoleField(kx=kx, ky=-kx, r0=100e-6)
    ps = PseudoField(field, species=CA40,
                     drive=DriveParams(voltage=voltage, omega_rf=2e8))
    assert ps.psi(np.array([[x, y, z]]))[0] >= 0.0


# -- grid maps ----------------------------------------------------------------


def test_pseudo_map_axes_and_collapse():
    ps = _quad_pseudo()
    grid = pseudo_map(ps, (0.0, 50.0, 0.0), (20.0, 0.0, 10.0), 5.0)
    assert grid.xs_um.tolist() == [-10.0, -5.0, 0.0, 5.0, 10.0]
    assert grid.ys_um.tolist() == [50.0]
    assert grid.zs_um.tolist() == [-5.0, 0.0, 5.0]
    assert grid.values_meV.shape == (5, 1, 3)


def test_pseudo_map_shared_points_exact_across_resolutions():
    ps = _quad_pseudo()
    coarse = pseudo_map(ps, (0.0, 0.0, 0.0), (40.0, 40.0, 0.0), 10.0)
    fine = pseudo_map(ps, (0.0, 0.0, 0.0), (40.0, 40.0, 0.0), 5.0)
    assert coarse.values_meV.shape == (5, 5, 1)
    assert fine.values_meV.shape == (9, 9, 1)
    np.testing.assert_array_equal(coarse.values_meV,
                                  fine.values_meV[::2, ::2, :])


def test_pseudo_map_rejects_bad_resolution():
    with pytest.raises(ValueError):
        pseudo_map(_quad_pseudo(), (0.0, 0.0, 0.0), (10.0, 10.0, 0.0), 0.0)


@pytest.mark.parametrize("center, span, res, message", [
    ((0.0, 0.0, 0.0), (10.0, 10.0, 0.0), math.nan, "res_um must be > 0 and finite"),
    ((0.0, 0.0, 0.0), (10.0, 10.0, 0.0), math.inf, "res_um must be > 0 and finite"),
    ((0.0, 0.0, 0.0), (10.0, -10.0, 0.0), 5.0, "span_um must be >= 0 and finite"),
    ((0.0, 0.0, 0.0), (10.0, math.nan, 0.0), 5.0, "span_um must be >= 0 and finite"),
    ((0.0, 0.0, 0.0), (math.inf, 10.0, 0.0), 5.0, "span_um must be >= 0 and finite"),
    ((math.nan, 0.0, 0.0), (10.0, 10.0, 0.0), 5.0, "center_um must be finite"),
    ((0.0, 0.0, -math.inf), (10.0, 10.0, 0.0), 5.0, "center_um must be finite"),
])
def test_pseudo_map_rejects_a_bad_grid(center, span, res, message):
    with pytest.raises(ValueError, match=message):
        pseudo_map(_quad_pseudo(), center, span, res)


def test_the_point_budget_counts_the_grid_as_the_map_lays_it():
    budget = pseudo.MAP_POINT_BUDGET
    assert budget == 2**20 == bem.SOLVE_MEMORY_BUDGET // pseudo.MAP_BYTES_PER_POINT
    # the map of `iontrap map --span-um 300,160,0 --res-um 3`, 101 x 54 points,
    # is far inside the budget
    assert 101 * 54 * 100 < budget
    pseudo.check_grid((0.0, 90.0, 0.0), (300.0, 160.0, 0.0), 3.0)
    # budget points along x, and one more
    pseudo.check_grid((0.0, 0.0, 0.0), (budget - 1.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match=f"has 1.049e\\+06 points, more than the {budget}"):
        pseudo.check_grid((0.0, 0.0, 0.0), (float(budget), 0.0, 0.0), 1.0)
    # 1024 x 1024 fits, 1024 x 1025 does not
    pseudo.check_grid((0.0, 0.0, 0.0), (1023.0, 1023.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="more than"):
        pseudo.check_grid((0.0, 0.0, 0.0), (1023.0, 1024.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="span_um 300,160,0 in steps of res_um 1e-300 has inf"):
        pseudo.check_grid((0.0, 90.0, 0.0), (300.0, 160.0, 0.0), 1e-300)


def test_pseudo_map_csv_round_trip():
    ps = _quad_pseudo()
    grid = pseudo_map(ps, (0.0, 10.0, 0.0), (10.0, 0.0, 0.0), 5.0)
    text = grid.csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "x_um,y_um,z_um,psi_meV"
    assert len(lines) == 1 + grid.values_meV.size
    x, y, z, v = (float(t) for t in lines[1].split(","))
    assert (x, y, z) == (-5.0, 10.0, 0.0)
    # repr round-trip: the parsed value is bit-exact
    assert v == grid.values_meV[0, 0, 0]


def test_pseudo_map_csv_text_is_pinned():
    # x slowest and z fastest, every number the repr of its float, -0.0 kept
    values = np.arange(12.0).reshape(2, 3, 2) * 0.1
    values[1, 0, 1] = -0.0
    grid = pseudo.PseudoMap(np.array([-1.5, 2.0]), np.array([0.0, 1e-7, 3.25]),
                            np.array([-0.0, 7.0]), values)
    assert grid.csv_text() == (
        "x_um,y_um,z_um,psi_meV\n"
        "-1.5,0.0,-0.0,0.0\n" "-1.5,0.0,7.0,0.1\n"
        "-1.5,1e-07,-0.0,0.2\n" "-1.5,1e-07,7.0,0.30000000000000004\n"
        "-1.5,3.25,-0.0,0.4\n" "-1.5,3.25,7.0,0.5\n"
        "2.0,0.0,-0.0,0.6000000000000001\n" "2.0,0.0,7.0,-0.0\n"
        "2.0,1e-07,-0.0,0.8\n" "2.0,1e-07,7.0,0.9\n"
        "2.0,3.25,-0.0,1.0\n" "2.0,3.25,7.0,1.1\n")


class _CountingField:
    """An rf field that counts its field and Jacobian calls and points."""

    def __init__(self, rf):
        self.rf, self.calls = rf, {"field": [], "jacobian": []}

    def field(self, points):
        self.calls["field"].append(len(points))
        return self.rf.field(points)

    def jacobian(self, points):
        self.calls["jacobian"].append(len(points))
        return self.rf.jacobian(points)


def test_hessian_takes_one_field_and_one_jacobian_call_and_grad_bitwise(surface_solved):
    # the seven stencil points go in one Jacobian call, and the polish reads
    # grad psi from the same evaluation: each bit as from separate calls
    rf = surface_solved.charge_weights()
    counted = _CountingField(rf)
    ps = PseudoField(counted, species=CA40, drive=DriveParams.from_mhz(10.0, 20.0))
    pts = np.array([[0.0, 90e-6, 0.0], [31e-6, 140e-6, 0.0], [-7e-6, 60e-6, 12e-6]])
    grad, H = ps.grad_hessian(pts)
    assert counted.calls == {"field": [3], "jacobian": [21]}
    np.testing.assert_array_equal(grad, ps.grad(pts))
    np.testing.assert_array_equal(H, ps.hessian(pts))
    # the Hessian of one Jacobian call per stencil point
    E, J = rf.field(pts), rf.jacobian(pts)
    want = np.einsum("mia,mib->mab", J, J)
    for b in range(3):
        dp = np.zeros(3)
        dp[b] = pseudo.HESSIAN_STEP_M
        dJ = (rf.jacobian(pts + dp) - rf.jacobian(pts - dp)) / (2.0 * pseudo.HESSIAN_STEP_M)
        want[:, :, b] += np.einsum("mi,mia->ma", E, dJ)
    want *= 2.0 * ps.coef
    np.testing.assert_array_equal(H, 0.5 * (want + want.transpose(0, 2, 1)))
