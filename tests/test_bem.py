"""Boundary-element kernel and solver tests.

Kernel values are checked against independent oracles: the closed-form
center potential of a charged square, adaptive 2D quadrature of 1/(4 pi
eps0 r), the infinite-sheet field limit, the point-charge far field, and
finite differences for every derivative. Solver-level values are checked
against the literature constant for the capacitance of an isolated square
plate and the ideal parallel-plate formula.
"""

import json
import math
import multiprocessing
import os
import resource
import struct
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

import scipy.linalg as sla

from iontrap import (
    Box3,
    Electrode,
    MeshParams,
    Rect,
    TrapGeometry,
    build_default,
    build_surface_trap,
    solve_unit_excitations,
)
from iontrap import bem, constants
from iontrap.constants import EPS0
from iontrap.errors import InvalidGeometryError, SolverError
from iontrap.geometry import _mesh_electrodes
from iontrap.pseudo import _grid_axis

RNG = np.random.default_rng(20210814)

# a 20 um x 30 um panel in the y=0 plane used by most kernel tests
PANEL = dict(origin=(-10e-6, 0.0, -15e-6), edge_u=(20e-6, 0.0, 0.0),
             edge_v=(0.0, 0.0, 30e-6))


def _quad_potential(point):
    """Adaptive quadrature of the single-layer integral, unit density."""
    x0, y0, z0 = point
    ox, oy, oz = PANEL["origin"]

    def integrand(s, t):  # s along u (x), t along v (z)
        dx, dy, dz = ox + s - x0, oy - y0, oz + t - z0
        return 1.0 / math.sqrt(dx * dx + dy * dy + dz * dz)

    val, err = integrate.dblquad(integrand, 0.0, 30e-6, 0.0, 20e-6,
                                 epsabs=1e-16, epsrel=1e-10)
    return val / (4.0 * math.pi * EPS0)


def _custom_geometry(electrodes, fine, extent=2000.0):
    mesh = MeshParams(coarse_um=fine, fine_um=fine,
                      fine_region=Box3((0.0, 0.0, 0.0), (extent, 200.0, extent)))
    return TrapGeometry("custom", mesh, electrodes)


def _plate(side_um, fine_um, y_um=0.0, name="p", role="dc"):
    elec = Electrode(name, role, (
        Rect((-side_um / 2, y_um, -side_um / 2),
             (side_um, 0.0, 0.0), (0.0, 0.0, side_um)),))
    return elec


# -- kernel ------------------------------------------------------------------


def test_center_potential_matches_closed_form():
    # potential at the center of a uniformly charged square of side s:
    # sigma * s * ln(1 + sqrt(2)) / (pi * eps0)
    s = 30e-6
    phi = bem.panel_potential((-s / 2, 0.0, -s / 2), (s, 0.0, 0.0),
                              (0.0, 0.0, s), np.array([[0.0, 0.0, 0.0]]))
    ref = s * math.log(1.0 + math.sqrt(2.0)) / (math.pi * EPS0)
    assert phi[0] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("point", [
    (3e-6, 8e-6, -2e-6),       # above the panel
    (-25e-6, 0.0, 4e-6),       # in-plane, outside the rectangle
    (12e-6, -6e-6, 40e-6),     # below, beyond the far edge
])
def test_potential_matches_adaptive_quadrature(point):
    phi = bem.panel_potential(points=np.array([point]), **PANEL)
    assert phi[0] == pytest.approx(_quad_potential(point), rel=1e-8)


def test_far_field_approaches_point_charge():
    area = 20e-6 * 30e-6
    r = 100 * 30e-6
    direction = np.array([0.3, 0.8, -0.52])
    p = direction / np.linalg.norm(direction) * r
    phi = bem.panel_potential(points=p[None, :], **PANEL)
    ref = area / (4.0 * math.pi * EPS0 * r)
    assert phi[0] == pytest.approx(ref, rel=1e-3)


def test_near_sheet_normal_field_is_sigma_over_two_eps0():
    E = bem.panel_field(points=np.array([[0.0, 1e-12, 0.0]]), **PANEL)
    assert E[0][1] * 2.0 * EPS0 == pytest.approx(1.0, rel=1e-6)
    below = bem.panel_field(points=np.array([[0.0, -1e-12, 0.0]]), **PANEL)
    assert below[0][1] * 2.0 * EPS0 == pytest.approx(-1.0, rel=1e-6)


def test_on_sheet_point_warns_and_returns_principal_value():
    with pytest.warns(UserWarning, match="discontinuous"):
        E = bem.panel_field(points=np.array([[1e-6, 0.0, 2e-6]]), **PANEL)
    assert np.all(np.isfinite(E))


def _random_points(n, scale=40e-6, min_height=2e-6):
    pts = RNG.uniform(-scale, scale, size=(n, 3))
    pts[:, 1] = RNG.uniform(min_height, scale, size=n) * RNG.choice(
        [-1.0, 1.0], size=n)
    return pts


def test_field_is_negative_gradient_of_potential():
    ps = bem.PanelSet(np.array([PANEL["origin"]]), np.array([PANEL["edge_u"]]),
                      np.array([PANEL["edge_v"]]), np.array([0]))
    pts = _random_points(100)
    sigma = np.ones(1)
    E = bem.field_of(ps, sigma, pts)
    h = 1e-9
    for ax in range(3):
        dp = np.zeros(3)
        dp[ax] = h
        dphi = (bem.potential_of(ps, sigma, pts + dp)
                - bem.potential_of(ps, sigma, pts - dp)) / (2.0 * h)
        scale = np.abs(E).max()
        assert np.abs(E[:, ax] + dphi).max() < 1e-6 * scale


def test_jacobian_matches_finite_difference_and_is_traceless():
    ps = bem.PanelSet(np.array([PANEL["origin"]]), np.array([PANEL["edge_u"]]),
                      np.array([PANEL["edge_v"]]), np.array([0]))
    pts = _random_points(50)
    sigma = np.ones(1)
    J = bem.jacobian_of(ps, sigma, pts)
    assert np.abs(J - J.transpose(0, 2, 1)).max() <= 1e-9 * np.abs(J).max()
    trace = np.abs(J[:, 0, 0] + J[:, 1, 1] + J[:, 2, 2])
    assert trace.max() <= 1e-9 * np.abs(J).max()
    h = 1e-9
    for ax in range(3):
        dp = np.zeros(3)
        dp[ax] = h
        dE = (bem.field_of(ps, sigma, pts + dp)
              - bem.field_of(ps, sigma, pts - dp)) / (2.0 * h)
        assert np.abs(J[:, :, ax] - dE).max() < 1e-6 * np.abs(J).max()


def test_potential_and_field_are_linear_in_sigma():
    ps = bem.PanelSet(
        np.array([PANEL["origin"], (40e-6, 10e-6, 0.0)]),
        np.array([PANEL["edge_u"], (0.0, 20e-6, 0.0)]),
        np.array([PANEL["edge_v"], (0.0, 0.0, 20e-6)]),
        np.array([0, 1]))
    pts = _random_points(20)
    s1 = np.array([1.0, 0.0])
    s2 = np.array([0.0, 1.0])
    mix = 2.5 * s1 - 0.5 * s2
    np.testing.assert_allclose(
        bem.potential_of(ps, mix, pts),
        2.5 * bem.potential_of(ps, s1, pts) - 0.5 * bem.potential_of(ps, s2, pts),
        rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        bem.field_of(ps, mix, pts),
        2.5 * bem.field_of(ps, s1, pts) - 0.5 * bem.field_of(ps, s2, pts),
        rtol=1e-12, atol=1e-3 * np.abs(bem.field_of(ps, mix, pts)).max())


def test_corner_sharing_telescopes_to_the_unsplit_rectangles():
    # a graded mesh with hanging nodes of two rectangles in two planes and
    # frames; with piecewise-uniform sigma every shared corner must cancel
    # to the potential, field and Jacobian of the two whole rectangles
    rect_a = Rect((-200.0, 0.0, -150.0), (400.0, 0.0, 0.0), (0.0, 0.0, 300.0))
    rect_b = Rect((-160.0, 60.0, -180.0), (0.0, 0.0, 360.0), (320.0, 0.0, 0.0))
    mesh = MeshParams(coarse_um=80.0, fine_um=10.0,
                      fine_region=Box3((30.0, 30.0, -20.0), (20.0, 60.0, 20.0)))
    po, pu, pv, pe = _mesh_electrodes(
        (Electrode("a", "rf", (rect_a,)), Electrode("b", "dc", (rect_b,))), mesh)
    meshed = bem.PanelSet(po * 1e-6, pu * 1e-6, pv * 1e-6, pe)
    assert 350 < meshed.n < 450 and len(np.unique(meshed.a)) > 4
    whole = bem.PanelSet(
        np.array([r.origin for r in (rect_a, rect_b)]) * 1e-6,
        np.array([r.edge_u for r in (rect_a, rect_b)]) * 1e-6,
        np.array([r.edge_v for r in (rect_a, rect_b)]) * 1e-6, np.array([0, 1]))
    density = np.array([2.0e-9, -1.3e-9])

    rng = np.random.default_rng(7)
    off = rng.uniform((-300.0, -80.0, -250.0), (300.0, 140.0, 250.0), (60, 3))
    off = off[(np.abs(off[:, 1]) > 2.0) & (np.abs(off[:, 1] - 60.0) > 2.0)]
    in_planes = np.array([
        [237.3, 0.0, 11.9], [-251.7, 0.0, -170.3], [13.1, 0.0, 171.3],
        [-88.9, 0.0, -203.7], [193.7, 60.0, 17.1], [-21.3, 60.0, 207.9],
        [171.1, 60.0, -193.3], [-240.9, 60.0, -41.7]])
    pts = np.vstack([off, in_planes]) * 1e-6

    for evaluate in (bem.potential_of, bem.field_of, bem.jacobian_of):
        ref = evaluate(whole, density, pts)
        got = evaluate(meshed, density[pe], pts)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), evaluate


def _trap_points(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform((-200e-6, 10e-6, -200e-6), (200e-6, 200e-6, 200e-6), (n, 3))


def _evaluators(solved):
    ps = solved.pset
    sigma = solved.sigma_for(solved.rf_voltages())
    return {"potential_of": lambda p: bem.potential_of(ps, sigma, p),
            "potential_of 2-D sigma": lambda p: bem.potential_of(ps, solved.sigma[:, :2], p),
            "field_of": lambda p: bem.field_of(ps, sigma, p),
            "jacobian_of": lambda p: bem.jacobian_of(ps, sigma, p)}


def test_a_point_evaluates_bitwise_alike_in_every_batch(surface_solved):
    # each row is reduced along its own corners, so a point's value must not
    # depend on the size of its batch or on where it sits in its block; the
    # images of the probes on a mirror plane and on x = z = 0 coincide, and
    # the batches mix points on and off the planes
    corners = sum(g.cu.size for g in surface_solved.pset.corner_groups)
    several_blocks = 3 * bem._BLOCK_PAIRS // corners + 5
    sizes = (2, 3, 5, 21, 22, 43, 999, several_blocks)
    others = _trap_points(max(sizes), 12)
    others[::3, 2] = 0.0
    others[::5, 0] = 0.0
    for probe in _trap_points(1, 11) * [[1, 1, 1], [1, 1, 0], [0, 1, 0]]:
        for name, evaluate in _evaluators(surface_solved).items():
            alone = evaluate(probe[None])[0]
            for m in sizes:
                batch = evaluate(np.vstack([probe, others[:m - 2], probe]))
                assert batch.shape[0] == m
                assert np.array_equal(batch[0], alone), (name, probe, m)
                assert np.array_equal(batch[-1], alone), (name, probe, m)


def _whole_table(pset):
    """The same panels without their mirror group: every point reads every
    corner with sigma."""
    return bem.PanelSet(pset.origins, pset.edge_u, pset.edge_v, pset.electrode_idx)


def _kept_mirrors(charge):
    """The coordinates (0 for x, 2 for z) whose mirror e in the group maps
    the charge onto itself bit for bit, in every column of it: the mirrors
    with column[g] == column[g.e] for every element g."""
    at = dict(zip(charge.pset.group.elements.tolist(), charge.column))
    return [ax for e, ax in bem._MIRROR_AXES
            if e in at and all(at[g] == at[g ^ e] for g in at)]


def _plane_points(seed):
    """Points on x = 0, on z = 0, on both, and off the planes, 20 of each."""
    pts = _trap_points(20, seed)
    return np.vstack([pts * [0, 1, 1], pts * [1, 1, 0], pts * [0, 1, 0], pts])


@pytest.mark.parametrize("fixture", ["surface_solved", "gnd_solved_200", "cross_solved_200"])
def test_points_on_the_mirror_planes_read_one_panel_per_orbit(fixture, request):
    solved = request.getfixturevalue(fixture)
    pset, whole = solved.pset, _whole_table(solved.pset)
    assert pset.group.names == FULL_GROUP and whole.group.names == []
    pts = _plane_points(21)
    first_rf = solved.geometry.electrodes_with_role("rf")[0]
    rf = solved.sigma_for(solved.rf_voltages())
    rough = np.random.default_rng(22).uniform(-1.0, 1.0, pset.n)
    sigmas = {"rf": rf, first_rf: solved.sigma_for({first_rf: 1.0}), "random": rough,
              "columns": np.column_stack([rf, rough])}
    # bit for bit, every solved charge keeps the z mirror, the rf charge of a
    # planar trap also the x mirror, and a random charge neither; a 2-D
    # charge keeps a mirror only if each of its columns does
    keeps = {"rf": [2] if solved.geometry.design == "cross-rf" else [0, 2],
             first_rf: [2], "random": [], "columns": []}
    for label, sigma in sigmas.items():
        charge = bem.ChargeWeights(pset, sigma)
        assert _kept_mirrors(charge) == charge.kept_axes == keeps[label], label
        # one weight column per element, but one for the mirrors that keep sigma
        assert len(charge.columns) == 4 // 2 ** len(keeps[label]), label
        # a random sigma has no smooth field: its corner sums cancel more, so
        # the rounding of each is a larger share of the result
        rel = 1e-12 if label in ("rf", first_rf) else 1e-11
        evaluators = ((bem.potential_of,) if sigma.ndim == 2
                      else (bem.potential_of, bem.field_of, bem.jacobian_of))
        for evaluate in evaluators:
            got, want = evaluate(pset, sigma, pts), evaluate(whole, sigma, pts)
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= rel * scale, (label, evaluate)
        if sigma.ndim == 1:
            _assert_mirror_images_are_signed_bitwise(pset, sigma, pts)
    # the 80 points have 20 + 2 * 40 + 4 * 20 distinct images, each read
    # against the corners of one panel per orbit
    charge = bem.ChargeWeights(pset, sigmas["rf"])
    bem.field_of(pset, charge, pts)
    every = sum(g.cu.size for g in pset.corner_groups)
    reps = sum(g.cu.size for g in pset.group.table(pset).corner_groups)
    assert charge.evaluations == {"points": 80, "images": 180, "corners": reps}
    assert reps < 0.3 * every


def _skip_sets(pset):
    """Points on z = 0, on x = 0, on x = z = 0, and panel centres of each
    wafer plane, 5 of each."""
    pts = _trap_points(5, 41)
    sets = {"z = 0": pts * [1, 1, 0], "x = 0": pts * [0, 1, 1], "x = z = 0": pts * [0, 1, 0]}
    for y in np.unique(pset.centers[:, 1]):
        sets[f"centres at y = {y:g}"] = pset.centers[pset.centers[:, 1] == y][::53][:5]
    return sets


def _every_term(terms):
    """terms with neither skip: the normal term and every output computed."""
    return lambda u, v, z, s, mask, normal, odd: terms(u, v, z, s, mask, True, set())


@pytest.mark.parametrize("fixture", ["surface_solved", "cross_solved_200"])
def test_skipped_kernel_terms_give_the_bits_of_computed_ones(fixture, request, monkeypatch):
    # each set alone, and all sets with two points off every plane in one
    # batch, against the same calls with term functions that skip nothing
    solved = request.getfixturevalue(fixture)
    pset, sigma = solved.pset, solved.sigma_for(solved.rf_voltages())
    calls = list(_skip_sets(pset).values())
    calls.append(np.vstack(calls + [_trap_points(2, 42)]))
    evaluators = (bem.potential_of, bem.field_of, bem.jacobian_of)
    got = [[evaluate(pset, sigma, pts) for pts in calls] for evaluate in evaluators]
    for name in ("_potential_terms", "_field_terms", "_jacobian_terms"):
        monkeypatch.setattr(bem, name, _every_term(getattr(bem, name)))
    for evaluate, values in zip(evaluators, got):
        for k, pts in enumerate(calls):
            assert values[k].tobytes() == evaluate(pset, sigma, pts).tobytes(), (evaluate, k)


def test_the_kernel_skips_the_terms_that_can_only_add_zeros(
        surface_solved, cross_solved_200, monkeypatch):
    # one block each: on z = 0 the surface field needs ln(v + r) alone, on
    # x = z = 0 no ln at all; cross-rf's rf charge does not keep x, so there
    # the x component still needs its ln. At the collocation points of a
    # plane the potential needs no atan.
    ln_sums, atans = [], []
    ln_sum, arctan2 = bem._ln_sum, np.arctan2
    monkeypatch.setattr(bem, "_ln_sum", lambda *a: ln_sums.append(1) or ln_sum(*a))
    monkeypatch.setattr(bem.np, "arctan2", lambda *a, **k: atans.append(1) or arctan2(*a, **k))

    def count(evaluate, solved, pts):
        ln_sums.clear()
        atans.clear()
        pset = solved.pset
        if evaluate is bem.potential_matrix:
            evaluate(pset.group.table(pset), pts)
        else:
            evaluate(pset, solved.sigma_for(solved.rf_voltages()), pts)
        return len(ln_sums), len(atans)

    pts = _trap_points(5, 43)
    for solved in (surface_solved, cross_solved_200):
        groups = len(solved.pset.group.table(solved.pset).corner_groups)
        cross = solved.geometry.design == "cross-rf"
        assert count(bem.field_of, solved, pts) == (2 * groups, groups)
        assert count(bem.field_of, solved, pts * [1, 1, 0]) == (groups, groups)
        assert count(bem.field_of, solved, pts * [0, 1, 0]) == (groups if cross else 0, groups)
        # the potential is even under every mirror
        assert count(bem.potential_of, solved, pts * [0, 1, 0]) == (2 * groups, groups)
    pset = surface_solved.pset
    assert count(bem.potential_matrix, surface_solved, pset.centers[:5]) == (2, 0)
    assert count(bem.potential_matrix, surface_solved, pts) == (2, 1)


def _assert_mirror_images_are_signed_bitwise(pset, sigma, pts):
    """Under each element g of pset.group made of mirrors that keep sigma,
    the potential, field and Jacobian at g.p are those at p, bit for bit,
    with the sign g gives each output."""
    axes = _kept_mirrors(bem.ChargeWeights(pset, sigma))
    for e in pset.group.elements:
        s = bem._MIRROR_SIGNS[e]
        if any(s[ax] < 0 and ax not in axes for ax in range(3)):
            continue
        for evaluate, sign in ((bem.potential_of, 1.0), (bem.field_of, s),
                               (bem.jacobian_of, s[:, None] * s)):
            assert np.array_equal(evaluate(pset, sigma, pts * s),
                                  evaluate(pset, sigma, pts) * sign), (e, evaluate)


def _tilted_plates():
    """Two plates whose frames mix x or y with z, mirror images under z."""
    return _custom_geometry(
        (Electrode("a", "rf", (Rect((0.0, 0.0, 10.0), (100.0, 0.0, 100.0),
                                    (0.0, 100.0, 0.0)),)),
         Electrode("b", "dc", (Rect((0.0, 0.0, -10.0), (100.0, 0.0, -100.0),
                                    (0.0, 100.0, 0.0)),))), 25.0)


def test_mirror_images_of_a_symmetric_charge_on_tilted_plates_take_the_signed_outputs():
    # the built-in traps take this check in the mirror-plane test above; here
    # a kernel term adds to outputs of both characters of the z mirror
    pset = bem.PanelSet(*_tilted_plates().arrays_m())
    pset.group = bem._MirrorGroup(pset)
    sigma = np.random.default_rng(29).uniform(-1.0, 1.0, pset.n)
    sigma = 0.5 * (sigma + sigma[pset.group.perms[1]])  # z-symmetric, bit for bit
    assert _kept_mirrors(bem.ChargeWeights(pset, sigma)) == [2]
    pts = np.vstack([_plane_points(30), _trap_points(20, 31) * [1, 1, -1]])
    _assert_mirror_images_are_signed_bitwise(pset, sigma, pts)


def test_tilted_panels_take_each_field_component_from_its_character():
    # panels whose frame mixes x or y with z: a kernel term adds to the z
    # component, which the z mirror flips, and to x or y, which it keeps;
    # a charge that is not z-symmetric weighs each point's mirror image by
    # a column of its own
    pset = bem.PanelSet(*_tilted_plates().arrays_m())
    pset.group = bem._MirrorGroup(pset)
    assert pset.group.names == ["z=0"]
    rng = np.random.default_rng(23)
    pts = rng.uniform((-50e-6, -50e-6, -80e-6), (150e-6, 150e-6, 80e-6), (30, 3))
    pts[:20, 2] = 0.0
    sigma = rng.uniform(-1.0, 1.0, pset.n)
    charge = bem.ChargeWeights(pset, sigma)
    assert len(charge.columns) == 2 and _kept_mirrors(charge) == []
    for evaluate in (bem.potential_of, bem.field_of, bem.jacobian_of):
        got, want = evaluate(pset, charge, pts), evaluate(_whole_table(pset), sigma, pts)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), evaluate
    # each point off the plane has two images, each on it one
    assert charge.evaluations["images"] == 3 * (20 + 2 * 10)


def _orbits(perms):
    """reps, images and stab of the panel permutations perms, each orbit
    closed by applying every permutation until it grows no more."""
    n = perms.shape[1]
    seen = np.zeros(n, bool)
    reps = []
    for j in range(n):
        if seen[j]:
            continue
        orbit, todo = {j}, [j]
        while todo:
            i = todo.pop()
            for p in perms:
                if p[i] not in orbit:
                    orbit.add(int(p[i]))
                    todo.append(int(p[i]))
        seen[list(orbit)] = True
        reps.append(min(orbit))
    images = np.array([[p[r] for r in reps] for p in perms])
    stab = np.array([sum(p[r] == r for p in perms) for r in reps])
    return np.array(reps), images, stab


def _z_only_layout():
    """Two plates mirror images of each other under z alone."""
    return _custom_geometry((_rect("a", -100.0, 20.0, 250.0, 200.0),
                             _rect("b", -100.0, -220.0, 250.0, 200.0)), 50.0)


@pytest.mark.parametrize("layout", ["surface_solved", "gnd_solved_200", "cross_solved_200",
                                    "z-only", "tilted"])
def test_the_rep_table_holds_the_panels_of_the_orbit_reps(layout, request):
    if layout in ("z-only", "tilted"):
        g = _z_only_layout() if layout == "z-only" else _tilted_plates()
        pset = bem.PanelSet(*g.arrays_m())
        pset.group = bem._MirrorGroup(pset)
        assert pset.group.names == ["z=0"]
    else:
        pset = request.getfixturevalue(layout).pset
        assert pset.group.names == FULL_GROUP
    group = pset.group
    reps, images, stab = _orbits(group.perms)
    np.testing.assert_array_equal(group.reps, reps)
    np.testing.assert_array_equal(group.images, images)
    np.testing.assert_array_equal(group.stab, stab)
    # the table is the rep panels, in the order of reps, with their corners
    table = group.table(pset)
    assert table.n == reps.size < pset.n
    for a in ("origins", "edge_u", "edge_v", "electrode_idx"):
        np.testing.assert_array_equal(getattr(table, a), getattr(pset, a)[reps])
    panels = np.sort(np.concatenate([g.panels for g in table.corner_groups]))
    np.testing.assert_array_equal(panels, np.arange(reps.size))
    # built once and kept on the group
    assert group.table(pset) is table


def test_images_of_a_point_are_its_distinct_mirror_images(surface_solved):
    group = surface_solved.pset.group
    pts = _plane_points(35)
    images, index = group.images_of(pts)
    assert index.shape == (4, 80)
    for e, rows in zip(group.elements, index):
        np.testing.assert_array_equal(images[rows], pts * bem._MIRROR_SIGNS[e] + 0.0)
    assert len(images) == 20 * 1 + 40 * 2 + 20 * 4
    assert not np.signbit(images[images == 0.0]).any()


def test_a_negative_zero_coordinate_gives_the_bits_of_a_positive_one(surface_solved):
    pts = _plane_points(36)
    negative = pts.copy()
    negative[pts == 0.0] = -0.0
    assert np.signbit(negative).any()
    solved = [surface_solved.pset, _whole_table(surface_solved.pset)]
    for pset in solved:
        # -0.0 and 0.0 are one image
        images = pset.group.images_of(negative)[0]
        assert images.tobytes() == pset.group.images_of(pts)[0].tobytes()
        sigma = surface_solved.sigma_for(surface_solved.rf_voltages())
        for evaluate in (bem.potential_of, bem.field_of, bem.jacobian_of):
            assert (evaluate(pset, sigma, negative).tobytes()
                    == evaluate(pset, sigma, pts).tobytes()), (pset.group.names, evaluate)


def test_a_fresh_panel_set_has_the_identity_group_and_reads_the_whole_table(
        surface_solved):
    pset = _whole_table(surface_solved.pset)
    group = pset.group
    assert (group.names, group.elements.tolist(), group.block_sizes) == ([], [0], [pset.n])
    np.testing.assert_array_equal(group.perms, np.arange(pset.n)[None])
    charge = bem.ChargeWeights(pset, surface_solved.sigma[:, 0])
    pts = _plane_points(28)
    np.testing.assert_array_equal(charge.field(pts), bem.field_of(pset, charge.sigma, pts))
    every = sum(g.cu.size for g in pset.corner_groups)
    assert charge.evaluations == {"points": 80, "images": 80, "corners": every}
    # the table is the panel set itself, and the one weight column sigma's,
    # bit for bit
    assert group.table(pset) is pset and len(charge.columns) == 1
    for g, w in zip(pset.corner_groups, charge.weights()):
        assert w.tobytes() == g.fold(charge.sigma).tobytes()


def test_a_second_identical_call_allocates_no_kernel_scratch():
    ps = _panel_grid(400)
    sigma = np.ones(ps.n)
    corners = sum(g.cu.size for g in ps.corner_groups)
    for m in (2000, 3):  # blocks on the pool, then one block inline
        bem._release_scratch()
        pts = _trap_points(m, 24)
        scratch = 8 * bem._SCRATCH * min(m, bem._BLOCK_PAIRS // corners) * corners
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                bem.field_of(ps, sigma, pts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the first call's peak holds the scratch, the second's does not
        assert peaks[0] - peaks[1] >= scratch > peaks[1], (m, peaks)


def test_a_solve_holds_no_kernel_scratch_through_its_factorization(monkeypatch):
    g = _custom_geometry((_plate(400.0, 50.0, 0.0, "a", "rf"),), 50.0)
    bem.field_of(_panel_grid(400), np.ones(400), _trap_points(2000, 25))
    assert bem._scratch
    held = []
    factor = sla.lu_factor

    def watching_factor(*args, **kwargs):
        held.append(len(bem._scratch))
        return factor(*args, **kwargs)

    monkeypatch.setattr(sla, "lu_factor", watching_factor)
    solve_unit_excitations(g)
    assert held and not any(held)


def _map_points():
    """The points of `iontrap map --center-um 0,90,0 --span-um 300,160,0 --res-um 3`."""
    axes = [_grid_axis(c, s, 3.0) for c, s in zip((0.0, 90.0, 0.0), (300.0, 160.0, 0.0))]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3) * 1e-6


def test_one_kernel_worker_gives_the_pool_output_bitwise(surface_solved, monkeypatch):
    ps = surface_solved.pset
    sigma = surface_solved.sigma_for(surface_solved.rf_voltages())
    pts = _map_points()
    reps = ps.centers[bem._MirrorGroup(ps).reps]
    assert pts.shape == (5454, 3)
    # the threaded path runs even on a host with one CPU
    monkeypatch.setattr(bem, "_WORKERS", max(bem._WORKERS, 2))
    pooled = bem.field_of(ps, sigma, pts), bem.potential_matrix(ps, reps)
    monkeypatch.setattr(bem, "_WORKERS", 1)
    serial = bem.field_of(ps, sigma, pts), bem.potential_matrix(ps, reps)
    # more workers than CPUs, switching threads as often as the interpreter can
    monkeypatch.setattr(bem, "_WORKERS", 4 * len(os.sched_getaffinity(0)))
    monkeypatch.setattr(bem, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        crowded = bem.field_of(ps, sigma, pts), bem.potential_matrix(ps, reps)
    finally:
        sys.setswitchinterval(interval)
        bem._pool.shutdown()
    for a, b, c in zip(pooled, serial, crowded):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_potential_matrix_of_more_panels_than_corners():
    # the 36 overlapping rectangles spanned by a 4 x 4 lattice share 16
    # corners, so the panel gathers need more scratch than the corner terms
    lattice = 10e-6 * np.arange(4)
    spans = [(a, b) for a in lattice for b in lattice if a < b]
    origins = np.array([(x0, 0.0, z0) for x0, _ in spans for z0, _ in spans])
    eu = np.array([(x1 - x0, 0.0, 0.0) for x0, x1 in spans for _ in spans])
    ev = np.array([(0.0, 0.0, z1 - z0) for _ in spans for z0, z1 in spans])
    ps = bem.PanelSet(origins, eu, ev, np.zeros(len(origins), dtype=int))
    assert [(g.cu.size, g.panels.size) for g in ps.corner_groups] == [(16, 36)]
    pts = _trap_points(40, 17)
    R = bem.potential_matrix(ps, pts)
    for j in range(ps.n):
        np.testing.assert_allclose(R[:, j], bem.panel_potential(origins[j], eu[j], ev[j], pts),
                                   rtol=1e-12)


def test_kernel_blocks_reuse_their_scratch_memory():
    # blocks that allocated their temporaries would have the allocator hand
    # them back to the system after each block and fault them in again for
    # the next; a fresh process shows it, before anything has raised the
    # allocator's trim threshold
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from iontrap import bem
        bem._WORKERS = 1
        m = np.arange(3000)
        ps = bem.PanelSet(np.column_stack([1e-5 * (m % 120), 0.0 * m, 1e-5 * (m // 120)]),
                          np.tile([1e-5, 0.0, 0.0], (m.size, 1)),
                          np.tile([0.0, 0.0, 1e-5], (m.size, 1)), 0 * m)
        pts = np.random.default_rng(16).uniform(1e-5, 1e-3, (2000, 3))
        bem.field_of(ps, np.ones(ps.n), pts)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        bem.field_of(ps, np.ones(ps.n), pts)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        pairs = pts.shape[0] * sum(g.cu.size for g in ps.corner_groups)
        print(faults * resource.getpagesize() / (bem._SCRATCH * 8 * pairs))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    # the share of the blocks' arrays that had to be faulted in
    assert float(run.stdout) < 0.05


def test_an_error_in_a_kernel_worker_reaches_the_caller(monkeypatch):
    ps = _panel_grid(400)
    pts = _trap_points(2000, 13)
    terms, threads = bem._field_terms, []

    def failing(*args):
        threads.append(threading.current_thread())
        if len(threads) == 3:
            raise FloatingPointError("injected kernel fault")
        return terms(*args)

    monkeypatch.setattr(bem, "_WORKERS", max(bem._WORKERS, 2))
    monkeypatch.setattr(bem, "_field_terms", failing)
    with pytest.raises(FloatingPointError, match="injected kernel fault"):
        bem.field_of(ps, np.ones(ps.n), pts)
    assert any(t is not threading.main_thread() for t in threads)


def test_a_forked_child_evaluates_on_a_pool_of_its_own(monkeypatch):
    # `iontrap sweep --jobs N` forks after the parent has used the pool; a
    # child that kept the parent's pool object would wait forever on it
    ps = _panel_grid(400)
    sigma = np.random.default_rng(14).uniform(-1.0, 1.0, ps.n)
    pts = _trap_points(2000, 15)
    monkeypatch.setattr(bem, "_WORKERS", max(bem._WORKERS, 2))
    parent = bem.field_of(ps, sigma, pts)
    assert bem._pool is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(bem.field_of(ps, sigma, pts)))
    child.start()
    try:
        assert recv.poll(60), "the forked child's field_of did not return"
        assert np.array_equal(recv.recv(), parent)
    finally:
        child.kill()
        child.join()


# -- solver ------------------------------------------------------------------


def test_unit_solve_satisfies_boundary_conditions():
    g = _custom_geometry((_plate(400.0, 100.0, 0.0, "a", "rf"),
                          _plate(400.0, 100.0, 50.0, "b", "ground")), 100.0)
    solved = solve_unit_excitations(g)
    assert solved.residual_max < 1e-8
    # the prescribed voltages are met exactly at every collocation point
    centers = solved.pset.centers
    on_a = centers[solved.pset.electrode_idx == 0]
    on_b = centers[solved.pset.electrode_idx == 1]
    phi_a = solved.charge_weights({"a": 1.0}).potential(on_a)
    phi_b = solved.charge_weights({"a": 1.0}).potential(on_b)
    assert np.abs(phi_a - 1.0).max() < 1e-8
    assert np.abs(phi_b).max() < 1e-8


def test_boundary_error_between_collocation_points_shrinks_with_mesh():
    # between centers the piecewise-constant densities only approximate the
    # boundary condition; refining the mesh must shrink that error (checked
    # away from the plate edges, where the density itself diverges)
    probes = np.array([[37e-6, 0.0, -12e-6], [-110e-6, 0.0, 80e-6],
                       [60e-6, 0.0, 60e-6], [5e-6, 0.0, 95e-6]])
    errs = []
    for fine in (100.0, 50.0):
        g = _custom_geometry((_plate(400.0, fine, 0.0, "a", "rf"),
                              _plate(400.0, fine, 50.0, "b", "ground")), fine)
        solved = solve_unit_excitations(g)
        phi = solved.charge_weights({"a": 1.0}).potential(probes)
        errs.append(np.abs(phi - 1.0).max())
    assert errs[0] < 0.10
    assert errs[1] < 0.25 * errs[0]


def test_solved_trap_field_is_superposition_of_units():
    g = _custom_geometry((_plate(200.0, 100.0, 0.0, "a", "rf"),
                          _plate(200.0, 100.0, 40.0, "b", "dc")), 100.0)
    solved = solve_unit_excitations(g)
    pts = np.array([[10e-6, 20e-6, 5e-6]])
    mixed = solved.charge_weights({"a": 3.0, "b": -1.5}).field(pts)
    via_units = (3.0 * solved.charge_weights({"a": 1.0}).field(pts)
                 - 1.5 * solved.charge_weights({"b": 1.0}).field(pts))
    np.testing.assert_allclose(mixed, via_units, rtol=1e-12)


def test_nan_residual_fails_closed_and_is_not_cached(tmp_path, monkeypatch):
    # the residual check is the solve's only mirror sum
    g = _custom_geometry((_plate(200.0, 100.0, 0.0, "a", "rf"),), 100.0)
    sum_images = bem._MirrorGroup.sum_images

    def nan_sum(group, *args):
        return np.full_like(sum_images(group, *args), np.nan)

    monkeypatch.setattr(bem._MirrorGroup, "sum_images", nan_sum)
    with pytest.raises(SolverError, match="residual") as err:
        solve_unit_excitations(g, cache_dir=tmp_path)
    assert "electrode 'a'" in str(err.value)
    assert not list(tmp_path.iterdir())


def test_condition_estimate_ignores_the_last_bits_of_dgecon(monkeypatch):
    # dgecon's last bit follows buffer placement; the stored estimate must not.
    # One ulp less is absorbed by the product on this mesh; four move the
    # unrounded estimate from 894.2426947384369 to ...376
    g = build_default("surface", fine_um=80.0)
    first = solve_unit_excitations(g)
    assert first.cond_estimate == float(f"{first.cond_estimate:.{bem.COND_DIGITS}g}")
    dgecon = sla.lapack.dgecon
    calls = []

    def four_ulps_lower(*args, **kwargs):
        rcond, info = dgecon(*args, **kwargs)
        calls.append(rcond)
        for _ in range(4):
            rcond = np.nextafter(rcond, 0.0)
        return rcond, info

    monkeypatch.setattr(sla.lapack, "dgecon", four_ulps_lower)
    second = solve_unit_excitations(g)
    assert len(calls) == len(second.diagnostics["factored_blocks"]) == 2
    assert second.cond_estimate == first.cond_estimate
    np.testing.assert_array_equal(second.sigma, first.sigma)


def _dense_sigma(solved):
    """sigma of every unit excitation from the whole matrix and one LU."""
    pset = solved.pset
    A = bem.potential_matrix(pset, pset.centers)
    names = solved.geometry.electrode_names
    B = (pset.electrode_idx[:, None] == np.arange(len(names))).astype(float)
    return sla.lu_solve(sla.lu_factor(A), B)


FULL_GROUP = ["x=0", "z=0", "x=0 & z=0"]


@pytest.mark.parametrize("design,h_um,fine_um", [
    ("surface", None, 80.0), ("gnd-surface", 200.0, 80.0), ("cross-rf", 200.0, 40.0)])
def test_symmetric_solve_matches_the_dense_solve(design, h_um, fine_um):
    solved = solve_unit_excitations(build_default(design, h_um=h_um, fine_um=fine_um))
    diag = solved.diagnostics
    assert diag["mirror_group"] == FULL_GROUP
    assert len(diag["block_sizes"]) == 4 and sum(diag["block_sizes"]) == solved.pset.n
    dense = _dense_sigma(solved)
    assert np.abs(solved.sigma - dense).max() <= 1e-10 * np.abs(dense).max()


def _rect(name, x0, z0, dx, dz, y=0.0):
    return Electrode(name, "dc", (Rect((x0, y, z0), (dx, 0.0, 0.0), (0.0, 0.0, dz)),))


def _watch_factor(monkeypatch):
    """The sizes of the matrices lu_factor is called on, in call order."""
    sizes, factor = [], sla.lu_factor

    def watching_factor(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(sla, "lu_factor", watching_factor)
    return sizes


def _odd_in_z(pset):
    """A right-hand side column odd in z and neither even nor odd in x: on
    a mesh with both mirrors it reaches every block."""
    x, _, z = pset.centers.T
    return np.sign(z) * (1.0 + (x > 0))


def _chars_of(group, element, sign):
    """The blocks of group whose character has this sign on element."""
    g = group.elements.tolist().index(element)
    return [c for c, chi in enumerate(group.chars[:, g]) if chi == sign]


def test_a_built_in_solve_factors_only_its_z_even_blocks(monkeypatch):
    # every electrode of a built-in mesh is even in z, so the right-hand
    # sides of the z-odd blocks are exactly zero, and so are their solutions
    g = build_default("surface", fine_um=80.0)
    factored = _watch_factor(monkeypatch)
    solved = solve_unit_excitations(g)
    group, diag = solved.pset.group, solved.diagnostics
    assert diag["factored_blocks"] == _chars_of(group, 2, 1) == [0, 2]
    assert factored == [diag["block_sizes"][c] for c in diag["factored_blocks"]]
    # the same system with a last column that reaches every block
    pset = solved.pset
    points, index = group.images_of(pset.centers[group.reps])
    Q = bem.potential_matrix(group.table(pset), points)
    B = (pset.electrode_idx[:, None] == np.arange(len(g.electrode_names))).astype(float)
    every, _, blocks = group.solve(Q, index, np.column_stack([B, _odd_in_z(pset)]))
    assert blocks == [0, 1, 2, 3]
    sigma = every[:, :-1]
    assert np.abs(solved.sigma - sigma).max() <= 1e-13 * np.abs(sigma).max()


def test_a_layout_with_an_electrode_odd_in_z_factors_every_block_it_reaches(monkeypatch):
    # a plate about the origin and two above and below it: the mesh keeps
    # both mirrors, and the unit excitation of top or bottom, even in x but
    # not in z, reaches the two x-even blocks, one of them z-odd
    g = _custom_geometry((_rect("mid", -100.0, -150.0, 200.0, 300.0),
                          _rect("top", -100.0, 200.0, 200.0, 150.0),
                          _rect("bottom", -100.0, -350.0, 200.0, 150.0)), 50.0)
    factored = _watch_factor(monkeypatch)
    solved = solve_unit_excitations(g)
    group, diag = solved.pset.group, solved.diagnostics
    assert diag["mirror_group"] == FULL_GROUP
    assert diag["factored_blocks"] == _chars_of(group, 1, 1) == [0, 1]
    assert _chars_of(group, 2, -1)[0] in diag["factored_blocks"]
    assert factored == [diag["block_sizes"][c] for c in diag["factored_blocks"]]
    assert solved.residual_max <= bem.RESIDUAL_LIMIT
    pset = solved.pset
    B = (pset.electrode_idx[:, None] == np.arange(3)).astype(float)
    dense = np.linalg.solve(bem.potential_matrix(pset, pset.centers), B)
    assert np.abs(solved.sigma - dense).max() <= 1e-10 * np.abs(dense).max()


@pytest.mark.parametrize("electrodes,group", [
    # no symmetry: the trivial group, one block, the dense system
    ((_rect("a", 10.0, -50.0, 300.0, 200.0), _rect("b", -250.0, 30.0, 200.0, 100.0, 50.0)),
     []),
    # mirrors that swap two electrodes, so the excitations are not symmetric
    ((_rect("a", 20.0, -100.0, 200.0, 250.0), _rect("b", -220.0, -100.0, 200.0, 250.0)),
     ["x=0"]),
    ((_rect("a", -100.0, 20.0, 250.0, 200.0), _rect("b", -100.0, -220.0, 250.0, 200.0)),
     ["z=0"]),
    ((_rect("a", -150.0, 20.0, 300.0, 200.0), _rect("b", -150.0, -220.0, 300.0, 200.0)),
     FULL_GROUP),
    # a half turn about the y axis without either mirror
    ((_rect("a", 20.0, 10.0, 200.0, 100.0), _rect("b", -220.0, -110.0, 200.0, 100.0)),
     ["x=0 & z=0"]),
])
def test_custom_layouts_detect_their_group_and_match_the_dense_solve(electrodes, group):
    solved = solve_unit_excitations(_custom_geometry(electrodes, 50.0))
    assert solved.diagnostics["mirror_group"] == group
    assert sum(solved.diagnostics["block_sizes"]) == solved.pset.n
    dense = _dense_sigma(solved)
    assert np.abs(solved.sigma - dense).max() <= 1e-10 * np.abs(dense).max()
    assert solved.residual_max <= bem.RESIDUAL_LIMIT
    # the evaluators through the group give the whole table's values
    pts = _plane_points(37)
    for evaluate in (bem.potential_of, bem.field_of, bem.jacobian_of):
        got = evaluate(solved.pset, solved.sigma[:, 0], pts)
        want = evaluate(_whole_table(solved.pset), solved.sigma[:, 0], pts)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), evaluate


def test_a_mirror_must_map_panel_corners_not_only_centers():
    g = build_default("surface", fine_um=80.0)
    origins, eu, ev, eidx = g.arrays_m()
    assert bem._MirrorGroup(bem.PanelSet(origins, eu, ev, eidx)).names == FULL_GROUP
    j = int(np.argmax(np.linalg.norm(eu, axis=1)))  # a panel off the mirror planes
    assert abs(origins[j, 0] + 0.5 * eu[j, 0]) > 1e-6

    def group_of(o, u, v):
        return bem._MirrorGroup(bem.PanelSet(o, u, v, eidx)).names

    # shifted along x by a millionth of its edge, far past the merge tolerance
    shifted = origins.copy()
    shifted[j, 0] += 1e-6 * eu[j, 0]
    assert group_of(shifted, eu, ev) == []
    # a shift well inside the tolerance keeps the group
    shifted[j, 0] = origins[j, 0] + 1e-15 * eu[j, 0]
    assert group_of(shifted, eu, ev) == FULL_GROUP
    # the same center with half the edges: centers still map onto centers
    shrunk_o, shrunk_u, shrunk_v = origins.copy(), eu.copy(), ev.copy()
    shrunk_o[j] += 0.25 * (eu[j] + ev[j])
    shrunk_u[j] *= 0.5
    shrunk_v[j] *= 0.5
    assert np.allclose(bem.PanelSet(shrunk_o, shrunk_u, shrunk_v, eidx).centers,
                       bem.PanelSet(origins, eu, ev, eidx).centers, rtol=0, atol=1e-18)
    assert group_of(shrunk_o, shrunk_u, shrunk_v) == []


def test_public_potential_meets_the_boundary_values_on_every_collocation_row(
        surface_solved):
    pset = surface_solved.pset
    names = surface_solved.geometry.electrode_names
    B = (pset.electrode_idx[:, None] == np.arange(len(names))).astype(float)
    phi = bem.potential_of(pset, surface_solved.sigma, pset.centers)
    assert np.abs(phi - B).max() <= bem.RESIDUAL_LIMIT


def test_solve_over_the_memory_budget_fails_before_assembly(monkeypatch):
    g = _custom_geometry((_plate(400.0, 50.0, 0.0, "a", "rf"),), 50.0)
    need = bem._MirrorGroup(bem.PanelSet(*g.arrays_m())).solve_bytes
    assemblies = []
    monkeypatch.setattr(bem, "potential_matrix", lambda *a, **k: assemblies.append(1))
    monkeypatch.setattr(bem, "SOLVE_MEMORY_BUDGET", need // 2)
    with pytest.raises(SolverError, match="budget") as err:
        solve_unit_excitations(g)
    assert f"{need / 1e6:.3g} MB" in str(err.value)
    assert f"{need // 2 / 1e6:.3g} MB" in str(err.value)
    assert not assemblies


def _panel_grid(n, per_row=120, edge=10e-6):
    """n square panels on a grid at x, z > 0 of the y = 0 plane: no mirror."""
    m = np.arange(n)
    origins = np.column_stack([edge * (0.3 + m % per_row), 0.0 * m,
                               edge * (0.7 + m // per_row)])
    eu = np.tile([edge, 0.0, 0.0], (n, 1))
    ev = np.tile([0.0, 0.0, edge], (n, 1))
    return bem.PanelSet(origins, eu, ev, np.zeros(n, dtype=int))


def test_merge_keys_reject_a_coordinate_out_of_their_range():
    # keys count 1e-9 of the median panel edge, 1e-14 m for 10 um panels,
    # so an int64 key holds coordinates up to about 9.2e4 m
    ps = _panel_grid(4)
    keys = ps.merge_keys(np.array([9e4, -9e4]))
    assert keys.dtype == np.int64 and keys[0] == -keys[1] > 8.99e18
    for far in (1e5, -1e5, 1e300, math.inf, math.nan):
        with pytest.raises(InvalidGeometryError, match="out of range for the merge keys"):
            ps.merge_keys(np.array([0.0, far]))
    # a panel that far out has no corner table and no mirror group
    origins = ps.origins.copy()
    origins[0, 1] = 1e300
    far = bem.PanelSet(origins, ps.edge_u, ps.edge_v, ps.electrode_idx)
    for build in (lambda: far.corner_groups, lambda: bem._MirrorGroup(far)):
        with pytest.raises(InvalidGeometryError, match="1e\\+300 m is out of range"):
            build()


def test_memory_budget_admits_an_asymmetric_layout_up_to_its_stated_size():
    # the trivial group keeps the n x n rows R and one n x n block, 16 n^2
    # bytes in all: 11585 panels fit the 2 GiB budget and 11586 do not
    fits, over = bem._MirrorGroup(_panel_grid(11585)), bem._MirrorGroup(_panel_grid(11586))
    assert (fits.names, fits.block_sizes) == ([], [11585])
    assert fits.solve_bytes == 16 * 11585**2 <= bem.SOLVE_MEMORY_BUDGET
    assert over.solve_bytes == 16 * 11586**2 > bem.SOLVE_MEMORY_BUDGET


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int64, st.tuples(st.integers(1, 40), st.integers(1, 4)),
                  elements=st.integers(-3, 3)))
def test_unique_rows_orders_as_numpy_unique_along_rows(a):
    first, inverse = bem._unique_rows(a)
    _, want_first, want_inverse = np.unique(a, axis=0, return_index=True,
                                            return_inverse=True)
    assert np.array_equal(first, want_first)
    assert np.array_equal(inverse, want_inverse.ravel())
    assert np.array_equal(a[first][inverse], a)


def _assemble(pset):
    """The group of pset and the solve's Q and index: the kernel of the
    distinct images of the rep centres against the rep panels."""
    group = bem._MirrorGroup(pset)
    points, index = group.images_of(pset.centers[group.reps])
    return group, bem.potential_matrix(group.table(pset), points), index


@pytest.mark.parametrize("layout", ["surface", "z-only", "trivial"])
def test_quotient_blocks_equal_the_blocks_of_the_dense_matrix(layout, monkeypatch):
    if layout == "surface":
        pset = bem.PanelSet(*build_default("surface", fine_um=80.0).arrays_m())
    elif layout == "z-only":
        pset = bem.PanelSet(*_z_only_layout().arrays_m())
    else:
        pset = _panel_grid(300)
    group, Q, index = _assemble(pset)
    assert group.names == {"surface": FULL_GROUP, "z-only": ["z=0"], "trivial": []}[layout]
    if layout == "surface":  # orbits of panels cut by a mirror plane
        assert set(group.stab) == {1, 2}
    # the blocks as the solve hands them to the factorization, which takes
    # the transpose of each in Fortran order
    blocks, factor = [], sla.lu_factor

    def watching_factor(a, *args, **kwargs):
        assert a.flags.f_contiguous
        blocks.append(a.T.copy())
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(sla, "lu_factor", watching_factor)
    B = (pset.electrode_idx[:, None] == np.arange(pset.electrode_idx.max() + 1)).astype(float)
    # the unit excitations of surface are even in z; a last column odd in
    # z reaches every block, so each is factored
    B = np.column_stack([B, _odd_in_z(pset)])
    assert group.solve(Q, index, B)[2] == list(range(len(group.keep)))
    A = bem.potential_matrix(pset, pset.centers)
    assert len(blocks) == len(group.keep)
    for c, (k, M) in enumerate(zip(group.keep, blocks)):
        rows = group.reps[k]
        want = sum(chi * A[np.ix_(rows, group.images[g, k])]
                   for g, chi in enumerate(group.chars[c]))
        s = np.sqrt(group.stab[k])
        want /= s[:, None] * s
        assert M.shape == want.shape
        assert np.abs(M - want).max() <= 1e-12 * np.abs(want).max(), c


@pytest.mark.parametrize("layout", ["surface", "trivial"])
def test_solve_holds_no_more_than_its_memory_count(layout):
    pset = (bem.PanelSet(*build_default("surface").arrays_m()) if layout == "surface"
            else _panel_grid(1500))
    group, Q, index = _assemble(pset)
    assert len(group.names) == (3 if layout == "surface" else 0)
    k = int(pset.electrode_idx.max()) + 1
    B = (pset.electrode_idx[:, None] == np.arange(k)).astype(float)
    tracemalloc.start()
    try:
        S, cond, _ = group.solve(Q, index, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(cond) and S.shape == B.shape
    # besides the blocks solve_bytes counts: at most four n x k arrays (the
    # gathered and projected right-hand sides, the block solutions, sigma)
    # and, per block, a 64-column slab of |M|, the pivots and the condition
    # estimate's work vectors
    vectors = 8 * pset.n * (4 * k + 72)
    assert peak <= group.solve_bytes - Q.nbytes + vectors


def test_the_residual_check_keeps_no_packed_copy_of_the_kernel_rows():
    # tracemalloc does not see the buffers BLAS allocates, the resident
    # high-water mark of a fresh process does. On 2 CPUs one cold surface
    # solve raised it by 57.9-58.5 MiB, against solve_bytes of 48.6 MiB; a
    # residual product written as Q @ W, for which OpenBLAS packs a copy of
    # Q, raised it by 68.8-69.3 MiB
    code = textwrap.dedent("""
        import resource
        import scipy.linalg
        from iontrap import bem, build_default
        g = build_default("surface")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        solved = bem.solve_unit_excitations(g, cache_dir=None)
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        print(1024 * grown, solved.pset.group.solve_bytes)
    """)
    env = {k: v for k, v in os.environ.items() if k != bem.CACHE_ENV}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    grown, need = map(int, run.stdout.split())
    assert grown <= need + 14 * 2**20


def test_diagnostics_record_the_solve_and_survive_the_cache(tmp_path):
    g = _custom_geometry((_plate(400.0, 100.0, 0.0, "a", "rf"),
                          _plate(400.0, 100.0, 50.0, "b", "ground")), 100.0)
    off = solve_unit_excitations(g).diagnostics
    miss = solve_unit_excitations(g, cache_dir=tmp_path).diagnostics
    hit = solve_unit_excitations(g, cache_dir=tmp_path).diagnostics
    assert (off["cache"], miss["cache"], hit["cache"]) == ("off", "miss", "hit")
    for diag in (off, miss, hit):
        assert diag["mirror_group"] == FULL_GROUP
        assert diag["block_sizes"] == [8, 8, 8, 8]
        # both plates are even under both mirrors: only the trivial
        # character is reached
        assert diag["factored_blocks"] == [0]
        assert diag["kernel_workers"] == len(os.sched_getaffinity(0))
        assert diag["kernel_block_pairs"] == bem._BLOCK_PAIRS
    for key in ("symmetry_s", "assembly_s", "factor_s", "residual_s"):
        assert miss[key] >= 0.0 and key not in hit


def test_sigma_for_unknown_electrode_raises():
    g = _custom_geometry((_plate(200.0, 100.0, 0.0, "a", "rf"),), 100.0)
    solved = solve_unit_excitations(g)
    with pytest.raises(KeyError, match="nosuch"):
        solved.sigma_for({"nosuch": 1.0})


def test_isolated_plate_capacitance_extrapolates_to_literature_value():
    # capacitance of an isolated square plate of side L:
    # C = 4 pi eps0 L * c with c = 0.3667892 (center collocation converges
    # to this from below roughly linearly in the panel edge)
    side = 1000.0
    cs = []
    for fine in (125.0, 62.5):
        g = _custom_geometry((_plate(side, fine),), fine)
        solved = solve_unit_excitations(g)
        q = solved.charge("p", {"p": 1.0})
        cs.append(q / (4.0 * math.pi * EPS0 * side * 1e-6))
    assert cs[1] == pytest.approx(0.3667892, rel=0.03)
    richardson = 2.0 * cs[1] - cs[0]
    assert richardson == pytest.approx(0.3667892, rel=5e-3)


def test_parallel_plate_mutual_capacitance_in_fringing_band():
    side, gap = 1000.0, 50.0
    g = _custom_geometry((_plate(side, 125.0, 0.0, "bot", "ground"),
                          _plate(side, 125.0, gap, "top", "rf")), 125.0)
    solved = solve_unit_excitations(g)
    names, C = solved.capacitance_matrix()
    mutual = -C[names.index("top"), names.index("bot")]
    ideal = EPS0 * (side * 1e-6) ** 2 / (gap * 1e-6)
    assert ideal < mutual < 1.15 * ideal


def _assert_capacitance_is_the_unit_charges(solved):
    # C[i, j] is the charge on electrode i under 1 V on electrode j alone
    names, C = solved.capacitance_matrix()
    assert names == solved.geometry.electrode_names
    charges = [[solved.charge(ni, {nj: 1.0}) for nj in names] for ni in names]
    np.testing.assert_allclose(C, charges, rtol=1e-12, atol=0.0)


def test_capacitance_matrix_is_the_charge_of_each_unit_excitation(surface_solved):
    _assert_capacitance_is_the_unit_charges(surface_solved)
    g = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),
                          _plate(300.0, 100.0, 60.0, "b", "ground")), 100.0)
    _assert_capacitance_is_the_unit_charges(solve_unit_excitations(g))


def test_capacitance_matrix_is_nearly_reciprocal(surface_solved):
    names, C = surface_solved.capacitance_matrix()
    assert len(names) == len(surface_solved.geometry.electrode_names)
    asym = np.abs(C - C.T).max() / np.abs(C).max()
    assert asym < 0.02
    # diagonal (self) terms are positive, off-diagonal (induced) negative
    assert np.all(np.diag(C) > 0.0)
    off = C[~np.eye(len(names), dtype=bool)]
    assert np.all(off < 0.0)


def test_rf_capacitance_positive_and_order_100_fF(surface_solved):
    c = surface_solved.rf_capacitance()
    assert 10e-15 < c < 1000e-15


def test_surface_solve_mirror_symmetry(surface_solved):
    # the five-wire pattern is symmetric in x, so E_x vanishes on x = 0
    pts = np.array([[0.0, y * 1e-6, 0.0] for y in (40.0, 90.0, 160.0)])
    E = surface_solved.charge_weights().field(pts)
    assert np.abs(E[:, 0]).max() < 1e-6 * np.abs(E).max()


def test_doubling_rail_length_leaves_null_and_curvature_unchanged():
    # rails much longer than the ion height behave as infinite: doubling the
    # length must not move the rf null or the normalized curvature
    from iontrap import CA40, DriveParams, PseudoField, find_rf_null, fit_harmonicity
    from iontrap.merit import PLANAR_AXES
    drive = DriveParams.from_mhz(10.0, 20.0)
    nulls, ks = [], []
    for length in (4000.0, 8000.0):
        solved = solve_unit_excitations(build_surface_trap(
            electrode_length_um=length, wafer_extent_um=8000.0, fine_um=40.0))
        pseudo = PseudoField(solved.charge_weights(), species=CA40, drive=drive)
        null = find_rf_null(pseudo, (-5.0, 40.0, 0.0), (5.0, 200.0, 0.0))
        fit = fit_harmonicity(pseudo.rf_field, null.position,
                              null.height_um * 1e-6, axes=PLANAR_AXES)
        nulls.append(null.height_um)
        ks.append(fit.k_y)
    assert abs(nulls[1] - nulls[0]) < 0.5
    assert abs(ks[1] - ks[0]) < 0.002


# -- cache -------------------------------------------------------------------


def test_cache_round_trip_is_exact(tmp_path):
    g = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),
                          _plate(300.0, 100.0, 60.0, "b", "ground")), 100.0)
    first = solve_unit_excitations(g, cache_dir=tmp_path)
    files = list(tmp_path.glob("*.itsc"))
    assert len(files) == 1
    second = solve_unit_excitations(g, cache_dir=tmp_path)
    assert second.diagnostics["cache"] == "hit"
    assert second.sigma.shape == (second.pset.n, len(g.electrode_names))
    np.testing.assert_array_equal(first.sigma, second.sigma)
    np.testing.assert_array_equal(first.residuals, second.residuals)
    assert second.cond_estimate == first.cond_estimate
    # the solver's mirror group comes back with the entry, not detected again
    solved, loaded = first.pset.group, second.pset.group
    assert loaded.names == solved.names == FULL_GROUP
    np.testing.assert_array_equal(loaded.elements, solved.elements)
    np.testing.assert_array_equal(loaded.perms, solved.perms)
    pts = _plane_points(26)
    for a, b in ((first, second), (second, first)):
        np.testing.assert_array_equal(bem.field_of(a.pset, a.sigma[:, 0], pts),
                                      bem.field_of(b.pset, b.sigma[:, 0], pts))


def test_an_entry_of_format_version_1_is_solved_again_without_a_warning(
        tmp_path, monkeypatch):
    g = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),), 100.0)
    first = solve_unit_excitations(g, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.itsc"))
    raw = bytearray(path.read_bytes())
    assert bytes(raw[4:8]) == bem._CACHE_VERSION.to_bytes(4, "little") == b"\x02\0\0\0"
    raw[4:8] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = solve_unit_excitations(g, cache_dir=tmp_path)
    assert again.diagnostics["cache"] == "miss"
    np.testing.assert_array_equal(again.sigma, first.sigma)
    assert path.read_bytes()[4:8] == b"\x02\0\0\0"  # overwritten in format 2
    assert solve_unit_excitations(g, cache_dir=tmp_path).diagnostics["cache"] == "hit"


def test_an_entry_without_factored_blocks_is_solved_again_without_a_warning(tmp_path):
    # an entry of an earlier solver has no factored_blocks in its header
    # and another solution digest: a plain miss, not a corrupt entry
    g = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),), 100.0)
    first = solve_unit_excitations(g, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.itsc"))
    good = path.read_bytes()
    hlen = struct.unpack("<Q", good[8:16])[0]
    header = json.loads(good[16:16 + hlen])
    del header["factored_blocks"]
    header["digest"] = "0" * 64
    text = json.dumps(header).encode()
    path.write_bytes(good[:8] + struct.pack("<Q", len(text)) + text + good[16 + hlen:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = solve_unit_excitations(g, cache_dir=tmp_path)
    assert again.diagnostics["cache"] == "miss"
    np.testing.assert_array_equal(again.sigma, first.sigma)
    hit = solve_unit_excitations(g, cache_dir=tmp_path).diagnostics
    assert (hit["cache"], hit["factored_blocks"]) == ("hit", [0])


def test_corrupt_cache_is_ignored_with_warning(tmp_path):
    g = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),), 100.0)
    first = solve_unit_excitations(g, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.itsc"))
    good = path.read_bytes()
    raw = bytearray(good)
    raw[-5] ^= 0xFF  # flip a payload byte; checksum must catch it
    not_an_object = b"[1,2]"

    def with_header(key, value):
        """The good entry with one header field replaced; the payload and
        its checksum are unchanged."""
        hlen = struct.unpack("<Q", good[8:16])[0]
        header = json.loads(good[16:16 + hlen])
        header[key] = value
        text = json.dumps(header).encode()
        return good[:8] + struct.pack("<Q", len(text)) + text + good[16 + hlen:]

    for bad, reason in (
            (bytes(raw), "payload checksum mismatch"),
            (bytes(raw[:10]), "truncated header"),  # cut inside the first 16 bytes
            (bem._CACHE_MAGIC + struct.pack("<IQ", bem._CACHE_VERSION, len(not_an_object))
             + not_an_object, "header is not a JSON object"),
            (with_header("electrodes", 5), "header 'electrodes' is not of type list"),
            (with_header("mirror_group", "x=0"), "header 'mirror_group' is not of type list"),
            (with_header("factored_blocks", 0), "header 'factored_blocks' is not of type list"),
            (with_header("residuals", 1e-12), "header 'residuals' is not of type list"),
            (with_header("n_panels", float(first.pset.n)), "header 'n_panels' is not of type int"),
            (with_header("n_panels", True), "header 'n_panels' is not of type int"),
            (with_header("cond_estimate", "12.5"), "header 'cond_estimate' is not of type float"),
            (with_header("cond_estimate", math.nan), "header 'cond_estimate' is not finite"),
            (with_header("cond_estimate", math.inf), "header 'cond_estimate' is not finite")):
        path.write_bytes(bad)
        with pytest.warns(UserWarning, match=f"corrupt solver cache .*: {reason}"):
            again = solve_unit_excitations(g, cache_dir=tmp_path)
        np.testing.assert_allclose(again.sigma, first.sigma, rtol=1e-12)
        assert again.diagnostics["cache"] == "miss"


def test_cache_is_keyed_by_the_solution_digest(tmp_path, monkeypatch):
    # an entry solved from other panels or by another solver is a miss: the
    # next solve assembles the matrix again and overwrites the entry
    g = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),), 100.0)
    assemblies = []
    assemble = bem.potential_matrix

    def counting_matrix(*args, **kwargs):
        assemblies.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(bem, "potential_matrix", counting_matrix)
    first = solve_unit_excitations(g, cache_dir=tmp_path)
    solve_unit_excitations(g, cache_dir=tmp_path)
    assert len(assemblies) == 1  # a matching entry hits

    digest = bem._solution_digest
    monkeypatch.setattr(bem, "_solution_digest", lambda pset: "other")
    again = solve_unit_excitations(g, cache_dir=tmp_path)
    assert len(assemblies) == 2
    np.testing.assert_array_equal(again.sigma, first.sigma)
    solve_unit_excitations(g, cache_dir=tmp_path)
    assert len(assemblies) == 2  # the overwritten entry hits
    monkeypatch.setattr(bem, "_solution_digest", digest)
    solve_unit_excitations(g, cache_dir=tmp_path)
    assert len(assemblies) == 3
    assert len(list(tmp_path.glob("*.itsc"))) == 1


@pytest.mark.parametrize("module", [bem, constants], ids=["bem.py", "constants.py"])
def test_a_one_byte_edit_of_a_solver_file_misses_the_cache(tmp_path, monkeypatch, module):
    # the digest reads bem.py and constants.py whole: an edit anywhere in
    # either, even one that changes no code, solves every cached entry again
    g = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),), 100.0)
    cache = tmp_path / "cache"
    solve_unit_excitations(g, cache_dir=cache)
    assert solve_unit_excitations(g, cache_dir=cache).diagnostics["cache"] == "hit"
    pset = bem.PanelSet(*g.arrays_m())
    before = bem._solution_digest(pset)
    copy = tmp_path / os.path.basename(module.__file__)
    with open(module.__file__, "rb") as f:
        copy.write_bytes(f.read() + b"\n")
    monkeypatch.setattr(module, "__file__", str(copy))
    assert bem._solution_digest(pset) != before
    assert solve_unit_excitations(g, cache_dir=cache).diagnostics["cache"] == "miss"
    assert solve_unit_excitations(g, cache_dir=cache).diagnostics["cache"] == "hit"


def test_scipy_loads_only_when_a_solve_factors(tmp_path):
    # a fresh process: importing the package, a cache hit, a report and a
    # map never load scipy.linalg; a solve that misses the cache does, and
    # before its assembly, so its factor_s does not time the import
    geo = tmp_path / "coarse.json"
    build_surface_trap(fine_um=240.0).save(geo)
    cache = tmp_path / "cache"
    code = textwrap.dedent(f"""
        import json, sys
        loaded = lambda: "scipy.linalg" in sys.modules
        steps = {{}}
        import iontrap, iontrap.cli
        steps["import"] = loaded()
        g = iontrap.TrapGeometry.load({str(geo)!r})
        solved = iontrap.solve_unit_excitations(g, cache_dir={str(cache)!r})
        iontrap.full_report(solved)
        steps["hit"] = solved.diagnostics["cache"]
        steps["report"] = loaded()
        rc = iontrap.cli.main(["--cache-dir", {str(cache)!r}, "map", "--geometry",
                               {str(geo)!r}, "--center-um", "0,90,0", "--span-um",
                               "40,40,0", "--res-um", "10",
                               "--out", {str(tmp_path / "m.csv")!r}])
        steps["map"] = (rc, loaded())
        assemble, seen = iontrap.bem.potential_matrix, []

        def watching_matrix(*args, **kwargs):
            seen.append(loaded())
            return assemble(*args, **kwargs)

        iontrap.bem.potential_matrix = watching_matrix
        iontrap.solve_unit_excitations(g)
        steps["cold"] = (seen, loaded())
        print(json.dumps(steps))
    """)
    solve_unit_excitations(TrapGeometry.load(geo), cache_dir=cache)  # fill the cache
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    steps = json.loads(run.stdout.splitlines()[-1])
    assert steps == {"import": False, "hit": "hit", "report": False,
                     "map": [0, False], "cold": [[True], True]}


def test_cache_dir_expands_the_home_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    g = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),), 100.0)
    solve_unit_excitations(g, cache_dir="~/cache")
    assert (tmp_path / "cache" / f"{g.signature()}.itsc").exists()


def test_cache_is_keyed_by_geometry(tmp_path):
    a = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),), 100.0)
    b = _custom_geometry((_plate(320.0, 100.0, 0.0, "a", "rf"),), 100.0)
    solve_unit_excitations(a, cache_dir=tmp_path)
    solve_unit_excitations(b, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("*.itsc"))) == 2


def test_cache_save_ignores_a_stale_shared_temp_file(tmp_path):
    g = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),), 100.0)
    stale = tmp_path / f"{g.signature()}.itsc.tmp"
    stale.write_bytes(b"left behind by a crashed writer")
    first = solve_unit_excitations(g, cache_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{g.signature()}.itsc", stale.name])
    assert stale.read_bytes() == b"left behind by a crashed writer"
    second = solve_unit_excitations(g, cache_dir=tmp_path)
    np.testing.assert_array_equal(first.sigma, second.sigma)


def test_failed_cache_write_removes_its_temp_file(tmp_path, monkeypatch):
    g = _custom_geometry((_plate(300.0, 100.0, 0.0, "a", "rf"),), 100.0)

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(bem.os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk full"):
        solve_unit_excitations(g, cache_dir=tmp_path)
    assert not list(tmp_path.iterdir())
