"""Geometry construction, meshing invariants, and serialization."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontrap import (
    Electrode,
    InvalidGeometryError,
    InvalidInputError,
    MeshParams,
    Rect,
    TrapGeometry,
    build_cross_rf_trap,
    build_default,
    build_gnd_surface_trap,
    build_surface_trap,
    five_wire_null_seed_um,
)
from iontrap import geometry


def _coarse_mesh(fine=80.0, coarse=500.0):
    return MeshParams(coarse_um=coarse, fine_um=fine)


def _coarse_surface(fine=80.0, coarse=500.0):
    return build_surface_trap(fine_um=fine, coarse_um=coarse)


def _plate(side, fine, coarse, name="plate", y=0.0):
    elec = Electrode(name=name, role="rf", rects=(
        Rect(origin=(-side / 2, y, -side / 2),
             edge_u=(side, 0.0, 0.0), edge_v=(0.0, 0.0, side)),))
    return TrapGeometry("custom", MeshParams(coarse_um=coarse, fine_um=fine), [elec])


# -- construction and validation --------------------------------------------


def test_rect_rejects_zero_and_non_orthogonal_edges():
    with pytest.raises(InvalidGeometryError):
        Rect((0, 0, 0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    with pytest.raises(InvalidGeometryError):
        Rect((0, 0, 0), (1.0, 0.0, 0.0), (1.0, 0.0, 1.0))


def test_electrode_rejects_bad_role_and_empty_rects():
    r = Rect((0, 0, 0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    with pytest.raises(InvalidGeometryError):
        Electrode("e", "antenna", (r,))
    with pytest.raises(InvalidGeometryError):
        Electrode("e", "dc", ())


def test_duplicate_electrode_names_rejected():
    r1 = Rect((0, 0, 0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    r2 = Rect((5, 0, 0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    with pytest.raises(InvalidGeometryError, match="duplicate"):
        TrapGeometry("custom", _coarse_mesh(), [
            Electrode("e", "dc", (r1,)), Electrode("e", "rf", (r2,))])


def test_overlapping_rects_rejected():
    r1 = Rect((0, 0, 0), (10.0, 0.0, 0.0), (0.0, 0.0, 10.0))
    r2 = Rect((5, 0, 5), (10.0, 0.0, 0.0), (0.0, 0.0, 10.0))
    with pytest.raises(InvalidGeometryError, match="overlap"):
        TrapGeometry("custom", _coarse_mesh(), [
            Electrode("a", "dc", (r1,)), Electrode("b", "rf", (r2,))])


def test_touching_rects_allowed():
    r1 = Rect((0, 0, 0), (10.0, 0.0, 0.0), (0.0, 0.0, 10.0))
    r2 = Rect((10, 0, 0), (10.0, 0.0, 0.0), (0.0, 0.0, 10.0))
    geom = TrapGeometry("custom", _coarse_mesh(), [
        Electrode("a", "dc", (r1,)), Electrode("b", "rf", (r2,))])
    assert geom.n_panels >= 2


def test_mesh_params_validation():
    with pytest.raises(InvalidGeometryError):
        MeshParams(coarse_um=10.0, fine_um=20.0)
    with pytest.raises(InvalidGeometryError):
        MeshParams(coarse_um=10.0, fine_um=0.0)


@pytest.mark.parametrize("make", [
    lambda: Rect((math.nan, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    lambda: Rect((0.0, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.0, 0.0, 1.0)),
    lambda: MeshParams(coarse_um=math.inf, fine_um=10.0),
    lambda: MeshParams(coarse_um=math.inf, fine_um=math.inf),
    lambda: build_gnd_surface_trap(h_um=math.inf),
    lambda: build_cross_rf_trap(h_um=math.inf),
    lambda: build_surface_trap(wafer_extent_um=math.inf),
], ids=["rect origin", "rect edge", "coarse_um", "fine_um",
        "gnd-surface h", "cross-rf h", "wafer extent"])
def test_non_finite_dimensions_are_rejected_as_such(make):
    with pytest.raises(InvalidGeometryError, match="finite"):
        make()


@pytest.mark.parametrize("part, value", [("origin", math.nan), ("u", math.inf)])
def test_a_geometry_file_with_a_non_finite_rect_says_so(tmp_path, part, value):
    # not the overlap the NaN comparisons of the overlap check would report
    d = _coarse_surface().to_dict()
    d["electrodes"][0]["rects"][0][part][0] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(d))
    with pytest.raises(InvalidGeometryError, match="rect origin and edges must be finite"):
        TrapGeometry.load(path)


def test_cross_rf_rail_width_must_fit():
    with pytest.raises(InvalidGeometryError, match="rail width must be smaller than h"):
        build_cross_rf_trap(h_um=100.0, rf_width_um=100.0)


def test_surface_rails_must_fit_on_wafer():
    with pytest.raises(InvalidGeometryError, match="rails plus gaps exceed the wafer"):
        build_surface_trap(rf_width_um=5000.0)


def test_unknown_design_rejected():
    with pytest.raises(InvalidInputError, match="unknown design"):
        build_default("ring")


def test_gnd_surface_requires_positive_h():
    with pytest.raises(InvalidGeometryError, match="h_um must be > 0"):
        build_gnd_surface_trap(h_um=-1.0)


@pytest.mark.parametrize("design, h_um, y_lo, y_hi", [
    ("surface", None, -10.0, 10.0),
    ("gnd-surface", 200.0, -10.0, 10.0),
    ("cross-rf", 200.0, -10.0, 210.0),
    ("cross-rf", 777.7, -10.0, 787.7),
])
def test_the_fine_window_spans_the_rf_rects_about_the_trap_axis(design, h_um, y_lo, y_hi):
    # a far grounded lid is outside the window: only the rf rects set its y
    geom = build_default(design, h_um=h_um, fine_um=80.0)
    half = 0.5 * geometry.FINE_LATERAL_UM
    assert geom.mesh_diagnostics()["fine_window_um"] == [[-half, y_lo, -half],
                                                         [half, y_hi, half]]


# -- meshing invariants ------------------------------------------------------


@pytest.mark.parametrize("build, kwargs", [
    (build_surface_trap, {}),
    (build_gnd_surface_trap, {"h_um": 105.0}),
    (build_cross_rf_trap, {"h_um": 105.0}),
])
def test_mesh_tiles_exact_electrode_area(build, kwargs):
    geom = build(fine_um=40.0, **kwargs)
    for elec in geom.electrodes:
        meshed = geom.meshed_area_um2(elec.name)
        assert meshed == pytest.approx(elec.area_um2, rel=1e-12)


def test_meshed_area_of_an_electrode_the_design_lacks_is_invalid_input():
    geom = _coarse_surface()
    with pytest.raises(InvalidInputError) as err:
        geom.meshed_area_um2("nosuch")
    message = str(err.value)
    assert "'nosuch'" in message and "'surface'" in message
    assert all(name in message for name in geom.electrode_names)


def test_mesh_total_panel_count_and_areas_positive():
    geom = _coarse_surface()
    areas = geom.panel_areas_um2()
    assert geom.n_panels == areas.size
    assert np.all(areas > 0.0)


def test_panels_in_fine_region_meet_fine_target():
    geom = _coarse_surface(fine=25.0)
    lo, hi = geom.fine_window_um
    c = geom.panel_origin_um + 0.5 * (geom.panel_u_um + geom.panel_v_um)
    inside = np.all((c >= lo) & (c <= hi), axis=1)
    assert inside.any()
    lu = np.linalg.norm(geom.panel_u_um[inside], axis=1)
    lv = np.linalg.norm(geom.panel_v_um[inside], axis=1)
    assert lu.max() <= 25.0 + 1e-9
    assert lv.max() <= 25.0 + 1e-9


def test_no_panel_exceeds_coarse_target():
    geom = _coarse_surface(coarse=300.0)
    lu = np.linalg.norm(geom.panel_u_um, axis=1)
    lv = np.linalg.norm(geom.panel_v_um, axis=1)
    assert max(lu.max(), lv.max()) <= 300.0 + 1e-9


def test_halving_fine_target_refines_fine_region():
    g1 = _coarse_surface(fine=50.0)
    g2 = _coarse_surface(fine=25.0)

    def n_inside(geom):
        lo, hi = geom.fine_window_um
        c = geom.panel_origin_um + 0.5 * (geom.panel_u_um + geom.panel_v_um)
        return int(np.all((c >= lo) & (c <= hi), axis=1).sum())

    # bisection refinement: half the edge target means 4x the panels, up to
    # panels straddling the fine-box boundary
    ratio = n_inside(g2) / n_inside(g1)
    assert 3.0 <= ratio <= 5.0


def test_uniform_mesh_when_fine_equals_coarse():
    geom = _plate(1000.0, 250.0, 250.0)
    assert geom.n_panels == 16
    areas = geom.panel_areas_um2()
    assert np.allclose(areas, 250.0 * 250.0, rtol=1e-12)


def test_remeshing_the_same_electrodes_keeps_them():
    g1 = _coarse_surface(fine=80.0)
    g2 = TrapGeometry(g1.design, MeshParams(coarse_um=500.0, fine_um=40.0), g1.electrodes)
    assert g2.electrodes == g1.electrodes
    assert g2.n_panels > g1.n_panels


def test_build_is_deterministic():
    a = _coarse_surface()
    b = _coarse_surface()
    assert a.signature() == b.signature()
    np.testing.assert_array_equal(a.panel_origin_um, b.panel_origin_um)
    np.testing.assert_array_equal(a.panel_u_um, b.panel_u_um)
    np.testing.assert_array_equal(a.panel_v_um, b.panel_v_um)
    np.testing.assert_array_equal(a.panel_electrode, b.panel_electrode)


def test_surface_trap_mirror_symmetric_in_x():
    geom = _coarse_surface()
    c = geom.panel_origin_um + 0.5 * (geom.panel_u_um + geom.panel_v_um)
    key = np.round(np.column_stack([c[:, 0], c[:, 1], c[:, 2]]), 6)
    mirrored = key * np.array([-1.0, 1.0, 1.0])
    a = set(map(tuple, key))
    b = set(map(tuple, mirrored))
    assert a == b


def test_cross_rf_panel_set_invariant_under_180_rotation():
    h = 105.0
    geom = build_cross_rf_trap(h_um=h, fine_um=40.0)
    c = geom.panel_origin_um + 0.5 * (geom.panel_u_um + geom.panel_v_um)
    key = np.round(c, 6)
    rotated = np.column_stack([-key[:, 0], np.round(h - key[:, 1], 6), key[:, 2]])
    assert set(map(tuple, key)) == set(map(tuple, rotated))


def test_cross_rf_rails_on_both_wafers():
    geom = build_cross_rf_trap(h_um=105.0, fine_um=60.0)
    ys = {e.name: e.rects[0].origin[1] for e in geom.electrodes}
    assert ys["rf_bottom"] == 0.0 and ys["gnd_bottom"] == 0.0
    assert ys["rf_top"] == 105.0 and ys["gnd_top"] == 105.0
    assert geom.electrodes_with_role("rf") == ("rf_bottom", "rf_top")


def test_gnd_surface_adds_grounded_plane():
    base = build_surface_trap(fine_um=80.0)
    capped = build_gnd_surface_trap(h_um=105.0, fine_um=80.0)
    assert set(capped.electrode_names) == set(base.electrode_names) | {"gnd_top"}
    top = dict(zip(capped.electrode_names, capped.electrodes))["gnd_top"]
    assert top.role == "ground"
    assert top.rects[0].origin[1] == 105.0


# -- serialization -----------------------------------------------------------


def test_json_round_trip_is_exact(tmp_path):
    geom = build_gnd_surface_trap(h_um=105.0, fine_um=60.0)
    path = tmp_path / "g.json"
    geom.save(path)
    back = TrapGeometry.load(path)
    assert back.signature() == geom.signature()
    np.testing.assert_array_equal(back.panel_origin_um, geom.panel_origin_um)
    assert back.design == geom.design
    assert back.top_um == geom.top_um == 105.0


# the design dimensions that older versions wrote under "params"
_OLD_DIMENSIONS = {
    "surface": dict(center_width_um=114.6, rf_width_um=57.7, gap_um=10.0,
                    electrode_length_um=8000.0, wafer_extent_um=8000.0),
    "gnd-surface": dict(h_um=105.0, center_width_um=90.0, rf_width_um=140.0, gap_um=10.0,
                        electrode_length_um=8000.0, wafer_extent_um=8000.0),
    "cross-rf": dict(h_um=105.0, rf_width_um=100.0, electrode_length_um=8000.0),
}


@pytest.mark.parametrize("design", list(_OLD_DIMENSIONS))
def test_an_old_format_file_loads_to_the_builders_geometry(design):
    # its dimension keys are ignored: the electrodes are the whole layout
    h_um = _OLD_DIMENSIONS[design].get("h_um")
    built = build_default(design, h_um=h_um, fine_um=60.0)
    old = built.to_dict()
    old["params"].update(_OLD_DIMENSIONS[design])
    back = TrapGeometry.from_dict(old)
    assert back.signature() == built.signature()
    for a, b in zip(back.arrays_m(), built.arrays_m()):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("fine_region", [
    {"center_um": [0.0, 100.0, 0.0], "size_um": [400.0, 220.0, 400.0]},
    {"center_um": [1e6, -1e6, 1e6], "size_um": [1.0, 1.0, 1.0]},
    "not a box",
], ids=["the old window", "far from the electrodes", "not a box"])
def test_an_older_files_fine_region_is_ignored(fine_region):
    # the fine window comes from the rf rects, whatever an older file states
    built = build_cross_rf_trap(fine_um=40.0)
    old = built.to_dict()
    old["params"]["mesh"]["fine_region"] = fine_region
    back = TrapGeometry.from_dict(old)
    assert back.signature() == built.signature()
    for a, b in zip(back.arrays_m(), built.arrays_m()):
        assert a.tobytes() == b.tobytes()


def test_save_emits_micron_units_and_sorted_keys(tmp_path):
    geom = _coarse_surface()
    path = tmp_path / "g.json"
    geom.save(path)
    d = json.loads(path.read_text())
    assert d["units"] == "um"
    assert [e["name"] for e in d["electrodes"]] == list(geom.electrode_names)
    geom.save(tmp_path / "g2.json")
    assert (tmp_path / "g.json").read_bytes() == (tmp_path / "g2.json").read_bytes()


def test_load_rejects_wrong_units(tmp_path):
    geom = _coarse_surface()
    d = geom.to_dict()
    d["units"] = "mm"
    path = tmp_path / "g.json"
    path.write_text(json.dumps(d))
    with pytest.raises(InvalidInputError, match="units"):
        TrapGeometry.load(path)


def test_load_rejects_malformed_json_with_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"design": "surface", oops}')
    with pytest.raises(InvalidInputError, match="line 1 column"):
        TrapGeometry.load(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"design": "surface", "units": "um"}))
    with pytest.raises(InvalidInputError, match="malformed"):
        TrapGeometry.load(path)


def test_signature_changes_with_mesh_and_dimensions():
    a = _coarse_surface(fine=80.0)
    b = _coarse_surface(fine=40.0)
    c = build_surface_trap(center_width_um=100.0, fine_um=80.0)
    assert len({a.signature(), b.signature(), c.signature()}) == 3


# -- analytic seed -----------------------------------------------------------


def test_five_wire_seed_matches_closed_form():
    a = 0.5 * 114.6 + 0.5 * 10.0
    b = a + 57.7 + 10.0
    assert five_wire_null_seed_um(114.6, 10.0, 57.7) == pytest.approx(
        math.sqrt(a * b), rel=1e-15)
    assert five_wire_null_seed_um(114.6, 10.0, 57.7) == pytest.approx(90.0, abs=0.05)


def test_a_dimension_of_another_design_raises_before_meshing(monkeypatch):
    calls = []
    monkeypatch.setattr(geometry, "_mesh_electrodes", lambda *args: calls.append(1))
    with pytest.raises(InvalidInputError, match="cross-rf takes only its own dimensions"):
        build_default("cross-rf", center_width_um=80)
    assert calls == []


def test_gnd_surface_build_meshes_once(monkeypatch):
    calls = []
    mesh = geometry._mesh_electrodes

    def counting(*args):
        calls.append(1)
        return mesh(*args)

    monkeypatch.setattr(geometry, "_mesh_electrodes", counting)
    build_default("gnd-surface")
    assert len(calls) == 1


# -- the mesher against a one-panel-at-a-time oracle -------------------------


def _bisect_one_panel_at_a_time(electrodes, mesh, lo, hi):
    """The mesher as a per-panel stack loop: the oracle of _mesh_electrodes,
    which must give the same panels in the same order, bit for bit."""
    fine, coarse = mesh.fine_um, mesh.coarse_um
    lo, hi = [float(x) for x in lo], [float(x) for x in hi]
    origins, us, vs, eidx = [], [], [], []
    for ei, elec in enumerate(electrodes):
        for rect in elec.rects:
            stack = [(rect.origin, rect.edge_u, rect.edge_v)]
            while stack:
                o, u, v = stack.pop()
                lu = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
                lv = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
                xs = (o[0], o[0] + u[0] + v[0], o[0] + u[0], o[0] + v[0])
                ys = (o[1], o[1] + u[1] + v[1], o[1] + u[1], o[1] + v[1])
                zs = (o[2], o[2] + u[2] + v[2], o[2] + u[2], o[2] + v[2])
                amin = (min(xs), min(ys), min(zs))
                amax = (max(xs), max(ys), max(zs))
                if all(amin[i] <= hi[i] and amax[i] >= lo[i] for i in range(3)):
                    target = fine
                else:
                    c = [o[i] + 0.5 * (u[i] + v[i]) for i in range(3)]
                    dx, dy, dz = (max(lo[i] - c[i], 0.0, c[i] - hi[i]) for i in range(3))
                    d = math.sqrt(dx * dx + dy * dy + dz * dz)
                    target = min(coarse, max(fine, 0.5 * d))
                tol = target * (1.0 + 1e-9)
                if lu <= tol and lv <= tol:
                    origins.append(o)
                    us.append(u)
                    vs.append(v)
                    eidx.append(ei)
                    if len(origins) > geometry.MAX_PANELS:
                        raise InvalidGeometryError(
                            f"mesh exceeds {geometry.MAX_PANELS} panels")
                    continue
                if lu >= lv:  # split the longer edge, first half processed first
                    hu = (0.5 * u[0], 0.5 * u[1], 0.5 * u[2])
                    stack.append(((o[0] + hu[0], o[1] + hu[1], o[2] + hu[2]), hu, v))
                    stack.append((o, hu, v))
                else:
                    hv = (0.5 * v[0], 0.5 * v[1], 0.5 * v[2])
                    stack.append(((o[0] + hv[0], o[1] + hv[1], o[2] + hv[2]), u, hv))
                    stack.append((o, u, hv))
    return (np.asarray(origins, float), np.asarray(us, float),
            np.asarray(vs, float), np.asarray(eidx, np.int32))


def _assert_same_panels(electrodes, mesh, lo, hi):
    got = geometry._mesh_electrodes(electrodes, mesh, lo, hi)
    want = _bisect_one_panel_at_a_time(electrodes, mesh, lo, hi)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_a_lid_far_out_meshes_without_a_warning():
    # the squared offset of the lid from the fine window overflows; its
    # distance of inf grades the lid to coarse_um, as the per-panel loop does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geom = build_default("gnd-surface", h_um=1e300)
        _assert_same_panels(geom.electrodes, geom.mesh, *geom.fine_window_um)


@pytest.mark.parametrize("design, h_um, fine_um", [
    ("surface", None, 5.0), ("surface", None, 10.0), ("surface", None, 14.0),
    *[("gnd-surface", h, 10.0) for h in (105.0, 200.0, 400.0, 800.0, 2500.0)],
    *[("cross-rf", h, 10.0) for h in (105.0, 200.0, 400.0, 800.0, 1000.0)],
])
def test_builtin_meshes_equal_the_per_panel_bisection_bitwise(design, h_um, fine_um):
    geom = build_default(design, h_um=h_um, fine_um=fine_um)
    _assert_same_panels(geom.electrodes, geom.mesh, *geom.fine_window_um)


_coord = st.floats(-300.0, 300.0, allow_nan=False)
_edge = st.floats(1.0, 120.0, allow_nan=False)


@st.composite
def _rects(draw):
    """A rect in one of the three axis planes, edges of either sign; half
    of them square, so the tie-break (split u) is exercised."""
    normal = draw(st.integers(0, 2))
    a, b = [k for k in range(3) if k != normal]
    if draw(st.booleans()):
        a, b = b, a
    lu = draw(_edge)
    lv = lu if draw(st.booleans()) else draw(_edge)
    u, v = [0.0] * 3, [0.0] * 3
    u[a] = lu * draw(st.sampled_from((1.0, -1.0)))
    v[b] = lv * draw(st.sampled_from((1.0, -1.0)))
    origin = tuple(draw(_coord) for _ in range(3))
    return Rect(origin, tuple(u), tuple(v))


@st.composite
def _layouts(draw):
    electrodes = [Electrode(f"e{i}", "dc", tuple(draw(st.lists(_rects(), min_size=1,
                                                                max_size=3))))
                  for i in range(draw(st.integers(1, 3)))]
    fine = draw(st.floats(4.0, 40.0))
    coarse = fine * draw(st.floats(1.0, 8.0))
    # a fine window inside, straddling or outside the layout, possibly flat
    center = np.array([draw(_coord) for _ in range(3)])
    size = np.array([draw(st.floats(0.0, 400.0)) for _ in range(3)])
    return (electrodes, MeshParams(coarse_um=coarse, fine_um=fine),
            center - 0.5 * size, center + 0.5 * size)


@settings(max_examples=150, deadline=None)
@given(_layouts())
def test_random_layouts_mesh_as_the_per_panel_bisection_bitwise(layout):
    _assert_same_panels(*layout)


def test_mesh_keeps_the_solver_cache_digest():
    # an entry solved from the per-panel mesh still hits for the same source
    from iontrap.bem import PanelSet, _solution_digest
    geom = build_default("surface")
    want = _bisect_one_panel_at_a_time(geom.electrodes, geom.mesh, *geom.fine_window_um)
    um = 1e-6
    oracle = PanelSet(want[0] * um, want[1] * um, want[2] * um, want[3])
    assert _solution_digest(PanelSet(*geom.arrays_m())) == _solution_digest(oracle)


@pytest.mark.parametrize("fine_um", [2.0, 3.0])
def test_a_runaway_mesh_stops_at_the_panel_cap(fine_um):
    with pytest.raises(InvalidGeometryError, match="30000"):
        build_default("surface", fine_um=fine_um)


def test_the_panel_cap_raises_exactly_when_the_per_panel_loop_would(monkeypatch):
    geom = _coarse_surface()
    n = geom.n_panels
    monkeypatch.setattr(geometry, "MAX_PANELS", n)
    _assert_same_panels(geom.electrodes, geom.mesh, *geom.fine_window_um)
    monkeypatch.setattr(geometry, "MAX_PANELS", n - 1)
    for mesher in (geometry._mesh_electrodes, _bisect_one_panel_at_a_time):
        with pytest.raises(InvalidGeometryError, match=f"exceeds {n - 1} panels"):
            mesher(geom.electrodes, geom.mesh, *geom.fine_window_um)


def test_mesh_diagnostics_describe_the_panels():
    geom = _coarse_surface()
    diag = geom.mesh_diagnostics()
    counts = diag["panels_per_electrode"]
    assert list(counts) == list(geom.electrode_names)
    assert sum(counts.values()) == geom.n_panels
    assert diag["finest_edge_um"] <= 80.0 < diag["coarsest_edge_um"] <= 500.0
    assert diag["mesh_s"] > 0.0
