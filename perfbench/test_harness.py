"""Self-test of the benchmark harness: span nesting, self-time arithmetic and
the reference gate.

    python3 -m pytest perfbench -q

Runs in seconds: a scripted clock for the arithmetic, and a coarse surface
trap (580 panels) for the wrappers around the real layers.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


class Clock:
    """Returns 0, 1, 2, ... on successive calls."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


class Box:
    """Stands in for a module: wrapped attributes live on a class."""

    @staticmethod
    def leaf():
        return "leaf"

    @staticmethod
    def mid():
        return Box.leaf() + Box.leaf()

    @staticmethod
    def top():
        return Box.mid() + Box.leaf()


def test_self_time_arithmetic_with_scripted_clock():
    tr = Tracer(clock=Clock())
    for name in ("leaf", "mid", "top"):
        tr.wrap(Box, name, name)
    assert Box.top() == "leafleafleaf"
    tr.uninstall()
    assert all(isinstance(vars(Box)[name], staticmethod)
               for name in ("leaf", "mid", "top"))

    names = [sp.name for sp in tr.spans]
    assert names == ["top", "mid", "leaf", "leaf", "leaf"]
    assert [sp.parent for sp in tr.spans] == [None, 0, 1, 1, 0]
    # clock ticks: top 0..9, mid 1..6, leaf 2..3, leaf 4..5, leaf 7..8
    assert [(sp.start, sp.end) for sp in tr.spans] == [
        (0, 9), (1, 6), (2, 3), (4, 5), (7, 8)]
    assert tr.self_times() == [9 - 5 - 1, 5 - 1 - 1, 1, 1, 1]
    assert tr.children() == [[1, 4], [2, 3], [], [], []]


def test_wrapper_records_span_when_call_raises():
    tr = Tracer(clock=Clock())

    class Failing:
        @staticmethod
        def boom():
            raise ValueError("x")

    tr.wrap(Failing, "boom", "boom")
    with pytest.raises(ValueError):
        Failing.boom()
    tr.uninstall()
    assert [(sp.name, sp.start, sp.end) for sp in tr.spans] == [("boom", 0, 1)]
    assert tr._stack == []


@pytest.fixture(scope="module")
def coarse_trace(tmp_path_factory):
    from iontrap import bem, geometry, merit

    cache = str(tmp_path_factory.mktemp("cache"))
    tr = Tracer()
    layers.install(tr)
    try:
        for tr.op in (0, 1):  # miss, then hit
            geom = geometry.build_default("surface", fine_um=80.0)
            report = merit.full_report(bem.solve_unit_excitations(geom, cache_dir=cache))
    finally:
        tr.uninstall()
    assert bem.potential_of.__module__ == "iontrap.bem"
    assert not hasattr(bem.potential_of, "__wrapped__")
    return tr, geom, report


def test_coarse_trap_spans_nest(coarse_trace):
    tr, _, _ = coarse_trace
    for i, sp in enumerate(tr.spans):
        assert sp.end >= sp.start
        if sp.parent is not None:
            parent = tr.spans[sp.parent]
            assert sp.parent < i and parent.op == sp.op
            assert parent.start <= sp.start and sp.end <= parent.end
    tops = [sp.name for sp in tr.spans if sp.parent is None]
    assert tops == ["geometry.build_default", "bem.solve_unit_excitations",
                    "merit.full_report"] * 2


def test_coarse_trap_self_times_add_up(coarse_trace):
    tr, _, _ = coarse_trace
    self_s = tr.self_times()
    assert min(self_s) >= 0.0
    # the self times of a top span and all its descendants sum to its duration
    root = list(range(len(tr.spans)))
    for i, sp in enumerate(tr.spans):
        j = i
        while tr.spans[j].parent is not None:
            j = tr.spans[j].parent
        root[i] = j
    for i, sp in enumerate(tr.spans):
        if sp.parent is None:
            tree = sum(s for s, r in zip(self_s, root) if r == i)
            assert tree == pytest.approx(sp.s, rel=1e-9, abs=1e-12)


def test_coarse_trap_per_layer_counts(coarse_trace):
    tr, geom, report = coarse_trace
    n = geom.n_panels
    m = layers.per_layer(tr, passes=2)
    value = {k: v for k, (v, _) in m.items()}
    assert value["geometry.n_panels"] == n == 580
    assert value["bem.solve_unit_excitations.cache_hit"] == 0.5
    # one assembly in two passes: n x n pairs, halved per pass
    assert value["bem.potential_matrix.pairs"] == n * n / 2
    assert value["merit.fit_harmonicity.points"] == 2 * 2001
    assert value["merit.trap_depth.boundary_limited"] == float(
        report.depth_boundary_limited)
    # the residual check evaluates every collocation point once, and each
    # report fits two axes of 2001 samples
    assert value["bem.potential_of.pairs"] == (n * n + 2 * 2 * 2001 * n) / 2

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declared = {p["name"]: p["unit"] for p in json.load(f)["per_layer"]}
    for name, (_, unit) in m.items():
        assert declared[name] == unit


def test_reference_gate_catches_a_mesh_change():
    import run

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    ref = reference["reports"]["gnd-surface"]

    class Report:
        design = "gnd-surface"

    rep = Report()
    for key in ("d_um", "k", "k_x", "k_y", "D_meV", "n_panels",
                "depth_boundary_limited"):
        setattr(rep, key, ref[key])
    rep.k *= 1.0 + 1e-9
    run.check_report(rep, ref, reference["rel_tol"])
    # ROADMAP item 4: refining the gnd-surface mesh moves k 0.3583 -> 0.3596
    rep.k = 0.3596
    with pytest.raises(AssertionError, match="k 0.3596"):
        run.check_report(rep, ref, reference["rel_tol"])
    rep.k = ref["k"]
    rep.depth_boundary_limited = False
    with pytest.raises(AssertionError, match="depth_boundary_limited"):
        run.check_report(rep, ref, reference["rel_tol"])
    rep.depth_boundary_limited = ref["depth_boundary_limited"]
    for key in ("d_um", "k", "k_x", "k_y", "D_meV"):
        setattr(rep, key, float("nan"))
        with pytest.raises(AssertionError, match=f"{key} nan"):
            run.check_report(rep, ref, reference["rel_tol"])
        setattr(rep, key, ref[key])


def test_map_gate_fails_on_nan_and_missing_points():
    import run

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    ref = reference["map-surface"]
    values = {(x, y, z): psi for x, y, z, psi in ref["points"]}
    for i in range(ref["rows"] - len(values)):  # unpinned rows
        values[(-1.0, float(i), 0.0)] = 0.0
    run.check_map(values, ref, reference["rel_tol"])
    x, y, z, _ = ref["points"][0]
    values[(x, y, z)] = float("nan")
    with pytest.raises(AssertionError, match="nan"):
        run.check_map(values, ref, reference["rel_tol"])
    del values[(x, y, z)]
    values[(-2.0, 0.0, 0.0)] = 0.0
    with pytest.raises(AssertionError, match="None"):
        run.check_map(values, ref, reference["rel_tol"])
