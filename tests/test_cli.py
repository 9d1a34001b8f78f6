"""End-to-end tests of the command-line interface.

Every test drives `cli.main` in process. Commands that solve a trap are
pointed at the shared test cache, so these tests exercise the full pipeline
(geometry -> solve -> figures of merit -> files on disk) without re-paying
for boundary-element solves already done by the physics tests.
"""

import argparse
import concurrent.futures
import copy
import importlib.resources
import json
import math
import os

import pytest

from iontrap import bem, cli, geometry, validate
from iontrap.cli import SWEEP_CSV_HEADER, _sha256_file
from iontrap.errors import SolverError
from iontrap.merit import full_report
from iontrap.validate import CheckResult, _parallel_plate_geometry


def run_cli(*args):
    return cli.main([str(a) for a in args])


def write_spec(tmp_path, spec):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    return path


def csv_data_lines(path):
    """All lines of a CSV output after the leading manifest reference."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    return lines[1:]


# -- build ---------------------------------------------------------------


def test_build_writes_loadable_geometry_and_manifest(tmp_path):
    out = tmp_path / "geo" / "surface.json"
    assert run_cli("build", "--design", "surface", "--out", out) == 0

    geom = geometry.TrapGeometry.load(out)
    assert geom.design == "surface"
    assert geom.n_panels > 100

    manifest = json.loads((tmp_path / "geo" / "surface.json.manifest.json").read_text())
    assert manifest["tool"] == "iontrap"
    assert manifest["outputs"]["surface.json"] == _sha256_file(out)
    assert manifest["diagnostics"]["n_panels"] == geom.n_panels
    assert manifest["diagnostics"]["signature"] == geom.signature()


def test_manifest_records_the_parsed_arguments(tmp_path, monkeypatch):
    # main(argv) called in Python records argv, not the host process's arguments
    monkeypatch.setattr("sys.argv", ["host", "fake-host-arg", "--something"])
    argv = ["build", "--design", "surface", "--out", str(tmp_path / "g.json")]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
    assert manifest["command"] == " ".join(argv)


def test_build_is_deterministic(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("build", "--design", "gnd-surface", "--h-um", 150, "--out", out) == 0
    first = out.read_bytes()
    assert run_cli("build", "--design", "gnd-surface", "--h-um", 150, "--out", out) == 0
    assert out.read_bytes() == first


def test_build_honors_dimension_overrides(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("build", "--design", "surface", "--center-width-um", 80,
                   "--rf-width-um", 40, "--gap-um", 5, "--out", out) == 0
    rects = {e.name: e.rects[0] for e in geometry.TrapGeometry.load(out).electrodes}
    assert rects["dc_center"].edge_u[0] == 80
    assert rects["rf_left"].edge_u[0] == rects["rf_right"].edge_u[0] == 40
    # the rf rail starts a 5 um gap past the center rail's edge
    assert rects["rf_right"].origin[0] == 0.5 * 80 + 5


def test_build_cross_rejects_planar_flags(tmp_path, capsys):
    rc = run_cli("build", "--design", "cross-rf", "--center-width-um", 80,
                 "--out", tmp_path / "g.json")
    assert rc == 2
    assert "cross-rf takes only" in capsys.readouterr().err


# a case whose message took the input rules' wording keeps its id
@pytest.mark.parametrize("args, fragment", [
    (("--design", "surface", "--h-um", 100), "surface takes only its own dimensions"),
    pytest.param(("--design", "cross-rf", "--h-um", 0), "--h-um must be > 0 and finite, got 0.0",
                 id="args1-h_um must be > 0"),
    (("--design", "gnd-surface", "--h-um", "inf"), "--h-um must be > 0 and finite, got inf"),
])
def test_build_rejects_a_height_the_design_cannot_take(tmp_path, capsys, args, fragment):
    # neither is replaced by a default: surface has no top plane, and a zero
    # wafer separation is not the default one
    assert run_cli("build", *args, "--out", tmp_path / "g.json") == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_a_huge_finite_height_writes_strict_json(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("build", "--design", "gnd-surface", "--h-um", "1e300", "--out", out) == 0

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    layout = json.loads(out.read_text(), parse_constant=reject)
    top = next(e for e in layout["electrodes"] if e["name"] == "gnd_top")
    assert top["rects"][0]["origin"][1] == 1e300


def test_bundled_geometries_match_builders():
    data = importlib.resources.files("iontrap") / "data"
    for design in ("surface", "gnd-surface", "cross-rf"):
        with importlib.resources.as_file(data / f"{design}.json") as path:
            geom = geometry.TrapGeometry.load(path)
        assert geom.signature() == geometry.build_default(design).signature()


def test_bundled_geometry_files_are_the_default_dicts():
    data = importlib.resources.files("iontrap") / "data"
    for design in geometry.DESIGNS:
        text = (data / f"{design}.json").read_text(encoding="utf-8")
        assert json.loads(text) == geometry.build_default(design).to_dict(), design


# -- report --------------------------------------------------------------


def test_report_surface_values_and_determinism(tmp_path, surface_solved, cache_dir, capsys):
    prefix = tmp_path / "out" / "surface"
    assert run_cli("--cache-dir", cache_dir, "report", "--design", "surface",
                   "--out", prefix) == 0

    rep = json.loads((tmp_path / "out" / "surface.json").read_text())
    assert rep["design"] == "surface"
    assert rep["species"] == "Ca40"
    assert rep["h_um"] is None
    assert rep["geometry_signature"] == geometry.build_default("surface").signature()
    assert rep["d_um"] == pytest.approx(90.87, abs=0.05)
    assert rep["k"] == pytest.approx(0.210, abs=0.003)
    assert rep["fit_std_err"] < 1e-3
    assert rep["D_meV"] == pytest.approx(1.26, abs=0.05)
    assert not rep["depth_boundary_limited"]
    assert rep["q_operating"] == pytest.approx(0.250 * rep["k"] / 0.210, rel=1e-12)
    assert not rep["q_clamped"]
    assert rep["omega_max_MHz"] == pytest.approx(0.985, abs=0.01)
    assert rep["heating_norm"] == 1.0 and rep["power_norm"] == 1.0
    # windowed fit vs point curvature differ only by residual anharmonicity
    assert rep["eq_vs_hessian_rel"] < 0.05
    assert rep["solver_residual_V"] < 1e-8

    csv_path = tmp_path / "out" / "surface.csv"
    from iontrap.merit import TrapReport
    header, row = csv_data_lines(csv_path)
    assert header == TrapReport.CSV_HEADER
    cells = row.split(",")
    assert cells[0] == "surface"
    assert float(cells[1]) == pytest.approx(rep["d_um"], abs=1e-3)

    out = capsys.readouterr().out
    assert TrapReport.CSV_HEADER in out and row in out

    json_bytes = (tmp_path / "out" / "surface.json").read_bytes()
    csv_bytes = csv_path.read_bytes()
    assert run_cli("--cache-dir", cache_dir, "report", "--design", "surface",
                   "--out", prefix) == 0
    assert (tmp_path / "out" / "surface.json").read_bytes() == json_bytes
    assert csv_path.read_bytes() == csv_bytes


def test_report_manifest_records_how_the_solve_ran(tmp_path):
    args = ("--cache-dir", tmp_path / "cache", "report", "--design", "surface",
            "--mesh-fine-um", 80, "--out", tmp_path / "coarse")
    solvers = []
    for _ in range(2):  # solved, then loaded from the cache
        assert run_cli(*args) == 0
        manifest = json.loads((tmp_path / "coarse.json.manifest.json").read_text())
        solvers.append(manifest["diagnostics"]["solver"])
    miss, hit = solvers
    assert (miss["cache"], hit["cache"]) == ("miss", "hit")
    for solver in solvers:
        assert solver["mirror_group"] == ["x=0", "z=0", "x=0 & z=0"]
        assert sum(solver["block_sizes"]) == manifest["diagnostics"]["n_panels"] == 580
        # the z-even blocks, the only ones solver_cond covers
        assert solver["factored_blocks"] == [0, 2]
    assert miss["assembly_s"] > 0.0 and "assembly_s" not in hit
    # the null scan runs on x = z = 0, where a point is its only image, and
    # the depth grid on z = 0, where it has two; only the Hessian's z steps
    # leave z = 0. Every image reads the corners of the rep panels
    report = json.loads((tmp_path / "coarse.json").read_text())
    seen = manifest["diagnostics"]["field_evaluations"]
    assert seen == report["field_evaluations"]
    assert set(seen) == {"points", "images", "corners"}
    assert seen["points"] < seen["images"] < 2 * seen["points"]
    pset = bem.PanelSet(*geometry.build_default("surface", fine_um=80.0).arrays_m())
    assert seen["corners"] < sum(g.cu.size for g in pset.corner_groups) / 3
    depth = {key: manifest["diagnostics"][key] for key in (
        "depth_grid_points", "depth_grid_cells", "depth_polished")}
    assert depth == {key: report[key] for key in depth}
    assert 0 < depth["depth_grid_points"] < depth["depth_grid_cells"]
    assert depth["depth_polished"] is True


def test_report_manifest_describes_the_mesh(tmp_path, surface_solved, cache_dir):
    blocks = {}
    for fine in (14, 10):
        prefix = tmp_path / f"fine{fine}"
        assert run_cli("--cache-dir", cache_dir, "report", "--design", "surface",
                       "--mesh-fine-um", fine, "--out", prefix) == 0
        manifest = json.loads((tmp_path / f"fine{fine}.json.manifest.json").read_text())
        diag = manifest["diagnostics"]
        block = blocks[fine] = diag["geometry"]
        assert sorted(block["panels_per_electrode"]) == sorted(
            geometry.build_default("surface").electrode_names)
        assert sum(block["panels_per_electrode"].values()) == diag["n_panels"]
        assert block["finest_edge_um"] <= fine < block["coarsest_edge_um"]
        assert block["mesh_s"] > 0.0
    # 14 um and 10 um give the same mesh: the report shows it
    assert blocks[14]["finest_edge_um"] == blocks[10]["finest_edge_um"]
    assert blocks[14]["panels_per_electrode"] == blocks[10]["panels_per_electrode"]


def test_report_with_reference_design(tmp_path, surface_solved, cross_solved_105, cache_dir):
    prefix = tmp_path / "cross"
    assert run_cli("--cache-dir", cache_dir, "report", "--design", "cross-rf",
                   "--h-um", 105, "--reference", "surface", "--out", prefix) == 0
    rep = json.loads((tmp_path / "cross.json").read_text())
    assert rep["d_um"] == pytest.approx(52.5, abs=0.01)
    assert 0.05 < rep["heating_norm"] < 0.2
    assert rep["power_norm"] < 1e-3


def test_report_unknown_species(tmp_path, capsys):
    rc = run_cli("report", "--design", "surface", "--species", "Xe999",
                 "--out", tmp_path / "r")
    assert rc == 2
    assert "unknown species" in capsys.readouterr().err


def test_report_needs_geometry_or_design(tmp_path, capsys):
    rc = run_cli("report", "--out", tmp_path / "r")
    assert rc == 2
    assert "provide --geometry FILE or --design NAME" in capsys.readouterr().err


def test_report_rejects_bogus_reference(tmp_path, capsys):
    rc = run_cli("report", "--design", "surface", "--reference", "bogus",
                 "--out", tmp_path / "r")
    assert rc == 2
    assert "--reference must be" in capsys.readouterr().err


def test_report_negative_voltage(tmp_path, capsys):
    rc = run_cli("report", "--design", "surface", "--voltage-V", -5,
                 "--out", tmp_path / "r")
    assert rc == 2
    assert "--voltage-V must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "map"])
@pytest.mark.parametrize("flag, value", [("--voltage-V", "inf"), ("--voltage-V", "nan"),
                                         ("--freq-MHz", "inf"), ("--freq-MHz", "-inf"),
                                         ("--freq-MHz", "nan")])
def test_a_drive_that_is_not_finite_exits_2_without_output(tmp_path, capsys, command,
                                                           flag, value):
    grid = ("--center-um", "0,90,0", "--span-um", "20,20,0", "--res-um", 10)
    rc = run_cli(command, "--design", "surface", f"{flag}={value}",
                 *(grid if command == "map" else ()), "--out", tmp_path / "out")
    assert rc == 2
    rule = ">= 0" if flag == "--voltage-V" else "> 0"
    assert f"{flag} must be {rule} and finite, got {float(value)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["nan", "inf", "-1", "0"])
def test_report_rejects_a_target_frequency_that_is_not_positive_and_finite(
        tmp_path, capsys, target):
    rc = run_cli("report", "--design", "surface", "--target-MHz", target,
                 "--out", tmp_path / "r")
    assert rc == 2
    assert "--target-MHz must be > 0 and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["1e300", "1e-300"])
def test_report_rejects_a_target_whose_drive_is_out_of_range(tmp_path, capsys, cache_dir,
                                                             surface_solved, target):
    # the required drive overflows to inf or underflows to zero
    rc = run_cli("--cache-dir", cache_dir, "report", "--design", "surface",
                 "--target-MHz", target, "--out", tmp_path / "r")
    assert rc == 2
    assert "is out of floating-point range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--voltage-V", "1e150"), ("--freq-MHz", "1e-100")])
def test_report_rejects_a_drive_whose_pseudopotential_overflows(tmp_path, capsys, cache_dir,
                                                                surface_solved, flag, value):
    # a finite psi coefficient, but psi or its gradient overflows in the field
    rc = run_cli("--cache-dir", cache_dir, "report", "--design", "surface",
                 flag, value, "--out", tmp_path / "r")
    assert rc == 2
    assert "on the null segment" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_malformed_geometry_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    rc = run_cli("report", "--geometry", bad, "--out", tmp_path / "r")
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 1" in err


@pytest.mark.parametrize("part, value", [("origin", math.nan), ("u", math.inf)])
def test_a_geometry_file_with_a_non_finite_rect_exits_2_without_output(tmp_path, capsys,
                                                                        part, value):
    d = geometry.build_surface_trap(fine_um=240.0).to_dict()
    d["electrodes"][0]["rects"][0][part][0] = value
    (tmp_path / "bad.json").write_text(json.dumps(d))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("report", "--geometry", tmp_path / "bad.json", "--out", out / "r") == 2
    assert "rect origin and edges must be finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["report", "map"])
@pytest.mark.parametrize("flag", [("--design", "cross-rf"), ("--h-um", 300),
                                  ("--mesh-fine-um", 50)])
def test_geometry_file_excludes_the_design_flags(tmp_path, capsys, command, flag):
    geo = tmp_path / "coarse.json"
    geometry.build_surface_trap(fine_um=240.0).save(geo)
    out = tmp_path / "out"
    out.mkdir()
    grid = ("--center-um", "0,90,0", "--span-um", "0,0,0", "--res-um", 5)
    rc = run_cli(command, "--geometry", geo, *flag, *(grid if command == "map" else ()),
                 "--out", out / "o")
    assert rc == 2
    assert "--geometry excludes --design, --h-um and --mesh-fine-um" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_solver_error_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    def explode(geom, cache_dir=None):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(bem, "solve_unit_excitations", explode)
    rc = run_cli("report", "--design", "surface", "--out", tmp_path / "r")
    assert rc == 3
    assert "error (solver): synthetic failure" in capsys.readouterr().err


# -- sweep ---------------------------------------------------------------


def test_sweep_single_row_matches_library_report(tmp_path, cross_solved_105, cache_dir):
    spec = write_spec(tmp_path, {"design": "cross-rf", "h_um": [105],
                                 "reference": None})
    out = tmp_path / "sweep.csv"
    assert run_cli("--cache-dir", cache_dir, "sweep", "--spec", spec,
                   "--out", out) == 0

    header, row = csv_data_lines(out)
    assert header == SWEEP_CSV_HEADER
    cells = row.split(",")

    rep = full_report(cross_solved_105)
    assert cells[0] == "105"
    assert cells[1] == f"{rep.d_um:.4f}"
    assert cells[2] == f"{rep.k:.5f}"
    assert cells[3] == f"{rep.D_meV:.4f}"
    assert cells[4] == f"{rep.omega_sim_MHz:.5f}"
    assert cells[5] == f"{rep.q_sim:.6f}"
    assert cells[6] == f"{rep.heating_norm:.5f}"
    assert float(cells[1]) == pytest.approx(52.5, abs=0.01)

    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["inputs"]["sweep_spec"]["sha256"] == _sha256_file(spec)
    assert manifest["diagnostics"] == {"n_rows": 1, "n_errors": 0}


# a case whose message took the input rules' wording keeps its id
@pytest.mark.parametrize("spec, fragment", [
    ({"design": "surface", "h_um": [100.0]}, "gnd-surface or cross-rf"),
    ({"design": "cross-rf", "h_um": []}, "nonempty number list"),
    ({"design": "cross-rf", "h_um": "105"}, "nonempty number list"),
    pytest.param({"design": "cross-rf", "h_um": [-5.0, 100.0]},
                 "sweep spec 'h_um[0]' must be > 0 and finite, got -5.0",
                 id='spec3-must be positive'),
    ({"design": "cross-rf", "h_um": [200.0, 105.0]}, "strictly ascending"),
    ({"design": "cross-rf", "h_um": [105.0, 105.0]}, "strictly ascending"),
    ({"design": "cross-rf", "h_um": [105.0], "reference": "bogus"},
     "must be null or one of"),
    ([105.0], "must be a JSON object"),
    pytest.param({"design": "cross-rf", "h_um": [True]},
                 "'h_um[0]' must be > 0 and finite, got True",
                 id="spec8-'h_um' must be a nonempty number list"),
    ({"design": "cross-rf", "h_um": [105.0], "mesh": 5},
     "sweep spec 'mesh' must be an object, got 5"),
    pytest.param({"design": "cross-rf", "h_um": [105.0], "mesh": {"fine_um": "x"}},
                 "sweep spec 'mesh.fine_um' must be > 0 and <= 500, the coarse mesh size, got 'x'",
                 id="spec10-sweep spec 'mesh.fine_um' must be a positive number, got 'x'"),
    pytest.param({"design": "cross-rf", "h_um": [105.0], "mesh": {"fine_um": True}},
                 "sweep spec 'mesh.fine_um' must be > 0 and <= 500, the coarse mesh size, "
                 "got True",
                 id="spec11-sweep spec 'mesh.fine_um' must be a positive number, got True"),
    pytest.param({"design": "cross-rf", "h_um": [105.0], "mesh": {"fine_um": 0}},
                 "sweep spec 'mesh.fine_um' must be > 0 and <= 500, the coarse mesh size, got 0",
                 id="spec12-sweep spec 'mesh.fine_um' must be a positive number, got 0"),
    pytest.param({"design": "cross-rf", "h_um": [math.nan]},
                 "sweep spec 'h_um[0]' must be > 0 and finite, got nan",
                 id="spec13-sweep spec 'h_um' values must be positive and finite"),
    pytest.param({"design": "cross-rf", "h_um": [105.0, math.inf]},
                 "sweep spec 'h_um[1]' must be > 0 and finite, got inf",
                 id="spec14-sweep spec 'h_um' values must be positive and finite"),
    ({"design": "cross-rf", "h_um": [200], "reference": None, "voltage": 50},
     "sweep spec has unknown keys ['voltage']"),
    ({"design": "cross-rf", "h_um": [105.0], "mesh": {"coarse_um": 5}},
     "sweep spec has unknown keys ['mesh.coarse_um']"),
    ({"design": "cross-rf", "h_um": [105.0], "reference": None, "mesh": {"fine_um": 1e300}},
     "sweep spec 'mesh.fine_um' must be > 0 and <= 500, the coarse mesh size, got 1e+300"),
    ({"design": "cross-rf", "h_um": [105.0], "reference": None, "species": ["Ca40"]},
     "unknown species ['Ca40']"),
    ({"design": "cross-rf", "h_um": [105.0], "reference": ""}, "must be null or one of"),
])
def test_sweep_spec_errors(tmp_path, capsys, spec, fragment):
    path = write_spec(tmp_path, spec)
    rc = run_cli("sweep", "--spec", path, "--out", tmp_path / "s.csv")
    assert rc == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


# a case whose message took the input rules' wording keeps its id
@pytest.mark.parametrize("key, value, fragment", [
    ("voltage_V", -1, "sweep spec 'voltage_V' must be >= 0 and finite, got -1"),
    ("voltage_V", True, "sweep spec 'voltage_V' must be >= 0 and finite, got True"),
    pytest.param("freq_MHz", "20", "sweep spec 'freq_MHz' must be > 0 and finite, got '20'",
                 id="freq_MHz-20-sweep spec 'freq_MHz' must be a number, got '20'"),
    ("freq_MHz", 0, "sweep spec 'freq_MHz' must be > 0 and finite, got 0"),
    ("voltage_V", math.inf, "sweep spec 'voltage_V' must be >= 0 and finite, got inf"),
    ("voltage_V", math.nan, "sweep spec 'voltage_V' must be >= 0 and finite, got nan"),
    ("freq_MHz", math.inf, "sweep spec 'freq_MHz' must be > 0 and finite, got inf"),
])
def test_sweep_spec_with_a_bad_drive_exits_2(tmp_path, capsys, key, value, fragment):
    path = write_spec(tmp_path, {"design": "cross-rf", "h_um": [105.0],
                                 "reference": None, key: value})
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--spec", path, "--out", out) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    path = write_spec(tmp_path, {"design": "cross-rf", "h_um": [105.0],
                                 "reference": None})
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--spec", path, "--jobs", jobs, "--out", out) == 2
    assert f"--jobs must be an integer >= 1, got {float(jobs)}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_starts_at_most_one_worker_per_row(tmp_path, monkeypatch):
    workers, starts = [], []

    class InlineExecutor:
        """Records the pool size and its workers' initializer and runs each
        row in this process."""

        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)
            starts.append((initializer, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    # rails 100 um wide fit neither h = 80 nor 90 um: the rows fail before a solve
    for hs in ([80, 90], [90]):
        spec = write_spec(tmp_path, {"design": "cross-rf", "h_um": hs,
                                     "reference": None})
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--spec", spec, "--jobs", 64, "--out", out) == 1
        assert csv_data_lines(out)[-1] == "90,nan,nan,nan,nan,nan,nan"
    assert workers == [2]  # one row runs serially
    # each of the two children runs its share of the kernel threads
    share = max(1, bem._WORKERS // 2)
    assert starts == [(cli._share_kernel_workers, (share,))]
    monkeypatch.setattr(bem, "_WORKERS", bem._WORKERS)  # restored after the test
    cli._share_kernel_workers(*starts[0][1])
    assert bem._WORKERS == share


def test_sweep_malformed_spec_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"design": ')
    rc = run_cli("sweep", "--spec", path, "--out", tmp_path / "s.csv")
    assert rc == 2
    assert "line 1 column" in capsys.readouterr().err


def test_sweep_missing_spec_file(tmp_path, capsys):
    rc = run_cli("sweep", "--spec", tmp_path / "nope.json", "--out", tmp_path / "s.csv")
    assert rc == 2
    assert "sweep spec not found" in capsys.readouterr().err


def test_sweep_partial_failure_keeps_going(tmp_path, cross_solved_105, cache_dir):
    # h = 90 um cannot host 100 um wide rails; h = 105 um can.
    spec = write_spec(tmp_path, {"design": "cross-rf", "h_um": [90, 105],
                                 "reference": None})
    out = tmp_path / "sweep.csv"
    assert run_cli("--cache-dir", cache_dir, "sweep", "--spec", spec,
                   "--out", out) == 0

    lines = csv_data_lines(out)
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1].startswith("# error at h_um=90")
    assert lines[2] == "90,nan,nan,nan,nan,nan,nan"
    assert lines[3].startswith("105,52.5")


def test_sweep_row_of_an_overflowing_drive_reads_nan(tmp_path, cross_solved_105, cache_dir):
    spec = write_spec(tmp_path, {"design": "cross-rf", "h_um": [105], "voltage_V": 1e150,
                                 "reference": None})
    out = tmp_path / "sweep.csv"
    assert run_cli("--cache-dir", cache_dir, "sweep", "--spec", spec, "--out", out) == 1
    lines = csv_data_lines(out)
    assert "out of floating-point range" in lines[1]
    assert lines[2] == "105,nan,nan,nan,nan,nan,nan"


def test_sweep_row_of_a_lid_far_out_reads_nan(tmp_path, gnd_solved_200, cache_dir,
                                               monkeypatch):
    # at h = 1e9 um the row is solved, and its null search finds a second
    # well 30 mm up, where the field has decayed to within a hair of the null
    cache = tmp_path / "cache"
    cache.mkdir()
    entry = bem._cache_path(cache_dir, gnd_solved_200.geometry.signature())
    (cache / os.path.basename(entry)).write_bytes(open(entry, "rb").read())
    solved_h = []
    solve = bem.solve_unit_excitations

    def recorded(geom, **kwargs):
        solved_h.append(geom.top_um)
        return solve(geom, **kwargs)

    monkeypatch.setattr(bem, "solve_unit_excitations", recorded)
    spec = write_spec(tmp_path, {"design": "gnd-surface", "h_um": [200, 1e9],
                                 "reference": None})
    out = tmp_path / "sweep.csv"
    assert run_cli("--cache-dir", cache, "sweep", "--spec", spec, "--out", out) == 0
    lines = csv_data_lines(out)
    assert lines[1] == "# error at h_um=1e+09: 2 equal pseudopotential minima on the segment"
    assert lines[2].startswith("200,")
    assert lines[3] == "1e+09,nan,nan,nan,nan,nan,nan"
    assert solved_h == [200.0, 1e9]
    assert len(os.listdir(cache)) == 2


def test_report_of_a_lid_far_out_exits_1_after_the_solve(tmp_path, capsys):
    # no refusal from the geometry alone: the trap is solved, and its null
    # search raises NullAmbiguityError
    out = tmp_path / "out"
    out.mkdir()
    rc = run_cli("--cache-dir", tmp_path, "report", "--design", "gnd-surface",
                 "--h-um", "1e9", "--out", out / "r")
    assert rc == 1
    assert "2 equal pseudopotential minima" in capsys.readouterr().err
    assert not list(out.iterdir())
    assert len(list(tmp_path.glob("*.itsc"))) == 1


def test_report_of_a_lid_beyond_the_merge_keys_exits_2(tmp_path, capsys):
    # a report and a map of this trap both reach the solve and its merge keys
    out = tmp_path / "r"
    trap = ("--design", "gnd-surface", "--h-um", "1e300")
    assert run_cli("report", *trap, "--out", out) == 2
    assert "out of range for the merge keys" in capsys.readouterr().err
    assert run_cli("map", *trap, "--center-um", "0,90,0", "--span-um", "0,0,0",
                   "--res-um", "5", "--out", out) == 2
    assert "out of range for the merge keys" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_all_rows_failing_exits_1(tmp_path, cache_dir):
    spec = write_spec(tmp_path, {"design": "cross-rf", "h_um": [80, 90],
                                 "reference": None})
    rc = run_cli("--cache-dir", cache_dir, "sweep", "--spec", spec,
                 "--out", tmp_path / "sweep.csv")
    assert rc == 1


def test_sweep_parallel_matches_serial(tmp_path, cross_solved_105, cross_solved_200, cache_dir):
    spec = write_spec(tmp_path, {"design": "cross-rf", "h_um": [105, 200],
                                 "reference": None})
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run_cli("--cache-dir", cache_dir, "sweep", "--spec", spec,
                   "--out", serial) == 0
    assert run_cli("--cache-dir", cache_dir, "sweep", "--spec", spec,
                   "--jobs", 2, "--out", parallel) == 0
    assert csv_data_lines(serial) == csv_data_lines(parallel)


# -- map -----------------------------------------------------------------


def test_map_zero_voltage_is_identically_zero(tmp_path, surface_solved, cache_dir):
    out = tmp_path / "map.csv"
    assert run_cli("--cache-dir", cache_dir, "map", "--design", "surface",
                   "--voltage-V", 0, "--center-um", "0,90,0",
                   "--span-um", "20,20,0", "--res-um", 10, "--out", out) == 0
    lines = csv_data_lines(out)
    assert lines[0] == "x_um,y_um,z_um,psi_meV"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9  # 3 x 3 x 1 grid
    assert all(float(r[3]) == 0.0 for r in rows)

    manifest = json.loads((tmp_path / "map.csv.manifest.json").read_text())
    assert manifest["diagnostics"]["shape"] == [3, 3, 1]
    assert manifest["diagnostics"]["psi_max_meV"] == 0.0
    # the images of the z = 0 map are its own points (x = -10 and x = 10 are
    # each other's), each read against the rep corners, a quarter or less
    every = sum(g.cu.size for g in surface_solved.pset.corner_groups)
    seen = manifest["diagnostics"]["field_evaluations"]
    assert {key: seen[key] for key in ("points", "images")} == {"points": 9, "images": 9}
    assert seen["corners"] < 0.3 * every


def test_a_symmetric_map_evaluates_one_point_per_mirror_pair(tmp_path, surface_solved,
                                                             cache_dir):
    out = tmp_path / "map.csv"
    assert run_cli("--cache-dir", cache_dir, "map", "--design", "surface",
                   "--center-um", "0,90,0", "--span-um", "300,160,0", "--res-um", 3,
                   "--out", out) == 0
    manifest = json.loads((tmp_path / "map.csv.manifest.json").read_text())
    assert manifest["diagnostics"]["shape"] == [101, 54, 1]
    # x in [-150, 150] um: a point at x and its mirror image at -x share
    # their two images, so the kernel reads as many images as points, each
    # against the rep corners: a pair costs one point of the whole table
    every = sum(g.cu.size for g in surface_solved.pset.corner_groups)
    seen = manifest["diagnostics"]["field_evaluations"]
    assert {key: seen[key] for key in ("points", "images")} == {"points": 5454, "images": 5454}
    assert seen["corners"] < 0.3 * every
    psi = {tuple(map(float, row[:3])): row[3]
           for row in (line.split(",") for line in csv_data_lines(out)[1:])}
    assert len(psi) == 5454
    assert all(value == psi[(-x, y, z)] for (x, y, z), value in psi.items())


def test_map_res_halving_reproduces_shared_points(tmp_path, surface_solved, cache_dir):
    def run(res, name):
        out = tmp_path / name
        assert run_cli("--cache-dir", cache_dir, "map", "--design", "surface",
                       "--center-um", "0,90,0", "--span-um", "20,20,0",
                       "--res-um", res, "--out", out) == 0
        return {tuple(line.split(",")[:3]): line.split(",")[3]
                for line in csv_data_lines(out)[1:]}

    coarse = run(10, "coarse.csv")
    fine = run(5, "fine.csv")
    assert len(fine) == 25 and len(coarse) == 9
    for point, psi in coarse.items():
        assert fine[point] == psi  # identical down to the printed repr


def test_map_outside_trap_interior(tmp_path, capsys):
    rc = run_cli("map", "--design", "surface", "--center-um", "0,-50,0",
                 "--span-um", "20,20,0", "--res-um", 10, "--out", tmp_path / "m.csv")
    assert rc == 2
    assert "outside the trap interior in y" in capsys.readouterr().err


@pytest.mark.parametrize("y", ["5000", "1e300"])
def test_map_above_the_modeled_extent_of_an_open_trap(tmp_path, capsys, y):
    # with no top plane, y is bounded by the electrodes' extent, 4000 um
    rc = run_cli("map", "--design", "surface", "--center-um", f"0,{y},0",
                 "--span-um", "0,0,0", "--res-um", 1, "--out", tmp_path / "m.csv")
    assert rc == 2
    assert "outside the trap interior in y" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_map_outside_modeled_region(tmp_path, capsys):
    rc = run_cli("map", "--design", "surface", "--center-um", "4500,90,0",
                 "--span-um", "20,20,0", "--res-um", 10, "--out", tmp_path / "m.csv")
    assert rc == 2
    assert "outside the modeled region in x" in capsys.readouterr().err


def test_map_bounds_of_a_custom_layout_come_from_its_electrodes(tmp_path, capsys):
    # plates at y = 0 and y = 50 um, 1000 um square, with no dimensions in
    # params: y is bounded by [0, 50] and x, z by +/-500
    plates = tmp_path / "plates.json"
    _parallel_plate_geometry().save(plates)
    assert "wafer_extent_um" not in json.loads(plates.read_text())["params"]

    def map_at(center, span):
        return run_cli("map", "--geometry", plates, "--center-um", center,
                       "--span-um", span, "--res-um", 10, "--out", tmp_path / "m.csv")

    assert map_at("0,25,0", "40,40,980") == 0
    assert len(csv_data_lines(tmp_path / "m.csv")) == 1 + 5 * 5 * 99
    capsys.readouterr()
    assert map_at("0,40,0", "0,30,0") == 2
    assert "outside the trap interior in y" in capsys.readouterr().err
    assert map_at("490,25,0", "40,0,0") == 2
    assert "outside the modeled region in x: [470, 510] um vs +/-500" in capsys.readouterr().err
    assert map_at("0,25,-490", "0,0,40") == 2
    assert "outside the modeled region in z" in capsys.readouterr().err


# a case whose message took the input rules' wording keeps its id
@pytest.mark.parametrize("args, fragment", [
    pytest.param(("--center-um", "1,2", "--span-um", "0,0,0", "--res-um", 5),
                 "--center-um must be 3 finite numbers x,y,z, got (1.0, 2.0)",
                 id='args0-must have 3 components'),
    pytest.param(("--center-um", "a,b,c", "--span-um", "0,0,0", "--res-um", 5),
                 "--center-um must be 3 finite numbers x,y,z, got 'a,b,c'",
                 id="args1-must be 'x,y,z' numbers"),
    (("--center-um", "0,90,0", "--span-um", "0,0,0", "--res-um", 0),
     "--res-um must be > 0"),
    (("--center-um", "0,90,0", "--span-um", "30,16,0", "--res-um", "nan"),
     "--res-um must be > 0 and finite, got nan"),
    (("--center-um", "0,90,0", "--span-um", "30,16,0", "--res-um", "inf"),
     "--res-um must be > 0 and finite, got inf"),
    pytest.param(("--center-um", "0,90,0", "--span-um", "30,nan,0", "--res-um", 4),
                 "--span-um must be 3 numbers x,y,z, each >= 0 and finite, got (30.0, nan, 0.0)",
                 id='args5---span-um must be >= 0 and finite, got 30,nan,0'),
    pytest.param(("--center-um", "0,90,0", "--span-um", "30,-16,0", "--res-um", 4),
                 "--span-um must be 3 numbers x,y,z, each >= 0 and finite, got (30.0, -16.0, 0.0)",
                 id='args6---span-um must be >= 0 and finite, got 30,-16,0'),
    pytest.param(("--center-um", "0,90,0", "--span-um", "inf,16,0", "--res-um", 4),
                 "--span-um must be 3 numbers x,y,z, each >= 0 and finite, got (inf, 16.0, 0.0)",
                 id='args7---span-um must be >= 0 and finite, got inf,16,0'),
    pytest.param(("--center-um", "nan,90,0", "--span-um", "30,16,0", "--res-um", 4),
                 "--center-um must be 3 finite numbers x,y,z, got (nan, 90.0, 0.0)",
                 id='args8---center-um must be finite, got nan,90,0'),
    pytest.param(("--center-um", "0,-inf,0", "--span-um", "30,16,0", "--res-um", 4),
                 "--center-um must be 3 finite numbers x,y,z, got (0.0, -inf, 0.0)",
                 id='args9---center-um must be finite, got 0,-inf,0'),
    (("--center-um", "0,90,0", "--span-um", "300,160,0", "--res-um", "1e-300"),
     "has inf points, more than the 1048576 a map may hold"),
    (("--center-um", "0,90,0", "--span-um", "300,160,40", "--res-um", "0.1"),
     "has 1.927e+09 points, more than the 1048576 a map may hold"),
])
def test_map_argument_errors(tmp_path, capsys, args, fragment):
    rc = run_cli("map", "--design", "surface", *args, "--out", tmp_path / "m.csv")
    assert rc == 2
    assert fragment in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cache_dir_env_fallback(tmp_path, monkeypatch):
    # A deliberately coarse trap keeps this cold solve cheap.
    geom = geometry.build_surface_trap(fine_um=240.0)
    geo_path = tmp_path / "coarse.json"
    geom.save(geo_path)

    cache = tmp_path / "cache"
    monkeypatch.setenv("IONTRAP_CACHE_DIR", str(cache))
    assert run_cli("map", "--geometry", geo_path, "--center-um", "0,90,0",
                   "--span-um", "0,0,0", "--res-um", 5,
                   "--out", tmp_path / "m.csv") == 0
    assert sorted(p.name for p in cache.iterdir()) == [geom.signature() + ".itsc"]


# -- validate ------------------------------------------------------------


def test_validate_green_scoreboard(capsys):
    assert run_cli("validate") == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert sum(line.startswith("PASS") for line in lines) >= 12
    assert lines[-1].endswith("checks passed")
    n_ok, n_total = lines[-1].split()[0].split("/")
    assert n_ok == n_total


def test_validate_failing_scoreboard_exits_1(monkeypatch, capsys):
    fake = [CheckResult("synthetic", False, "injected failure", 0.0)]
    monkeypatch.setattr(validate, "run_validation", lambda: fake)
    assert run_cli("validate") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "0/1 checks passed" in out


# -- parser --------------------------------------------------------------


def test_help_lists_all_subcommands():
    text = cli.build_parser().format_help()
    for name in ("build", "report", "sweep", "map", "validate"):
        assert name in text


def test_main_returns_the_exit_code_of_argparse(tmp_path, capsys):
    # a command line argparse cannot parse exits 2, --help exits 0, and
    # neither raises SystemExit in the caller's process
    assert run_cli("map", "--design", "surface", "--out", tmp_path / "m.csv") == 2
    assert "the following arguments are required: --center-um" in capsys.readouterr().err
    assert run_cli("report", "--design", "ring", "--out", tmp_path / "r") == 2
    assert run_cli("report", "--help") == 0
    assert "--target-MHz" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


# -- every numeric input -------------------------------------------------


BAD_TEXT = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "x", "true")
BAD_JSON = (math.nan, math.inf, -math.inf, -1, 0, 1e-300, 1e300, "x", "true", True)

# each numeric flag, with the arguments it is given beside: the drive and grid
# flags run on the coarse trap's file, --h-um and --mesh-fine-um on a coarse
# built-in design; "flag[i]" sets component i of a vector flag, and {root}
# is the directory of the coarse_trap fixture
COARSE_FILE = ("--geometry", "{root}/coarse.json")
COARSE_DESIGN = ("--design", "gnd-surface", "--mesh-fine-um", "240")
GRID = ("--center-um", "0,50,0", "--span-um", "20,20,0", "--res-um", "10")
FLAG_SLOTS = [
    *(("build", ("--design", "gnd-surface"), flag)
      for flag in ("--h-um", "--center-width-um", "--rf-width-um", "--gap-um",
                   "--mesh-fine-um")),
    *(("report", COARSE_DESIGN, flag) for flag in ("--h-um", "--mesh-fine-um")),
    *(("report", COARSE_FILE, flag) for flag in ("--voltage-V", "--freq-MHz", "--target-MHz")),
    *(("map", COARSE_DESIGN + GRID, flag) for flag in ("--h-um", "--mesh-fine-um")),
    *(("map", COARSE_FILE + GRID, flag)
      for flag in ("--voltage-V", "--freq-MHz", "--res-um", "--center-um[0]",
                   "--center-um[1]", "--center-um[2]", "--span-um[0]", "--span-um[1]",
                   "--span-um[2]")),
    ("sweep", ("--spec", "{root}/one_row.json"), "--jobs"),
]
# each numeric sweep-spec field of a one-row spec; "key[i]" sets element i
SPEC_SLOTS = ["h_um[0]", "voltage_V", "freq_MHz", "mesh.fine_um"]
ONE_ROW_SPEC = {"design": "gnd-surface", "h_um": [200], "reference": None,
                "mesh": {"fine_um": 240}}


@pytest.fixture(scope="module")
def coarse_trap(tmp_path_factory):
    """A directory with a coarse surface trap's file, a cache that holds its
    solve and the one-row sweep spec."""
    root = tmp_path_factory.mktemp("coarse")
    geom = geometry.build_surface_trap(fine_um=240.0)
    geom.save(root / "coarse.json")
    bem.solve_unit_excitations(geom, cache_dir=root / "cache")
    (root / "one_row.json").write_text(json.dumps(ONE_ROW_SPEC))
    return root


def _set(value, slot, new):
    """value with slot ('name', or 'name[i]' for element i of a list or of
    comma-separated text) set to new."""
    index = slot.partition("[")[2]
    if not index:
        return new
    parts = value.split(",") if isinstance(value, str) else list(value)
    parts[int(index[:-1])] = new
    return ",".join(parts) if isinstance(value, str) else parts


def _exits_cleanly(coarse_trap, out, command, *args):
    """Run a command into the empty directory out: it must return a
    documented exit code, and write nothing when it returns 2."""
    out.mkdir()
    rc = cli.main(["--cache-dir", str(coarse_trap / "cache"), command,
                   *(str(a).format(root=coarse_trap) for a in args), "--out", str(out / "o")])
    assert rc in (0, 1, 2, 3), args
    if rc == 2:
        assert list(out.iterdir()) == [], args


@pytest.mark.parametrize("command, base, slot", FLAG_SLOTS,
                         ids=[f"{c} {s}" for c, _, s in FLAG_SLOTS])
def test_every_bad_value_of_a_numeric_flag_exits_cleanly(coarse_trap, tmp_path, monkeypatch,
                                                         command, base, slot):
    # a one-row sweep never starts a pool, whatever --jobs says
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    flag = slot.partition("[")[0]
    valid = dict(zip(base[::2], base[1::2])).get(flag)
    for i, text in enumerate(BAD_TEXT):
        _exits_cleanly(coarse_trap, tmp_path / f"out{i}", command, *base,
                       f"{flag}={_set(valid, slot, text)}")


@pytest.mark.parametrize("slot", SPEC_SLOTS)
def test_every_bad_value_of_a_numeric_spec_field_exits_cleanly(coarse_trap, tmp_path,
                                                               monkeypatch, slot):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    outer, _, key = slot.rpartition(".")
    name = key.partition("[")[0]
    for i, value in enumerate(BAD_JSON):
        spec = copy.deepcopy(ONE_ROW_SPEC)
        fields = spec[outer] if outer else spec
        fields[name] = _set(fields.get(name), key, value)
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        _exits_cleanly(coarse_trap, tmp_path / f"out{i}", "sweep", "--spec", path)


def test_every_numeric_flag_has_a_rule_and_a_slot_in_the_input_test():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    numeric = set()
    for command, sub in [("", parser), *commands.items()]:
        for action in sub._actions:
            assert action.type not in (float, int), (command, action.option_strings)
            if action.type not in (None, cli._species_arg):
                numeric.add((command, action.option_strings[0]))
    assert numeric == {(c, s.partition("[")[0]) for c, _, s in FLAG_SLOTS}
