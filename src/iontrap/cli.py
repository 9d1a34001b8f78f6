"""Command-line interface.

Subcommands: build (emit geometry JSON), report (figures of merit of one
trap), sweep (figures of merit vs wafer separation), map (pseudopotential
grid), validate (invariant scoreboard). Every command writes one
<first output>.manifest.json, which each CSV output names in its first line,
recording the tool version, the exact command, input and output hashes, and
diagnostics; data outputs themselves are deterministic, so a rerun with
equal inputs is byte-identical.

Exit codes: 0 success, 1 validation/sweep failure, 2 invalid input,
3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import sys

import numpy as np

from . import __version__, bem, geometry
from .constants import CA40, get_species
from .errors import InvalidInputError, IonTrapError, SolverError
from .merit import DEFAULT_TARGET_OMEGA, TrapReport, full_report
from .pseudo import (DEFAULT_FREQ_MHZ, DEFAULT_VOLTAGE_V, DriveParams, PseudoField,
                     check_grid, pseudo_map)

_DESIGNS = tuple(geometry.DESIGNS)

SWEEP_CSV_HEADER = "h_um,d_um,k,D_meV,omega_MHz,q,heating_norm"


# -- helpers -----------------------------------------------------------------


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _refuse_directory_outputs(*paths):
    """InvalidInputError naming the first output path that is an existing
    directory: one of paths, or the manifest that _write_manifest puts next
    to the first of them. Called before any work, so no solve runs in vain."""
    for path in (*paths, paths[0] + ".manifest.json"):
        if os.path.isdir(path):
            raise InvalidInputError(f"output path is a directory: {path}")


def _write_output(path: str, text: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _write_manifest(out_paths: list[str], args_ns, inputs: dict, diagnostics: dict):
    """One manifest next to the first output; all outputs reference it."""
    import datetime

    manifest_path = out_paths[0] + ".manifest.json"
    payload = {
        "tool": "iontrap",
        "version": __version__,
        "command": " ".join(args_ns.argv),
        "inputs": inputs,
        "outputs": {os.path.basename(p): _sha256_file(p) for p in out_paths},
        "diagnostics": diagnostics,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest_path


def _manifest_ref(first_out: str) -> str:
    """The leading comment of a CSV output: the manifest that
    _write_manifest puts next to first_out, the command's first output."""
    return f"# manifest: {os.path.basename(first_out)}.manifest.json\n"


def _species_arg(name: str):
    try:
        return get_species(name)
    except KeyError as exc:
        raise InvalidInputError(str(exc.args[0])) from exc


# -- input rules -------------------------------------------------------------
# Every numeric flag and sweep-spec field is read through one of these rules:
# rule(raw, name) takes a JSON value, or the numbers of a flag's text, and
# returns it as a float (an int for _count, a tuple for a 3-vector) or raises.


def _rule(wording, ok, size=None, cast=float):
    def rule(raw, name):
        values = raw if size else (raw,)
        if ((size is None or isinstance(raw, tuple) and len(raw) == size)
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) and ok(v)
                        for v in values)):
            return tuple(map(cast, values)) if size else cast(raw)
        raise InvalidInputError(f"{name} must be {wording}, got {raw!r}")
    return rule


_nonnegative = _rule(">= 0 and finite", lambda v: 0 <= v < math.inf)
_positive = _rule("> 0 and finite", lambda v: 0 < v < math.inf)
_mesh_size = _rule(f"> 0 and <= {geometry.DEFAULT_COARSE_UM:g}, the coarse mesh size",
                   lambda v: 0 < v <= geometry.DEFAULT_COARSE_UM)
_count = _rule("an integer >= 1", lambda v: v >= 1 and float(v).is_integer(), cast=int)
_vector = _rule("3 finite numbers x,y,z", math.isfinite, size=3)
_span = _rule("3 numbers x,y,z, each >= 0 and finite", lambda v: 0 <= v < math.inf, size=3)


def _flag(p, flag, rule, **kw):
    """Declare a numeric flag: its text, a number or comma-separated numbers,
    is read through rule (as itself if it is not numbers). argparse lets the
    rule's InvalidInputError through to main, which returns 2."""
    def read(text):
        try:
            raw = tuple(float(part) for part in text.split(","))
        except ValueError:
            raw = (text,)
        return rule(raw if len(raw) > 1 else raw[0], flag)
    p.add_argument(flag, type=read, **kw)


def _given(ns, *keys) -> dict:
    """The flags among keys that the command line gave, by dest."""
    return {k: getattr(ns, k) for k in keys if getattr(ns, k) is not None}


def _load_or_build_geometry(ns) -> geometry.TrapGeometry:
    if ns.geometry:
        if _given(ns, "design", "h_um", "fine_um"):
            raise InvalidInputError("--geometry excludes --design, --h-um and --mesh-fine-um")
        return geometry.TrapGeometry.load(ns.geometry)
    if ns.design:
        return geometry.build_default(ns.design, **_given(ns, "h_um", "fine_um"))
    raise InvalidInputError("provide --geometry FILE or --design NAME")


def _geometry_inputs(ns, geom) -> dict:
    inputs = {"geometry_signature": geom.signature()}
    if getattr(ns, "geometry", None):
        inputs["geometry_file"] = {"path": ns.geometry,
                                   "sha256": _sha256_file(ns.geometry)}
    else:
        inputs["design"] = geom.design
        if geom.top_um is not None:
            inputs["h_um"] = geom.top_um
    return inputs


# -- build -------------------------------------------------------------------


def cmd_build(ns) -> int:
    _refuse_directory_outputs(ns.out)
    geom = geometry.build_default(ns.design, **_given(
        ns, "h_um", "fine_um", "center_width_um", "rf_width_um", "gap_um"))
    os.makedirs(os.path.dirname(os.path.abspath(ns.out)), exist_ok=True)
    geom.save(ns.out)
    _write_manifest([ns.out], ns, {"design": ns.design},
                    {"n_panels": geom.n_panels,
                     "signature": geom.signature()})
    print(f"wrote {ns.out} ({geom.n_panels} panels, design {geom.design})")
    return 0


# -- report ------------------------------------------------------------------


def _reference_report(ns, drive):
    ref = getattr(ns, "reference", None)
    if not ref:
        return None
    if os.path.exists(ref):
        geom = geometry.TrapGeometry.load(ref)
    elif ref in _DESIGNS:
        geom = geometry.build_default(ref, **_given(ns, "fine_um"))
    else:
        raise InvalidInputError(
            f"--reference must be a geometry file or one of {_DESIGNS}, got {ref!r}")
    solved = bem.solve_unit_excitations(geom, cache_dir=ns.cache_dir)
    return full_report(solved, species=ns.species, drive=drive,
                       target_omega=2e6 * math.pi * ns.target_MHz)


def cmd_report(ns) -> int:
    json_path, csv_path = ns.out + ".json", ns.out + ".csv"
    _refuse_directory_outputs(json_path, csv_path)
    geom = _load_or_build_geometry(ns)
    drive = DriveParams.from_mhz(ns.voltage_V, ns.freq_MHz)
    reference = _reference_report(ns, drive)
    solved = bem.solve_unit_excitations(geom, cache_dir=ns.cache_dir)
    report = full_report(solved, species=ns.species, drive=drive,
                         target_omega=2e6 * math.pi * ns.target_MHz,
                         reference=reference)

    _write_output(json_path, json.dumps(report.to_dict(), indent=2,
                                        sort_keys=True) + "\n")
    _write_output(csv_path, _manifest_ref(json_path) + TrapReport.CSV_HEADER
                  + "\n" + report.csv_row() + "\n")
    manifest = _write_manifest(
        [json_path, csv_path], ns, _geometry_inputs(ns, geom),
        {"solver_cond": report.solver_cond,
         "geometry": geom.mesh_diagnostics(),
         "solver": solved.diagnostics,
         "solver_residual_V": report.solver_residual_V,
         "n_panels": report.n_panels,
         "depth_grid_points": report.depth_grid_points,
         "depth_grid_cells": report.depth_grid_cells,
         "depth_polished": report.depth_polished,
         "field_evaluations": report.field_evaluations})
    print(f"wrote {json_path}, {csv_path} (manifest {manifest})")
    print(TrapReport.CSV_HEADER)
    print(report.csv_row())
    return 0


# -- sweep -------------------------------------------------------------------


_SPEC_KEYS = ("design", "h_um", "voltage_V", "freq_MHz", "species", "mesh", "reference")


def _field(spec, key, rule, default):
    """The sweep-spec field key, or default if it is absent, read through rule."""
    return rule(spec.get(key, default), f"sweep spec '{key}'")


def _load_sweep_spec(path) -> tuple:
    """The design, h_um, drive, species, fine_um and reference of the sweep
    spec at path, every field checked and its default filled in."""
    spec = geometry.read_json(path, "sweep spec")
    if not isinstance(spec, dict):
        raise InvalidInputError("sweep spec must be a JSON object")
    mesh = spec.get("mesh", {})
    if not isinstance(mesh, dict):
        raise InvalidInputError(f"sweep spec 'mesh' must be an object, got {mesh!r}")
    unknown = [k for k in spec if k not in _SPEC_KEYS]
    unknown += [f"mesh.{k}" for k in mesh if k != "fine_um"]
    if unknown:
        raise InvalidInputError(f"sweep spec has unknown keys {unknown}; it takes "
                                f"{', '.join(_SPEC_KEYS)} and mesh.fine_um")
    spec = {**spec, **{f"mesh.{key}": value for key, value in mesh.items()}}
    design = spec.get("design")
    two_wafer = [n for n, build in geometry.DESIGNS.items()
                 if "h_um" in inspect.signature(build).parameters]
    if design not in two_wafer:
        raise InvalidInputError(
            f"sweep spec 'design' must be {' or '.join(two_wafer)}, got {design!r}")
    hs = spec.get("h_um")
    if not isinstance(hs, list) or not hs:
        raise InvalidInputError("sweep spec 'h_um' must be a nonempty number list")
    hs = [_positive(h, f"sweep spec 'h_um[{i}]'") for i, h in enumerate(hs)]
    if sorted(hs) != hs or len(set(hs)) != len(hs):
        raise InvalidInputError("sweep spec 'h_um' must be strictly ascending")
    reference = spec.get("reference", "surface")
    if reference is not None and reference not in _DESIGNS:
        raise InvalidInputError(f"sweep 'reference' must be null or one of {_DESIGNS}")
    drive = DriveParams.from_mhz(_field(spec, "voltage_V", _nonnegative, DEFAULT_VOLTAGE_V),
                                 _field(spec, "freq_MHz", _positive, DEFAULT_FREQ_MHZ))
    return (design, hs, drive, _species_arg(spec.get("species", CA40.name)),
            _field(spec, "mesh.fine_um", _mesh_size, geometry.DEFAULT_FINE_UM), reference)


def _sweep_row(design, h, drive, species, fine_um, cache_dir, reference):
    geom = geometry.build_default(design, h_um=h, fine_um=fine_um)
    solved = bem.solve_unit_excitations(geom, cache_dir=cache_dir)
    rep = full_report(solved, species=species, drive=drive, reference=reference)
    return (f"{h:.6g},{rep.d_um:.4f},{rep.k:.5f},{rep.D_meV:.4f},"
            f"{rep.omega_sim_MHz:.5f},{rep.q_sim:.6f},{rep.heating_norm:.5f}")


def _share_kernel_workers(workers):
    """In a sweep child: a kernel pool of its share of the CPUs, so that the
    children together run no more kernel threads than one process would."""
    bem._WORKERS = workers


def cmd_sweep(ns) -> int:
    _refuse_directory_outputs(ns.out)
    design, hs, drive, species, fine_um, ref_name = _load_sweep_spec(ns.spec)
    reference = None
    if ref_name:
        ref_geom = geometry.build_default(ref_name, fine_um=fine_um)
        reference = full_report(bem.solve_unit_excitations(ref_geom,
                                                           cache_dir=ns.cache_dir),
                                species=species, drive=drive)

    results: list[str] = []
    errors: list[str] = []

    rest = (drive, species, fine_um, ns.cache_dir, reference)
    calls = [lambda h=h: _sweep_row(design, h, *rest) for h in hs]
    # a fork-started pool launches all its workers at the first submit
    jobs = min(ns.jobs, len(hs))
    if jobs > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=jobs, initializer=_share_kernel_workers,
                                    initargs=(max(1, bem._WORKERS // jobs),)) as ex:
            calls = [ex.submit(_sweep_row, design, h, *rest).result
                     for h in hs]
    for h, call in zip(hs, calls):
        try:
            results.append(call())
        except IonTrapError as exc:
            errors.append(f"# error at h_um={h:.6g}: {exc}")
            results.append(f"{h:.6g},nan,nan,nan,nan,nan,nan")

    body = _manifest_ref(ns.out) + SWEEP_CSV_HEADER + "\n"
    body += "".join(e + "\n" for e in errors)
    body += "".join(r + "\n" for r in results)
    _write_output(ns.out, body)
    manifest = _write_manifest(
        [ns.out], ns,
        {"sweep_spec": {"path": ns.spec, "sha256": _sha256_file(ns.spec)}},
        {"n_rows": len(hs), "n_errors": len(errors)})
    print(f"wrote {ns.out} ({len(hs)} rows, {len(errors)} errors; manifest {manifest})")
    return 1 if errors and len(errors) == len(hs) else 0


# -- map ---------------------------------------------------------------------


def _check_domain(geom, center, span):
    lo = [c - s / 2 for c, s in zip(center, span)]
    hi = [c + s / 2 for c, s in zip(center, span)]
    corners = geom.corners_um()
    # without a top plane, y is bounded by the largest |x| or |z| of the
    # electrodes; x and z each by that axis's electrode extent
    y_hi = float(np.abs(corners[:, [0, 2]]).max()) if geom.top_um is None else geom.top_um
    if lo[1] < 0.0 or hi[1] > y_hi:
        raise InvalidInputError(
            f"map extends outside the trap interior in y: [{lo[1]:.6g}, "
            f"{hi[1]:.6g}] um vs [0, {y_hi:.6g}]")
    for ax, name in ((0, "x"), (2, "z")):
        a_lo, a_hi = corners[:, ax].min(), corners[:, ax].max()
        if lo[ax] < a_lo or hi[ax] > a_hi:
            raise InvalidInputError(
                f"map extends outside the modeled region in {name}: "
                f"[{lo[ax]:.6g}, {hi[ax]:.6g}] um vs [{a_lo:.6g}, {a_hi:.6g}]")


def cmd_map(ns) -> int:
    _refuse_directory_outputs(ns.out)
    geom = _load_or_build_geometry(ns)
    drive = DriveParams.from_mhz(ns.voltage_V, ns.freq_MHz)
    try:
        check_grid(ns.center_um, ns.span_um, ns.res_um, ("--center-um", "--span-um", "--res-um"))
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from exc
    _check_domain(geom, ns.center_um, ns.span_um)
    solved = bem.solve_unit_excitations(geom, cache_dir=ns.cache_dir)
    rf = solved.charge_weights()
    pseudo = PseudoField(rf, species=ns.species, drive=drive)
    grid = pseudo_map(pseudo, ns.center_um, ns.span_um, ns.res_um)
    _write_output(ns.out, _manifest_ref(ns.out) + grid.csv_text())
    manifest = _write_manifest(
        [ns.out], ns, _geometry_inputs(ns, geom),
        {"shape": [len(grid.xs_um), len(grid.ys_um), len(grid.zs_um)],
         "psi_min_meV": float(np.min(grid.values_meV)),
         "psi_max_meV": float(np.max(grid.values_meV)),
         "field_evaluations": rf.evaluations})
    print(f"wrote {ns.out} ({grid.values_meV.size} points; manifest {manifest})")
    return 0


# -- validate ----------------------------------------------------------------


def cmd_validate(ns) -> int:
    from .validate import format_scoreboard, run_validation

    results = run_validation()
    print(format_scoreboard(results))
    return 0 if all(r.passed for r in results) else 1


# -- parser ------------------------------------------------------------------


def _add_design_flags(p, **design):
    p.add_argument("--design", choices=_DESIGNS, **design)
    _flag(p, "--h-um", _positive, help="wafer separation for multi-wafer designs (um)")
    _flag(p, "--mesh-fine-um", _mesh_size, dest="fine_um", metavar="MESH_FINE_UM",
          help=f"fine mesh element size (um, default {geometry.DEFAULT_FINE_UM:g})")


def _add_trap_flags(p):
    """The flags of report and map: the trap, from a file or a design, and its drive."""
    p.add_argument("--geometry", help="geometry JSON file; excludes the next three")
    _add_design_flags(p, help="build a calibrated default design instead")
    _flag(p, "--voltage-V", _nonnegative, default=DEFAULT_VOLTAGE_V,
          help="rf drive amplitude (V)")
    _flag(p, "--freq-MHz", _positive, default=DEFAULT_FREQ_MHZ,
          help="rf drive frequency (MHz)")
    p.add_argument("--species", default=CA40.name, type=_species_arg, help="ion species name")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="iontrap",
        description="Ion-trap electrostatics, pseudopotential, and radial "
                    "figures of merit from first principles.")
    ap.add_argument("--cache-dir", default=None,
                    help="solver cache directory (default: $IONTRAP_CACHE_DIR)")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write a calibrated default geometry JSON")
    _add_design_flags(b, required=True)
    for flag in ("--center-width-um", "--rf-width-um", "--gap-um"):
        _flag(b, flag, _positive)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    r = sub.add_parser("report", help="figures of merit of one trap")
    _add_trap_flags(r)
    _flag(r, "--target-MHz", _positive, default=DEFAULT_TARGET_OMEGA / (2e6 * math.pi),
          help="target secular frequency (MHz)")
    r.add_argument("--reference", default=None,
                   help="geometry file or design name for heating/power norms")
    r.add_argument("--out", required=True,
                   help="output prefix: writes PREFIX.json, PREFIX.csv and "
                        "PREFIX.json.manifest.json")
    r.set_defaults(fn=cmd_report)

    s = sub.add_parser("sweep", help="figures of merit vs wafer separation")
    s.add_argument("--spec", required=True, help="sweep spec JSON")
    _flag(s, "--jobs", _count, default=1,
          help="parallel solves, at most one per row; rows keep the spec's order")
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(fn=cmd_sweep)

    m = sub.add_parser("map", help="pseudopotential grid CSV")
    _add_trap_flags(m)
    _flag(m, "--center-um", _vector, required=True, help="grid center 'x,y,z' (um)")
    _flag(m, "--span-um", _span, required=True,
          help="grid span 'sx,sy,sz' (um); 0 collapses an axis")
    _flag(m, "--res-um", _positive, required=True, help="grid step (um)")
    m.add_argument("--out", required=True, help="output CSV path")
    m.set_defaults(fn=cmd_map)

    v = sub.add_parser("validate", help="run the invariant scoreboard")
    v.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = build_parser().parse_args(argv)
        ns.argv = argv
        return ns.fn(ns)
    except SystemExit as exc:  # argparse: 2 for a command line it cannot parse, 0 for --help
        return exc.code
    except InvalidInputError as exc:
        print(f"error (invalid input): {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error (solver): {exc}", file=sys.stderr)
        return 3
    except IonTrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
