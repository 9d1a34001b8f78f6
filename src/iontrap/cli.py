"""Command-line interface.

Subcommands: build (emit geometry JSON), report (figures of merit of one
trap), sweep (figures of merit vs wafer separation), map (pseudopotential
grid), validate (invariant scoreboard). Every output file is accompanied by
<output>.manifest.json recording the tool version, the exact command, input
hashes, and diagnostics; data outputs themselves are deterministic, so a
rerun with equal inputs is byte-identical.

Exit codes: 0 success, 1 validation/sweep failure, 2 invalid input,
3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, bem, geometry
from .constants import get_species
from .errors import InvalidInputError, IonTrapError, SolverError
from .merit import DEFAULT_TARGET_OMEGA, TrapReport, full_report
from .pseudo import BemRfField, DriveParams, PseudoField, check_grid, pseudo_map

_DESIGNS = tuple(geometry.DESIGNS)

SWEEP_CSV_HEADER = "h_um,d_um,k,D_meV,omega_MHz,q,heating_norm"


# -- helpers -----------------------------------------------------------------


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


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


def _manifest_ref(out_csv: str) -> str:
    return f"# manifest: {os.path.basename(out_csv)}.manifest.json\n"


def _species_arg(name: str):
    try:
        return get_species(name)
    except KeyError as exc:
        raise InvalidInputError(str(exc.args[0])) from exc


def _drive(voltage_V, freq_MHz, keys=("--voltage-V", "--freq-MHz")) -> DriveParams:
    """The rf drive of a voltage >= 0 and a frequency > 0, each a finite
    number that is not a bool; keys name the two values in error messages."""
    for key, value in zip(keys, (voltage_V, freq_MHz)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidInputError(f"{key} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise InvalidInputError(f"{key} must be finite, got {value}")
    if not voltage_V >= 0:
        raise InvalidInputError(f"{keys[0]} must be >= 0, got {voltage_V}")
    if not freq_MHz > 0:
        raise InvalidInputError(f"{keys[1]} must be > 0, got {freq_MHz}")
    return DriveParams.from_mhz(voltage_V, freq_MHz)


def _load_or_build_geometry(ns) -> geometry.TrapGeometry:
    if getattr(ns, "geometry", None):
        return geometry.TrapGeometry.load(ns.geometry)
    if getattr(ns, "design", None):
        return geometry.build_default(ns.design, h_um=ns.h_um,
                                      fine_um=ns.mesh_fine_um)
    raise InvalidInputError("provide --geometry FILE or --design NAME")


def _solve(geom, ns) -> bem.SolvedTrap:
    return bem.solve_unit_excitations(geom, cache_dir=ns.cache_dir)


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
    dims = {k: getattr(ns, k) for k in ("center_width_um", "rf_width_um", "gap_um")
            if getattr(ns, k) is not None}
    geom = geometry.build_default(ns.design, h_um=ns.h_um,
                                  fine_um=ns.mesh_fine_um, **dims)
    os.makedirs(os.path.dirname(os.path.abspath(ns.out)), exist_ok=True)
    geom.save(ns.out)
    _write_manifest([ns.out], ns, {"design": ns.design},
                    {"n_panels": geom.n_panels,
                     "signature": geom.signature()})
    print(f"wrote {ns.out} ({geom.n_panels} panels, design {geom.design})")
    return 0


# -- report ------------------------------------------------------------------


def _reference_report(ns, drive, species):
    ref = getattr(ns, "reference", None)
    if not ref:
        return None
    if os.path.exists(ref):
        geom = geometry.TrapGeometry.load(ref)
    elif ref in _DESIGNS:
        geom = geometry.build_default(ref, h_um=None, fine_um=ns.mesh_fine_um)
    else:
        raise InvalidInputError(
            f"--reference must be a geometry file or one of {_DESIGNS}, got {ref!r}")
    solved = _solve(geom, ns)
    return full_report(solved, species=species, drive=drive,
                       target_omega=2e6 * math.pi * ns.target_MHz)


def cmd_report(ns) -> int:
    if not 0 < ns.target_MHz < math.inf:  # NaN fails too
        raise InvalidInputError(f"--target-MHz must be > 0 and finite, got {ns.target_MHz}")
    geom = _load_or_build_geometry(ns)
    drive = _drive(ns.voltage_V, ns.freq_MHz)
    species = _species_arg(ns.species)
    reference = _reference_report(ns, drive, species)
    solved = _solve(geom, ns)
    report = full_report(solved, species=species, drive=drive,
                         target_omega=2e6 * math.pi * ns.target_MHz,
                         reference=reference)

    json_path, csv_path = ns.out + ".json", ns.out + ".csv"
    _write_output(json_path, json.dumps(report.to_dict(), indent=2,
                                        sort_keys=True) + "\n")
    _write_output(csv_path, _manifest_ref(ns.out) + TrapReport.CSV_HEADER
                  + "\n" + report.csv_row() + "\n")
    manifest = _write_manifest(
        [ns.out, json_path, csv_path][1:], ns, _geometry_inputs(ns, geom),
        {"solver_cond": report.solver_cond,
         "geometry": geom.mesh_diagnostics(),
         "solver": solved.diagnostics,
         "solver_residual_V": report.solver_residual_V,
         "n_panels": report.n_panels,
         "field_evaluations": report.field_evaluations})
    print(f"wrote {json_path}, {csv_path} (manifest {manifest})")
    print(TrapReport.CSV_HEADER)
    print(report.csv_row())
    return 0


# -- sweep -------------------------------------------------------------------


def _load_sweep_spec(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            spec = json.load(f)
    except FileNotFoundError as exc:
        raise InvalidInputError(f"sweep spec not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"sweep spec is not valid JSON: {path}: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(spec, dict):
        raise InvalidInputError("sweep spec must be a JSON object")
    design = spec.get("design")
    two_wafer = [n for n, (params, _) in geometry.DESIGNS.items()
                 if params().h_um is not None]
    if design not in two_wafer:
        raise InvalidInputError(
            f"sweep spec 'design' must be {' or '.join(two_wafer)}, got {design!r}")
    hs = spec.get("h_um")
    if (not isinstance(hs, list) or not hs
            or not all(isinstance(h, (int, float)) and not isinstance(h, bool)
                       for h in hs)):
        raise InvalidInputError("sweep spec 'h_um' must be a nonempty number list")
    if not all(0 < h < math.inf for h in hs):  # NaN fails too
        raise InvalidInputError("sweep spec 'h_um' values must be positive and finite")
    if sorted(hs) != list(hs) or len(set(hs)) != len(hs):
        raise InvalidInputError("sweep spec 'h_um' must be strictly ascending")
    return spec


def _sweep_row(design, h, drive, species, fine_um, cache_dir, reference):
    geom = geometry.build_default(design, h_um=h, fine_um=fine_um)
    solved = bem.solve_unit_excitations(geom, cache_dir=cache_dir)
    rep = full_report(solved, species=species, drive=drive, reference=reference)
    return (f"{h:.6g},{rep.d_um:.4f},{rep.k:.5f},{rep.D_meV:.4f},"
            f"{rep.omega_sim_MHz:.5f},{rep.q_sim:.6f},{rep.heating_norm:.5f}")


def cmd_sweep(ns) -> int:
    if ns.jobs < 1:
        raise InvalidInputError(f"--jobs must be >= 1, got {ns.jobs}")
    spec = _load_sweep_spec(ns.spec)
    drive = _drive(spec.get("voltage_V", 10.0), spec.get("freq_MHz", 20.0),
                   ("sweep spec 'voltage_V'", "sweep spec 'freq_MHz'"))
    species = _species_arg(spec.get("species", "Ca40"))
    mesh = spec.get("mesh", {})
    if not isinstance(mesh, dict):
        raise InvalidInputError(f"sweep spec 'mesh' must be an object, got {mesh!r}")
    fine_um = mesh.get("fine_um", geometry.DEFAULT_FINE_UM)
    if (isinstance(fine_um, bool) or not isinstance(fine_um, (int, float))
            or not 0 < fine_um < math.inf):
        raise InvalidInputError(
            f"sweep spec 'mesh.fine_um' must be a positive number, got {fine_um!r}")
    ref_name = spec.get("reference", "surface")
    reference = None
    if ref_name:
        if ref_name not in _DESIGNS:
            raise InvalidInputError(
                f"sweep 'reference' must be null or one of {_DESIGNS}")
        ref_geom = geometry.build_default(ref_name, fine_um=fine_um)
        reference = full_report(bem.solve_unit_excitations(ref_geom,
                                                           cache_dir=ns.cache_dir),
                                species=species, drive=drive)

    hs = spec["h_um"]
    results: list[str] = []
    errors: list[str] = []

    rest = (drive, species, fine_um, ns.cache_dir, reference)
    calls = [lambda h=h: _sweep_row(spec["design"], h, *rest) for h in hs]
    # a fork-started pool launches all its workers at the first submit
    jobs = min(ns.jobs, len(hs))
    if jobs > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=jobs) as ex:
            calls = [ex.submit(_sweep_row, spec["design"], h, *rest).result
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


def _vec3(text, what):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"{what} must be 'x,y,z' numbers, got {text!r}") from exc
    if len(parts) != 3:
        raise InvalidInputError(f"{what} must have 3 components, got {len(parts)}")
    return tuple(parts)


def _check_domain(geom, center, span):
    lo = [c - s / 2 for c, s in zip(center, span)]
    hi = [c + s / 2 for c, s in zip(center, span)]
    top = geom.top_um
    y_hi = math.inf if top is None else top
    if lo[1] < 0.0 or hi[1] > y_hi:
        raise InvalidInputError(
            f"map extends outside the trap interior in y: [{lo[1]:.6g}, "
            f"{hi[1]:.6g}] um vs [0, {y_hi:.6g}]")
    half = float(np.abs(geom.corners_um()[:, [0, 2]]).max())
    for ax, name in ((0, "x"), (2, "z")):
        if lo[ax] < -half or hi[ax] > half:
            raise InvalidInputError(
                f"map extends outside the modeled region in {name}: "
                f"[{lo[ax]:.6g}, {hi[ax]:.6g}] um vs +/-{half:.6g}")


def cmd_map(ns) -> int:
    geom = _load_or_build_geometry(ns)
    drive = _drive(ns.voltage_V, ns.freq_MHz)
    species = _species_arg(ns.species)
    center = _vec3(ns.center_um, "--center-um")
    span = _vec3(ns.span_um, "--span-um")
    try:
        check_grid(center, span, ns.res_um, ("--center-um", "--span-um", "--res-um"))
    except ValueError as exc:
        raise InvalidInputError(str(exc)) from exc
    _check_domain(geom, center, span)
    solved = _solve(geom, ns)
    rf = BemRfField(solved)
    pseudo = PseudoField(rf, species=species, drive=drive)
    grid = pseudo_map(pseudo, center, span, ns.res_um,
                      meta={"design": geom.design,
                            "geometry_signature": geom.signature()})
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


def _add_common_geometry_flags(p):
    p.add_argument("--geometry", help="geometry JSON file")
    p.add_argument("--design", choices=_DESIGNS,
                   help="build a calibrated default design instead")
    p.add_argument("--h-um", type=float, default=None,
                   help="wafer separation for multi-wafer designs (um)")
    p.add_argument("--mesh-fine-um", type=float,
                   default=geometry.DEFAULT_FINE_UM,
                   help="fine mesh element size (um)")


def _add_drive_flags(p):
    p.add_argument("--voltage-V", type=float, default=10.0,
                   help="rf drive amplitude (V)")
    p.add_argument("--freq-MHz", type=float, default=20.0,
                   help="rf drive frequency (MHz)")
    p.add_argument("--species", default="Ca40", help="ion species name")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="iontrap",
        description="Ion-trap electrostatics, pseudopotential, and radial "
                    "figures of merit from first principles.")
    ap.add_argument("--cache-dir", default=None,
                    help="solver cache directory (default: $IONTRAP_CACHE_DIR)")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write a calibrated default geometry JSON")
    b.add_argument("--design", choices=_DESIGNS, required=True)
    b.add_argument("--h-um", type=float, default=None)
    b.add_argument("--center-width-um", type=float, default=None)
    b.add_argument("--rf-width-um", type=float, default=None)
    b.add_argument("--gap-um", type=float, default=None)
    b.add_argument("--mesh-fine-um", type=float, default=geometry.DEFAULT_FINE_UM)
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    r = sub.add_parser("report", help="figures of merit of one trap")
    _add_common_geometry_flags(r)
    _add_drive_flags(r)
    r.add_argument("--target-MHz", type=float,
                   default=DEFAULT_TARGET_OMEGA / (2e6 * math.pi),
                   help="target secular frequency (MHz)")
    r.add_argument("--reference", default=None,
                   help="geometry file or design name for heating/power norms")
    r.add_argument("--out", required=True,
                   help="output prefix (.json/.csv/.manifest.json)")
    r.set_defaults(fn=cmd_report)

    s = sub.add_parser("sweep", help="figures of merit vs wafer separation")
    s.add_argument("--spec", required=True, help="sweep spec JSON")
    s.add_argument("--jobs", type=int, default=1,
                   help="parallel solves, at most one per row (output order "
                        "follows input order)")
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(fn=cmd_sweep)

    m = sub.add_parser("map", help="pseudopotential grid CSV")
    _add_common_geometry_flags(m)
    _add_drive_flags(m)
    m.add_argument("--center-um", required=True, help="grid center 'x,y,z' (um)")
    m.add_argument("--span-um", required=True,
                   help="grid span 'sx,sy,sz' (um); 0 collapses an axis")
    m.add_argument("--res-um", type=float, required=True, help="grid step (um)")
    m.add_argument("--out", required=True, help="output CSV path")
    m.set_defaults(fn=cmd_map)

    v = sub.add_parser("validate", help="run the invariant scoreboard")
    v.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = build_parser().parse_args(argv)
    ns.argv = argv
    try:
        return ns.fn(ns)
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
