"""Which iontrap functions the benchmark traces, and the per-layer metrics.

Layers are the package's modules on the measured path: geometry, bem,
pseudo, merit and cli. validate, constants and errors do no work there.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer

def _rows(points):
    return int(np.atleast_2d(np.asarray(points)).shape[0])


def _pairs(a, _):
    return {"pairs": _rows(a["points"]) * a["pset"].n}


def _points(a, _):
    return {"points": _rows(a["points"])}


def install(tracer: Tracer, full: bool = True):
    """Wrap the layers' public functions.

    With full=False only bem.potential_matrix is wrapped: one span per cold
    solve, enough for the cache guards of an untraced run.
    """
    from iontrap import bem, cli, geometry, merit, pseudo

    tracer.wrap(bem, "potential_matrix", "bem.potential_matrix", _pairs)
    if not full:
        return
    tracer.wrap(geometry, "build_default", "geometry.build_default",
                lambda a, r: {"n_panels": r.n_panels})
    tracer.wrap(bem, "solve_unit_excitations", "bem.solve_unit_excitations")
    for fn in ("potential_of", "field_of", "jacobian_of"):
        tracer.wrap(bem, fn, f"bem.{fn}", _pairs)
    tracer.wrap(pseudo.PseudoField, "psi", "pseudo.PseudoField.psi", _points)
    tracer.wrap(pseudo.PseudoField, "grad", "pseudo.PseudoField.grad")
    tracer.wrap(pseudo.PseudoField, "hessian", "pseudo.PseudoField.hessian")
    tracer.wrap(pseudo, "pseudo_map", "pseudo.pseudo_map",
                lambda a, r: {"points": int(r.values_meV.size)})
    tracer.wrap(merit, "find_rf_null", "merit.find_rf_null",
                lambda a, r: {"iterations": r.iterations})
    tracer.wrap(merit, "fit_harmonicity", "merit.fit_harmonicity",
                lambda a, r: {
                    "points": sum(f.n_points for f in r.fits.values()),
                    "residual_warnings": sum(bool(f.residual_warning)
                                             for f in r.fits.values())})
    tracer.wrap(merit, "trap_depth", "merit.trap_depth",
                lambda a, r: {"polished": int(r.polished),
                              "boundary_limited": int(r.boundary_limited)})
    tracer.wrap(merit, "full_report", "merit.full_report")
    tracer.wrap(cli, "main", "cli.main")


SPANS = ("geometry.build_default", "bem.solve_unit_excitations",
         "bem.potential_matrix", "bem.potential_of", "bem.field_of",
         "bem.jacobian_of", "pseudo.PseudoField.psi", "pseudo.PseudoField.grad",
         "pseudo.PseudoField.hessian", "pseudo.pseudo_map",
         "merit.find_rf_null", "merit.fit_harmonicity", "merit.trap_depth",
         "merit.full_report", "cli.main")


def per_layer(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from the spans of `passes` traced passes.

    Layers a workload does not reach read 0.
    """
    spans = tracer.spans
    kids = tracer.children()
    self_s = tracer.self_times()
    by = {name: [] for name in SPANS}
    for i, sp in enumerate(spans):
        by[sp.name].append(i)

    def total(name, what="s"):
        if what == "s":
            return sum(spans[i].s for i in by[name])
        if what == "self_s":
            return sum(self_s[i] for i in by[name])
        return sum(spans[i].counts.get(what, 0) for i in by[name])

    def child_counts(name, child):
        return [[c for c in kids[i] if spans[c].name == child] for i in by[name]]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def put(key, value, unit, per_pass=True):
        out[key] = (float(value / passes if per_pass else value), unit)

    put("geometry.build_default.s", total("geometry.build_default"), "s")
    put("geometry.n_panels", total("geometry.build_default", "n_panels"), "count")

    solve = "bem.solve_unit_excitations"
    put(f"{solve}.s", total(solve), "s")
    put(f"{solve}.self_s", total(solve, "self_s"), "s")
    hits = sum(not pm for pm in child_counts(solve, "bem.potential_matrix"))
    put(f"{solve}.cache_hit", ratio(hits, len(by[solve])), "ratio", False)

    for fn in ("potential_matrix", "potential_of", "field_of", "jacobian_of"):
        name = f"bem.{fn}"
        put(f"{name}.s", total(name), "s")
        if fn != "potential_matrix":
            put(f"{name}.calls", len(by[name]), "count")
        put(f"{name}.pairs", total(name, "pairs"), "count")
        if fn != "jacobian_of":
            put(f"{name}.pairs_per_s",
                ratio(total(name, "pairs"), total(name)), "1/s", False)

    ps = "pseudo.PseudoField"
    put(f"{ps}.psi.s", total(f"{ps}.psi"), "s")
    put(f"{ps}.psi.points", total(f"{ps}.psi", "points"), "count")
    put(f"{ps}.grad.calls", len(by[f"{ps}.grad"]), "count")
    put(f"{ps}.hessian.s", total(f"{ps}.hessian"), "s")
    put(f"{ps}.hessian.calls", len(by[f"{ps}.hessian"]), "count")
    put("pseudo.pseudo_map.s", total("pseudo.pseudo_map"), "s")
    put("pseudo.pseudo_map.points", total("pseudo.pseudo_map", "points"), "count")

    def first_psi_points(name):
        # the first psi call of a null search or depth scan is its grid
        return sum(spans[ks[0]].counts["points"]
                   for ks in child_counts(name, f"{ps}.psi") if ks)

    null = "merit.find_rf_null"
    put(f"{null}.s", total(null), "s")
    put(f"{null}.iterations", total(null, "iterations"), "count")
    put(f"{null}.scan_points", first_psi_points(null), "count")

    fit = "merit.fit_harmonicity"
    put(f"{fit}.s", total(fit), "s")
    put(f"{fit}.points", total(fit, "points"), "count")
    put(f"{fit}.residual_warnings", total(fit, "residual_warnings"), "count")

    depth = "merit.trap_depth"
    n_depth = len(by[depth])
    put(f"{depth}.s", total(depth), "s")
    put(f"{depth}.grid_points", first_psi_points(depth), "count")
    put(f"{depth}.polish_steps",
        sum(len(h) for h in child_counts(depth, f"{ps}.hessian")), "count")
    put(f"{depth}.polished", ratio(total(depth, "polished"), n_depth),
        "ratio", False)
    put(f"{depth}.boundary_limited",
        ratio(total(depth, "boundary_limited"), n_depth), "ratio", False)

    put("merit.full_report.self_s", total("merit.full_report", "self_s"), "s")
    put("cli.main.self_s", total("cli.main", "self_s"), "s")

    for name in SPANS:
        put(f"{name}.maxrss_mb",
            max((spans[i].maxrss_mb for i in by[name]), default=0.0), "MB", False)
    return out


def top_level_s(tracer: Tracer) -> float:
    """Seconds covered by spans that have no parent span."""
    return sum(sp.s for sp in tracer.spans if sp.parent is None)
