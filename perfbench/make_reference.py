"""Write perfbench/reference.json from the code in the current checkout.

    python3 perfbench/make_reference.py

The reference pins the figures of merit the benchmark checks every op
against. Regenerate it only when a change to the physics has been accepted
as moving a pinned value, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import re
import sys

import run

# map grid indices (x, y) whose psi is pinned: corners, edges, interior
MAP_X = (0, 25, 50, 75, 100)
MAP_Y = (0, 13, 27, 40, 53)
REL_TOL = 1e-6
PSI_ABS_MEV = 1e-9


def dumps(reference) -> str:
    """Indented JSON with each map point on one line."""
    text = json.dumps(reference, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]+?)\s+\]",
                  lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(","))
                  + "]", text)


def main() -> int:
    run.pin_blas_threads(run.nproc())
    sys.path.insert(0, run.SRC)
    from iontrap import bem, cli, geometry, merit

    cache = os.path.join(run.WORK, "cache", run._source_sha256())
    reports = {}
    for design, h_um in run.DESIGNS.items():
        rep = merit.full_report(bem.solve_unit_excitations(
            geometry.build_default(design, h_um=h_um), cache_dir=cache))
        reports[design] = {"h_um": h_um, **{
            key: getattr(rep, key) for key in (
                "d_um", "k", "k_x", "k_y", "D_meV", "n_panels",
                "depth_boundary_limited")}}

    out = os.path.join(run.WORK, "reference-map.csv")
    if cli.main(["--cache-dir", cache, *run.MAP_ARGS, "--out", out]) != 0:
        return 1
    values = run.read_map_csv(out)
    xs = sorted({x for x, _, _ in values})
    ys = sorted({y for _, y, _ in values})
    points = [[xs[i], ys[j], 0.0, values[(xs[i], ys[j], 0.0)]]
              for i in MAP_X for j in MAP_Y]
    points.append([*min(values, key=values.get), min(values.values())])

    reference = {
        "rel_tol": REL_TOL,
        "reports": reports,
        "map-surface": {"rows": len(values), "psi_abs_meV": PSI_ABS_MEV,
                        "points": points},
        "source": {"git_commit": run._git_commit(),
                   "source_sha256": run._source_sha256()},
    }
    path = os.path.join(run.BENCH_DIR, "reference.json")
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(reference) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
