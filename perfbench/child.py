"""Work that run.py measures in a fresh process.

    python3 perfbench/child.py setup --designs surface,gnd-surface --cache-dir DIR
    python3 perfbench/child.py solve --design surface --cache-dir DIR

The caller sets the BLAS thread count in the environment before this
process imports numpy.

setup   what a user pays before the first op: interpreter start, imports,
        geometry builds and, with --cache-dir, a cache load per design that
        must hit. run.py times the whole process.
solve   one solve of a default design into --cache-dir. run.py uses it to
        fill the shared cache outside the measured process, so that
        process's peak RSS is its workload's own, and to repeat the cold
        surface solve with one BLAS thread. The last stdout line is a JSON
        object with the solve's seconds and its self time (factorization,
        solve of the unit excitations, cache write).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# wafer separations (um) of the benchmarked designs; run.py imports these
DESIGNS = {"surface": None, "gnd-surface": 200.0, "cross-rf": 200.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark child process")
    ap.add_argument("mode", choices=("setup", "solve"))
    ap.add_argument("--designs", default="surface",
                    help="comma-separated designs (setup)")
    ap.add_argument("--design", default="surface", help="design (solve)")
    ap.add_argument("--cache-dir", default=None)
    ns = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from iontrap import bem, geometry

    import layers
    from tracer import Tracer

    tracer = Tracer()
    if ns.mode == "setup":
        layers.install(tracer, full=False)
        for design in ns.designs.split(","):
            geom = geometry.build_default(design, h_um=DESIGNS[design])
            if ns.cache_dir:
                bem.solve_unit_excitations(geom, cache_dir=ns.cache_dir)
        tracer.uninstall()
        if tracer.spans:
            print("solver cache missed in set-up", file=sys.stderr)
            return 1
        return 0

    geom = geometry.build_default(ns.design, h_um=DESIGNS[ns.design])
    tracer.wrap(bem, "solve_unit_excitations", "bem.solve_unit_excitations")
    layers.install(tracer, full=False)
    tracer.wrap(bem, "potential_of", "bem.potential_of")
    bem.solve_unit_excitations(geom, cache_dir=ns.cache_dir)
    tracer.uninstall()
    print(json.dumps({"s": tracer.spans[0].s,
                      "self_s": tracer.self_times()[0],
                      "signature": geom.signature()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
