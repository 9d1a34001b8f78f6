"""Trap geometries as collections of rectangular sheet electrodes.

Axes: x transverse, y vertical (height above the bottom wafer), z along the
trap axis. Interface lengths are in micrometers; panel arrays handed to the
field solver are in meters.

Three built-in designs:
  surface      five-wire planar trap: dc center rail, two rf rails, outer
               ground planes, all in the y=0 plane
  gnd-surface  the surface trap plus an unpatterned grounded plane at y=h
  cross-rf     four rails on two wafers (y=0 and y=h), rf pair on one
               diagonal, grounded pair on the other
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import time
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidGeometryError, InvalidInputError

ROLE_RF = "rf"
ROLE_DC = "dc"
ROLE_GROUND = "ground"
_ROLES = (ROLE_RF, ROLE_DC, ROLE_GROUND)

# mesh grading: target panel edge grows as 0.5 * distance from the fine box
_GROWTH = 0.5
# hard cap on the mesher's output, so a runaway grading stops early; the
# solver's memory guard is bem.SOLVE_MEMORY_BUDGET
MAX_PANELS = 30000


@dataclass(frozen=True)
class Rect:
    """Axis-independent flat rectangle: origin corner plus two edge vectors.

    Coordinates in um. edge_u and edge_v must be orthogonal and nonzero.
    """

    origin: tuple[float, float, float]
    edge_u: tuple[float, float, float]
    edge_v: tuple[float, float, float]

    def __post_init__(self):
        if not np.isfinite([self.origin, self.edge_u, self.edge_v]).all():
            raise InvalidGeometryError(
                f"rect origin and edges must be finite, got {self.origin}, "
                f"{self.edge_u}, {self.edge_v}")
        u, v = np.asarray(self.edge_u, float), np.asarray(self.edge_v, float)
        lu, lv = np.linalg.norm(u), np.linalg.norm(v)
        if lu <= 0.0 or lv <= 0.0:
            raise InvalidGeometryError("rect edge vectors must be nonzero")
        if abs(float(u @ v)) > 1e-9 * lu * lv:
            raise InvalidGeometryError("rect edge vectors must be orthogonal")

    @property
    def area_um2(self) -> float:
        u, v = np.asarray(self.edge_u, float), np.asarray(self.edge_v, float)
        return float(np.linalg.norm(np.cross(u, v)))

    def corners(self) -> np.ndarray:
        o = np.asarray(self.origin, float)
        u = np.asarray(self.edge_u, float)
        v = np.asarray(self.edge_v, float)
        return np.stack([o, o + u, o + v, o + u + v])


@dataclass(frozen=True)
class Electrode:
    name: str
    role: str
    rects: tuple[Rect, ...]

    def __post_init__(self):
        if self.role not in _ROLES:
            raise InvalidGeometryError(
                f"electrode {self.name!r}: role must be one of {_ROLES}, got {self.role!r}"
            )
        if not self.rects:
            raise InvalidGeometryError(f"electrode {self.name!r} has no rects")

    @property
    def area_um2(self) -> float:
        return sum(r.area_um2 for r in self.rects)


@dataclass(frozen=True)
class Box3:
    """Axis-aligned box, center/size in um."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]

    def __post_init__(self):
        if not np.isfinite(self.center).all():
            raise InvalidGeometryError(f"box center must be finite, got {self.center}")
        if not all(0 <= s < math.inf for s in self.size):  # NaN fails too
            raise InvalidGeometryError(
                f"box size components must be >= 0 and finite, got {self.size}")

    @property
    def lo(self):
        return tuple(c - 0.5 * s for c, s in zip(self.center, self.size))

    @property
    def hi(self):
        return tuple(c + 0.5 * s for c, s in zip(self.center, self.size))


@dataclass(frozen=True)
class MeshParams:
    """Graded mesh control, lengths in um.

    coarse_um: max panel edge anywhere
    fine_um:   max panel edge for panels intersecting fine_region
    """

    coarse_um: float
    fine_um: float
    fine_region: Box3

    def __post_init__(self):
        if not 0.0 < self.fine_um < math.inf:
            raise InvalidGeometryError(f"fine_um must be > 0 and finite, got {self.fine_um}")
        if not self.fine_um <= self.coarse_um < math.inf:
            raise InvalidGeometryError(
                f"coarse_um must be >= fine_um and finite, got {self.coarse_um}")


class TrapGeometry:
    """Meshed electrode set ready for the field solver: the electrodes and
    the mesh are the whole geometry.

    Panels are stored as flat arrays (origin, edge_u, edge_v in um plus the
    owning electrode index); construction meshes the electrodes immediately
    and records the seconds it took as mesh_s.
    """

    def __init__(self, design: str, mesh: MeshParams, electrodes: Iterable[Electrode]):
        self.design = design
        self.mesh = mesh
        self.electrodes = tuple(electrodes)
        if not self.electrodes:
            raise InvalidGeometryError("geometry has no electrodes")
        names = [e.name for e in self.electrodes]
        if len(set(names)) != len(names):
            raise InvalidGeometryError(f"duplicate electrode names: {names}")
        _check_no_overlap(self.electrodes)
        self._warn_if_fine_region_outside()
        t0 = time.perf_counter()
        po, pu, pv, pe = _mesh_electrodes(self.electrodes, self.mesh)
        self.mesh_s = time.perf_counter() - t0
        self.panel_origin_um = po
        self.panel_u_um = pu
        self.panel_v_um = pv
        self.panel_electrode = pe

    # -- basic queries ----------------------------------------------------

    @property
    def n_panels(self) -> int:
        return self.panel_origin_um.shape[0]

    @property
    def electrode_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.electrodes)

    def electrodes_with_role(self, role: str) -> tuple[str, ...]:
        return tuple(e.name for e in self.electrodes if e.role == role)

    def panel_areas_um2(self) -> np.ndarray:
        return np.linalg.norm(np.cross(self.panel_u_um, self.panel_v_um), axis=1)

    def meshed_area_um2(self, name: str) -> float:
        idx = self.electrode_names.index(name)
        sel = self.panel_electrode == idx
        return float(self.panel_areas_um2()[sel].sum())

    def mesh_diagnostics(self) -> dict:
        """How the mesh came out: panels per electrode, the shortest and
        longest panel edge in um (a panel's edge is its longer side, the one
        the grading bounds) and mesh_s."""
        edges = np.maximum(np.linalg.norm(self.panel_u_um, axis=1),
                           np.linalg.norm(self.panel_v_um, axis=1))
        counts = np.bincount(self.panel_electrode, minlength=len(self.electrodes))
        return {"panels_per_electrode": dict(zip(self.electrode_names, counts.tolist())),
                "finest_edge_um": float(edges.min()),
                "coarsest_edge_um": float(edges.max()),
                "mesh_s": self.mesh_s}

    def arrays_m(self):
        """Panel arrays in meters: (origins, edge_u, edge_v, electrode_idx)."""
        um = 1e-6
        return (
            self.panel_origin_um * um,
            self.panel_u_um * um,
            self.panel_v_um * um,
            self.panel_electrode,
        )

    def corners_um(self) -> np.ndarray:
        """Corners of every electrode rect, (4 * rects, 3)."""
        return np.concatenate([r.corners() for e in self.electrodes for r in e.rects])

    @property
    def top_um(self) -> float | None:
        """Height of the top wafer or cover plane: the lowest y > 0 of a
        horizontal electrode rect, or None when there is none (the bottom
        wafer is the y = 0 plane)."""
        return min((r.origin[1] for e in self.electrodes for r in e.rects
                    if r.edge_u[1] == r.edge_v[1] == 0.0 and r.origin[1] > 0.0),
                   default=None)

    def _warn_if_fine_region_outside(self):
        corners = self.corners_um()
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        blo, bhi = np.array(self.mesh.fine_region.lo), np.array(self.mesh.fine_region.hi)
        if np.any(bhi < lo) or np.any(blo > hi):
            warnings.warn(
                "fine_region does not intersect the electrode bounding box; "
                "mesh will be uniformly coarse",
                stacklevel=3,
            )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "units": "um",
            "params": {
                "mesh": {
                    "coarse_um": self.mesh.coarse_um,
                    "fine_um": self.mesh.fine_um,
                    "fine_region": {
                        "center_um": list(self.mesh.fine_region.center),
                        "size_um": list(self.mesh.fine_region.size),
                    },
                }
            },
            "electrodes": [
                {
                    "name": e.name,
                    "role": e.role,
                    "rects": [
                        {
                            "origin": list(r.origin),
                            "u": list(r.edge_u),
                            "v": list(r.edge_v),
                        }
                        for r in e.rects
                    ],
                }
                for e in self.electrodes
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrapGeometry":
        """The geometry of a to_dict dict. Other keys are ignored, among them
        the design dimensions that older versions wrote under params."""
        try:
            if d.get("units") != "um":
                raise InvalidInputError(
                    f"geometry units must be 'um', got {d.get('units')!r}"
                )
            design = d["design"]
            m = d["params"]["mesh"]
            mesh = MeshParams(
                coarse_um=float(m["coarse_um"]),
                fine_um=float(m["fine_um"]),
                fine_region=Box3(
                    center=tuple(float(x) for x in m["fine_region"]["center_um"]),
                    size=tuple(float(x) for x in m["fine_region"]["size_um"]),
                ),
            )
            electrodes = [
                Electrode(
                    name=e["name"],
                    role=e["role"],
                    rects=tuple(
                        Rect(
                            origin=tuple(float(x) for x in r["origin"]),
                            edge_u=tuple(float(x) for x in r["u"]),
                            edge_v=tuple(float(x) for x in r["v"]),
                        )
                        for r in e["rects"]
                    ),
                )
                for e in d["electrodes"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed geometry dict: {exc}") from exc
        return cls(design, mesh, electrodes)

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "TrapGeometry":
        try:
            with open(path) as f:
                d = json.load(f)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        return cls.from_dict(d)

    def signature(self) -> str:
        """Content hash of the geometry + mesh; keys the solver cache."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# -- meshing ---------------------------------------------------------------


def _norm(a):
    # row lengths summed x, then y, then z: the panels' bits depend on it
    return np.sqrt(a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1] + a[:, 2] * a[:, 2])


def _mesh_electrodes(electrodes, mesh):
    """Graded panels of every electrode rect: (origins, edge_u, edge_v) in um
    and the owning electrode index, in electrode/rect order.

    A panel is bisected across its longer edge (u on a tie) until both edges
    are within its target: fine_um where its bounding box meets the fine
    region, else _GROWTH times its centre's distance from that region,
    clamped to [fine_um, coarse_um]. The bisection runs level by level over
    row arrays: every open row is tested at once and a row that fails is
    replaced in place by its two halves, first half first. So the panels
    come out in depth-first order, first half before second, each with the
    bits of a one-panel-at-a-time recursion. The row count never falls, so
    a level that would exceed MAX_PANELS raises before it is built.
    """
    fine, coarse = mesh.fine_um, mesh.coarse_um
    lo, hi = np.array(mesh.fine_region.lo), np.array(mesh.fine_region.hi)
    rects = [(ei, r) for ei, e in enumerate(electrodes) for r in e.rects]
    o = np.array([r.origin for _, r in rects], float)
    u = np.array([r.edge_u for _, r in rects], float)
    v = np.array([r.edge_v for _, r in rects], float)
    eidx = np.array([ei for ei, _ in rects], np.int32)
    open_ = np.ones(len(rects), bool)

    while True:
        rows = np.flatnonzero(open_)
        ro, ru, rv = o[rows], u[rows], v[rows]
        lu, lv = _norm(ru), _norm(rv)
        # panel AABB; intersecting the fine box forces the fine target
        corners = (ro, (ro + ru) + rv, ro + ru, ro + rv)
        amin = np.minimum.reduce(corners)
        amax = np.maximum.reduce(corners)
        hits_box = ((amin <= hi) & (amax >= lo)).all(axis=1)
        c = ro + 0.5 * (ru + rv)
        dxyz = np.maximum(np.maximum(lo - c, 0.0), c - hi)
        with np.errstate(over="ignore"):  # a distance of inf grades to coarse_um
            d = _norm(dxyz)
        target = np.where(hits_box, fine,
                          np.minimum(coarse, np.maximum(fine, _GROWTH * d)))
        tol = target * (1.0 + 1e-9)
        split = ~((lu <= tol) & (lv <= tol))
        open_[rows] = split
        if len(o) + int(split.sum()) > MAX_PANELS:
            raise InvalidGeometryError(
                f"mesh exceeds {MAX_PANELS} panels; "
                "coarsen fine_um or shrink fine_region"
            )
        if not split.any():
            return o, u, v, eidx
        counts = np.ones(len(o), np.intp)
        counts[rows[split]] = 2
        # each split row becomes its halves (o, h, .) then (o + h, h, .)
        first = (np.cumsum(counts) - counts)[rows[split]]
        along_u = (lu >= lv)[split]
        o, u, v, eidx, open_ = (np.repeat(a, counts, axis=0)
                                for a in (o, u, v, eidx, open_))
        half = 0.5 * np.where(along_u[:, None], u[first], v[first])
        u[first[along_u]] = u[first[along_u] + 1] = half[along_u]
        v[first[~along_u]] = v[first[~along_u] + 1] = half[~along_u]
        o[first + 1] = o[first] + half


def _check_no_overlap(electrodes):
    # rects are compared pairwise when they share a plane (same normal axis
    # and offset); positive-area 2D overlap is a construction error
    flat = [(e.name, r) for e in electrodes for r in e.rects]
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            ni, ri = flat[i]
            nj, rj = flat[j]
            if _rects_overlap(ri, rj):
                raise InvalidGeometryError(
                    f"electrode rects overlap: {ni!r} and {nj!r}"
                )


def _rects_overlap(a: Rect, b: Rect) -> bool:
    ca, cb = a.corners(), b.corners()
    for axis in range(3):
        if np.ptp(ca[:, axis]) < 1e-12 and np.ptp(cb[:, axis]) < 1e-12:
            if abs(ca[0, axis] - cb[0, axis]) > 1e-9:
                return False
            other = [k for k in range(3) if k != axis]
            for k in other:
                lo_a, hi_a = ca[:, k].min(), ca[:, k].max()
                lo_b, hi_b = cb[:, k].min(), cb[:, k].max()
                if min(hi_a, hi_b) - max(lo_a, lo_b) <= 1e-9:
                    return False
            return True
    return False  # non-coplanar or tilted rects: builders keep them disjoint


# -- built-in designs ------------------------------------------------------
#
# Each builder takes its design's dimensions and mesh sizes as keywords, with
# calibrated defaults. The surface trap's five-wire dimensions put the solved
# rf null 90 um above the wafer with vertical harmonicity 0.210 (see tests):
# the gapless analytic solution (null height sqrt(a*b) for rails spanning
# [a, b]) seeds them, and the boundary-element solve with real gaps shifts
# them slightly. The grounded-top design has its own five-wire dimensions,
# so that the covered trap keeps a harmonicity edge over the bare surface
# trap down to wafer separations around 100 um (rf-rail separation 2a =
# 100 um) while its depth and maximum frequency stay between the surface and
# cross-rf designs at the default separation.

DEFAULT_H_UM = 200.0
FINE_LATERAL_UM = 400.0
DEFAULT_FINE_UM = 10.0
DEFAULT_COARSE_UM = 500.0


def _require_positive(design, **dims):
    for name, value in dims.items():
        if value is None or not 0.0 < value < math.inf:
            raise InvalidGeometryError(
                f"{design}: {name} must be > 0 and finite, got {value}")


def _pattern_mesh(fine_um, coarse_um):
    """Refine the central window of the bottom electrode pattern; everything
    else (outer wafer, a distant cover plane) grades with distance."""
    return MeshParams(
        coarse_um=coarse_um,
        fine_um=fine_um,
        fine_region=Box3(center=(0.0, 0.0, 0.0),
                         size=(FINE_LATERAL_UM, 20.0, FINE_LATERAL_UM)),
    )


def _two_wafer_mesh(h_um, fine_um, coarse_um):
    """Refine the central window of both wafer planes."""
    return MeshParams(
        coarse_um=coarse_um,
        fine_um=fine_um,
        fine_region=Box3(center=(0.0, 0.5 * h_um, 0.0),
                         size=(FINE_LATERAL_UM, h_um + 20.0, FINE_LATERAL_UM)),
    )


def five_wire_null_seed_um(center_width_um, gap_um, rf_width_um) -> float:
    """Gapless-analytic estimate of the five-wire null height: sqrt(a*b) for
    effective rail edges on the gap midlines."""
    a = 0.5 * center_width_um + 0.5 * gap_um
    b = 0.5 * center_width_um + gap_um + rf_width_um + 0.5 * gap_um
    return math.sqrt(a * b)


def _strip(name, role, x_lo, x_hi, y, length_um):
    return Electrode(
        name=name,
        role=role,
        rects=(
            Rect(
                origin=(x_lo, y, -0.5 * length_um),
                edge_u=(x_hi - x_lo, 0.0, 0.0),
                edge_v=(0.0, 0.0, length_um),
            ),
        ),
    )


def _five_wire_electrodes(design, cw, rw, g, L, W) -> list[Electrode]:
    """The electrodes of build_surface_trap with center width cw, rf width
    rw, gap g, length L and wafer extent W, after checking them."""
    _require_positive(design, rf_width_um=rw, center_width_um=cw, gap_um=g,
                      electrode_length_um=L, wafer_extent_um=W)
    A = 0.5 * cw + g          # rf rail inner edge
    B = A + rw                # rf rail outer edge
    if B + g >= 0.5 * W:
        raise InvalidGeometryError(
            "rails plus gaps exceed the wafer extent; enlarge wafer_extent_um"
        )
    if L > W:
        raise InvalidGeometryError("electrode_length_um exceeds wafer_extent_um")
    return [
        _strip("dc_center", ROLE_DC, -0.5 * cw, 0.5 * cw, 0.0, L),
        _strip("rf_left", ROLE_RF, -B, -A, 0.0, L),
        _strip("rf_right", ROLE_RF, A, B, 0.0, L),
        _strip("gnd_left", ROLE_GROUND, -0.5 * W, -B - g, 0.0, L),
        _strip("gnd_right", ROLE_GROUND, B + g, 0.5 * W, 0.0, L),
    ]


def build_surface_trap(center_width_um=114.6, rf_width_um=57.7, gap_um=10.0,
                       electrode_length_um=8000.0, wafer_extent_um=8000.0,
                       fine_um=DEFAULT_FINE_UM, coarse_um=DEFAULT_COARSE_UM) -> TrapGeometry:
    """Five-wire planar trap in the y=0 plane, mirror-symmetric about x=0."""
    electrodes = _five_wire_electrodes("surface", center_width_um, rf_width_um, gap_um,
                                       electrode_length_um, wafer_extent_um)
    return TrapGeometry("surface", _pattern_mesh(fine_um, coarse_um), electrodes)


def build_gnd_surface_trap(h_um=DEFAULT_H_UM, center_width_um=90.0, rf_width_um=140.0,
                           gap_um=10.0, electrode_length_um=8000.0,
                           wafer_extent_um=8000.0, fine_um=DEFAULT_FINE_UM,
                           coarse_um=DEFAULT_COARSE_UM) -> TrapGeometry:
    """Surface trap with an unpatterned grounded plane at height h."""
    W, L = wafer_extent_um, electrode_length_um
    electrodes = _five_wire_electrodes("gnd-surface", center_width_um, rf_width_um,
                                       gap_um, L, W)
    _require_positive("gnd-surface", h_um=h_um)
    top = Electrode(
        name="gnd_top",
        role=ROLE_GROUND,
        rects=(
            Rect(
                origin=(-0.5 * W, h_um, -0.5 * L),
                edge_u=(W, 0.0, 0.0),
                edge_v=(0.0, 0.0, L),
            ),
        ),
    )
    return TrapGeometry("gnd-surface", _pattern_mesh(fine_um, coarse_um),
                        electrodes + [top])


def build_cross_rf_trap(h_um=DEFAULT_H_UM, rf_width_um=100.0, electrode_length_um=8000.0,
                        fine_um=DEFAULT_FINE_UM, coarse_um=DEFAULT_COARSE_UM) -> TrapGeometry:
    """Four-rail trap on two wafers, rf rails diagonally opposed.

    Wafer planes at y=0 and y=h; rail centers at x = -h/2 and +h/2, so the
    horizontal center spacing equals the vertical wafer spacing. The layout
    maps to itself under the 180 degree rotation (x,y) -> (-x, h-y), which
    pins the rf null at exactly (0, h/2).
    """
    _require_positive("cross-rf", h_um=h_um, rf_width_um=rf_width_um,
                      electrode_length_um=electrode_length_um)
    h, rw, L = h_um, rf_width_um, electrode_length_um
    if rw >= h:
        raise InvalidGeometryError(
            "rail width must be smaller than h (rails on one wafer would touch)"
        )
    electrodes = [
        _strip("rf_bottom", ROLE_RF, -0.5 * h - 0.5 * rw, -0.5 * h + 0.5 * rw, 0.0, L),
        _strip("rf_top", ROLE_RF, 0.5 * h - 0.5 * rw, 0.5 * h + 0.5 * rw, h, L),
        _strip("gnd_bottom", ROLE_GROUND, 0.5 * h - 0.5 * rw, 0.5 * h + 0.5 * rw, 0.0, L),
        _strip("gnd_top", ROLE_GROUND, -0.5 * h - 0.5 * rw, -0.5 * h + 0.5 * rw, h, L),
    ]
    return TrapGeometry("cross-rf", _two_wafer_mesh(h, fine_um, coarse_um), electrodes)


# every built-in design: name -> builder
DESIGNS = {
    "surface": build_surface_trap,
    "gnd-surface": build_gnd_surface_trap,
    "cross-rf": build_cross_rf_trap,
}


def build_default(design: str, h_um: float | None = None, **dims) -> TrapGeometry:
    """Build a named design with calibrated default dimensions, overridden by
    dims (keyword arguments of its builder; h_um for two-wafer ones)."""
    if design not in DESIGNS:
        raise InvalidInputError(
            f"unknown design {design!r}; known: {', '.join(sorted(DESIGNS))}")
    build = DESIGNS[design]
    if h_um is not None:
        dims["h_um"] = h_um
    try:
        inspect.signature(build).bind(**dims)
    except TypeError as exc:  # a dimension the design does not have
        raise InvalidInputError(f"{design} takes only its own dimensions: {exc}") from exc
    return build(**dims)
