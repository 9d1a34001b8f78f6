"""Boundary-element electrostatics on rectangular sheet panels.

Each panel carries a uniform surface charge density. The potential of a unit
density over the rectangle [0,a]x[0,b] at local point (xi, eta, zeta) has the
closed antiderivative form

    phi = (1/4 pi eps0) * sum_corners +/- F(u, v),
    F(u, v) = u ln(v + r) + v ln(u + r) - |z| atan(u v / (|z| r)),

with u = x_corner - xi, v = y_corner - eta, r = sqrt(u^2 + v^2 + z^2). The
corner sum telescopes the same way for the field and the field Jacobian
(whose trace vanishes identically: Laplace). Logs are evaluated through
v + r = (u^2+z^2)/(r - v) when v <= 0, which keeps every quantity finite up
to the panel edge lines.

Panels of one plane and frame (uhat, vhat, nhat) share the terms of their
common corners: the bisection meshes are grids with hanging nodes, so the
default meshes have 1.13 n distinct corners for n panels, not 4 n. A PanelSet
builds this corner table on first use. Corners merge after rounding to 1e-9
of the median panel edge, the tolerance of the coincident-center check, as
neighbours compute a shared corner only to within an ulp. One blocked loop
serves the four public evaluators and evaluates each (point, corner) pair
once, _BLOCK_PAIRS pairs per block. Charges are folded into corner weights
w = C sigma (C the +/-1 corner-to-panel map), so a block is one dense
(points x corners) @ (corners x k) product.

Collocation at panel centers with one row per center and one column per panel
gives a dense system A sigma = V; unit excitations (1 V on one electrode,
0 V elsewhere) are solved for every electrode from a single LU factorization.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import constants
from .errors import InvalidGeometryError, SolverError
from .geometry import TrapGeometry

_TINY = 1e-300
# target number of (point, corner) pairs held in memory per evaluation block
_BLOCK_PAIRS = 4_000_000
# positions closer than this fraction of the median panel edge coincide
_MERGE_REL = 1e-9
# hard conditioning limit for the dense collocation matrix
COND_LIMIT = 1e12
# boundary-condition residual each unit solve must satisfy, in volts
RESIDUAL_LIMIT = 1e-8

CACHE_ENV = "IONTRAP_CACHE_DIR"
_CACHE_MAGIC = b"ITSC"
_CACHE_VERSION = 1


class PanelSet:
    """Panel arrays (meters) with precomputed local frames."""

    def __init__(self, origins, edge_u, edge_v, electrode_idx):
        self.origins = np.asarray(origins, float)
        self.edge_u = np.asarray(edge_u, float)
        self.edge_v = np.asarray(edge_v, float)
        self.electrode_idx = np.asarray(electrode_idx)
        self.a = np.linalg.norm(self.edge_u, axis=1)
        self.b = np.linalg.norm(self.edge_v, axis=1)
        if np.any(self.a <= 0) or np.any(self.b <= 0):
            raise InvalidGeometryError("degenerate panel (zero edge length)")
        self.uhat = self.edge_u / self.a[:, None]
        self.vhat = self.edge_v / self.b[:, None]
        self.nhat = np.cross(self.uhat, self.vhat)
        self.centers = self.origins + 0.5 * (self.edge_u + self.edge_v)
        self.areas = self.a * self.b
        self._groups = None

    @property
    def n(self):
        return self.origins.shape[0]

    def merge_keys(self, x):
        """Integer keys of coordinates x (meters) at the merge tolerance."""
        return np.round(x / (_MERGE_REL * float(np.median(self.a)))).astype(np.int64)

    @property
    def corner_groups(self) -> list[_CornerGroup]:
        """The corner table, one group per frame and plane; built on first use."""
        if self._groups is None:
            frames = np.stack([self.uhat, self.vhat, self.nhat], axis=1)
            on = np.einsum("ij,ij->i", self.origins, self.nhat)
            key = np.column_stack([np.round(frames.reshape(-1, 9) / _MERGE_REL),
                                   self.merge_keys(on)]).astype(np.int64)
            which = np.unique(key, axis=0, return_inverse=True)[1].ravel()
            self._groups = [_CornerGroup(self, np.flatnonzero(which == g), frames, on)
                            for g in range(which.max() + 1)]
        return self._groups


class _CornerGroup:
    """Panels of one frame and plane and their distinct corners (cu, cv):
    idx[c, j] indexes corner c of panel panels[j], c running over (u2, v2),
    (u1, v2), (u2, v1), (u1, v1) with the signs +, -, -, +."""

    def __init__(self, pset: PanelSet, panels, frames, on):
        self.panels = panels
        self.frame = frames[panels[0]]
        self.offset = on[panels[0]]
        o, eu, ev = pset.origins[panels], pset.edge_u[panels], pset.edge_v[panels]
        uv = (np.stack([o + eu + ev, o + ev, o + eu, o]) @ self.frame[:2].T).reshape(-1, 2)
        _, keep, idx = np.unique(pset.merge_keys(uv), axis=0,
                                 return_index=True, return_inverse=True)
        self.cu, self.cv = uv[keep].T
        self.idx = idx.reshape(4, -1)

    def fold(self, sigma):
        """Corner weights w = C sigma of this group's panels, (corners[, k])."""
        s = sigma[self.panels]
        w = np.zeros((self.cu.size,) + s.shape[1:])
        for sign, i in zip((1.0, -1.0, -1.0, 1.0), self.idx):
            np.add.at(w, i, sign * s)
        return w


def _ln_sum(v, r, du):
    """ln(v + r), through (u^2+z^2)/(r - v) where v <= 0; du = u^2 + z^2."""
    rv = np.maximum(r + np.abs(v), _TINY)
    return np.log(np.where(v > 0.0, rv, np.maximum(du, _TINY) / rv))


def _field_terms(u, v, z):
    """ln(v + r), ln(u + r) and sign(z) atan(u v / (|z| r)) of each corner."""
    z2 = z * z
    du = u * u + z2
    dv = v * v + z2
    r = np.sqrt(du + v * v)
    return (_ln_sum(v, r, du), _ln_sum(u, r, dv),
            np.sign(z) * np.arctan2(u * v, np.abs(z) * r))


def _potential_terms(u, v, z):
    lv, lu, at = _field_terms(u, v, z)
    return (u * lv + v * lu - z * at,)


def _jacobian_terms(u, v, z):
    """jxx, jxy, jxz, jyy, jyz, jzz of each corner."""
    z2 = z * z
    r = np.maximum(np.sqrt(u * u + v * v + z2), _TINY)
    du = np.maximum(u * u + z2, _TINY)
    dv = np.maximum(v * v + z2, _TINY)
    a = (r - v) / (r * du)
    b = (r - u) / (r * dv)
    return (u * a, 1.0 / r, z * a, v * b, z * b,
            u * v * (r * r + z2) / (r * du * dv))


# Jacobian sums -> symmetric dE_a/dx_b in the frame (uhat, vhat, nhat)
_JAC_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_JAC_SIGN = np.array([[-1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])


def _evaluate(pset: PanelSet, points, sigma, terms, emit, shape, out=None):
    """The blocked loop behind the public evaluators, out (m,) + shape.

    For every block of points and corner group, terms(u, v, z) gives the
    corner terms, each (group corners, block points), and emit(out[rows],
    group, w, terms) adds their part, w the group's corner weights of sigma
    (None without sigma). out is scaled by 1/(4 pi eps0) at the end.
    """
    p = np.atleast_2d(np.asarray(points, float))
    if out is None:
        out = np.zeros((p.shape[0],) + tuple(shape))
    groups = pset.corner_groups
    w = [None if sigma is None else g.fold(np.asarray(sigma, float)) for g in groups]
    step = max(8, _BLOCK_PAIRS // sum(g.cu.size for g in groups))
    for i0 in range(0, p.shape[0], step):
        rows = slice(i0, i0 + step)
        for g, wg in zip(groups, w):
            loc = p[rows] @ g.frame.T
            emit(out[rows], g, wg, terms(g.cu[:, None] - loc[:, 0],
                                         g.cv[:, None] - loc[:, 1],
                                         loc[:, 2] - g.offset))
    out *= 1.0 / (4.0 * np.pi * constants.EPS0)
    return out


def potential_matrix(pset: PanelSet, points, out=None):
    """Potential at each point per unit charge density of each panel, (m, n)."""
    def emit(dst, g, w, terms):
        F, c = terms[0], g.idx
        dst[:, g.panels] = (F[c[0]] - F[c[1]] - F[c[2]] + F[c[3]]).T
    return _evaluate(pset, points, None, _potential_terms, emit, (pset.n,), out)


def potential_of(pset: PanelSet, sigma, points):
    def emit(dst, g, w, terms):
        dst += terms[0].T @ w
    return _evaluate(pset, points, sigma, _potential_terms, emit, np.shape(sigma)[1:])


def field_of(pset: PanelSet, sigma, points):
    def emit(dst, g, w, terms):
        dst += np.stack([t.T @ w for t in terms], axis=1) @ g.frame
    return _evaluate(pset, points, sigma, _field_terms, emit, (3,))


def jacobian_of(pset: PanelSet, sigma, points):
    """dE_i/dx_j of the superposed field, (m, 3, 3); trace is zero (Laplace)."""
    def emit(dst, g, w, terms):
        sums = np.stack([t.T @ w for t in terms], axis=1)
        dst += g.frame.T @ (sums[:, _JAC_INDEX] * _JAC_SIGN) @ g.frame
    return _evaluate(pset, points, sigma, _jacobian_terms, emit, (3, 3))


# -- single-panel helpers (testing / inspection) ----------------------------


def _single(origin, edge_u, edge_v):
    return PanelSet(np.array([origin], float), np.array([edge_u], float),
                    np.array([edge_v], float), np.array([0]))


def panel_potential(origin, edge_u, edge_v, points):
    """Potential (V) per unit charge density (C/m^2), geometry in meters."""
    ps = _single(origin, edge_u, edge_v)
    out = potential_matrix(ps, points)[:, 0]
    return out if np.ndim(points) > 1 else float(out[0])


def panel_field(origin, edge_u, edge_v, points):
    """Field (V/m) per unit charge density. On the sheet itself the normal
    component is discontinuous; the principal value (tangential part) is
    returned and a warning is emitted."""
    ps = _single(origin, edge_u, edge_v)
    pts = np.atleast_2d(np.asarray(points, float))
    xi, eta, zeta = ((pts - ps.origins[0]) @ ps.corner_groups[0].frame.T).T
    on_sheet = (np.abs(zeta) < 1e-15 * max(ps.a[0], ps.b[0])) \
        & (xi >= 0) & (xi <= ps.a[0]) & (eta >= 0) & (eta <= ps.b[0])
    if np.any(on_sheet):
        warnings.warn("point lies on the charged sheet; normal field is "
                      "discontinuous, returning the principal value")
    E = field_of(ps, np.ones(1), pts)
    return E if np.ndim(points) > 1 else E[0]


# -- solver ------------------------------------------------------------------


@dataclass
class UnitSolution:
    """Charge densities for 1 V on one electrode, all others grounded."""

    electrode: str
    sigma: np.ndarray
    residual_max: float


class SolvedTrap:
    """All unit excitations of a geometry; pseudo.BemRfField evaluates them."""

    def __init__(self, geometry: TrapGeometry, pset: PanelSet,
                 solutions: dict[str, UnitSolution], cond_estimate: float):
        self.geometry = geometry
        self.pset = pset
        self.solutions = solutions
        self.cond_estimate = cond_estimate

    @property
    def residual_max(self) -> float:
        return max(s.residual_max for s in self.solutions.values())

    def sigma_for(self, voltages: dict[str, float]) -> np.ndarray:
        sig = np.zeros(self.pset.n)
        for name, volt in voltages.items():
            if name not in self.solutions:
                raise KeyError(f"no electrode named {name!r}")
            if volt:
                sig += volt * self.solutions[name].sigma
        return sig

    def rf_voltages(self, amplitude: float = 1.0) -> dict[str, float]:
        return {n: amplitude for n in self.geometry.electrodes_with_role("rf")}

    def charge(self, electrode: str, voltages: dict[str, float]) -> float:
        """Total charge (C) on an electrode under the given excitation."""
        sig = self.sigma_for(voltages)
        idx = self.geometry.electrode_names.index(electrode)
        sel = self.pset.electrode_idx == idx
        return float((sig[sel] * self.pset.areas[sel]).sum())

    def capacitance_matrix(self):
        """Maxwell capacitance matrix in F: C[i, j] = Q_i under unit excitation j."""
        names = self.geometry.electrode_names
        return names, np.array([[self.charge(ni, {nj: 1.0}) for nj in names]
                                for ni in names])

    def rf_capacitance(self) -> float:
        """Charge on the rf electrodes with every rf rail at 1 V, in F."""
        volts = self.rf_voltages()
        return sum(self.charge(n, volts) for n in volts)


def solve_unit_excitations(geometry: TrapGeometry,
                           cache_dir: str | os.PathLike | None = None) -> SolvedTrap:
    """Solve 1 V unit excitations for every electrode of the geometry.

    cache_dir (or $IONTRAP_CACHE_DIR if set and cache_dir is None) enables a
    binary solution cache keyed by the geometry content hash; an entry whose
    panel arrays or solver source differ is solved again and overwritten.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV) or None
    pset = PanelSet(*geometry.arrays_m())
    if cache_dir:
        cache_dir = os.path.expanduser(cache_dir)
        digest = _solution_digest(pset)
        cached = _cache_load(cache_dir, geometry, pset, digest)
        if cached is not None:
            return cached

    if np.unique(pset.merge_keys(pset.centers), axis=0).shape[0] != pset.n:
        raise InvalidGeometryError(
            "coincident panel centers detected (overlapping electrodes?)")

    A = potential_matrix(pset, pset.centers, out=np.empty((pset.n, pset.n), order="F"))
    anorm = float(np.abs(A).sum(axis=0).max())
    lu, piv = sla.lu_factor(A, overwrite_a=True, check_finite=False)
    rcond, info = sla.lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond == 0.0:
        raise SolverError(f"condition estimate failed for {geometry.design}")
    cond = 1.0 / rcond
    if cond > COND_LIMIT:
        raise SolverError(
            f"BEM system for {geometry.design!r} is ill-conditioned "
            f"(cond ~ {cond:.2e} > {COND_LIMIT:.0e}); check the mesh")
    del A

    names = geometry.electrode_names
    B = np.asfortranarray(pset.electrode_idx[:, None] == np.arange(len(names)), float)
    S = sla.lu_solve((lu, piv), B, check_finite=False)
    if not np.isfinite(S).all():
        raise SolverError(f"non-finite charge densities for {geometry.design!r}")

    # reconstruct the boundary potential through the public evaluation path;
    # every collocation point must sit on its prescribed voltage
    phi = potential_of(pset, S, pset.centers)
    solutions = {}
    for j, name in enumerate(names):
        res = float(np.abs(phi[:, j] - B[:, j]).max())
        if not res <= RESIDUAL_LIMIT:  # a NaN residual fails too
            raise SolverError(
                f"boundary residual {res:.3e} V exceeds {RESIDUAL_LIMIT:.0e} V "
                f"for electrode {name!r} of {geometry.design!r}")
        solutions[name] = UnitSolution(name, np.ascontiguousarray(S[:, j]), res)

    solved = SolvedTrap(geometry, pset, solutions, cond)
    if cache_dir:
        _cache_save(cache_dir, solved, digest)
    return solved


# -- solution cache ----------------------------------------------------------
#
# File layout (all integers little endian):
#   bytes 0:4    magic "ITSC"
#   bytes 4:8    uint32 format version (1)
#   bytes 8:16   uint64 header length H
#   bytes 16:16+H JSON header: signature, electrode names, n_panels,
#                 cond_estimate, residuals, payload sha256 and the solution
#                 digest (_solution_digest)
#   remainder    one float64[n_panels] '<f8' charge-density block per
#                 electrode, in header order


def _cache_path(cache_dir, signature):
    return os.path.join(cache_dir, f"{signature}.itsc")


def _solution_digest(pset: PanelSet) -> str:
    """SHA-256 of what a solution depends on besides the geometry signature:
    the panel arrays and the source of this module (kernel and solver)."""
    h = hashlib.sha256()
    with open(__file__, "rb") as f:
        h.update(f.read())
    for a in (pset.origins, pset.edge_u, pset.edge_v, pset.electrode_idx):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _cache_save(cache_dir, solved: SolvedTrap, digest: str):
    os.makedirs(cache_dir, exist_ok=True)
    names = list(solved.solutions)
    payload = b"".join(
        np.ascontiguousarray(solved.solutions[n].sigma, dtype="<f8").tobytes()
        for n in names)
    header = json.dumps({
        "signature": solved.geometry.signature(),
        "electrodes": names,
        "n_panels": solved.pset.n,
        "cond_estimate": solved.cond_estimate,
        "residuals": {n: solved.solutions[n].residual_max for n in names},
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "digest": digest,
    }, sort_keys=True).encode()
    path = _cache_path(cache_dir, solved.geometry.signature())
    # a temp file of its own per writer, so concurrent writers never share one
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(_CACHE_MAGIC + struct.pack("<IQ", _CACHE_VERSION, len(header))
                    + header + payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)


def _cache_load(cache_dir, geometry, pset, digest):
    path = _cache_path(cache_dir, geometry.signature())
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as f:
            if f.read(4) != _CACHE_MAGIC:
                raise ValueError("bad magic")
            version, hlen = struct.unpack("<IQ", f.read(12))
            if version != _CACHE_VERSION:
                raise ValueError(f"unsupported cache version {version}")
            header = json.loads(f.read(hlen))
            payload = f.read()
        if header["signature"] != geometry.signature():
            raise ValueError("signature mismatch")
        if header.get("digest") != digest:
            return None  # solved from other panels or by another solver
        if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
            raise ValueError("payload checksum mismatch")
        if header["n_panels"] != pset.n:
            raise ValueError("panel count mismatch")
        sigmas = np.frombuffer(payload, dtype="<f8").reshape(len(header["electrodes"]), -1)
        solutions = {
            name: UnitSolution(name, sigmas[i].copy(), header["residuals"][name])
            for i, name in enumerate(header["electrodes"])
        }
        return SolvedTrap(geometry, pset, solutions, header["cond_estimate"])
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        warnings.warn(f"ignoring corrupt solver cache {path}: {exc}")
        return None
