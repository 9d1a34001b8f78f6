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
once, in blocks of _BLOCK_PAIRS (point, corner) pairs laid out as (block
points x group corners). Charges are folded into corner weights w = C sigma
(C the +/-1 corner-to-panel map), and each point's weighted sum runs along
its own row of corners, so a point gets the same bits in any batch and at
any place in it.

The weighted evaluators read fewer corners on the mirror planes of a solved
trap. A PanelSet's mirror group (PanelSet.group) is the identity until the
solve finds the group or a cache load brings it back. The subgroup H of it
that fixes a point, the x mirror when x == 0.0 and the z mirror when
z == 0.0, fixes its value: K(p, h.j) = K(h.p, j) = K(p, j). So phi(p) =
sum_r w_r K(p, r) over one panel r per H-orbit, w_r = sum_h sigma[h.r] /
stab_r, with the sign each h gives a field component (or the product of two
for a Jacobian entry) in the sum for that output. That holds for any sigma.
A point on a mirror plane reads the corners of half the panels and a point
on x = z = 0 of a quarter. The points of each stabilizer class H, built by
the solver's _MirrorGroup code, run the same blocked loop over the corner
table of H's orbit representatives, taken from the whole table by index; a
point off the planes, or of a trap without symmetry, reads the whole table
with sigma. ChargeWeights, the one field object, folds a sigma once per
class and counts the points evaluated in each class.

A point off the planes has the value of its mirror image when the mirror
leaves sigma unchanged, up to the sign the mirror gives each output. A
ChargeWeights finds once which of the x and z mirrors of pset.group permute
sigma onto itself bit for bit (sigma[perm] == sigma, every column); on the
built-in traps the rf charge keeps both, or z alone for cross-rf. Each call
then takes |x| and |z| on those axes as the representative of each point,
evaluates the distinct representatives through the stabilizer classes,
and gives every point its representative's value times the element's sign
of each output: a symmetric map over x in [-a, a] evaluates its x >= 0
half. A call without a negative coordinate on those axes evaluates its
points as they are, and the solve never takes this step.

The blocks run on a pool of _WORKERS threads, one per CPU in this process's
affinity mask (os.sched_getaffinity; the BLAS thread variables do not set
it), since numpy releases the interpreter lock inside the ufuncs that
dominate a block. A call of one block of the whole table, or one CPU, runs
inline. Each thread computes its blocks in _SCRATCH arrays of about
_BLOCK_PAIRS doubles (0.4 MB each) that it keeps from call to call and grows
when a call needs more, potential_matrix's panel gathers included, so the
kernel's working set is workers x 4 MB: small beside SOLVE_MEMORY_BUDGET,
which bounds the solver's kernel rows and symmetry blocks. A solve drops the
scratch before it assembles and again before it factors.

Collocation at panel centers with one row per center and one column per panel
gives the system A sigma = V, solved for the unit excitations (1 V on one
electrode, 0 V elsewhere) of every electrode at once. The solver finds which
of the mirrors x -> -x, z -> -z and their product map every panel's corners
onto the corners of a panel (all three built-in meshes: the whole group) and
splits the system by the characters of that group (Bossavit, CMAME 56, 167
(1986); Allgower et al., SIAM J. Numer. Anal. 29, 534 (1992)). It assembles
the rows R of one collocation point per panel orbit, about n/4 x n, forms
one block per character in the orthonormal symmetry basis, gathered by rows
of R one group element at a time, factors each by LU, and expands the block
solutions back to sigma. R also gives A sigma on every collocation point,
one product per group element, for the residual check. A geometry without
symmetry is the trivial group: one block, the dense matrix. The solve holds
R and at most two blocks at once, the bytes SOLVE_MEMORY_BUDGET is checked
against, besides its n x n_electrodes right-hand sides and 64-column slices
of a block.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import struct
import threading
import time
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import constants
from .errors import InvalidGeometryError, SolverError
from .geometry import TrapGeometry

_TINY = 1e-300
# (point, corner) pairs per evaluation block, 0.4 MB per kernel array: on the
# surface mesh, 250 k pairs ran the kernel about 20 % slower on two threads
# and 100 k as fast, but slower on one thread and with more resident memory
_BLOCK_PAIRS = 50_000
# threads that evaluate blocks: the CPUs this process may run on (all of
# them where the platform has no affinity mask)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None  # their ThreadPoolExecutor, created at the first multi-block call
_pool_lock = threading.Lock()
_scratch = {}  # thread ident -> its kernel scratch (_thread_scratch)
# positions closer than this fraction of the median panel edge coincide
_MERGE_REL = 1e-9
# hard limit on the 1-norm condition estimate of the collocation operator
COND_LIMIT = 1e12
# significant digits the condition estimate is stored with: dgecon's last
# bits follow where the process placed its buffers
COND_DIGITS = 12
# boundary-condition residual each unit solve must satisfy, in volts
RESIDUAL_LIMIT = 1e-8
# bytes a solve may allocate for its kernel rows and symmetry blocks
SOLVE_MEMORY_BUDGET = 2 * 1024**3

CACHE_ENV = "IONTRAP_CACHE_DIR"
_CACHE_MAGIC = b"ITSC"
_CACHE_VERSION = 2


def _unique_rows(a):
    """(first, inverse) of the distinct rows of the 2-D integer array a, in
    the order numpy's unique(a, axis=0, return_index=True,
    return_inverse=True) gives them: distinct rows in lexicographic order,
    first the lowest index of each, and a[first][inverse] == a. One lexsort
    of the columns; unique along an axis sorts a structured view of the
    rows, about ten times slower."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    new = np.empty(len(a), bool)
    new[:1] = True
    np.any(s[1:] != s[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(a), np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


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
        # the mirror group of these panels: the identity until the solve or a
        # cache load puts the group it found
        self.group = _MirrorGroup(self, (np.zeros(1, int), np.arange(self.n)[None]))

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
            which = _unique_rows(key)[1]
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
        keep, idx = _unique_rows(pset.merge_keys(uv))
        self.cu, self.cv = uv[keep].T
        self.idx = idx.reshape(4, -1)

    def subset(self, keep):
        """The group of the panels panels[keep] and of the corners they use,
        in this group's order, taken by index; this group when it keeps all."""
        if keep.all():
            return self
        sub = object.__new__(_CornerGroup)
        sub.panels, sub.frame, sub.offset = self.panels[keep], self.frame, self.offset
        idx = self.idx[:, keep]
        used = np.zeros(self.cu.size, bool)
        used[idx] = True
        sub.cu, sub.cv = self.cu[used], self.cv[used]
        sub.idx = (np.cumsum(used) - 1)[idx]
        return sub

    def fold(self, sigma):
        """Corner weights w = C sigma of this group's panels, (corners[, k])."""
        s = sigma[self.panels]
        w = np.zeros((self.cu.size,) + s.shape[1:])
        for sign, i in zip((1.0, -1.0, -1.0, 1.0), self.idx):
            np.add.at(w, i, sign * s)
        return w


class ChargeWeights:
    """Charge densities sigma (n[, k]) of a PanelSet folded into corner
    weights, once per stabilizer class and output on first use: the one
    field object. potential, field and jacobian evaluate it; pass it for
    sigma to the module's evaluators to evaluate one sigma many times.

    A point of class H (the subgroup of pset.group that fixes it) reads the
    reps r of its orbits with the weights w_r = sum_h chi(h) sigma[h.r] /
    stab_r, chi the sign each element gives the output: 1 for the
    potential, the x and z mirror signs of a field component, their
    products for a Jacobian entry. This holds for any sigma, symmetric or
    not.

    mirror_axes holds the coordinates (0 for x, 2 for z) whose mirror in
    pset.group leaves sigma unchanged bit for bit, in every column. A call
    evaluates each point's orbit representative under them, the point with
    those coordinates made non-negative, once, and gives the other points
    of the orbit its value with the signs of chi. evaluations[class name]
    counts the representatives evaluated in each class and the corners the
    class reads.
    """

    def __init__(self, pset: PanelSet, sigma):
        self.pset = pset
        self.sigma = np.asarray(sigma, float)
        group, s = pset.group, self.sigma.reshape(pset.n, -1)
        same = {e for e, perm in zip(group.elements, group.perms) if np.array_equal(s[perm], s)}
        self.mirror_axes = [ax for e, ax in _MIRROR_AXES if e in same]
        self.evaluations = {}
        self._folded = {}

    # the module's evaluators are looked up at each call, so a wrapper put
    # on them (a tracer, say) sees these calls too
    def potential(self, points):
        return potential_of(self.pset, self, points)

    def field(self, points):
        return field_of(self.pset, self, points)

    def jacobian(self, points):
        return jacobian_of(self.pset, self, points)

    def folded(self, cls: _MirrorGroup, output):
        """[(layers, column)] of each of cls's corner groups for the output
        ("potential", "field" or "jacobian").

        A layer holds one weight array per kernel term, the corner weights
        (corners[, k]) of one character or None where the term adds to no
        output of it. When each term adds to outputs of one character, as in
        every axis-aligned frame, one layer holds them all and column is
        None; otherwise there is a layer per character and output o takes
        its value from layer column[o].
        """
        key = (cls, output)
        if key not in self._folded:
            self._folded[key] = self._fold(cls, output)
        return self._folded[key]

    def _fold(self, cls, output):
        parity, reach = _OUTPUTS[output]
        # the distinct characters of the outputs on cls and each output's column
        signs = cls._signs(parity.ravel())
        first, col = _unique_rows(signs)
        chars, col = signs[first].astype(float), col.reshape(parity.shape)
        s = np.tensordot(chars, self.sigma[cls.images], axes=1)
        s /= cls.stab.reshape((-1,) + (1,) * (s.ndim - 2))
        omega = np.zeros((self.pset.n,) + s.shape[:1] + s.shape[2:])
        omega[cls.reps] = np.moveaxis(s, 0, 1)
        out = []
        for g in cls.groups:
            w = [g.fold(omega[:, c]) for c in range(len(chars))]
            term_chars = [set(col.ravel()[r]) for r in reach(g.frame).reshape(-1, col.size)]
            if all(len(tc) <= 1 for tc in term_chars):
                out.append(([[w[min(tc)] if tc else None for tc in term_chars]], None))
            else:
                out.append(([[w[c] if c in tc else None for tc in term_chars]
                             for c in range(len(w))], col))
        return out

    def count(self, cls: _MirrorGroup, points: int):
        seen = self.evaluations.setdefault(
            cls.name, {"points": 0, "corners": sum(g.cu.size for g in cls.groups)})
        seen["points"] += points


# The kernel writes every (block points x group corners) array into scratch
# arrays that each thread allocates once and reuses for all of its blocks,
# call after call (_thread_scratch). The first two hold u and v;
# terms(u, v, z, s, mask) leaves its k terms in s[:k] and uses s[k:] as
# scratch. Blocks that allocated their temporaries instead would have the
# allocator hand the pages back to the system after each block and fault
# them in again for the next.
_SCRATCH = 10


def _ln_sum(v, r, du, out, mask):
    """out = ln(v + r), through du / (r - v) where v <= 0; du = u^2 + z^2 is
    overwritten."""
    np.abs(v, out=out)
    out += r
    np.maximum(out, _TINY, out=out)
    np.maximum(du, _TINY, out=du)
    du /= out
    np.greater(v, 0.0, out=mask)
    np.copyto(du, out, where=mask)
    np.log(du, out=out)


def _field_terms(u, v, z, s, mask):
    """ln(v + r), ln(u + r) and sign(z) atan(u v / (|z| r)) of each corner."""
    lv, lu, at, du, dv, r = s[:6]
    z2 = z * z
    np.multiply(u, u, out=du)
    du += z2
    np.multiply(v, v, out=dv)
    dv += z2
    np.multiply(v, v, out=r)
    r += du
    np.sqrt(r, out=r)
    np.multiply(u, v, out=at)
    np.multiply(np.abs(z), r, out=lu)
    np.arctan2(at, lu, out=at)
    at *= np.sign(z)
    _ln_sum(v, r, du, lv, mask)
    _ln_sum(u, r, dv, lu, mask)
    return lv, lu, at


def _potential_terms(u, v, z, s, mask):
    """u ln(v + r) + v ln(u + r) - z atan(u v / (z r)) of each corner."""
    lv, lu, at = _field_terms(u, v, z, s, mask)
    lv *= u
    lu *= v
    lv += lu
    at *= z
    lv -= at
    return (lv,)


def _jacobian_terms(u, v, z, s, mask):
    """jxx, jxy, jxz, jyy, jyz, jzz of each corner: u a, 1/r, z a, v b, z b
    and u v (r^2 + z^2) / (r du dv), with a = (r - v) / (r du),
    b = (r - u) / (r dv), du = u^2 + z^2, dv = v^2 + z^2 and r, du and dv
    at least _TINY."""
    jxx, r, a, jyy, b, jzz, du, dv = s[:8]
    z2 = z * z
    np.multiply(u, u, out=r)
    np.multiply(v, v, out=du)
    r += du
    r += z2
    np.sqrt(r, out=r)
    np.maximum(r, _TINY, out=r)
    np.multiply(u, u, out=du)
    du += z2
    np.maximum(du, _TINY, out=du)
    np.multiply(v, v, out=dv)
    dv += z2
    np.maximum(dv, _TINY, out=dv)
    np.multiply(u, v, out=jzz)
    np.multiply(r, r, out=jxx)
    jxx += z2
    jzz *= jxx
    np.multiply(r, du, out=jxx)
    np.subtract(r, v, out=a)
    a /= jxx
    jxx *= dv
    jzz /= jxx
    np.multiply(r, dv, out=jxx)
    np.subtract(r, u, out=b)
    b /= jxx
    np.multiply(u, a, out=jxx)
    a *= z
    np.multiply(v, b, out=jyy)
    b *= z
    np.divide(1.0, r, out=r)
    return jxx, r, a, jyy, b, jzz


# Jacobian sums -> symmetric dE_a/dx_b in the frame (uhat, vhat, nhat)
_JAC_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_JAC_SIGN = np.array([[-1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])


# x and z parity of each output: bit 0 is set when the x mirror flips its
# sign, bit 1 when the z mirror does; reach(frame)[t, o] says whether term t
# adds to output o in a group of that frame (axis-aligned frames skip the
# sums they would multiply by an exact zero)
_FIELD_PARITY = np.array([1, 0, 2])


def _jacobian_reach(frame):
    nz = frame != 0.0
    pairs = nz[:, None, :, None] & nz[None, :, None, :]  # [s, t, a, b]
    return np.array([pairs[_JAC_INDEX == k].any(axis=0) for k in range(6)])


_OUTPUTS = {"potential": (np.zeros(1, int), lambda frame: np.ones((1, 1), bool)),
            "field": (_FIELD_PARITY, lambda frame: frame != 0.0),
            "jacobian": (_FIELD_PARITY[:, None] ^ _FIELD_PARITY, _jacobian_reach)}


def _weighted_sums(t, w, tmp):
    """sum_c t[i, c] w[c] of every row i, one column per column of w; tmp is
    1-D scratch of at least t.size.

    Each row is reduced along its own contiguous corner axis, so a point's
    value does not depend on which other points share its block.
    """
    tmp = tmp[:t.size].reshape(t.shape)
    if w.ndim == 1:
        return np.multiply(t, w, out=tmp).sum(axis=1)
    return np.stack([np.multiply(t, wj, out=tmp).sum(axis=1) for wj in w.T], axis=1)


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="iontrap-kernel")
        return _pool


def _thread_scratch(size):
    """The calling thread's _SCRATCH kernel arrays of at least size doubles
    and its mask, kept for its next call and grown when a call needs more."""
    me = threading.get_ident()
    have = _scratch.get(me)
    if have is None or have[1].size < size:
        del have  # freed before its successor is allocated
        _scratch.pop(me, None)
        have = _scratch[me] = (np.empty((_SCRATCH, size)), np.empty(size, bool))
    return have


def _release_scratch():
    """Drop every thread's kernel scratch, e.g. before a solve factors."""
    _scratch.clear()


def _forget_pool():
    """A forked child inherits the pool object but none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()
    _scratch.clear()


if hasattr(os, "register_at_fork"):  # platforms without fork have nothing to reset
    os.register_at_fork(after_in_child=_forget_pool)


def _evaluate(pset: PanelSet, points, charge, output, terms, emit, shape):
    """The blocked loop behind the public evaluators, out (m,) + shape.

    Without a charge (potential_matrix) every point reads the whole corner
    table. Otherwise the points are split by stabilizer class, and each
    class runs _blocks over its own corner table with charge's weights of
    that class for the output ("potential", "field" or "jacobian"). out is
    scaled by 1/(4 pi eps0) at the end.
    """
    p = np.atleast_2d(np.asarray(points, float))
    out = np.zeros((p.shape[0],) + tuple(shape))
    # a call of at most one block of the whole table runs inline, so the
    # calling thread's scratch stays that size; larger calls, even of one
    # block of a smaller class table, run on the pool
    inline = _WORKERS == 1 or p.shape[0] <= max(
        8, _BLOCK_PAIRS // sum(g.cu.size for g in pset.corner_groups))
    if charge is None:
        groups = pset.corner_groups
        _blocks(p, out, groups, [None] * len(groups), terms, emit, inline)
    else:
        for cls, rows in pset.group.classes_of(pset, p):
            w = charge.folded(cls, output)
            if rows is None:
                _blocks(p, out, cls.groups, w, terms, emit, inline)
            else:
                part = np.zeros((rows.size,) + tuple(shape))
                _blocks(p[rows], part, cls.groups, w, terms, emit, inline)
                out[rows] = part
            charge.count(cls, p.shape[0] if rows is None else rows.size)
    out *= 1.0 / (4.0 * np.pi * constants.EPS0)
    return out


def _blocks(p, out, groups, w, terms, emit, inline):
    """For every block of points and corner group, terms(u, v, z, s, mask)
    gives the corner terms, each (block points, group corners), and
    emit(out[rows], group, wg, terms, s) adds their part, wg the group's
    entry of w and s the 1-D scratch arrays the terms left free, each large
    enough for (block points x group corners) or (block points x group
    panels). The blocks are dealt round-robin to one task per worker of the
    kernel pool, at most one per block, or run inline. A block writes only
    its own rows of out, so the result does not depend on the schedule.
    """
    step = max(8, _BLOCK_PAIRS // sum(g.cu.size for g in groups))
    starts = range(0, p.shape[0], step)
    tasks = min(_WORKERS, len(starts))
    size = min(step, p.shape[0]) * max(max(g.cu.size, g.panels.size) for g in groups)

    def task(first):
        flat, flat_mask = _thread_scratch(size)
        for i0 in starts[first::tasks]:
            rows = p[i0:i0 + step]
            for g, wg in zip(groups, w):
                n = rows.shape[0] * g.cu.size
                u, v, *s = (f[:n].reshape(rows.shape[0], -1) for f in flat)
                mask = flat_mask[:n].reshape(u.shape)
                x, y, z = ((rows * f).sum(axis=1)[:, None] for f in g.frame)
                np.subtract(g.cu, x, out=u)
                np.subtract(g.cv, y, out=v)
                t = terms(u, v, z - g.offset, s, mask)
                emit(out[i0:i0 + step], g, wg, t, flat[2 + len(t):])

    for _ in (map if inline else _executor().map)(task, range(tasks)):
        pass


def potential_matrix(pset: PanelSet, points):
    """Potential at each point per unit charge density of each panel, (m, n)."""
    def emit(dst, g, w, terms, s):
        # ((F0 - F1) - F2) + F3 over each panel's four corners, gathered
        # into scratch; take buffers out= unless mode is "clip" or "wrap"
        F, c = terms[0], g.idx
        a, b = (x[:F.shape[0] * g.panels.size].reshape(F.shape[0], -1) for x in s[:2])
        np.take(F, c[0], axis=1, out=a, mode="clip")
        for op, i in ((np.subtract, c[1]), (np.subtract, c[2]), (np.add, c[3])):
            op(a, np.take(F, i, axis=1, out=b, mode="clip"), out=a)
        dst[:, g.panels] = a
    return _evaluate(pset, points, None, None, _potential_terms, emit, (pset.n,))


def _charge(pset, sigma) -> ChargeWeights:
    if not isinstance(sigma, ChargeWeights):
        return ChargeWeights(pset, sigma)
    if sigma.pset is not pset:
        raise ValueError("charge weights of another panel set")
    return sigma


def _by_orbit(pset, charge: ChargeWeights, points, output, terms, emit, shape):
    """_evaluate with charge at one representative of each orbit of the
    points under charge.mirror_axes: the point with those coordinates made
    non-negative, -0.0 included. Each point takes its representative's value
    times the sign that the mirrors mapping it there give each output, so a
    point gets the same bits in any batch. A call without a negative
    coordinate on those axes evaluates its points as they are."""
    p = np.atleast_2d(np.asarray(points, float))
    axes = charge.mirror_axes
    flip = np.signbit(p[:, axes])
    if not flip.any():
        return _evaluate(pset, p, charge, output, terms, emit, shape)
    rep = p.copy()
    rep[:, axes] = np.abs(rep[:, axes])
    first, inverse = _unique_rows(rep.view(np.int64))
    out = _evaluate(pset, rep[first], charge, output, terms, emit, shape)[inverse]
    parity = _OUTPUTS[output][0]
    if parity.any():  # the potential never flips
        group = pset.group
        element = flip @ [e for e, ax in _MIRROR_AXES if ax in axes]
        signs = group._signs(parity.ravel())[:, np.searchsorted(group.elements, element)]
        out *= signs.T.reshape((-1,) + parity.shape)
    return out


def potential_of(pset: PanelSet, sigma, points):
    """Potential of the densities sigma (n[, k]) or ChargeWeights, (m[, k])."""
    def emit(dst, g, w, terms, s):
        layers, _ = w  # one layer of one term
        dst += _weighted_sums(terms[0], layers[0][0], s[0])
    charge = _charge(pset, sigma)
    return _by_orbit(pset, charge, points, "potential", _potential_terms, emit,
                     charge.sigma.shape[1:])


def field_of(pset: PanelSet, sigma, points):
    """Field of the densities sigma (n,) or ChargeWeights, (m, 3)."""
    def emit(dst, g, w, terms, s):
        layers, col = w
        outs = [dst] if col is None else [np.zeros_like(dst) for _ in layers]
        for out, weights in zip(outs, layers):
            for t, f, wt in zip(terms, g.frame, weights):
                if wt is not None:
                    out += _weighted_sums(t, wt, s[0])[:, None] * f
        if col is not None:
            dst += np.choose(col, outs)
    return _by_orbit(pset, _charge(pset, sigma), points, "field", _field_terms, emit, (3,))


def jacobian_of(pset: PanelSet, sigma, points):
    """dE_i/dx_j of the superposed field, (m, 3, 3); trace is zero (Laplace)."""
    def emit(dst, g, w, terms, s):
        layers, col = w
        J = []
        for weights in layers:
            sums = np.stack([np.zeros(t.shape[0]) if wt is None
                             else _weighted_sums(t, wt, s[0])
                             for t, wt in zip(terms, weights)], axis=1)
            J.append(g.frame.T @ (sums[:, _JAC_INDEX] * _JAC_SIGN) @ g.frame)
        dst += J[0] if col is None else np.choose(col, J)
    return _by_orbit(pset, _charge(pset, sigma), points, "jacobian", _jacobian_terms,
                     emit, (3, 3))


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

# group element e flips x when e & 1 and z when e & 2
_MIRROR_SIGNS = np.array([(1, 1, 1), (-1, 1, 1), (1, 1, -1), (-1, 1, -1)])
_MIRROR_NAMES = ("identity", "x=0", "z=0", "x=0 & z=0")
_MIRROR_AXES = ((1, 0), (2, 2))  # each single mirror and the coordinate it negates


class _MirrorGroup:
    """The elements of {identity, x -> -x, z -> -z, both} that map the panel
    set onto itself, and the block structure they give the collocation system.

    An element belongs to the group only if it maps the corners of every
    panel, at the merge tolerance, onto the corners of some panel; then it
    maps collocation points onto collocation points and A[g.i, g.j] = A[i, j].
    perms[g, j] is the panel that element g maps panel j to, reps the lowest
    panel of each orbit, images[g, r] = perms[g, reps[r]] and stab the order
    of each rep's stabilizer. The characters chars[c, g] = +/-1 split the
    system into one block per character; block c keeps the orbits keep[c]
    (into reps) whose stabilizer it fixes and is written in the orthonormal
    symmetry basis, M_c[i, r] = sum_g chars[c, g] A[rep_i, g.rep_r] /
    sqrt(stab_i stab_r). The trivial group has one block, the dense matrix.
    elements holds each element's code into _MIRROR_SIGNS, the identity (0)
    first.

    found = (elements, perms) takes a group found before, from a cache
    entry or a subset of another group's rows, instead of detecting it.
    A subgroup that classes_of returns has only elements, name, reps, images
    and stab, and groups, the corner table of its reps.
    """

    def __init__(self, pset: PanelSet, found=None):
        n = pset.n
        if found is None:
            o, eu, ev = pset.origins, pset.edge_u, pset.edge_v
            keys = pset.merge_keys(np.stack([o, o + eu, o + ev, o + eu + ev], axis=1))
            # rounding is odd, so the key of a mirrored corner is the negated key
            flat = (keys * _MIRROR_SIGNS[:, None, None]).reshape(-1, 3)
            corner = _unique_rows(flat)[1].reshape(-1, 4)
            panel = _unique_rows(np.sort(corner, axis=1))[1].reshape(4, n)
            where = np.full(4 * n, -1)
            where[panel[0]] = np.arange(n)
            perms = where[panel]  # -1 where a mirrored panel is no panel
            elements = np.flatnonzero((perms >= 0).all(axis=1))
            found = elements, perms[elements]
        elements, self.perms = found
        self.elements = np.asarray(elements)
        self.names = [_MIRROR_NAMES[e] for e in self.elements[1:]]
        self.name = ", ".join(self.names) or "identity"
        self.reps = np.flatnonzero(self.perms.min(axis=0) == np.arange(n))
        self.images = self.perms[:, self.reps]
        fixed = self.images == self.reps
        self.stab = fixed.sum(axis=0)
        # rows (+, +), (+, -), (-, +), (-, -) of the x and z mirror signs
        table = self._signs(np.array([0, 2, 1, 3]))
        chars = table[np.sort(_unique_rows(table)[0])]
        keep = [np.flatnonzero(~(fixed & (c[:, None] < 0)).any(axis=0)) for c in chars]
        self.chars = np.array([c for c, k in zip(chars, keep) if k.size])
        self.keep = [k for k in keep if k.size]
        self.block_sizes = [int(k.size) for k in self.keep]
        # the kept rows R, the largest block and, when the group has more
        # than the identity, the term being added to it or the block's
        # Fortran-order copy; the trivial group copies R once, in that order
        blocks = 2 if len(self.elements) > 1 else 1
        self.solve_bytes = 8 * (self.reps.size * n + blocks * max(self.block_sizes) ** 2)
        self._subgroups = {}

    def _signs(self, parity):
        """The sign +/-1 each element gives an output of each parity,
        (outputs, elements): parity bit 0 is set when the x mirror flips the
        output's sign, bit 1 when the z mirror does."""
        flips = np.bitwise_and.outer(parity, self.elements)
        return 1 - 2 * ((flips ^ (flips >> 1)) & 1)

    def classes_of(self, pset: PanelSet, points):
        """[(stabilizer class, indices of its points or None for all)] of
        the (m, 3) points: a point's class is the subgroup of the elements
        that fix it, the x mirror when x == 0.0 and the z mirror when
        z == 0.0 (exact compares)."""
        # bit 0: on x = 0, bit 1: on z = 0; an element fixes the points whose
        # key holds every axis it flips
        key = (points[:, 0] == 0.0) + 2 * (points[:, 2] == 0.0)
        present = np.flatnonzero(np.bincount(key, minlength=4))
        keys = {}
        for k in present:
            keys.setdefault(tuple(np.flatnonzero((self.elements & ~k) == 0)), []).append(k)
        if len(keys) == 1:
            return [(self._subgroup(pset, next(iter(keys))), None)]
        return [(self._subgroup(pset, rows), np.flatnonzero(np.isin(key, ks)))
                for rows, ks in keys.items()]

    def _subgroup(self, pset, rows):
        """The subgroup of the elements rows (indices into perms) with the
        corner table of its reps, built on first use. It holds only what an
        evaluation reads: elements, name, reps, images, stab and groups.
        pset is passed, not kept: a group that held its panel set would make
        a reference cycle."""
        if rows not in self._subgroups:
            sub = object.__new__(_MirrorGroup)
            perms = self.perms[list(rows)]
            sub.elements = self.elements[list(rows)]
            sub.name = ", ".join(_MIRROR_NAMES[e] for e in sub.elements[1:]) or "identity"
            sub.reps = np.flatnonzero(perms.min(axis=0) == np.arange(pset.n))
            sub.images = perms[:, sub.reps]
            sub.stab = (sub.images == sub.reps).sum(axis=0)
            rep = np.zeros(pset.n, bool)
            rep[sub.reps] = True
            subsets = (g.subset(rep[g.panels]) for g in pset.corner_groups)
            sub.groups = [g for g in subsets if g.panels.size]
            self._subgroups[rows] = sub
        return self._subgroups[rows]

    def solve(self, R, B):
        """sigma of A sigma = B from the kept rows R = A[reps], and the 1-norm
        condition estimate of the block-diagonal operator (NaN on failure).

        Block c solves M_c y = sqrt(|G| / stab_i) b_i for the projected
        right-hand side b_i = sum_g chars[c, g] B[g.rep_i] / |G|; then
        x_c[r] = sqrt(stab_r / |G|) y_r and sigma[g.r] = sum_c chars[c, g] x_c[r].
        """
        # here, not at the top: a cache hit, a report or a map never loads it
        import scipy.linalg as sla

        order = self.perms.shape[0]
        Bc = np.einsum("cg,gmk->cmk", self.chars, B[self.images])
        X = np.zeros_like(Bc)
        anorm = ainv = 0.0
        for c, k in enumerate(self.keep):
            s = np.sqrt(self.stab[k])[:, None]
            M = self._block(R, c)
            # the 1-norm from column sums of a few columns at a time, not
            # from a block-sized |M|
            mnorm = max(float(np.abs(M[:, j:j + 64]).sum(axis=0).max())
                        for j in range(0, M.shape[1], 64))
            lu, piv = sla.lu_factor(M, overwrite_a=True, check_finite=False)
            rcond, info = sla.lapack.dgecon(lu, mnorm, norm="1")
            if info != 0 or not np.isfinite(rcond) or rcond == 0.0:
                return None, math.nan
            anorm, ainv = max(anorm, mnorm), max(ainv, 1.0 / (rcond * mnorm))
            y = sla.lu_solve((lu, piv), Bc[c, k] / (s * math.sqrt(order)),
                             check_finite=False)
            X[c, k] = y * s / math.sqrt(order)
            del M, lu  # before the next block is gathered
        S = np.empty_like(B)
        S[self.images] = np.einsum("cg,cmk->gmk", self.chars, X)
        return S, anorm * ainv

    def _block(self, R, c):
        """Block c in Fortran order, for lu_factor to overwrite.

        Each group element's columns of R are gathered by rows into one
        reused array and added in element order; then the rows of the orbits
        that character c drops go, and one copy turns the block to Fortran
        order. Two blocks at most are alive at once.
        """
        k = self.keep[c]
        cols = self.images[:, k]
        if len(cols) == 1:
            # the identity alone: every panel is an orbit and the block is R
            M = np.array(R, order="F")
        else:
            M = np.take(R, cols[0], axis=1)
            term = np.empty_like(M)
            for g in range(1, len(cols)):
                np.take(R, cols[g], axis=1, out=term, mode="clip")
                if self.chars[c, g] > 0:
                    M += term
                else:
                    M -= term
            del term
            if k.size < M.shape[0]:
                M = M[k]
        s = np.sqrt(self.stab[k])
        M /= s[:, None]
        M /= s
        return np.asfortranarray(M)

    def potential(self, R, sigma):
        """A sigma on every collocation point from the kept rows: row g.i of
        A is row i of R with its columns permuted by g."""
        phi = np.empty_like(sigma)
        for p, image in zip(self.perms, self.images):
            phi[image] = R @ sigma[p]
        return phi


class SolvedTrap:
    """All unit excitations of a geometry; pseudo.BemRfField evaluates them.

    sigma[:, j] is the charge density (n_panels,) for 1 V on electrode j of
    geometry.electrode_names, all others grounded, and residuals[j] its
    largest boundary residual in volts.

    diagnostics records how the solve ran: cache ("hit", "miss", or "off"
    without a cache directory), mirror_group (the symmetries found besides
    the identity), block_sizes, how this process evaluates the kernel
    (kernel_workers threads, kernel_block_pairs pairs per block) and, when
    solved here rather than loaded, the seconds of symmetry_s (mirror group
    detection), assembly_s (kernel rows), factor_s (blocks, LU, condition
    estimate and solve) and residual_s.

    pset.group is the mirror group of the solve, found here or read from
    the cache; the evaluators read it on the mirror planes.
    """

    def __init__(self, geometry: TrapGeometry, pset: PanelSet, sigma: np.ndarray,
                 residuals: np.ndarray, cond_estimate: float, diagnostics: dict):
        self.geometry = geometry
        self.pset = pset
        self.sigma = sigma
        self.residuals = residuals
        self.cond_estimate = cond_estimate
        self.diagnostics = diagnostics

    @property
    def residual_max(self) -> float:
        return float(self.residuals.max())

    def sigma_for(self, voltages: dict[str, float]) -> np.ndarray:
        names = self.geometry.electrode_names
        sig = np.zeros(self.pset.n)
        for name, volt in voltages.items():
            if name not in names:
                raise KeyError(f"no electrode named {name!r}")
            if volt:
                sig += volt * self.sigma[:, names.index(name)]
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
        on = self.pset.electrode_idx[:, None] == np.arange(len(names))
        return names, on.T @ (self.sigma * self.pset.areas[:, None])

    def rf_capacitance(self) -> float:
        """Charge on the rf electrodes with every rf rail at 1 V, in F."""
        volts = self.rf_voltages()
        return sum(self.charge(n, volts) for n in volts)


def _kernel_diagnostics():
    return {"kernel_workers": _WORKERS, "kernel_block_pairs": _BLOCK_PAIRS}


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

    # the scratch of earlier evaluations is not held through the solve: freed
    # here, its memory serves the solve's own temporaries
    _release_scratch()
    if _unique_rows(pset.merge_keys(pset.centers))[0].size != pset.n:
        raise InvalidGeometryError(
            "coincident panel centers detected (overlapping electrodes?)")

    t0 = time.perf_counter()
    group = pset.group = _MirrorGroup(pset)
    t_group = time.perf_counter()
    if group.solve_bytes > SOLVE_MEMORY_BUDGET:
        raise SolverError(
            f"solving {geometry.design!r} ({pset.n} panels, blocks "
            f"{group.block_sizes}) needs {group.solve_bytes / 1e6:.3g} MB, more "
            f"than the {SOLVE_MEMORY_BUDGET / 1e6:.3g} MB budget; coarsen the mesh")
    R = potential_matrix(pset, pset.centers[group.reps])
    _release_scratch()  # the assembly's, not held through the factorization
    t1 = time.perf_counter()

    names = geometry.electrode_names
    B = (pset.electrode_idx[:, None] == np.arange(len(names))).astype(float)
    S, cond = group.solve(R, B)
    if not np.isfinite(cond):
        raise SolverError(f"condition estimate failed for {geometry.design}")
    if cond > COND_LIMIT:
        raise SolverError(
            f"BEM system for {geometry.design!r} is ill-conditioned "
            f"(cond ~ {cond:.2e} > {COND_LIMIT:.0e}); check the mesh")
    cond = float(f"{cond:.{COND_DIGITS}g}")
    if not np.isfinite(S).all():
        raise SolverError(f"non-finite charge densities for {geometry.design!r}")
    t2 = time.perf_counter()

    # every collocation point must sit on its prescribed voltage
    residuals = np.abs(group.potential(R, S) - B).max(axis=0)
    for name, res in zip(names, residuals):
        if not res <= RESIDUAL_LIMIT:  # a NaN residual fails too
            raise SolverError(
                f"boundary residual {res:.3e} V exceeds {RESIDUAL_LIMIT:.0e} V "
                f"for electrode {name!r} of {geometry.design!r}")

    diagnostics = {"cache": "miss" if cache_dir else "off",
                   "mirror_group": group.names, "block_sizes": group.block_sizes,
                   **_kernel_diagnostics(),
                   "symmetry_s": t_group - t0, "assembly_s": t1 - t_group,
                   "factor_s": t2 - t1,
                   "residual_s": time.perf_counter() - t2}
    solved = SolvedTrap(geometry, pset, S, residuals, cond, diagnostics)
    if cache_dir:
        _cache_save(cache_dir, solved, digest)
    return solved


# -- solution cache ----------------------------------------------------------
#
# File layout (all integers little endian):
#   bytes 0:4    magic "ITSC"
#   bytes 4:8    uint32 format version (2)
#   bytes 8:16   uint64 header length H
#   bytes 16:16+H JSON header: signature, electrode names, n_panels,
#                 cond_estimate, mirror_group, block_sizes, residuals,
#                 payload sha256 and the solution digest (_solution_digest)
#   remainder    the payload: sigma.T as '<f8', the n_panels charge densities
#                 of each electrode's unit excitation, electrodes in header
#                 order; then the mirror group's perms as '<i4', one row of
#                 n_panels per element, the identity and then mirror_group
#                 order
# An entry of another format version is a miss, solved again and overwritten.

# what a solve runs: a solution cached by another version of any of these is
# solved again (_solution_digest); the evaluators are not among them
_SOLVER_CODE = (_unique_rows, PanelSet.__init__, PanelSet.n.fget, PanelSet.merge_keys,
                PanelSet.corner_groups.fget, _CornerGroup.__init__, _ln_sum,
                _field_terms, _potential_terms, _executor, _thread_scratch,
                _release_scratch, _evaluate, _blocks, potential_matrix,
                _MirrorGroup.__init__, _MirrorGroup._signs, _MirrorGroup.solve,
                _MirrorGroup._block, _MirrorGroup.potential, SolvedTrap.__init__,
                _kernel_diagnostics, solve_unit_excitations)
# and the constants they read
_SOLVER_CONSTANTS = (_TINY, _MERGE_REL, COND_LIMIT, COND_DIGITS, RESIDUAL_LIMIT,
                     _MIRROR_SIGNS.tolist())


def _cache_path(cache_dir, signature):
    return os.path.join(cache_dir, f"{signature}.itsc")


def _code_lines(code):
    """The line numbers of code and of the code nested in it."""
    lines = [code.co_firstlineno] + [n for *_, n in code.co_lines() if n is not None]
    for c in code.co_consts:
        if isinstance(c, types.CodeType):
            lines += _code_lines(c)
    return lines


@functools.cache
def _solver_source():
    """The source of _SOLVER_CODE, each function from its def to the last
    line of its body, and the repr of _SOLVER_CONSTANTS. Cut from the file
    by line numbers: inspect.getsource tokenizes each function, 20 ms."""
    with open(__file__, encoding="utf-8") as f:
        text = f.readlines()
    parts = []
    for fn in _SOLVER_CODE:
        lines = _code_lines(fn.__code__)
        parts.append("".join(text[min(lines) - 1:max(lines)]))
    return "\n".join(parts + [repr(_SOLVER_CONSTANTS)]).encode()


def _solution_digest(pset: PanelSet) -> str:
    """SHA-256 of what a solution depends on besides the geometry signature:
    the panel arrays and the source of the code in _SOLVER_CODE."""
    h = hashlib.sha256(_solver_source())
    for a in (pset.origins, pset.edge_u, pset.edge_v, pset.electrode_idx):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _cache_save(cache_dir, solved: SolvedTrap, digest: str):
    os.makedirs(cache_dir, exist_ok=True)
    payload = (np.ascontiguousarray(solved.sigma.T, dtype="<f8").tobytes()
               + np.ascontiguousarray(solved.pset.group.perms, dtype="<i4").tobytes())
    header = json.dumps({
        "signature": solved.geometry.signature(),
        "electrodes": solved.geometry.electrode_names,
        "n_panels": solved.pset.n,
        "cond_estimate": solved.cond_estimate,
        "mirror_group": solved.diagnostics["mirror_group"],
        "block_sizes": solved.diagnostics["block_sizes"],
        "residuals": solved.residuals.tolist(),
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
            head = f.read(12)
            if len(head) != 12:
                raise ValueError("truncated header")
            version, hlen = struct.unpack("<IQ", head)
            if version != _CACHE_VERSION:
                return None  # written in another format
            header = json.loads(f.read(hlen))
            payload = f.read()
        if not isinstance(header, dict):
            raise ValueError("header is not a JSON object")
        for key, kind in (("electrodes", list), ("mirror_group", list), ("block_sizes", list),
                          ("residuals", list), ("n_panels", int), ("cond_estimate", float)):
            value = header[key]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"header {key!r} is not of type {kind.__name__}")
        if not math.isfinite(header["cond_estimate"]):
            raise ValueError("header 'cond_estimate' is not finite")
        if header["signature"] != geometry.signature():
            raise ValueError("signature mismatch")
        if header.get("digest") != digest:
            return None  # solved from other panels or by another solver
        if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
            raise ValueError("payload checksum mismatch")
        if header["n_panels"] != pset.n:
            raise ValueError("panel count mismatch")
        k = len(header["electrodes"])
        elements = [0] + [_MIRROR_NAMES.index(e) for e in header["mirror_group"]]
        if len(payload) != pset.n * (8 * k + 4 * len(elements)):
            raise ValueError("payload size mismatch")
        sigma = np.frombuffer(payload, dtype="<f8", count=k * pset.n)
        sigma = sigma.reshape(k, pset.n).T.copy()
        perms = np.frombuffer(payload, dtype="<i4", offset=8 * k * pset.n)
        pset.group = _MirrorGroup(pset, (elements, perms.reshape(-1, pset.n).astype(np.intp)))
        residuals = np.array(header["residuals"], dtype=float)
        diagnostics = {"cache": "hit", "mirror_group": header["mirror_group"],
                       "block_sizes": header["block_sizes"], **_kernel_diagnostics()}
        return SolvedTrap(geometry, pset, sigma, residuals,
                          header["cond_estimate"], diagnostics)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        warnings.warn(f"ignoring corrupt solver cache {path}: {exc}")
        return None
