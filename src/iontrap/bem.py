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

Every PanelSet has a mirror group (PanelSet.group): the elements of
{identity, x -> -x, z -> -z, both} that map its panels onto themselves, the
identity until the solve finds the group or a cache load brings it back. For
such a group G, with one rep panel r per orbit, stab_r the order of its
stabilizer and S_g the sign g gives an output (the product of two for a
Jacobian entry),

    sum_j sigma_j K(p, j) = sum_g S_g sum_r (sigma[g.r] / stab_r) K(g.p, r)

(Bossavit, CMAME 56, 167 (1986); Allgower et al., SIAM J. Numer. Anal. 29,
534 (1992)), for any sigma. Every evaluation runs through it. The points are
mapped to their |G| images, and images with the same float bits (-0.0 taken
as 0.0) are evaluated once, against the corner table of the rep panels only
(about n / |G| panels), with one weight column per distinct sigma[images[g]]
/ stab. Each point then sums S_g times the value of its image g.p in the
column of g, in a butterfly over the mirrors (_MirrorGroup.sum_images, the
only sum over mirror images, the solve's residual check included). The images
of a point on a mirror plane coincide, and a point shares its images with its
mirror image, so a point on a plane, or a map symmetric about one, costs a
fraction of the kernel work. The trivial group has every panel for a rep: its
table is the PanelSet's own, its weights are sigma and each point is its only
image. ChargeWeights, the one field object, folds a sigma into its weight
columns once and counts the points, distinct images and rep corners of its
evaluations.

The kernel computes only the terms whose outputs can be nonzero, for each
block of images and each corner group. (a) When every image of the block
lies in the group's plane, the normal term is skipped: the field's sign(z)
atan(uv / (|z| r)), the potential's z atan and the Jacobian's z a and z b.
The surface trap's collocation rows all lie in their panels' plane, so its
assembly computes no atan. (b) When every image of the block has coordinate
a = 0.0, and the mirror of a is in the group and keeps the charge
(ChargeWeights.kept_axes), the outputs that mirror negates are left at 0.0,
which sum_images gives them anyway: a field term along a frame row that
lies along a, and a Jacobian entry with exactly one index on such a row, is
not computed, nor is an intermediate that feeds only them. On z = 0 (the
map and the depth grid) the field needs one of its two ln terms, and on
x = z = 0 (the null search of a charge that keeps both mirrors) neither.
A block takes a rule only when all its images qualify, and each term
computed takes the same operations as without the skip, so every value
keeps its bits. On a 2-vCPU host the 5454-point map of the benchmark took
110-113 ms in pseudo_map against 137-151 ms with every term computed
(medians of 15 calls).

The blocks run on a pool of _WORKERS threads, one per CPU in this process's
affinity mask (os.sched_getaffinity; the BLAS thread variables do not set
it; a child of `iontrap sweep --jobs N` takes 1/N of them), since numpy
releases the interpreter lock inside the ufuncs that dominate a block. A call of one block, or on one CPU, runs inline. Each
thread computes its blocks in _SCRATCH arrays of about _BLOCK_PAIRS doubles
(0.4 MB each) that it keeps from call to call and grows when a call needs
more, potential_matrix's panel gathers included, so the
kernel's working set is workers x 4 MB: small beside SOLVE_MEMORY_BUDGET,
which bounds the solver's kernel rows and symmetry blocks. A solve drops the
scratch before it assembles and again before it factors.

Collocation at panel centers with one row per center and one column per panel
gives the system A sigma = V, solved for the unit excitations (1 V on one
electrode, 0 V elsewhere) of every electrode at once. The solver finds which
of the mirrors map every panel's corners onto the corners of a panel (all
three built-in meshes: the whole group) and splits the system by the
characters of that group. By the identity above, A[rep_i, g.rep_j] =
K(g.c_i, rep_j) for the rep centres c_i: one potential_matrix call at the
distinct images of the rep centres against the rep panels gives Q, about
n x n/|G|, and block c in the orthonormal symmetry basis is the signed row sum
M_c[i, j] = sum_g chi_c(g) Q[g.c_i, j] / sqrt(stab_i stab_j) over the orbits
it keeps. Each block that an excitation reaches (its projected right-hand
side is not exactly zero) is factored by LU; the solution of any other block
is exactly zero. On the three built-in meshes every electrode is symmetric
about z = 0, so their two z-odd blocks are never factored. The block
solutions are expanded back to sigma; the residual check sums A sigma on
every collocation point from Q with the evaluators' weight columns and
mirror sum. A geometry without symmetry is the trivial group: one block, the
dense matrix. The solve holds Q and the rows of at most two blocks at once,
the bytes SOLVE_MEMORY_BUDGET is checked against, besides its
n x n_electrodes right-hand sides and 64-column slices of a block.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading
import time
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
        """Integer keys of coordinates x (meters) at the merge tolerance;
        InvalidGeometryError for a key that is not finite or exceeds int64."""
        with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
            keys = np.round(x / (_MERGE_REL * float(np.median(self.a))))
        if not (np.abs(keys) < 2.0**63).all():  # NaN fails too
            raise InvalidGeometryError(f"a coordinate of {np.abs(x).max():.3g} m is "
                                       f"out of range for the merge keys")
        return keys.astype(np.int64)

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
    (u1, v2), (u2, v1), (u1, v1) with the signs +, -, -, +. axes[k] is the
    coordinate (0, 1, 2) that frame row k lies along, -1 if it has more than
    one nonzero component."""

    def __init__(self, pset: PanelSet, panels, frames, on):
        self.panels = panels
        self.frame = frames[panels[0]]
        self.offset = on[panels[0]]
        o, eu, ev = pset.origins[panels], pset.edge_u[panels], pset.edge_v[panels]
        uv = (np.stack([o + eu + ev, o + ev, o + eu, o]) @ self.frame[:2].T).reshape(-1, 2)
        keep, idx = _unique_rows(pset.merge_keys(uv))
        self.cu, self.cv = uv[keep].T
        self.idx = idx.reshape(4, -1)
        self.axes = [int(np.flatnonzero(f)[0]) if np.count_nonzero(f) == 1 else -1
                     for f in self.frame]

    def fold(self, sigma):
        """Corner weights w = C sigma of this group's panels, (corners[, k])."""
        s = sigma[self.panels]
        w = np.zeros((self.cu.size,) + s.shape[1:])
        for sign, i in zip((1.0, -1.0, -1.0, 1.0), self.idx):
            np.add.at(w, i, sign * s)
        return w


class ChargeWeights:
    """Charge densities sigma (n[, k]) of a PanelSet folded into the corner
    weights of its mirror group's rep table, on first use: the one field
    object. potential, field and jacobian evaluate it; pass it for sigma to
    the module's evaluators to evaluate one sigma many times.

    Element g of pset.group weighs rep r by sigma[images[g, r]] / stab_r;
    columns holds the distinct weight columns, bit for bit, and column[g]
    the one of element g (a single column when every mirror keeps sigma).
    evaluations counts the points evaluated, their distinct images and the
    corners of the rep table each image reads.
    """

    def __init__(self, pset: PanelSet, sigma):
        self.pset = pset
        self.sigma = np.asarray(sigma, float)
        group = pset.group
        w = self.sigma.reshape(pset.n, -1)[group.images] / group.stab[:, None]
        keys = [x.tobytes() for x in w]
        first = {}
        self.column = [first.setdefault(key, len(first)) for key in keys]
        self.columns = w[[keys.index(key) for key in first]]
        self.evaluations = {"points": 0, "images": 0, "corners": 0}
        self._weights = None

    # the module's evaluators are looked up at each call, so a wrapper put
    # on them (a tracer, say) sees these calls too
    def potential(self, points):
        return potential_of(self.pset, self, points)

    def field(self, points):
        return field_of(self.pset, self, points)

    def jacobian(self, points):
        return jacobian_of(self.pset, self, points)

    @property
    def image_axes(self):
        """The coordinates (0 for x, 2 for z) whose mirror e is in pset.group:
        a point and its mirror image under e have the same images, so a call
        that evaluates both costs the kernel work of one."""
        return [ax for e, ax in _MIRROR_AXES if e in self.pset.group.elements]

    @property
    def kept_axes(self):
        """The image_axes whose mirror e also keeps the charge, column[g] ==
        column[g.e] for every element g: on its plane the mirror sum gives
        every output that e negates as exactly 0.0."""
        at = dict(zip(self.pset.group.elements.tolist(), self.column))
        return [ax for e, ax in _MIRROR_AXES
                if e in at and all(at[g] == at[g ^ e] for g in at)]

    def stacked(self):
        """The weight columns side by side, (reps, columns x k)."""
        return np.moveaxis(self.columns, 0, 1).reshape(self.columns.shape[1], -1)

    def weights(self):
        """The corner weights (corners, columns x k) of each corner group of
        the rep table of pset.group."""
        if self._weights is None:
            w = self.stacked()
            self._weights = [g.fold(w) for g in self.pset.group.table(self.pset).corner_groups]
        return self._weights


# The kernel writes every (block points x group corners) array into scratch
# arrays that each thread allocates once and reuses for all of its blocks,
# call after call (_thread_scratch). The first two hold u and v;
# terms(u, v, z, s, mask, normal, odd) leaves its k terms in s[:k] and uses
# s[k:] as scratch. Blocks that allocated their temporaries instead would
# have the allocator hand the pages back to the system after each block and
# fault them in again for the next.
#
# A term that can only add zeros is skipped and given as None (_evaluate
# says when): with normal False every z is 0.0 and each term with a factor
# z, or sign(z), is zero; odd holds the frame rows (0 u, 1 v, 2 n) along
# which the mirror sum cancels every output, so a field term along such a
# row, and a Jacobian entry with exactly one index on one, is not needed.
# Each term that is computed takes the same operations, and the same bits,
# as with nothing skipped.
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


def _field_terms(u, v, z, s, mask, normal, odd):
    """ln(v + r), ln(u + r) and sign(z) atan(u v / (|z| r)) of each corner,
    the terms along the frame rows u, v and n."""
    lv, lu, at, du, dv, r = s[:6]
    z2 = z * z
    np.multiply(u, u, out=du)
    if normal:
        du += z2
    np.multiply(v, v, out=r)
    r += du
    np.sqrt(r, out=r)
    if normal and 2 not in odd:
        np.multiply(u, v, out=at)
        np.multiply(np.abs(z), r, out=lu)
        np.arctan2(at, lu, out=at)
        at *= np.sign(z)
    if 1 not in odd:
        np.multiply(v, v, out=dv)
        if normal:
            dv += z2
        _ln_sum(u, r, dv, lu, mask)
    if 0 not in odd:
        _ln_sum(v, r, du, lv, mask)
    return (None if 0 in odd else lv, None if 1 in odd else lu,
            at if normal and 2 not in odd else None)


def _potential_terms(u, v, z, s, mask, normal, odd):
    """u ln(v + r) + v ln(u + r) - z atan(u v / (z r)) of each corner; the
    potential is even under every mirror, so odd skips nothing."""
    lv, lu, at = _field_terms(u, v, z, s, mask, normal, ())
    lv *= u
    lu *= v
    lv += lu
    if normal:
        at *= z
        lv -= at
    return (lv,)


def _jacobian_terms(u, v, z, s, mask, normal, odd):
    """jxx, jxy, jxz, jyy, jyz, jzz of each corner: u a, 1/r, z a, v b, z b
    and u v (r^2 + z^2) / (r du dv), with a = (r - v) / (r du),
    b = (r - u) / (r dv), du = u^2 + z^2, dv = v^2 + z^2 and r, du and dv
    at least _TINY."""
    jxx, r, a, jyy, b, jzz, du, dv = s[:8]
    z2 = z * z
    np.multiply(u, u, out=r)
    np.multiply(v, v, out=du)
    r += du
    if normal:
        r += z2
    np.sqrt(r, out=r)
    np.maximum(r, _TINY, out=r)
    np.multiply(u, u, out=du)
    if normal:
        du += z2
    np.maximum(du, _TINY, out=du)
    np.multiply(v, v, out=dv)
    if normal:
        dv += z2
    np.maximum(dv, _TINY, out=dv)
    np.multiply(u, v, out=jzz)
    np.multiply(r, r, out=jxx)
    if normal:
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
    np.multiply(v, b, out=jyy)
    jxy = jxz = jyz = None
    if normal and not {0, 2} & odd:
        jxz = np.multiply(a, z, out=a)
    if normal and not {1, 2} & odd:
        jyz = np.multiply(b, z, out=b)
    if not {0, 1} & odd:
        jxy = np.divide(1.0, r, out=r)
    return jxx, jxy, jxz, jyy, jyz, jzz


# Jacobian sums -> symmetric dE_a/dx_b in the frame (uhat, vhat, nhat)
_JAC_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_JAC_SIGN = np.array([[-1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])


def _weighted_sums(t, w, tmp, out=None):
    """out[i, j] = sum_c t[i, c] w[c, j] of every row i and column j of the
    2-D w, into a new (rows, columns) array without out; tmp is 1-D scratch
    of at least t.size.

    Each row is reduced along its own contiguous corner axis, so a point's
    value does not depend on which other points share its block.
    """
    tmp = tmp[:t.size].reshape(t.shape)
    out = np.empty((t.shape[0], w.shape[1])) if out is None else out
    for j, wj in enumerate(w.T):
        np.multiply(t, wj, out=tmp).sum(axis=1, out=out[:, j])
    return out


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


def _evaluate(pset: PanelSet, points, w, terms, emit, shape, axes=()):
    """The blocked loop behind the public evaluators, out (m,) + shape: the
    points against pset's corner table, scaled by 1/(4 pi eps0) at the end.

    For every block of points and corner group, terms(u, v, z, s, mask,
    normal, odd) gives the corner terms, each (block points, group corners)
    or None for a term skipped, and emit(out[rows], group, wg, terms, s)
    adds their part, wg the group's entry of w (None for all without
    weights) and s the 1-D scratch arrays the terms left free, each large
    enough for (block points x group corners) or (block points x group
    panels). normal is False when every point of the block lies in the
    group's plane. axes are coordinates whose mirror sums the outputs
    (ChargeWeights.kept_axes): when every point of the block has coordinate
    a = 0.0 for an a in axes, odd holds the frame rows along a, and the
    outputs they feed are left at 0.0, which the mirror sum gives them
    anyway.

    The blocks are dealt round-robin to one task per worker of the kernel
    pool, at most one per block; a call of one block, or on one CPU, runs
    inline. A block writes only its own rows of out, so the result does not
    depend on the schedule.
    """
    p = np.atleast_2d(np.asarray(points, float))
    out = np.zeros((p.shape[0],) + tuple(shape))
    groups = pset.corner_groups
    w = [None] * len(groups) if w is None else w
    step = max(8, _BLOCK_PAIRS // sum(g.cu.size for g in groups))
    starts = range(0, p.shape[0], step)
    tasks = min(_WORKERS, len(starts))
    size = min(step, p.shape[0]) * max(max(g.cu.size, g.panels.size) for g in groups)

    def task(first):
        flat, flat_mask = _thread_scratch(size)
        for i0 in starts[first::tasks]:
            rows = p[i0:i0 + step]
            zero = {a for a in axes if not rows[:, a].any()}
            for g, wg in zip(groups, w):
                n = rows.shape[0] * g.cu.size
                u, v, *s = (f[:n].reshape(rows.shape[0], -1) for f in flat)
                mask = flat_mask[:n].reshape(u.shape)
                x, y, z = ((rows * f).sum(axis=1)[:, None] for f in g.frame)
                z -= g.offset
                np.subtract(g.cu, x, out=u)
                np.subtract(g.cv, y, out=v)
                odd = {k for k, a in enumerate(g.axes) if a in zero}
                t = terms(u, v, z, s, mask, bool(z.any()), odd)
                emit(out[i0:i0 + step], g, wg, t, flat[2 + len(t):])

    for _ in (map if tasks <= 1 else _executor().map)(task, range(tasks)):
        pass
    out *= 1.0 / (4.0 * np.pi * constants.EPS0)
    return out


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
    return _evaluate(pset, points, None, _potential_terms, emit, (pset.n,))


def _quotient(pset: PanelSet, charge: ChargeWeights, points, sign, terms, emit, shape):
    """sum_j sigma_j K(p, j) of each point p by the group identity, (m,) +
    shape: the distinct images g.p of the points are evaluated once against
    the rep table, one output per weight column of the charge, and
    group.sum_images adds them up."""
    group, p = pset.group, np.atleast_2d(np.asarray(points, float))
    images, index = group.images_of(p)
    table = group.table(pset)
    values = _evaluate(table, images, charge.weights(), terms, emit,
                       (len(charge.columns),) + tuple(shape), charge.kept_axes)
    seen = charge.evaluations
    seen["points"] += p.shape[0]
    seen["images"] += images.shape[0]
    seen["corners"] = sum(g.cu.size for g in table.corner_groups)
    return group.sum_images(values, index, charge.column, sign)


def _charge(pset, sigma) -> ChargeWeights:
    if not isinstance(sigma, ChargeWeights):
        return ChargeWeights(pset, sigma)
    if sigma.pset is not pset:
        raise ValueError("charge weights of another panel set")
    return sigma


def potential_of(pset: PanelSet, sigma, points):
    """Potential of the densities sigma (n[, k]) or ChargeWeights, (m[, k])."""
    def emit(dst, g, w, terms, s):
        dst += _weighted_sums(terms[0], w, s[0]).reshape(dst.shape)
    charge = _charge(pset, sigma)
    return _quotient(pset, charge, points, lambda s: 1.0, _potential_terms, emit,
                     charge.sigma.shape[1:])


def field_of(pset: PanelSet, sigma, points):
    """Field of the densities sigma (n,) or ChargeWeights, (m, 3)."""
    def emit(dst, g, w, terms, s):
        for t, f in zip(terms, g.frame):
            if t is not None:
                dst += _weighted_sums(t, w, s[0])[:, :, None] * f
    return _quotient(pset, _charge(pset, sigma), points, lambda s: s, _field_terms, emit,
                     (3,))


def jacobian_of(pset: PanelSet, sigma, points):
    """dE_i/dx_j of the superposed field, (m, 3, 3); trace is zero (Laplace)."""
    def emit(dst, g, w, terms, s):
        sums = np.zeros(dst.shape[:2] + (len(terms),))
        for k, t in enumerate(terms):
            if t is not None:
                _weighted_sums(t, w, s[0], sums[:, :, k])
        dst += g.frame.T @ (sums[..., _JAC_INDEX] * _JAC_SIGN) @ g.frame
    return _quotient(pset, _charge(pset, sigma), points, lambda s: s[:, None] * s,
                     _jacobian_terms, emit, (3, 3))


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
    entry, instead of detecting it.
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
        self.reps = np.flatnonzero(self.perms.min(axis=0) == np.arange(n))
        self.images = self.perms[:, self.reps]
        fixed = self.images == self.reps
        self.stab = fixed.sum(axis=0)
        # rows (+, +), (+, -), (-, +), (-, -) of the x and z mirror signs
        flips = np.bitwise_and.outer([0, 2, 1, 3], self.elements)
        table = 1 - 2 * ((flips ^ (flips >> 1)) & 1)
        chars = table[np.sort(_unique_rows(table)[0])]
        keep = [np.flatnonzero(~(fixed & (c[:, None] < 0)).any(axis=0)) for c in chars]
        self.chars = np.array([c for c, k in zip(chars, keep) if k.size])
        self.keep = [k for k in keep if k.size]
        self.block_sizes = [int(k.size) for k in self.keep]
        # Q, at most |G| rows per rep, and the rows of the block being summed
        # and of the term being added to it or of the block's kept columns;
        # the trivial group gathers one block and adds no term
        blocks = 2 if len(self.elements) > 1 else 1
        self.solve_bytes = 8 * (len(self.elements) * self.reps.size ** 2
                                + blocks * max(self.block_sizes) ** 2)
        self._table = None

    def images_of(self, points):
        """The distinct images g.p of the (m, 3) points under the elements,
        by their float bits once -0.0 is taken as 0.0, and index[g, i], the
        row of g.p_i among them."""
        p = np.atleast_2d(points) * _MIRROR_SIGNS[self.elements][:, None] + 0.0
        first, inverse = _unique_rows(p.reshape(-1, 3).view(np.int64))
        return p.reshape(-1, 3)[first], inverse.reshape(len(self.elements), -1)

    def sum_images(self, values, index, column, sign):
        """sum_g sign(_MIRROR_SIGNS[g]) values[index[g, i], column[g]] of each
        point i, index from images_of and column from ChargeWeights. A
        butterfly: the terms of g and g.b are added for the lowest element b
        besides the identity, then the pair sums likewise, so a point gets
        the same bits in any batch, and its mirror image under mirrors that
        keep sigma its value with their signs."""
        sums = {e: values[i, c] * sign(_MIRROR_SIGNS[e])
                for e, i, c in zip(self.elements.tolist(), index, column)}
        while len(sums) > 1:
            b = sorted(sums)[1]
            sums = {e: sums[e] + sums[e ^ b] for e in sums if e < e ^ b}
        return sums[0]

    def table(self, pset: PanelSet) -> PanelSet:
        """The rep panels as a PanelSet of their own, in the order of reps,
        built on first use; pset itself when every panel is a rep. pset is
        passed, not kept: a group that held its panel set would make a
        reference cycle."""
        if self.reps.size == pset.n:
            return pset
        if self._table is None:
            r = self.reps
            self._table = PanelSet(pset.origins[r], pset.edge_u[r], pset.edge_v[r],
                                   pset.electrode_idx[r])
        return self._table

    def solve(self, Q, index, B):
        """(sigma, cond, factored): sigma of A sigma = B from Q, the kernel
        of the distinct images of the rep centres against the rep panels
        (index[g, i] the row of g.c_i), the 1-norm condition estimate of the
        factored blocks (NaN on failure) and the blocks factored, indices
        into keep.

        A[rep_i, g.rep_r] = K(g.c_i, rep_r), so block c is the signed sum of
        the rows index[g, keep[c]] of Q, in C order: M_c.T is in Fortran
        order, and LU factors it in place and solves the transpose. Block c
        solves M_c y = sqrt(|G| / stab_i) b_i for the projected right-hand
        side b_i = sum_g chars[c, g] B[g.rep_i] / |G|; then
        x_c[r] = sqrt(stab_r / |G|) y_r and sigma[g.r] = sum_c chars[c, g] x_c[r].
        A block whose b is exactly zero for every column has x_c = 0 and is
        neither summed nor factored.
        """
        # here, not at the top: a cache hit, a report or a map never loads it
        import scipy.linalg as sla

        order = self.perms.shape[0]
        Bc = np.einsum("cg,gmk->cmk", self.chars, B[self.images])
        X = np.zeros_like(Bc)
        anorm = ainv = 0.0
        factored = []
        for c, k in enumerate(self.keep):
            if not Bc[c, k].any():
                continue  # no excitation reaches the block: x_c stays 0
            M, term = np.take(Q, index[0, k], axis=0), None
            for chi, rows in zip(self.chars[c, 1:], index[1:, k]):
                term = np.take(Q, rows, axis=0, out=term, mode="clip")
                (np.add if chi > 0 else np.subtract)(M, term, out=M)
            del term
            if k.size < M.shape[1]:
                M = np.take(M, k, axis=1)
            s = np.sqrt(self.stab[k])
            # only the orbits with a stabilizer: division by 1.0 is exact
            big = np.flatnonzero(self.stab[k] > 1)
            M[big] /= s[big, None]
            M[:, big] /= s[big]
            # the 1-norm from column sums of a few columns at a time, not
            # from a block-sized |M|
            mnorm = max(float(np.abs(M[:, j:j + 64]).sum(axis=0).max())
                        for j in range(0, M.shape[1], 64))
            lu, piv = sla.lu_factor(M.T, overwrite_a=True, check_finite=False)
            # the infinity norm of M.T is the 1-norm of M
            rcond, info = sla.lapack.dgecon(lu, mnorm, norm="I")
            if info != 0 or not np.isfinite(rcond) or rcond == 0.0:
                return None, math.nan, factored
            anorm, ainv = max(anorm, mnorm), max(ainv, 1.0 / (rcond * mnorm))
            y = sla.lu_solve((lu, piv), Bc[c, k] / (s[:, None] * math.sqrt(order)),
                             trans=1, check_finite=False)
            X[c, k] = y * s[:, None] / math.sqrt(order)
            factored.append(c)
            del M, lu  # before the next block is summed
        S = np.empty_like(B)
        S[self.images] = np.einsum("cg,cmk->gmk", self.chars, X)
        return S, anorm * ainv, factored


class SolvedTrap:
    """All unit excitations of a geometry; charge_weights evaluates them.

    sigma[:, j] is the charge density (n_panels,) for 1 V on electrode j of
    geometry.electrode_names, all others grounded, and residuals[j] its
    largest boundary residual in volts.

    diagnostics records how the solve ran: cache ("hit", "miss", or "off"
    without a cache directory), mirror_group (the symmetries found besides
    the identity), block_sizes, factored_blocks (the indices into
    block_sizes of the blocks an excitation reaches, the only ones factored
    and the only ones cond_estimate covers), how this process evaluates the
    kernel (kernel_workers threads, kernel_block_pairs pairs per block) and, when
    solved here rather than loaded, the seconds of symmetry_s (mirror group
    detection), assembly_s (rep table and kernel rows), factor_s (blocks,
    LU, condition estimate and solve) and residual_s.

    pset.group is the mirror group of the solve, found here or read from
    the cache; every evaluation runs through it.
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

    def rf_voltages(self) -> dict[str, float]:
        return {n: 1.0 for n in self.geometry.electrodes_with_role("rf")}

    def charge_weights(self, voltages: dict[str, float] | None = None) -> ChargeWeights:
        """The field object of the voltage pattern {electrode: volts}, by
        default 1 V on every rf electrode."""
        if voltages is None:
            voltages = self.rf_voltages()
        return ChargeWeights(self.pset, self.sigma_for(voltages))

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
    panel arrays, bem.py or constants.py differ is solved again and
    overwritten.
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

    # loaded before the first timer, so factor_s times no import
    import scipy.linalg  # noqa: F401

    t0 = time.perf_counter()
    group = pset.group = _MirrorGroup(pset)
    t_group = time.perf_counter()
    if group.solve_bytes > SOLVE_MEMORY_BUDGET:
        raise SolverError(
            f"solving {geometry.design!r} ({pset.n} panels, blocks "
            f"{group.block_sizes}) needs {group.solve_bytes / 1e6:.3g} MB, more "
            f"than the {SOLVE_MEMORY_BUDGET / 1e6:.3g} MB budget; coarsen the mesh")
    points, index = group.images_of(pset.centers[group.reps])
    Q = potential_matrix(group.table(pset), points)
    _release_scratch()  # the assembly's, not held through the factorization
    t1 = time.perf_counter()

    names = geometry.electrode_names
    B = (pset.electrode_idx[:, None] == np.arange(len(names))).astype(float)
    S, cond, factored = group.solve(Q, index, B)
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

    # every collocation point must sit on its prescribed voltage, by the
    # evaluators' weight columns and mirror sum; an image's images are the
    # rows of Q. W.T Q.T: BLAS packs a copy of Q for Q @ W, 11 MiB on surface
    charge = ChargeWeights(pset, S)
    values = (charge.stacked().T @ Q.T).T.reshape(len(points), len(charge.columns), -1)
    phi = group.sum_images(values, group.images_of(points)[1], charge.column, lambda s: 1.0)
    residuals = np.abs(phi[index] - B[group.images]).max(axis=(0, 1))
    for name, res in zip(names, residuals):
        if not res <= RESIDUAL_LIMIT:  # a NaN residual fails too
            raise SolverError(
                f"boundary residual {res:.3e} V exceeds {RESIDUAL_LIMIT:.0e} V "
                f"for electrode {name!r} of {geometry.design!r}")

    diagnostics = {"cache": "miss" if cache_dir else "off",
                   "mirror_group": group.names, "block_sizes": group.block_sizes,
                   "factored_blocks": factored, **_kernel_diagnostics(),
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
#                 cond_estimate, mirror_group, block_sizes, factored_blocks,
#                 residuals, payload sha256 and the solution digest
#                 (_solution_digest)
#   remainder    the payload: sigma.T as '<f8', the n_panels charge densities
#                 of each electrode's unit excitation, electrodes in header
#                 order; then the mirror group's perms as '<i4', one row of
#                 n_panels per element, the identity and then mirror_group
#                 order
# An entry of another format version is a miss, solved again and overwritten.

def _cache_path(cache_dir, signature):
    return os.path.join(cache_dir, f"{signature}.itsc")


def _solution_digest(pset: PanelSet) -> str:
    """SHA-256 of what a solution depends on besides the geometry signature:
    the bytes of this module and of constants.py (the code a solve runs and
    the constants it reads) and the panel arrays."""
    h = hashlib.sha256()
    for path in (__file__, constants.__file__):
        with open(path, "rb") as f:
            h.update(f.read())
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
        "factored_blocks": solved.diagnostics["factored_blocks"],
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
        if header.get("digest") != digest:
            # solved from other panels or by another solver, whose header
            # may lack a field this one reads
            return None
        for key, kind in (("electrodes", list), ("mirror_group", list), ("block_sizes", list),
                          ("factored_blocks", list), ("residuals", list), ("n_panels", int),
                          ("cond_estimate", float)):
            value = header[key]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"header {key!r} is not of type {kind.__name__}")
        if not math.isfinite(header["cond_estimate"]):
            raise ValueError("header 'cond_estimate' is not finite")
        if header["signature"] != geometry.signature():
            raise ValueError("signature mismatch")
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
                       "block_sizes": header["block_sizes"],
                       "factored_blocks": header["factored_blocks"], **_kernel_diagnostics()}
        return SolvedTrap(geometry, pset, sigma, residuals,
                          header["cond_estimate"], diagnostics)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        warnings.warn(f"ignoring corrupt solver cache {path}: {exc}")
        return None
