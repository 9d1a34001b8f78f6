"""Ponderomotive (pseudo)potential of the rf field.

For an ion of charge e and mass m in a field of amplitude E(r) oscillating at
Omega_rf, the cycle-averaged energy landscape is

    psi(r) = e^2 |E(r)|^2 / (4 m Omega_rf^2)   [J]

reported in meV at the interfaces (divide by e, times 1e3: numerically the
common "e |E|^2 / 4 m Omega^2 in eV" form). The gradient uses the analytic
field Jacobian J = dE/dr via grad psi = (e^2 V^2 / 2 m Omega^2) J^T E; the
Hessian adds second field derivatives obtained by central-differencing J with
a small step (default 0.1 um).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bem
from .constants import CA40, IonSpecies
from .errors import InvalidInputError


@dataclass(frozen=True)
class DriveParams:
    """rf drive: amplitude in volts, angular frequency in rad/s."""

    voltage: float
    omega_rf: float

    def __post_init__(self):
        # zero amplitude is a valid (trivially flat) drive for field maps
        if not (self.voltage >= 0.0):
            raise ValueError(f"voltage must be >= 0, got {self.voltage}")
        if not (self.omega_rf > 0.0):
            raise ValueError(f"omega_rf must be > 0, got {self.omega_rf}")

    @classmethod
    def from_mhz(cls, voltage_V: float, freq_MHz: float) -> "DriveParams":
        return cls(voltage=voltage_V, omega_rf=2.0 * math.pi * freq_MHz * 1e6)

    @property
    def freq_MHz(self) -> float:
        return self.omega_rf / (2.0 * math.pi * 1e6)


# default drive used for the solved field maps and figures of merit
DEFAULT_VOLTAGE_V = 10.0
DEFAULT_FREQ_MHZ = 20.0
DEFAULT_DRIVE = DriveParams.from_mhz(DEFAULT_VOLTAGE_V, DEFAULT_FREQ_MHZ)

HESSIAN_STEP_M = 1e-7   # central-difference step of the Jacobian in hessian


class QuadrupoleField:
    """Ideal linear quadrupole, unit amplitude: phi = (kx x^2 + ky y^2 + kz z^2)/(2 r0^2).

    Coefficients must sum to zero (Laplace). Used as an analytic reference.
    """

    def __init__(self, kx: float, ky: float, r0: float, kz: float = 0.0,
                 center=(0.0, 0.0, 0.0)):
        if abs(kx + ky + kz) > 1e-12 * max(1.0, abs(kx), abs(ky), abs(kz)):
            raise ValueError("quadrupole coefficients must sum to zero")
        self.k = np.array([kx, ky, kz], float)
        self.r0 = float(r0)
        self.center = np.asarray(center, float)

    def potential(self, points):
        d = np.atleast_2d(points) - self.center
        return 0.5 * (d * d) @ self.k / self.r0**2

    def field(self, points):
        d = np.atleast_2d(points) - self.center
        return -d * self.k / self.r0**2

    def jacobian(self, points):
        m = np.atleast_2d(points).shape[0]
        return np.broadcast_to(np.diag(-self.k / self.r0**2), (m, 3, 3)).copy()


class PseudoField:
    """psi, grad psi and Hessian of the pseudopotential for one drive/ion."""

    def __init__(self, rf_field, species: IonSpecies = CA40,
                 drive: DriveParams = DEFAULT_DRIVE):
        self.rf_field = rf_field
        self.species = species
        self.drive = drive
        q, m = species.charge, species.mass
        # psi = coef * |E_unit|^2 with E_unit the 1 V field
        try:
            self.coef = (q * drive.voltage) ** 2 / (4.0 * m * drive.omega_rf**2)
        except (OverflowError, ZeroDivisionError):  # Python's float ** and / raise
            self.coef = math.inf
        if not math.isfinite(self.coef):
            raise InvalidInputError(
                f"the pseudopotential of {drive.voltage:g} V at {drive.freq_MHz:g} MHz "
                f"on {species.name} is out of floating-point range")

    def psi(self, points) -> np.ndarray:
        """Pseudopotential energy in J."""
        E = self.rf_field.field(points)
        return self.coef * np.einsum("mi,mi->m", E, E)

    def psi_meV(self, points) -> np.ndarray:
        from .constants import ECHARGE
        return self.psi(points) / ECHARGE * 1e3

    def grad(self, points) -> np.ndarray:
        """d psi / dr in J/m, from the analytic field Jacobian."""
        return self._grad(self.rf_field.field(points), self.rf_field.jacobian(points))

    def _grad(self, E, J) -> np.ndarray:
        """2 c J^T E of each point, the gradient of psi = c |E|^2."""
        return 2.0 * self.coef * np.einsum("mij,mi->mj", J, E)

    def hessian(self, points) -> np.ndarray:
        """d^2 psi / dr^2 in J/m^2 (see grad_hessian)."""
        return self.grad_hessian(points)[1]

    def grad_hessian(self, points) -> tuple[np.ndarray, np.ndarray]:
        """grad psi (J/m) and its Hessian (J/m^2), from one field call at the
        points and one Jacobian call at the points and their six stencil
        points; grad is that of grad(), bit for bit.

        H = 2 c (J^T J + sum_i E_i K_i); the second field derivatives K are
        central differences of the analytic Jacobian, step HESSIAN_STEP_M.
        """
        p = np.atleast_2d(np.asarray(points, float))
        E = self.rf_field.field(p)
        dp = HESSIAN_STEP_M * np.eye(3)
        stencil = [p] + [q for d in dp for q in (p + d, p - d)]
        J, *Js = self.rf_field.jacobian(np.concatenate(stencil)).reshape(7, *p.shape, 3)
        H = np.einsum("mia,mib->mab", J, J)
        for b in range(3):
            dJ = (Js[2 * b] - Js[2 * b + 1]) / (2.0 * HESSIAN_STEP_M)
            H[:, :, b] += np.einsum("mi,mia->ma", E, dJ)
        H *= 2.0 * self.coef
        return self._grad(E, J), 0.5 * (H + H.transpose(0, 2, 1))


@dataclass
class PseudoMap:
    """Pseudopotential sampled on a regular grid; lengths um, values meV."""

    xs_um: np.ndarray
    ys_um: np.ndarray
    zs_um: np.ndarray
    values_meV: np.ndarray  # shape (len(xs), len(ys), len(zs))

    CSV_HEADER = "x_um,y_um,z_um,psi_meV"

    def csv_text(self) -> str:
        """One line per point, x slowest and z fastest, each number the repr
        of its float."""
        axes = (np.asarray(a, float) for a in (self.xs_um, self.ys_um, self.zs_um))
        columns = [c.ravel().tolist() for c in np.meshgrid(*axes, indexing="ij")]
        columns.append(np.asarray(self.values_meV, float).ravel().tolist())
        lines = [f"{x!r},{y!r},{z!r},{v!r}" for x, y, z, v in zip(*columns)]
        return "\n".join([self.CSV_HEADER] + lines) + "\n"


# bytes a map holds per point: its evaluation (up to four mirror images of
# each point, a value per weight column), psi and the CSV text; tracemalloc
# read 0.37 kB per point for the surface trap's z = 0 map and 0.79 kB for a
# charge of two weight columns off the mirror planes
MAP_BYTES_PER_POINT = 2048
# the most points a map may hold: 2**20, its bytes within the solver's budget
MAP_POINT_BUDGET = bem.SOLVE_MEMORY_BUDGET // MAP_BYTES_PER_POINT


def check_grid(center_um, span_um, res_um, names=("center_um", "span_um", "res_um")):
    """Raise ValueError unless each centre component is finite, each span is
    >= 0 and finite, the step is > 0 and finite and the grid holds at most
    MAP_POINT_BUDGET points; names name the three in the message."""
    if not all(math.isfinite(c) for c in center_um):
        raise ValueError(f"{names[0]} must be finite, got {_fmt(center_um)}")
    if not all(0.0 <= s < math.inf for s in span_um):  # NaN fails too
        raise ValueError(f"{names[1]} must be >= 0 and finite, got {_fmt(span_um)}")
    if not 0.0 < res_um < math.inf:
        raise ValueError(f"{names[2]} must be > 0 and finite, got {res_um:g}")
    # _grid_axis's count per axis, in floats: a tiny step gives inf
    points = math.prod(float(np.round(s / res_um)) + 1.0 if s > 0.0 else 1.0
                       for s in span_um)
    if points > MAP_POINT_BUDGET:
        raise ValueError(
            f"the grid of {names[1]} {_fmt(span_um)} in steps of {names[2]} {res_um:g} "
            f"has {points:.4g} points, more than the {MAP_POINT_BUDGET} a map may hold")


def _fmt(vec):
    return ",".join(f"{float(v):g}" for v in vec)


def _grid_axis(center, span, res):
    if span <= 0.0:
        return np.array([center])
    n = int(round(span / res)) + 1
    lo = center - 0.5 * span
    return lo + np.arange(n) * res


def pseudo_map(pseudo: PseudoField, center_um, span_um, res_um: float) -> PseudoMap:
    """Sample psi on a regular grid; axes with zero span collapse to a point.
    Raises ValueError for a grid that check_grid rejects."""
    check_grid(center_um, span_um, res_um)
    axes = [_grid_axis(c, s, res_um) for c, s in zip(center_um, span_um)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    pts_m = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()]) * 1e-6
    vals = pseudo.psi_meV(pts_m).reshape(X.shape)
    return PseudoMap(axes[0], axes[1], axes[2], vals)
