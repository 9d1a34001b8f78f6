"""First-principles ion trap simulation: surface-electrode and two-wafer
geometries, boundary-element electrostatics, rf pseudopotential, and radial
trapping figures of merit."""

from .constants import AMU, CA40, ECHARGE, EPS0, SPECIES, IonSpecies, get_species
from .errors import (
    DepthError,
    FitError,
    InvalidGeometryError,
    InvalidInputError,
    IonTrapError,
    NullAmbiguityError,
    NullNotFoundError,
    SolverError,
)
from .geometry import (
    DEFAULT_H_UM,
    Box3,
    Electrode,
    MeshParams,
    Rect,
    TrapGeometry,
    build_cross_rf_trap,
    build_default,
    build_gnd_surface_trap,
    build_surface_trap,
    five_wire_null_seed_um,
)
from .bem import (
    PanelSet,
    SolvedTrap,
    solve_unit_excitations,
)
from .pseudo import (
    DEFAULT_DRIVE,
    DriveParams,
    PseudoField,
    PseudoMap,
    QuadrupoleField,
    pseudo_map,
)
from .merit import (
    AxisFit,
    DepthResult,
    FitAxes,
    HarmonicityResult,
    NullResult,
    OperatingPoint,
    TrapReport,
    drive_for_target,
    find_rf_null,
    fit_axis_harmonicity,
    fit_harmonicity,
    flood_fill_escape,
    full_report,
    heating_norm,
    max_frequency,
    operating_q,
    power_norm,
    radial_axes,
    radial_frequency,
    stability_q,
    trap_depth,
)

__version__ = "0.1.0"

__all__ = [
    "AMU", "CA40", "ECHARGE", "EPS0", "SPECIES", "IonSpecies", "get_species",
    "IonTrapError", "InvalidInputError", "InvalidGeometryError", "SolverError",
    "NullNotFoundError", "NullAmbiguityError", "FitError", "DepthError",
    "Rect", "Electrode", "Box3", "MeshParams", "TrapGeometry",
    "build_surface_trap", "build_gnd_surface_trap", "build_cross_rf_trap",
    "build_default", "DEFAULT_H_UM", "five_wire_null_seed_um",
    "PanelSet", "SolvedTrap", "solve_unit_excitations",
    "DriveParams", "DEFAULT_DRIVE", "QuadrupoleField",
    "PseudoField", "PseudoMap", "pseudo_map",
    "NullResult", "AxisFit", "FitAxes", "HarmonicityResult", "DepthResult",
    "OperatingPoint", "TrapReport", "find_rf_null", "fit_harmonicity",
    "fit_axis_harmonicity", "radial_axes", "flood_fill_escape", "trap_depth",
    "full_report",
    "radial_frequency", "stability_q", "operating_q", "max_frequency",
    "drive_for_target", "heating_norm", "power_norm",
]
