"""Physical constants (SI) and ion species used across the toolkit."""

from __future__ import annotations

from dataclasses import dataclass

# vacuum permittivity, F/m (CODATA 2018)
EPS0 = 8.8541878128e-12
# elementary charge, C (exact, SI 2019)
ECHARGE = 1.602176634e-19
# atomic mass unit, kg (CODATA 2018)
AMU = 1.66053906660e-27


@dataclass(frozen=True)
class IonSpecies:
    """A singly charged (unless stated otherwise) atomic ion.

    charge: ion charge in C, > 0
    mass: ion mass in kg, > 0
    """

    name: str
    charge: float
    mass: float

    def __post_init__(self):
        if not (self.charge > 0.0):
            raise ValueError(f"ion charge must be > 0, got {self.charge}")
        if not (self.mass > 0.0):
            raise ValueError(f"ion mass must be > 0, got {self.mass}")


def _species(name, mass_amu, charge_e=1.0):
    return IonSpecies(name=name, charge=charge_e * ECHARGE, mass=mass_amu * AMU)


# Atomic masses in u. The default ion for all reports is 40Ca+.
SPECIES = {
    "Be9": _species("Be9", 9.0121831),
    "Mg24": _species("Mg24", 23.9850417),
    "Ca40": _species("Ca40", 39.9625909),
    "Sr88": _species("Sr88", 87.9056125),
    "Ba138": _species("Ba138", 137.9052472),
    "Yb171": _species("Yb171", 170.9363302),
}

CA40 = SPECIES["Ca40"]


def get_species(name: str) -> IonSpecies:
    if isinstance(name, str) and name in SPECIES:
        return SPECIES[name]
    raise KeyError(f"unknown species {name!r}; known: {', '.join(sorted(SPECIES))}")
