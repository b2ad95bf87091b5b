"""The enumerations that name a surface, an immersion family and a mesh format.

They live apart from the modules that use them, and import only ``enum``,
so the command-line parser can offer their values as choices without
loading NumPy or any of the numerical modules.  ``branches``, ``surfaces`` and ``mesh``
re-export the one they use.
"""

from enum import Enum


class SurfaceKind(Enum):
    ANNULUS = "annulus"
    MOBIUS_BAND = "mobius"


class FamilyKind(Enum):
    CATENOID_B3 = "catenoid"
    ANNULUS_B4 = "annulus"
    MOBIUS_B4 = "mobius"


class MeshFormat(Enum):
    OBJ = "obj"
    PLY = "ply"
    CSV = "csv"
