"""Symbolic-numeric Lie symmetry analysis for scalar Ito SDEs."""

from .expr import Expr, parse, diff, substitute, simplify, to_str
from .determining import (
    Sde,
    VectorField,
    DeterminingSystem,
    build_system,
)
from .ansatz import Ansatz, SymmetryBasis, nullspace, solve_symmetries
from .lie import StructureConstants, BasisMatch, bracket, structure_constants, match_basis
from .transform import TransformMap, PairedSymmetries, transformation_system, solve_map
from .numeric import (
    residual_check,
    verify_symmetry,
    verify_map,
)

__all__ = [
    "Expr", "parse", "diff", "substitute", "simplify", "to_str",
    "Sde", "VectorField", "DeterminingSystem", "build_system",
    "Ansatz", "SymmetryBasis", "nullspace", "solve_symmetries",
    "StructureConstants", "BasisMatch", "bracket", "structure_constants", "match_basis",
    "TransformMap", "PairedSymmetries", "transformation_system", "solve_map",
    "residual_check", "verify_symmetry", "verify_map",
]

__version__ = "0.1.0"
