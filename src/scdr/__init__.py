"""Exact symbolic calculus for N=1 SUSY vertex algebras built on the
free superfield algebra of the chiral de Rham complex."""

from .scalars import QI, CoeffFunction
from .terms import (Algebra, Generator, NormalForm, HPoly,
                    apply_S, apply_T, nf_mul, render_nf, render_hpoly)
from .bracket import lambda_bracket, skew, jacobi_defect
from .parser import parse_expression, parse_bracket_query, ParseError
from .superconf import (StructureReport, check_ns, check_ns_against,
                        check_n2, check_n4)
from .geometry import (MetricData, EndoTensor, CoordinateChange,
                       christoffel, build_H, build_H0, build_J,
                       flat_complex_structure, quaternionic_triple_flat,
                       load_geometry, check_coordinate_change)
from .components import (classical_bracket, sres_action, n1_components,
                         n2_components, n4_components,
                         check_n1_components, check_n2_components,
                         check_n4_components)

__all__ = [
    "QI", "CoeffFunction", "Algebra", "Generator", "NormalForm", "HPoly",
    "apply_S", "apply_T", "nf_mul", "render_nf", "render_hpoly",
    "lambda_bracket", "skew", "jacobi_defect",
    "parse_expression", "parse_bracket_query", "ParseError",
    "StructureReport", "check_ns", "check_ns_against", "check_n2",
    "check_n4",
    "MetricData", "EndoTensor", "CoordinateChange", "christoffel",
    "build_H", "build_H0", "build_J", "flat_complex_structure",
    "quaternionic_triple_flat", "load_geometry",
    "check_coordinate_change",
    "classical_bracket", "sres_action", "n1_components", "n2_components",
    "n4_components", "check_n1_components", "check_n2_components",
    "check_n4_components",
]

__version__ = "0.1.0"
