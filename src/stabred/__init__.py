"""Symbolic stabilizer reduction for affine schemes with diagonal torus
actions, presented as weight-graded differential algebras.

Each exported name is read from its home module, which is imported the
first time one of its names is asked for (PEP 562), so a process that only
builds scenes never loads the reduction pipeline.  The name is not kept
here, so a patched home binding shows through the package too.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "blowup": "Chart ReesPresentation ReesRelation ReesVariable blowup_charts crosscheck_truncation "
    "kirwan_charts rees_presentation",
    "cdga": "GradedCdga GradedVariable Generator1 Generator2 SubtorusBasis ValidationReport Violation "
    "classical_truncation dagger_check fixed_locus from_invariant_function validate_presentation weight_split",
    "errors": "DaggerViolation DomainError InternalError InvalidPresentation NoCenter "
    "NoPositiveDimensionalStabilizer NotDivisible ParseError SchemaError StabredError "
    "StrictDecreaseViolation UnknownVariable",
    "groebner": "exact_divide",
    "ideal": "Ideal eliminate ideal_equal intersect monomial_ideal monomial_intersection saturate",
    "parsing": "parse_polynomial",
    "poly": "GREVLEX LEX ORDERS ElimOrder MonomialOrder Polynomial",
    "reduce": "ObstructionReport ReductionNode iter_leaves obstruction_report stabilizer_reduce tree_depth",
    "scene": "load_scene parse_scene serialize_scene",
    "torus": "StabilizerReport saturation_ideal stabilizer_stratification witness_subtori",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__``, not ``importlib.import_module``, so that ``-X importtime`` lists the module
    home = f"{__name__}.{_HOME[name]}"
    __import__(home)
    return getattr(sys.modules[home], name)


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
