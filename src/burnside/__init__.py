"""Exact symbol calculus for equivariant Burnside groups of finite groups."""

from .abelian import (
    AbelianGroup,
    apply_dual,
    transport_characters,
    wedge_equivalent,
)
from .bng import (
    BnGClass,
    BnGPresentation,
    enumerate_generators,
    equal_classes,
    project_symbol,
    project_sum,
    reduce_class,
)
from .errors import (
    BurnsideError,
    InputError,
    SizeError,
)
from .groups import (
    FiniteGroup,
    SubgroupRef,
)
from .relations import (
    ExpansionReport,
    expand_b2,
    expand_prop46,
    relation_rows,
)
from .symbols import (
    Atom,
    ConstrA,
    Symbol,
    SymbolSum,
    canonicalize_symbol,
    conjugate_symbol,
    construction_a,
    restrict_character,
)
from .zlinalg import (
    SparseMatrix,
    smith_normal_form,
)

__all__ = [
    "AbelianGroup",
    "Atom",
    "BnGClass",
    "BnGPresentation",
    "BurnsideError",
    "ConstrA",
    "ExpansionReport",
    "FiniteGroup",
    "InputError",
    "SizeError",
    "SparseMatrix",
    "SubgroupRef",
    "Symbol",
    "SymbolSum",
    "apply_dual",
    "canonicalize_symbol",
    "conjugate_symbol",
    "construction_a",
    "enumerate_generators",
    "equal_classes",
    "expand_b2",
    "expand_prop46",
    "project_symbol",
    "project_sum",
    "reduce_class",
    "relation_rows",
    "restrict_character",
    "smith_normal_form",
    "transport_characters",
    "wedge_equivalent",
]

__version__ = "0.1.0"
