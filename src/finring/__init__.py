"""finring: finite unital rings, their structural sets, and the class
predicates built on the power radical sqrtJ(R) = {x : some x^m lies in
J(R)}, together with a theorem-checking harness and CLI."""

from .analysis import (
    center,
    generators,
    ideal_closure,
    idempotents,
    is_unit_closed_subring,
    jacobson,
    nilpotents,
    sqrt_jacobson,
    unit_inverses,
    units,
)
from .build import (
    QuotientRing,
    Subring,
    bt,
    corner,
    gf,
    group_ring,
    matrix_ring,
    poly_quotient,
    product,
    quotient,
    subring_closure,
    trivial_extension,
    upper_triangular,
    zmod,
)
from .core import (
    DEFAULT_LIMITS,
    DEFAULT_SEED,
    ArgumentError,
    AxiomReport,
    ElementSet,
    FiniteRing,
    InternalConsistencyError,
    LimitError,
    Limits,
    dump_tables,
    parse_table_dump,
    verify_axioms,
)
from .expr import ParseError, evaluate, format_expr, parse, parse_and_build
from .groups import (
    NAMED_GROUPS,
    GroupTable,
    cyclic,
    cyclic_subgroups,
    group_product,
)
from .harness import (
    CLAIMS,
    Corpus,
    CorpusError,
    default_corpus,
    load_corpus,
    run_claim,
    run_suite,
)
from .predicates import (
    ClassReport,
    check_unit_class,
    classify,
    is_dedekind_finite,
    is_division,
    is_local,
    is_semisimple,
    is_two_sqrt_ju,
)

__version__ = "0.1.0"
