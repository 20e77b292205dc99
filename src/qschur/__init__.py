"""Exact computer algebra for the quasisymmetric Schur basis.

Compositions index everything; composition tableaux and augmented
fillings carry the coefficients; all arithmetic is exact over Z[q,t].
"""

from .compositions import (
    Composition,
    Partition,
    WeakComposition,
    collapse,
    coarsens,
    composition_of,
    compositions_of_partition,
    enumerate_compositions,
    expand_to_weak,
    foundation,
    format_composition,
    parse_composition,
    parse_weak_composition,
    refinements,
    reversal,
    subset_of,
    to_partition,
    triangle_cmp,
    triangle_key,
)
from .polynomial import QtPoly, XPoly
from .fillings import AugmentedFilling, arm, coinv, enumerate_fillings, leg, maj
from .tableaux import (
    CompositionTableau,
    ReverseTableau,
    comt_descents,
    comt_to_ssaf,
    enumerate_comts,
    enumerate_reverse_tableaux,
    enumerate_ssafs,
    enumerate_standard_comts,
    enumerate_standard_reverse_tableaux,
    is_comt,
    is_reversetableau,
    rt_descents,
    rt_to_comt,
    rt_to_ssaf,
    ssaf_to_comt,
    ssaf_to_rt,
    standardize,
)
from .insertion import (
    InsertionResult,
    augmented_row_uniqueness_check,
    canonical_descent_tableau,
    commutation_check,
    plactic_product,
    row_bumping_check,
    row_reading_word,
    schensted_insert,
    skyline_insert,
    skyline_uninsert,
)
from .qsym import (
    NotQuasisymmetricError,
    QSymExpr,
    demazure_atom,
    equals_fundamental_shape,
    equals_monomial_shape,
    express_in_qschur,
    f_to_m,
    fundamental_qsym_poly,
    m_to_f,
    monomial_qsym_poly,
    qschur_in_fundamental,
    qschur_in_monomial,
    qschur_polynomial,
    qsym_to_poly,
    qsym_unit,
    schur_in_monomial_oracle,
    schur_in_qschur,
    transition_matrix,
    xpoly_to_monomial,
)
from .pieri import (
    col_op,
    pieri_col,
    pieri_row,
    product_qschur,
    product_qschur_oracle,
    rem,
    row_op,
)
from .macdonald import (
    hall_littlewood_p,
    hall_littlewood_p_oracle,
    hall_littlewood_qsym,
    hall_littlewood_qsym_m,
    j_fundamental_classes,
    macdonald_integral_form,
    macdonald_j_fundamental,
    ns_hall_littlewood,
    standard_filling_reading_word,
)

__version__ = "0.1.0"
