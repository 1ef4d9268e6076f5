"""Exact-arithmetic frieze patterns over Z[2cos(pi/L)]: generation,
realizability by dissections and quotient dissections of polygons,
once-punctured discs, and annuli, and enumerative checks of the weighted
matching, growth coefficient, and T-path formulas."""

from .ring import (RingContext, RingElem, make_context, chebyshev_u,
                   sign_of, format_elem)
from .frieze import (QuiddityCycle, FriezeTable, quiddity_new,
                     format_quiddity, parse_quiddity_text, growth_coefficient,
                     growth_coefficients, check_positivity, cut, glue,
                     singleton_runs, realizability_test, is_skeletal_quiddity)
from .surface import (Surface, Arc, Dissection, QuotientDissection,
                      polygon, punctured_disc, annulus, build_dissection,
                      make_quotient, quiddity_of,
                      dissection_power, glue_ear, glue_ears, rotate_dissection,
                      format_dissection, parse_dissection_text)
from .realize import (Classification, classify_realizability,
                      skeletal_realize, quotient_realize,
                      witness_nonuniqueness_probe, all_pchoices,
                      valid_pchoices)
from .matchings import (Matching, enumerate_matchings,
                        nonzero_traditional_matchings, weigh_matching,
                        matching_sum, growth_via_annulus_weight,
                        inner_outer_consistency, BudgetExceeded,
                        DEFAULT_BUDGET)
from .tpaths import (TPath, enumerate_tpaths, tpath_weight, tpath_sum,
                     weighted_tpaths, phi_bijection)
from .cli import main, dispatch, render_svg
