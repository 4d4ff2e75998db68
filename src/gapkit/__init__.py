"""gapkit: exact-arithmetic gap principles, minimal pairs, binary-form
automorphisms, and Thue-inequality censuses."""

from .algnum import (AlgNum, NotInFieldError, PowerBasisRep, c8, c9,
                     denominator_scalar, liouville_c6, power_rep, power_table,
                     theta_upper_bound)
from .autgroup import (AutElement, EnhancedAut, OrbitPartition, aut_prime,
                       d12_family, root_orbit_partition, verify_729)
from .binforms import BinForm, IntMat2, discriminant, form_action, poly_height
from .gap import (ApproxPair, GapConstants, MobiusRelation, ThueSiegelParams,
                  Verdict, archimedean_constants, c11, c15, c16,
                  check_gap_dichotomy, classic_gap_check, count_bound,
                  derived_approx, f_floor, mobius_relation,
                  nonarchimedean_constants, resultant_gcd_bound,
                  thue_siegel_conclusion, thue_siegel_params,
                  two_forms_constant, vanishing_gap)
from .intpoly import IntPoly, discriminant_poly, resultant
from .isolation import (RootEnclosure, house, isolate_roots, mahler_measure,
                        root_separation_lower_bound)
from .minpair import (LinearSystem, MinimalPair, build_system, c12, c13, c14,
                      find_pair, verify_pair, wronskian)
from .padic import (PadicAlgNum, hensel_root, liouville_c7, padic_abs_linear)
from .parse import parse_algnum_spec, parse_form, parse_poly
from .rounding import RatInterval
from .thue import (Census, Solution, ThueProblem, assign_root, census,
                   convergents, enumerate_primitive, lewis_mahler_c10)

__version__ = "0.1.0"
