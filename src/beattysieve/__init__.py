"""Certified counting and equidistribution for floor-of-power sequences.

The package counts integers n <= x whose tuple
(n, floor(a_1 n^{m_1} + g_1(n)), ..., floor(a_k n^{m_k} + g_k(n)))
is coprime, by two independent exact routes that must agree, and ships
the analytic toolkit behind that count: certified arbitrary-precision
enclosures of the multipliers, continued-fraction convergents and
approximability estimates, exact and bounded discrepancy of the
associated fractional-part point sets, and the explicit exponential-sum
inequalities as measurable formulas.
"""

from .counting import (CountResult, DensityRun, FloorStats, ProblemSpec,
                       coordinate_form, dec_str, density_experiment,
                       direct_count, inv_zeta, mobius_count, mobius_sieve,
                       theoretical_gamma, theoretical_gamma_star, zeta_int)
from .dioph import (ApproxWindow, Convergent, TypeEstimate, convergents,
                    estimate_type, find_window, outward_decimal)
from .equidist import (BoxLower, DiscrepancyReport, LinearSumCheck,
                       PointSet, QuadraticBoundReport, ReciprocalSumReport,
                       ScreenStats, SumStats, SweepStats, WeylBoundReport,
                       WeylSum, discrepancy_box_lower, discrepancy_exact_1d,
                       discrepancy_report, et_koksma_upper, linear_bound,
                       linear_sum_exact, monotone_check, nu_sequence,
                       quadratic_bound, reciprocal_sum, weyl_bound_report,
                       weyl_sum)
from .errors import (BeattySieveError, ConfigError, DegenerateFit,
                     InsufficientData, InvalidSpec, NoConvergent,
                     PrecisionExhausted, RationalTerminated, ResourceLimit)
from .realnum import (DEFAULT_MAX_BITS, CertifiedFloor, DecimalLiteral,
                      FiniteCF, Interval, LinearForm, LiouvilleSeries,
                      QuadraticSurd, Rational, RealSpec, as_spec,
                      dist_nearest_ints, eval_enclosure, floor_scaled,
                      golden_ratio, parse_real, sqrt2, sqrt3)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
