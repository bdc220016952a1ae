"""covop: conformally covariant differential operators on R^n.

Exact constructions of the one-step covariant family, its iterates and their
hyperplane restrictions (Juhl-type operators), the Fourier-symbol algebra
that factors the convolution intertwiners through them, and seeded numerical
verification of every covariance and ambient-space identity involved.
"""

from .algebra import Poly, RationalFunction
from .conformal import (ConformalMap, Dilation, GaussianBump, Inversion,
                        PulledBack, Rotation, SingularPoint, Translation,
                        chart_inverse, full_rotation, stereographic,
                        stereographic_factor, tangential_rotation)
from .diffop import DiffOp, NonTangentialForm, TangentialOp, decompose_tangential, op_vars
from .jets import Jet, coordinate_jets
from .juhl import (NormalizationMeta, iterated, juhl_coeffs, leading_coeff,
                   leading_factors, normalization_meta, one_step)
from .special import PoleAtLambda
from .symbolcalc import (HExpr, HTerm, SymCoeff, ClosureExceeded,
                         check_factorization, d_normal, knapp_stein_symbol,
                         mul_norm_sq, symbol_ks_after_onestep,
                         symbol_mult_after_ks)
from .verify import (CheckReport, QuadratureBudgetExceeded,
                     run_suites, suite_ambient, suite_numeric, suite_symbolic)

__version__ = "0.1.0"

__all__ = [
    "Poly", "RationalFunction",
    "DiffOp", "TangentialOp", "NonTangentialForm", "decompose_tangential", "op_vars",
    "Jet", "coordinate_jets",
    "one_step", "iterated", "juhl_coeffs", "leading_coeff", "leading_factors",
    "normalization_meta", "NormalizationMeta",
    "SymCoeff", "HTerm", "HExpr", "ClosureExceeded", "PoleAtLambda",
    "knapp_stein_symbol", "mul_norm_sq", "d_normal",
    "symbol_mult_after_ks", "symbol_ks_after_onestep", "check_factorization",
    "ConformalMap", "Translation", "Rotation", "Dilation", "Inversion",
    "tangential_rotation", "full_rotation", "SingularPoint",
    "GaussianBump", "PulledBack",
    "stereographic", "stereographic_factor", "chart_inverse",
    "CheckReport", "QuadratureBudgetExceeded",
    "suite_symbolic", "suite_numeric", "suite_ambient", "run_suites",
    "__version__",
]
