"""covop: conformally covariant differential operators on R^n.

Exact constructions of the one-step covariant family, its iterates and their
hyperplane restrictions (Juhl-type operators), the Fourier-symbol algebra
that factors the convolution intertwiners through them, and seeded numerical
verification of every covariance and ambient-space identity involved.
"""

from .conformal import (ConformalMap, Dilation, GaussianBump, Inversion,
                        PulledBack, Rotation, SingularPoint, Translation,
                        chart_inverse, full_rotation, stereographic,
                        stereographic_factor, tangential_rotation)
from .jets import Jet, coordinate_jets
from .juhl import (iterated, juhl_coeffs, leading_coeff, leading_factors,
                   normalization_meta)
from .symbolcalc import (HExpr, SymCoeff, check_factorization,
                         check_ks_inversion, d_normal, knapp_stein_symbol,
                         mul_norm_sq, symbol_ks_after_onestep,
                         symbol_mult_after_ks)
from .verify import (CheckReport, QuadratureBudgetExceeded,
                     run_suites, suite_ambient, suite_numeric, suite_symbolic)

__version__ = "0.1.0"

__all__ = [
    "Jet", "coordinate_jets",
    "iterated", "juhl_coeffs", "leading_coeff", "leading_factors",
    "normalization_meta",
    "SymCoeff", "HExpr",
    "knapp_stein_symbol", "mul_norm_sq", "d_normal",
    "symbol_mult_after_ks", "symbol_ks_after_onestep", "check_factorization",
    "check_ks_inversion",
    "ConformalMap", "Translation", "Rotation", "Dilation", "Inversion",
    "tangential_rotation", "full_rotation", "SingularPoint",
    "GaussianBump", "PulledBack",
    "stereographic", "stereographic_factor", "chart_inverse",
    "CheckReport", "QuadratureBudgetExceeded",
    "suite_symbolic", "suite_numeric", "suite_ambient", "run_suites",
    "__version__",
]
