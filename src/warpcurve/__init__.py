"""Closed graphic hypersurfaces of prescribed Weingarten curvature in warped
products, computed by homotopy continuation from the constant leaf."""

from .errors import (ConeExitError, ConfigError, ContinuationError, DomainError,
                     GeometryError, HypothesisError, NonConvergenceError,
                     StepFailureError, WarpcurveError)
from .geometry import (CurvatureRecord, FlatTorus, GridFunction, Sphere2,
                       WarpingFunction, fundamental_forms, principal_curvatures,
                       warp_eval)
from .problem import (CoefficientFamily, CoefficientTerm, PhiFunction,
                      ProblemSpec, TabulatedCoefficients, alpha_k1_homotopy,
                      check_hypotheses, jacobian, residual)
from .solver import (ContinuationState, DiagnosticsReport, continuation,
                     diagnostics, initial_solution, newton_solve)
from .symfunc import elem_sym, newton_maclaurin_margins

__version__ = "0.1.0"
