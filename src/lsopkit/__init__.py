"""Laurent skew orthogonal polynomials and related symplectic matrices.

A discrete measure with nodes off the unit circle induces a skew inner
product with Laurent symmetry.  This package constructs the associated
skew orthogonal families by two independent routes (moment-table Pfaffians
and two-line recurrences), folds their even members onto classical
orthogonal polynomials in w = z + 1/z, assembles the symplectic pencil and
the butterfly matrix attached to the recurrences, and exploits the
two-way eigenvalue correspondence lambda = z + 1/z as a structured
eigensolver.  Exact rational arithmetic backs every identity; the double
backend carries toleranced numerical counterparts.
"""

from .errors import (AdmissibilityError, ConvergenceError, DegeneracyError,
                     DimensionError, ExpansionLimitError, GenerationError,
                     IncompleteTableError, LsopkitError, RepresentationError,
                     StructureError)
from .laurent import LaurentPoly
from .lsolp import (GaugeParams, LsolpFamily, gauge_transform_scaled, gram_schmidt_lsolp,
                    lsolp_from_lsop, lsolp_from_values, multiplication_matrix)
from .lsop import (FamilyValues, RecurrenceData, evaluate_family, even_to_op,
                   kodama_residuals, kodama_sops, lsop_via_pfaffian,
                   lsop_via_recurrence, moment_pfaffian_table, op_via_hankel,
                   orthonormalize, random_family, recurrence_from_measure,
                   verify_pfaffian_det)
from .moments import (DiscreteMeasure, MomentTable, c_moment, chebyshev2_coeffs,
                      mu_from_c, mu_moment, skew_inner)
from .numerics import SymTridiag, dense_det, dense_eigs, spectra_distance, sym_tridiag_eigs
from .pfaffian import (SkewArray, check_identity_even, check_identity_odd,
                       pf_eliminate, pf_expand, pf_indices)
from .spectra import (ButterflyParams, PencilPair, build_butterfly, build_pencil,
                      build_tridiagonal, butterfly_from_params, butterfly_params,
                      butterfly_to_tridiagonal, eig_correspondence,
                      pencil_eigenvalues, pencil_residual, symplectic_pencil_check)
from .verify import RunConfig, VerificationReport, run_verification

__version__ = "0.1.0"
