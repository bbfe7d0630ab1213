"""Invertibility certificates and numerical inversion for nonsmooth maps.

Finite-dimensional toolkit around set-valued generalized derivatives:
co-norm and surjectivity indices, regularity certification, Hadamard-style
integral profiles, and global inversion by path-lifting Newton and
perturbed descent.
"""

from .hadamard import (BetaProfile, ball_inclusion_test, beta_profile,
                       hadamard_verdict, rho_at, write_profile_csv)
from .indices import ConormBounds, RegularityReport, regularity_index, set_conorm_bounds
from .invert import (InversionTrace, ekeland_descent, inverse_lipschitz_probe,
                     path_lift_invert, semismooth_newton)
from .linalg import conorm, dist_to_hull, singular_values, spectral_norm, surjectivity_index
from .maps import (MapModel, evaluate, evaluate_batch, local_lipschitz_estimate,
                   make_map, numeric_jacobian, theta_back_substitute, theta_map)
from .properties import chain_rule_check, mvt_check, optimality_check
from .pseudojac import (ProviderSpec, PseudoJacobianSet, build_set,
                        build_sets, parse_provider, support_function,
                        validity_check)

__version__ = "0.1.0"
