"""Linear-fractional branching processes.

A generation law stays linear fractional under iteration: the whole
n-generation distribution is described by an evolved triplet (m_n, gamma_n,
K_n). This package computes those laws exactly, classifies the process
through the convergence parameter R of its mean kernel, simulates it three
structurally different ways, and verifies the regime limit theorems.

Layers, bottom up: ``measures`` (vector and hypoexponential-mixture
measures, probes), ``typespace`` (triplets and type points), ``spectral``
(life-length transform, R, eigenpair), ``evolution`` (exact generation
laws), ``simulate`` (direct / embedded-population / contour samplers),
``stats`` (renewal utility, limit verifiers, test statistics), ``cli``.
"""

# the one source of the version: pyproject.toml reads it from here
__version__ = "0.1.0"

from .errors import (PopulationCapError, QuadratureError, RegimeError,
                     TripletFormatError, WalkCapError)
from .evolution import evolve, gen_functional, survival_prob
from .simulate import (replicate_zn, simulate_bgw, simulate_cmj,
                       simulate_contour, simulate_typed_lineage)
from .spectral import classify, eigen_build, eigen_residuals, solve_R
from .stats import (chi_square_geometric, ks_one_sample, ks_two_sample,
                    limit_critical, limit_report, limit_subcritical,
                    limit_supercritical, mc_mean_se, probe, renewal_sequence,
                    yaglom_sample)
from .typespace import (make_exp_triplet, make_finite_triplet,
                        triplet_from_dict, triplet_to_dict)

__all__ = [
    "__version__",
    "PopulationCapError", "QuadratureError", "RegimeError",
    "TripletFormatError", "WalkCapError",
    "evolve", "gen_functional", "survival_prob",
    "replicate_zn", "simulate_bgw", "simulate_cmj", "simulate_contour",
    "simulate_typed_lineage",
    "classify", "eigen_build", "eigen_residuals", "solve_R",
    "chi_square_geometric", "ks_one_sample", "ks_two_sample",
    "limit_critical", "limit_report", "limit_subcritical",
    "limit_supercritical", "mc_mean_se", "probe", "renewal_sequence",
    "yaglom_sample",
    "make_exp_triplet", "make_finite_triplet", "triplet_from_dict",
    "triplet_to_dict",
]
