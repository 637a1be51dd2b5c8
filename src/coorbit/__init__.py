"""coorbit: numerical engine for continuous-frame analysis and discretization.

Builds computable continuous frames (Gabor, wavelet, bandlimited kernels,
inhomogeneous wavelets, alpha-modulation atoms), their Gramian kernels and
weighted kernel-algebra norms, moderate admissible coverings with oscillation
reports, and the sampled systems: atomic decompositions, dual frames,
Banach-frame reconstruction and localization profiles.
"""

__version__ = "0.1.0"

from .measure_space import (SignalGrid, QuadGrid, WeightOnX, AdmissibleWeight,
                            build_quad_grid, integrate, weight_from_w,
                            check_admissible, derived_v, trivial_weight,
                            polynomial_weight, trivial_admissible_weight)
from .kernel_algebra import (Kernel, KernelNormReport, am_norm, compose,
                             involution, apply_kernel, lp_w_norm,
                             export_kernel_csv)
from .frame_families import (FrameFamily, TransformField, make_family,
                             default_index_grid, analyze_V, analyze_W,
                             frame_operator_apply, gram_kernel,
                             frame_bounds_continuous, alpha_admissibility,
                             make_battery)
from .coverings import (Covering, PartitionOfUnity, build_covering, build_pu,
                        verify_moderate, q_set, m_equivalent, refine_covering)
from .oscillation import OscReport, osc_matrix, property_D_check, refine_until
from .sequence_spaces import (SeqSpaceSpec, flat_norm, natural_norm,
                              plus_operator, decomposition_norm)
from .discretization import (UPhiOperator, ReconstructionReport, build_uphi,
                             atomic_coefficients, dual_frame,
                             banach_frame_reconstruct, hilbert_frame_bounds)
from .localization import (CrossGramian, DiscreteAlgebraReport, cross_gramian,
                           a_flat_norm, gab_domination_check,
                           empirical_pseudoinverse)
