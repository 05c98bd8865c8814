"""quantlab: optimal quantization of probability measures.

Construct measures (1D densities, boxes, curves, IFS attractors), solve for
(near-)optimal N-point quantizers, evaluate quantization errors of order p,
and check the scaled sequences N^(1/s) e_N against closed-form bounds and
Zador-type predictions.
"""

from .asymptotics import (AllocationResult, CoeffSeries, CoefficientEstimate,
                          coeff_sequence, estimate_coefficients, make_series,
                          optimal_allocation, p_prime, quantizability_probe,
                          spatial_histogram, zador_constant_1d,
                          zador_functional, zador_prediction)
from .bounds import (BoundReport, DecayingMixture, RadialMeasure,
                     conc_lower_bound, conc_upper_bound, decaying_mixture,
                     density_bound_constants, lebesgue_halfline,
                     measure_ball_fn, packing_bound, rand_quant_bound,
                     rand_quant_integrand, sandwich_check,
                     theta_raw_from_density)
from .error import (INF, ErrorEstimate, error_curve, error_eval,
                    error_exact_1d, error_mc, psum)
from .measures import (Curve, IfsSpec, Law1D, Measure, cantor_ifs, cantor_net,
                       curve_measure, density1d, derive_seed, empirical,
                       hausdorff_curve_measure, ifs_measure, piecewise_uniform,
                       quarter_circle, restrict, sample, segment_curve,
                       uniform_box, uniform_interval)
from .solvers import (Dp1dSolver, Provenance, Quantizer, SolverConfig,
                      cantor_cover, cantor_covering_radius, cell_center,
                      dp_optimal_1d, farthest_point_cover, interval_quantizer,
                      lloyd, random_quantizer, seed_plusplus)
from .spatial import (DensityEstimate, PointCloud, SpatialIndex,
                      covering_radius, geometric_radii, hausdorff_density,
                      mc_tube_volume, minkowski_content, omega, voronoi_assign)

__version__ = "0.1.0"
