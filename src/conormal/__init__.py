"""Exact-arithmetic calculus of cellular sheaves, Lagrangian cycles and
trace kernels on finite cell complexes."""

from .cellcx import (CellComplex, CellularMap, CellComplexError,
                     CellularMapError, POINT, from_simplicial, product,
                     product_map, identity_map, collapse_to_point,
                     simplicial_map, factors_of)
from .qlinalg import (Matrix, VectComplex, LinAlgError, rank, euler,
                      homology_ranks, total_complex, cohomology_trace,
                      tensor, dual, shift, direct_sum, single)
from .sheaf import (CellularSheaf, SheafMorphism, SheafError, PushforwardError,
                    constant, global_sections, euler_char,
                    tensor_sheaf, external, pullback, pushforward,
                    extend_by_zero, verdier_dual, kernel_compose,
                    euler_rhom, shift_sheaf, direct_sum_sheaf)
from .mueu import (LagCycle, mueu, degree, external_cycle, star, compose_cycle,
                   pushforward_cycle, set_negative_control)
from .tracekernel import (TraceKernel, TraceKernelError, tk, eu_point,
                          external_tk, compose_tk, shift_twist)
from .lefschetz import (LefschetzInstance, LefschetzError, global_trace,
                        local_trace_sum, constant_phi)

__version__ = "0.1.0"
