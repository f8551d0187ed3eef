"""Phase-space representations, photon statistics, and exact linear evolution
for Gaussian, squeezed, and even/odd cat states of N-mode light."""

import time as _time
from types import ModuleType as _ModuleType

_IMPORT_START = _time.perf_counter()  # the start of the import that `qopt --trace` reports
__version__ = "0.1.0"

from .cats import CatState, cat_moments
from .dynamics import (FlowSample, QuadraticHamiltonian, SymplecticFlow, evolve_gaussian,
                       flow_to_creation_annihilation, free_particle, harmonic_oscillator,
                       integrate_symplectic_flow, invariant_residual_check,
                       parametric_oscillator, propagator_position)
from .gaussian import (GaussianDyads, GaussianState, QRep, from_qrep, make_coherent,
                       make_squeezed_vacuum, make_thermal_oscillator, photon_moments, photon_pnd,
                       photon_pnd_table, q_eval, to_qrep, validate_state, wigner_eval)
from .hermite import (HermiteParams, OverlapSpec, fock_wavefunction_eval,
                      gaussian_hermite_overlap, hermite_box, mv_hermite_eval)
from .parametric import (FrequencyProfile, expression_profile, packet_wavefunction_eval,
                         parametric_cat_wavefunction, preset_profile, solve_epsilon,
                         squeezed_number_wavefunction, squeezed_vacuum_pnd, tabulated_profile,
                         variances_correlation, wronskian_defect)
from .tomography import (Sinogram, WignerGrid, forward_marginal_numeric, gaussian_sinogram,
                         inverse_radon, symplectic_marginal)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
