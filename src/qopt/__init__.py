"""Phase-space representations, photon statistics, and exact linear evolution
for Gaussian, squeezed, and even/odd cat states of N-mode light.

``import qopt`` loads none of its submodules: each public name is looked up in
its defining module on first use (PEP 562), which imports that module then.
"""

import sys as _sys
import time as _time

_IMPORT_START = _time.perf_counter()  # the start of the import that `qopt --trace` reports
__version__ = "0.1.0"

# defining module -> the public names it gives the package
_EXPORTS = {
    "cats": ("CatState", "cat_moments"),
    "dynamics": ("FlowSample", "QuadraticHamiltonian", "SymplecticFlow", "evolve_gaussian",
                 "flow_to_creation_annihilation", "free_particle", "harmonic_oscillator",
                 "integrate_symplectic_flow", "invariant_residual_check",
                 "parametric_oscillator", "propagator_position"),
    "gaussian": ("GaussianDyads", "GaussianState", "QRep", "from_qrep", "make_coherent",
                 "make_squeezed_vacuum", "make_thermal_oscillator", "photon_moments",
                 "photon_pnd", "photon_pnd_table", "q_eval", "to_qrep", "validate_state",
                 "wigner_eval"),
    "hermite": ("HermiteParams", "OverlapSpec", "fock_wavefunction_eval",
                "gaussian_hermite_overlap", "hermite_box", "mv_hermite_eval"),
    "parametric": ("FrequencyProfile", "expression_profile", "packet_wavefunction_eval",
                   "parametric_cat_wavefunction", "preset_profile", "solve_epsilon",
                   "squeezed_number_wavefunction", "squeezed_vacuum_pnd", "tabulated_profile",
                   "variances_correlation", "wronskian_defect"),
    "tomography": ("Sinogram", "WignerGrid", "forward_marginal_numeric", "gaussian_sinogram",
                   "inverse_radon", "symplectic_marginal"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A public name, taken from its module (imported now if it is not yet) and bound
    here, so that later lookups do not come back."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_MODULE_OF[name]}"
    __import__(module)  # as an import statement does, so that `python -X importtime` lists it
    value = globals()[name] = getattr(_sys.modules[module], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
