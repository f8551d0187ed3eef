import qopt

# Every name `from qopt import *` gives.  A new export is a deliberate edit of this list.
PUBLIC = [
    "CatState", "FlowSample", "FrequencyProfile", "GaussianDyads", "GaussianState",
    "HermiteParams", "OverlapSpec", "QRep", "QuadraticHamiltonian", "Sinogram", "SymplecticFlow",
    "WignerGrid", "cat_moments", "evolve_gaussian", "expression_profile",
    "flow_to_creation_annihilation", "fock_wavefunction_eval", "forward_marginal_numeric",
    "free_particle", "from_qrep", "gaussian_hermite_overlap", "gaussian_sinogram",
    "harmonic_oscillator", "hermite_box", "integrate_symplectic_flow", "invariant_residual_check",
    "inverse_radon", "make_coherent", "make_squeezed_vacuum", "make_thermal_oscillator",
    "mv_hermite_eval", "packet_wavefunction_eval", "parametric_cat_wavefunction",
    "parametric_oscillator", "photon_moments", "photon_pnd", "photon_pnd_table", "preset_profile",
    "propagator_position", "q_eval", "solve_epsilon", "squeezed_number_wavefunction",
    "squeezed_vacuum_pnd", "symplectic_marginal", "tabulated_profile", "to_qrep",
    "validate_state", "variances_correlation", "wigner_eval", "wronskian_defect",
]


def test_public_surface_is_pinned():
    assert sorted(qopt.__all__) == sorted(PUBLIC)
    assert all(hasattr(qopt, name) for name in PUBLIC)
