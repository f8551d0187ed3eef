import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_import_loads_no_submodule():
    src = str(Path(qopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    code = "import sys, qopt; print(sorted(m for m in sys.modules if m.startswith('qopt.')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_star_import_binds_each_name_of_its_module():
    namespace = {}
    exec("from qopt import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
    for name in PUBLIC:
        value = namespace[name]
        assert value.__module__.startswith("qopt."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert getattr(qopt, name) is value, name


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_function"):
        qopt.no_such_function  # noqa: B018


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(qopt))
