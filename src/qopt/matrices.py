"""Block matrices fixed by the (p_1..p_N, q_1..q_N) quadrature ordering.

All phase-space vectors in this library are ordered momentum block first,
Q = (p_1,...,p_N, q_1,...,q_N), and the complex pairing is
B = (beta_1,...,beta_N, beta_1*,...,beta_N*) with beta = (q + ip)/sqrt(2).
"""

from __future__ import annotations

import functools

import numpy as np


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


# each block matrix is built once per mode count and shared, so it is read-only
@functools.cache
def symplectic_metric(n_modes: int) -> np.ndarray:
    """Dimensionless symplectic form Sigma = [[0, I], [-I, 0]]."""
    eye, zero = np.eye(n_modes), np.zeros((n_modes, n_modes))
    return _read_only(np.block([[zero, eye], [-eye, zero]]))


@functools.cache
def block_swap(n_modes: int) -> np.ndarray:
    """Off-diagonal identity sigma_Nx = [[0, I], [I, 0]] swapping the two blocks."""
    eye, zero = np.eye(n_modes), np.zeros((n_modes, n_modes))
    return _read_only(np.block([[zero, eye], [eye, zero]]))


@functools.cache
def quadrature_rotation(n_modes: int) -> np.ndarray:
    """Unitary U with Q_beta = U B, i.e. U = 2^{-1/2} [[-iI, iI], [I, I]]."""
    eye = np.eye(n_modes)
    return _read_only(np.block([[-1j * eye, 1j * eye], [eye, eye]]) / np.sqrt(2))


def check_symmetric(mat: np.ndarray, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Symmetrize ``mat``, rejecting asymmetry defects larger than ``tol``.

    The defect is measured relative to the matrix scale so that rescaling a
    valid input cannot flip the verdict.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    scale = max(np.abs(mat).max(), 1.0)
    defect = np.abs(mat - mat.T).max()
    if defect > tol * scale:
        raise ValueError(f"{name} is not symmetric (defect {defect:.3e})")
    return 0.5 * (mat + mat.T)
