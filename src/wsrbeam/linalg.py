"""Hermitian linear-algebra helpers shared across the solver stack.

Every helper takes one matrix or a stack of them (leading axes index the
stack, the last two hold the matrix), so a per-user quantity is one call over
all users.  No explicit matrix inverse is formed anywhere: positive definite
systems go through a Cholesky factorization, and log-determinants are read
off the Cholesky factor.  Stacks go through numpy's batched routines.
"""

import numpy as np


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Average ``a`` with its conjugate transpose (last two axes)."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for Hermitian positive definite ``a`` (or a stack).

    Raises ``numpy.linalg.LinAlgError`` if the Cholesky factorization fails,
    which callers use to detect (numerically) singular systems.
    """
    chol = np.linalg.cholesky(a)
    return np.linalg.solve(np.conj(np.swapaxes(chol, -1, -2)), np.linalg.solve(chol, b))


def lndet_hpd(a: np.ndarray):
    """Natural-log determinant of a Hermitian positive definite matrix: a
    float for one matrix, an array over the leading axes for a stack."""
    chol = np.linalg.cholesky(a)
    return 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)
