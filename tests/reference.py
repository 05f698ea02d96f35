"""Reference constructions that only the tests use."""

import numpy as np


def coupling_operator(f_a: float, f_b: float, phi: float) -> np.ndarray:
    """The reduced two-qubit coupling operator (I + fA X)(x)(I + fB X) plus
    the phase coupling on |00><11|.  Its determinant is growth.lemma1_lhs,
    whose sign decides separability for f_a, f_b < 1 (one eigenvalue at most
    can be negative there)."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    op = np.kron(np.eye(2) + f_a * X, np.eye(2) + f_b * X).astype(complex)
    g = f_a * f_b * (np.exp(-1j * phi) - 1.0)
    op[0, 3] += g
    op[3, 0] += np.conj(g)
    return op
