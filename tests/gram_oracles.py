"""Entry-by-entry reference implementations for the simplex oracle.

The Gram matrix from the additive semidistance and the double-loop
quadratic form, kept independent of the Kronecker and numpy paths in
relbound.oracle, which must agree with them.
"""

import math
from itertools import product

import numpy as np

from relbound.channel import bhattacharyya, semidistance


def gram_matrix_direct(ch, rho, n):
    """The n-letter Gram matrix from the additive semidistance, entry by entry."""
    words = list(product(range(ch.q), repeat=n))
    a = bhattacharyya(ch.epsilon)
    m = len(words)
    g = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            d = semidistance(words[i], words[j], ch.q)
            g[i, j] = 0.0 if math.isinf(d) else a ** (d / rho)
    return g


def evaluate_quadratic_slow(g, p):
    """Double-loop quadratic form p^T g p."""
    m = len(p)
    total = 0.0
    for i in range(m):
        row = 0.0
        for j in range(m):
            row += g[i][j] * p[j]
        total += p[i] * row
    return total
