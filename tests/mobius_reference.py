"""Test-only reference: the piecewise formula for the Mobius eigenvalues.

Walks the interval decomposition of the modulus axis by the crossing moduli
T_{k,l} to name the branch that carries sigma_bar_j.  It shares no code with
`spectrum` or `sigma_bar_grid`, so it is an independent check of which branch
carries each eigenvalue.
"""

import math

from steklov.branches import (
    Branch,
    BranchKind,
    SurfaceKind,
    _check_modulus,
    lambda_bar,
    mu_bar,
)
from steklov.crossings import solve_crossing
from steklov.exceptions import DomainError


# The Mobius mode rule, stated here apart from `branches._modes`: even
# branch k has theta-mode 2k, odd branch l has 2l - 1.
def _even_branch(k: int) -> Branch:
    return Branch(BranchKind.EVEN_HYPERBOLIC, 2 * k)


def _odd_branch(l: int) -> Branch:
    return Branch(BranchKind.ODD_HYPERBOLIC, 2 * l - 1)


def mobius_crossing_modulus(k: int, l: int) -> float:
    """Modulus where the k-th even and l-th odd Mobius branches meet (l <= k).

    Returns +inf when k < l (no crossing) and 0 for l = 0, matching the
    endpoint conventions of the interval decomposition.
    """
    if l == 0:
        return 0.0
    if k < l:
        return math.inf
    return solve_crossing(2.0 * k, 2.0 * l - 1.0).x


def sigma_bar_piecewise_mobius(j: int, T: float) -> tuple[float, Branch]:
    """Identify which branch carries the j-th Mobius eigenvalue at modulus T.

    The pair sigma_bar(2k-1) = sigma_bar(2k) with k = ceil(j/2) follows the
    k-th even branch until its first crossing, then alternates between odd
    and even branches across the crossing lattice; the case analysis below
    walks the interval decomposition of (0, inf) by those crossing moduli.
    """
    j = int(j)
    if j < 1:
        raise DomainError(f"eigenvalue index must be >= 1, got {j}")
    T = _check_modulus(T)
    kind = SurfaceKind.MOBIUS_BAND
    k = (j + 1) // 2
    s = k // 2
    for jj in range(s + 1):
        if T < mobius_crossing_modulus(k - jj, jj + 1):
            return lambda_bar(kind, k - jj, T), _even_branch(k - jj)
        if T < mobius_crossing_modulus(k - jj - 1, jj + 1):
            return mu_bar(kind, jj + 1, T), _odd_branch(jj + 1)
    raise RuntimeError("interval decomposition did not cover T")  # pragma: no cover
