"""Closed-form normalized Steklov eigenvalue branches.

On the flat cylinder [-T, T] x S^1 separation of variables gives harmonic
functions alpha(t)*beta(theta) with alpha in {cosh(at), sinh(at), t, 1}.
Each profile yields one eigenvalue branch as a function of the conformal
modulus T; normalizing by total boundary length removes the conformal
factor entirely, so every branch is one formula in T alone:

    scale * a * tanh(a*T)   even (cosh profile)
    scale * a * coth(a*T)   odd (sinh profile)
    scale / T               linear (profile t, mode 0; the a -> 0 limit of the odd one)

where a is the branch's theta-mode and scale is the boundary length per
unit conformal factor, 2*pi per boundary circle (`_SCALE`):

    Mobius band (one circle, scale 2*pi; quotient (t, theta) ~ (-t, theta + pi)):
        even branch k   mode a = 2k
        odd branch l    mode a = 2l-1
    Annulus (two circles, scale 4*pi):
        even branch k   mode a = k
        odd branch n    mode a = n
        linear branch   mode 0, value 4*pi / T

`_value` evaluates the formula and `_crossing` turns a crossing of an even
and an odd (or the linear) branch into its modulus and value; every
supremum in `extrema` is read off one such crossing.  `spectrum` evaluates
the same formula over one table per call, the even values by scalar
`math.tanh` and the odd ones by one `coth` call (bit for bit the
scalar one), and sorts it once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .crossings import RESIDUAL_SCALE, solve_crossing, solve_t10
from .exceptions import DomainError, UnsupportedBranchError
from .hyperbolic import coth


class SurfaceKind(Enum):
    ANNULUS = "annulus"
    MOBIUS_BAND = "mobius"


class BranchKind(Enum):
    EVEN_HYPERBOLIC = "even_hyperbolic"  # cosh profile, increasing in T
    ODD_HYPERBOLIC = "odd_hyperbolic"  # sinh profile, decreasing in T
    LINEAR = "linear"  # profile t, annulus only


@dataclass(frozen=True)
class Branch:
    """One separated-variables eigenvalue family: parity plus Fourier mode."""

    kind: BranchKind
    mode: int  # Fourier frequency in theta; 0 for the linear branch

    @property
    def multiplicity(self) -> int:
        return 1 if self.kind is BranchKind.LINEAR else 2

    def label(self) -> str:
        return f"{self.kind.value}:{self.mode}"


_LINEAR = Branch(BranchKind.LINEAR, 0)


@dataclass(frozen=True)
class EigenvalueEntry:
    """One entry of the ordered spectrum, possibly a merged crossing."""

    value: float
    branches: tuple[Branch, ...]
    index_range: tuple[int, int]  # positions occupied, counting multiplicity

    @property
    def branch(self) -> Branch:
        return self.branches[0]

    @property
    def multiplicity(self) -> int:
        return self.index_range[1] - self.index_range[0] + 1


def _check_modulus(T: float) -> float:
    T = float(T)
    if math.isnan(T) or T <= 0.0:
        raise DomainError(f"conformal modulus must be positive, got {T}")
    return T


def _check_integer(value, name: str, error: type[Exception] = DomainError) -> int:
    """`value` as an int; fractions, infinities and NaN raise `error`."""
    try:
        index = int(value)
    except (OverflowError, ValueError):  # inf, NaN
        raise error(f"{name} must be an integer, got {value}") from None
    if index != value:
        raise error(f"{name} must be an integer, got {value}")
    return index


def _check_index(value, name: str = "mode index") -> int:
    """`value` as an int >= 1, by the integer rule of `_check_integer`."""
    index = _check_integer(value, name)
    if index < 1:
        raise DomainError(f"{name} must be >= 1, got {index}")
    return index


# Boundary length per unit conformal factor: 2*pi per boundary circle.
_SCALE = {SurfaceKind.MOBIUS_BAND: 2.0 * math.pi, SurfaceKind.ANNULUS: 4.0 * math.pi}

# Enum members bound once for the scalar path: reading a member off its Enum
# class costs about 0.1 us in Python 3.11, a tenth of a branch evaluation.
_MOBIUS = SurfaceKind.MOBIUS_BAND
_EVEN = BranchKind.EVEN_HYPERBOLIC
_ODD = BranchKind.ODD_HYPERBOLIC


def _even_mode(kind: SurfaceKind, k: int) -> int:
    """Theta-mode of the k-th even branch."""
    return 2 * k if kind is _MOBIUS else k


def _odd_mode(kind: SurfaceKind, l: int) -> int:
    """Theta-mode of the l-th odd branch."""
    return 2 * l - 1 if kind is _MOBIUS else l


def _value(kind: SurfaceKind, profile: BranchKind, a: int, T: float) -> float:
    """scale * a * phi(a*T) for the profile's phi; the linear branch is scale / T."""
    if profile is _EVEN:
        return _SCALE[kind] * a * math.tanh(a * T)
    if profile is _ODD:
        return _SCALE[kind] * a * coth(a * T)
    return _SCALE[kind] / T


def lambda_bar(kind: SurfaceKind, mode_index: int, T: float):
    """Even (cosh-profile) normalized eigenvalue; increasing in T."""
    k = _check_index(mode_index)
    return _value(kind, _EVEN, _even_mode(kind, k), _check_modulus(T))


def mu_bar(kind: SurfaceKind, mode_index: int, T: float):
    """Odd (sinh-profile) normalized eigenvalue; decreasing in T, +inf at 0+."""
    l = _check_index(mode_index)
    return _value(kind, _ODD, _odd_mode(kind, l), _check_modulus(T))


def nu_bar(T: float, kind: SurfaceKind = SurfaceKind.ANNULUS):
    """Linear-profile normalized eigenvalue 4*pi/T; annulus only."""
    if kind is SurfaceKind.MOBIUS_BAND:
        raise UnsupportedBranchError("the Mobius band has no linear branch")
    return _value(kind, BranchKind.LINEAR, 0, _check_modulus(T))


def branch_value(kind: SurfaceKind, branch: Branch, T: float) -> float:
    """Evaluate a Branch descriptor at modulus T.

    The surface must carry the branch: the linear one is mode 0 on the
    annulus only, and Mobius modes are even (2k) or odd (2l-1) by profile.
    """
    if branch.kind is BranchKind.LINEAR:
        if branch.mode != 0:
            raise UnsupportedBranchError(f"the linear branch has mode 0, got {branch.mode}")
        return nu_bar(T, kind)
    mode = _check_index(branch.mode)
    if kind is SurfaceKind.MOBIUS_BAND and mode % 2 != (branch.kind is BranchKind.ODD_HYPERBOLIC):
        raise UnsupportedBranchError(f"the Mobius band has no branch {branch.label()}")
    return _value(kind, branch.kind, mode, _check_modulus(T))


def _even_branch(kind: SurfaceKind, k: int) -> Branch:
    return Branch(_EVEN, _even_mode(kind, k))


def _odd_branch(kind: SurfaceKind, l: int) -> Branch:
    return Branch(_ODD, _odd_mode(kind, l))


def branch_index(kind: SurfaceKind, branch: Branch) -> int:
    """Inverse of _even_mode and _odd_mode: the k of mode 2k, the l of mode 2l-1.

    On the annulus the mode is its own index (0 for the linear branch).
    """
    return (branch.mode + 1) // 2 if kind is SurfaceKind.MOBIUS_BAND else branch.mode


def spectrum(kind: SurfaceKind, T: float, count: int) -> list[EigenvalueEntry]:
    """First `count` nonzero normalized eigenvalues, merged at crossings.

    One table holds the even branches of indices 1..count // 2 + 2, the odd
    branches of those indices that can sort below the last even one and, on
    the annulus, the linear branch; one sort orders it, and the entries are
    read off its sorted prefix.  Two adjacent values share one entry only
    where the two branches cross (see `_crosses`); distinct branches that
    are merely close stay apart.
    """
    T = _check_modulus(T)
    if math.isinf(T):
        raise DomainError("spectrum requires a finite modulus")
    count = _check_index(count, "count")

    # Mode bound.  Let n = count // 2 + 2 and E_n the even item of index n.
    # Each family is nondecreasing in its index (the assumption of any merge
    # of the families), and the rank breaks exact ties in the order linear,
    # even 1, odd 1, even 2, ...
    # (1) Every omitted item sorts after E_n.  Omitted even items have larger
    #     index and rank.  An even value of mode a is fl(fl(scale*a) * tanh)
    #     <= fl(scale*a), as tanh <= 1 and rounding is monotone; an odd value
    #     of mode b is >= fl(scale*b), as coth >= 1.  So an odd item whose
    #     fl(scale*b) exceeds E_n's value, the only ones of index <= n left
    #     out, lies above it; one of index > n has mode b >= odd mode n + 1
    #     > even mode n (2n + 1 > 2n on the band, n + 1 > n on the annulus),
    #     so a value >= E_n's and a rank >= 2n + 2 > 2n - 1.  The sorted
    #     table up to E_n, S >= n items, is therefore a prefix of the spectrum.
    # (2) The loop reads at most S items.  With r = count // 2, the entry at
    #     item i (1-based) starts at position 2i - 1 - L <= count, where L = 1
    #     if the linear item is among items 1..i-1, so i <= r + 1 (i <= r when
    #     count is even and L = 0).  The loop reads through item i + 1, or
    #     i + 2 when that entry merges: at most r + 2 = n items, except with
    #     L = 1 or a merge, which read at most n + 1.  Then the linear item
    #     (among items 1..r) or the merge partner (among items 1..n) is a
    #     non-even item inside the first n items, so S >= n + 1.
    n = count // 2 + 2
    scale = _SCALE[kind]
    if kind is _MOBIUS:
        even_modes, odd_modes = range(2, 2 * n + 1, 2), range(1, 2 * n, 2)
    else:
        even_modes = odd_modes = range(1, n + 1)
    tanh = math.tanh  # scalar: np.tanh differs from math.tanh in the last bit
    even_ranks, odd_ranks = range(1, 2 * n, 2), range(2, 2 * n + 1, 2)
    items = [(scale * a * tanh(a * T), r, _EVEN, a) for r, a in zip(even_ranks, even_modes)]
    last_even = items[-1]
    odd_modes = odd_modes[: bisect_right(odd_modes, last_even[0], key=lambda b: scale * b)]
    if len(odd_modes) > 1:  # one array coth call, bit for bit the scalar calls of _value
        cs = coth(np.arange(odd_modes.start, odd_modes.stop, odd_modes.step) * T).tolist()
    else:  # none, or mode 1 alone: a scalar call costs less than a 1-element array
        cs = [coth(b * T) for b in odd_modes]
    items += [(scale * b * c, r, _ODD, b) for c, r, b in zip(cs, odd_ranks, odd_modes)]
    if kind is not _MOBIUS:
        items.append((scale / T, 0, BranchKind.LINEAR, 0))
    items.sort()

    entries: list[EigenvalueEntry] = []
    position = 1
    i = 0  # index of the last item read
    value, _, profile, mode = items[0]
    branch = Branch(profile, mode)
    while position <= count:
        i += 1
        next_value, _, profile, mode = items[i]
        next_branch = Branch(profile, mode)
        if _crosses(kind, branch, value, next_branch, next_value):
            group = (branch, next_branch)
            mult = branch.multiplicity + next_branch.multiplicity
            i += 1
            next_value, _, profile, mode = items[i]
            next_branch = Branch(profile, mode)
        else:
            group = (branch,)
            mult = branch.multiplicity
        entries.append(EigenvalueEntry(value, group, (position, position + mult - 1)))
        position += mult
        value, branch = next_value, next_branch
    # completeness: every item read lies in the proven prefix, up to E_n
    if items[i] > last_even:  # pragma: no cover - the bound is proven above
        raise RuntimeError("mode bound too small for requested count")
    return entries


def _crosses(
    kind: SurfaceKind, first: Branch, v_first: float, second: Branch, v_second: float
) -> bool:
    """Whether adjacent spectrum values v_first <= v_second sit on a crossing.

    Only an increasing (even) branch meets a decreasing one, and only when
    the even frequency is the larger; every even branch meets the linear one.
    At the solved crossing the two values differ by at most the crossing
    solver's bound RESIDUAL_SCALE * (a + b), times the 2*pi or 4*pi that
    normalizes the heights a*tanh(a*x) = b*coth(b*x).
    """
    increasing, decreasing = (first, second) if first.kind is _EVEN else (second, first)
    if increasing.kind is not _EVEN or decreasing.kind is _EVEN:
        return False
    if increasing.mode <= decreasing.mode:  # the linear branch has mode 0
        return False
    bound = _SCALE[kind] * RESIDUAL_SCALE * (increasing.mode + decreasing.mode)
    return v_second - v_first <= bound


def sigma_bar(kind: SurfaceKind, j: int, T: float) -> float:
    """The j-th nonzero normalized eigenvalue, counted with multiplicity.

    It is the value of the last entry of `spectrum(kind, T, j)`, so it costs
    one table of at most j // 2 + 2 modes per family, sorted once.
    """
    j = _check_index(j, "eigenvalue index")
    return spectrum(kind, T, j)[-1].value  # the last entry holds index j


def sigma_bar_grid(kind: SurfaceKind, j_max: int, T) -> np.ndarray:
    """Vectorized sigma_bar for j = 1..j_max over an array of moduli.

    Returns an array of shape (j_max, len(T)).  Used as an independent
    grid-search route; raises if the mode cutoff could have missed a value.
    """
    T = np.asarray(T, dtype=float)
    if np.any(T <= 0.0) or not np.all(np.isfinite(T)):
        raise DomainError("moduli must be positive and finite")
    j_max = _check_index(j_max, "j_max")
    # the even branches of modes 1..ceil(j_max/2) alone give j_max values,
    # and every branch of a higher mode lies above them
    n_modes = (j_max + 1) // 2
    # np.tanh, not the math.tanh of _value: the two differ in the last bit
    scale = _SCALE[kind]
    rows = []
    if kind is SurfaceKind.ANNULUS:
        with np.errstate(over="ignore"):  # +inf, as nu_bar gives, for subnormal T
            rows.append(scale / T)
    for m in range(1, n_modes + 2):
        a, b = _even_mode(kind, m), _odd_mode(kind, m)
        lam = scale * a * np.tanh(a * T)
        mus = scale * b * coth(b * T)
        if m <= n_modes:
            rows.extend([lam, lam, mus, mus])
    stacked = np.vstack(rows)
    stacked.sort(axis=0)  # in place: one buffer of all rows, not two
    out = stacked[:j_max].copy()  # the caller keeps only the rows returned
    # completeness: the omitted mode n_modes + 1, left in lam and mus, must
    # lie above row j_max
    if not np.all(np.minimum(lam, mus) > out[-1]):  # pragma: no cover - cutoff is generous
        raise RuntimeError("mode cutoff too small for requested j_max")
    return out


@dataclass(frozen=True)
class LatticeCrossing:
    """Where an increasing branch meets a decreasing one, and its eigenvalue cluster."""

    increasing: Branch  # even
    decreasing: Branch  # odd, or linear on the annulus
    modulus: float
    height: float  # common value of the unnormalized branch heights
    value: float  # normalized eigenvalue at the crossing
    first_index: int  # lowest eigenvalue index of the cluster

    @property
    def multiplicity(self) -> int:
        return self.increasing.multiplicity + self.decreasing.multiplicity

    @property
    def residual(self) -> float:
        """Crossing-equation residual at the solved modulus.

        On the linear branch the equation is m*tanh(m*x) = 1/x, and x is the
        float t10/m, so the residual is a rounding error, not zero.
        """
        if self.decreasing.kind is BranchKind.LINEAR:
            m, x = self.increasing.mode, self.modulus
            return abs(m * math.tanh(m * x) - 1.0 / x)
        return solve_crossing(self.increasing.mode, self.decreasing.mode).residual


def _crossing(kind: SurfaceKind, m: int, n: int) -> LatticeCrossing:
    """The crossing of even branch m with odd branch n (n = 0: the linear branch).

    It solves a*tanh(a*x) = b*coth(b*x) for the two modes a > b, or sits at
    t10/m on the linear branch.  The cluster's first index counts the values
    below it: each branch family increases with mode at fixed T, every odd
    annulus branch lies above the linear one, and the linear branch lies
    below even mode m exactly when T > t10/m.
    """
    scale = _SCALE[kind]
    t10 = solve_t10()
    even = _even_branch(kind, m)
    if n == 0:
        return LatticeCrossing(
            increasing=even,
            decreasing=_LINEAR,
            modulus=t10 / m,
            height=m / t10,
            value=scale * m / t10,
            first_index=2 * m - 1,
        )
    odd = _odd_branch(kind, n)
    point = solve_crossing(even.mode, odd.mode)
    return LatticeCrossing(
        increasing=even,
        decreasing=odd,
        modulus=point.x,
        height=point.height,
        value=scale * point.height,
        # on the annulus the linear value is below the cluster too
        first_index=2 * (m + n) - 3 + (kind is not _MOBIUS and point.x > t10 / m),
    )


def crossing_lattice(kind: SurfaceKind, max_mode: int) -> list[LatticeCrossing]:
    """Every crossing of an increasing and a decreasing branch up to max_mode.

    Mobius band: even mode 2k meets odd mode 2l-1 at T_{k,l}, l <= k.
    Annulus: even mode m meets the linear branch (n = 0) at t10/m, then odd
    mode n at t_{m,n}, n < m.
    """
    max_mode = _check_index(max_mode, "max_mode")
    first = 1 if kind is SurfaceKind.MOBIUS_BAND else 0
    return [
        _crossing(kind, m, n) for m in range(1, max_mode + 1) for n in range(first, m + first)
    ]
