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
unit conformal factor, 2*pi per boundary circle (`_SCALE`).  Every mode is
read from one table, `_modes`, and `branch_value` and `branch_index` check it:

    Mobius band (one circle, scale 2*pi; quotient (t, theta) ~ (-t, theta + pi)):
        even branch k   mode a = 2k
        odd branch l    mode a = 2l-1
    Annulus (two circles, scale 4*pi):
        even branch k   mode a = k
        odd branch n    mode a = n
        linear branch   mode 0, value 4*pi / T

`_value` evaluates the formula and `_crossing` turns a crossing of an even
and an odd (or the linear) branch into its modulus and value; every
supremum in `extrema` is read off one such crossing.  `_walk` evaluates
the same formula over one table per call, the even values by scalar
`math.tanh` and the odd ones by one `coth` call (bit for bit the
scalar one), sorts it once and reads the ordered entries off it in one
pass, merging two rows only where their branches cross.  `spectrum` builds
records for those entries; `sigma_bar` and the other readers of single
values take them as plain data.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .crossings import RESIDUAL_SCALE, _double, solve_crossing, solve_t10
from .exceptions import DomainError, UnsupportedBranchError
from .hyperbolic import SATURATION, coth
from .kinds import SurfaceKind


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
_LINEAR_KIND = BranchKind.LINEAR


def _modes(kind: SurfaceKind, profile: BranchKind, count: int) -> range:
    """Theta-modes of branches 1..count of the even or odd profile.

    cosh(at)e^{iat} descends to the Mobius band only for even a, sinh(at)e^{iat}
    only for odd a.  Index i has mode `[-1]` of the table up to i, and mode a
    is carried exactly when it is in the table up to a."""
    if kind is _MOBIUS:
        return range(1 + (profile is _EVEN), 2 * count + 1, 2)
    return range(1, count + 1)


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
    return _value(kind, _EVEN, _modes(kind, _EVEN, k)[-1], _check_modulus(T))


def mu_bar(kind: SurfaceKind, mode_index: int, T: float):
    """Odd (sinh-profile) normalized eigenvalue; decreasing in T, +inf at 0+."""
    l = _check_index(mode_index)
    return _value(kind, _ODD, _modes(kind, _ODD, l)[-1], _check_modulus(T))


def nu_bar(T: float, kind: SurfaceKind = SurfaceKind.ANNULUS):
    """Linear-profile normalized eigenvalue 4*pi/T; annulus only."""
    return branch_value(kind, _LINEAR, T)  # the Mobius band has none


def branch_value(kind: SurfaceKind, branch: Branch, T: float) -> float:
    """Evaluate a Branch descriptor at modulus T; `branch_index` refuses one not carried."""
    branch_index(kind, branch)
    return _value(kind, branch.kind, int(branch.mode), _check_modulus(T))


def branch_index(kind: SurfaceKind, branch: Branch) -> int:
    """1-based position of the branch's mode in its `_modes` table; 0 if linear.

    A branch the surface does not carry (the linear one is mode 0 on the
    annulus only) raises UnsupportedBranchError."""
    if branch.kind is BranchKind.LINEAR:
        if branch.mode != 0:
            raise UnsupportedBranchError(f"the linear branch has mode 0, got {branch.mode}")
        if kind is _MOBIUS:
            raise UnsupportedBranchError("the Mobius band has no linear branch")
        return 0
    mode = _check_index(branch.mode)
    modes = _modes(kind, branch.kind, mode)
    if mode not in modes:
        raise UnsupportedBranchError(f"the Mobius band has no branch {branch.label()}")
    return modes.index(mode) + 1


def _walk(kind: SurfaceKind, T: float, count: int) -> list[tuple]:
    """The entries of the first `count` nonzero normalized eigenvalues, as plain data.

    Each entry is (value, first, partner, index_range): `first` is a row
    (value, rank, profile, mode) of the sorted table, `partner` the row that
    crosses it in the same entry or None, and index_range the positions the
    entry occupies, counting multiplicity.

    One table holds the even branches of indices 1..count // 2 + 2, the odd
    branches of those indices that can sort below the last even one and, on
    the annulus, the linear branch; one sort orders it, and one walk of its
    sorted prefix reads the entries.  Two adjacent rows share one entry only
    where the two branches cross: an increasing (even) branch meets a
    decreasing one (odd, or linear of mode 0) of lower mode, and at the
    solved crossing their values differ by at most the crossing solver's
    bound RESIDUAL_SCALE * (a + b), times the 2*pi or 4*pi that normalizes
    the heights a*tanh(a*x) = b*coth(b*x).  Distinct branches that are
    merely close stay apart.
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
    # (2) The walk reads at most S items.  With r = count // 2, the entry at
    #     item i (1-based) starts at position 2i - 1 - L <= count, where L = 1
    #     if the linear item is among items 1..i-1, so i <= r + 1 (i <= r when
    #     count is even and L = 0).  The walk reads through item i + 1, or
    #     i + 2 when that entry merges: at most r + 2 = n items, except with
    #     L = 1 or a merge, which read at most n + 1.  Then the linear item
    #     (among items 1..r) or the merge partner (among items 1..n) is a
    #     non-even item inside the first n items, so S >= n + 1.
    n = count // 2 + 2
    scale = _SCALE[kind]
    even_modes, odd_modes = _modes(kind, _EVEN, n), _modes(kind, _ODD, n)
    # tanh and coth are 1.0 well below SATURATION, where coth clamps its
    # argument, so the clamped modulus gives the same bits and keeps mode * T
    # from overflowing
    x = min(T, SATURATION)
    tanh = math.tanh  # scalar: np.tanh differs from math.tanh in the last bit
    even_ranks, odd_ranks = range(1, 2 * n, 2), range(2, 2 * n + 1, 2)
    items = [(scale * a * tanh(a * x), r, _EVEN, a) for r, a in zip(even_ranks, even_modes)]
    last_even = items[-1]
    odd_modes = odd_modes[: bisect_right(odd_modes, last_even[0], key=lambda b: scale * b)]
    if len(odd_modes) > 1:  # one array coth call, bit for bit the scalar calls of _value
        cs = coth(np.arange(odd_modes.start, odd_modes.stop, odd_modes.step) * x).tolist()
    else:  # none, or mode 1 alone: a scalar call costs less than a 1-element array
        cs = [coth(b * x) for b in odd_modes]
    items += [(scale * b * c, r, _ODD, b) for c, r, b in zip(cs, odd_ranks, odd_modes)]
    if kind is not _MOBIUS:
        items.append((scale / T, 0, _LINEAR_KIND, 0))
    items.sort()

    unit = scale * RESIDUAL_SCALE
    entries = []
    position = 1
    i = 0  # index of the last item read
    first = items[0]
    while position <= count:
        i += 1
        after = items[i]
        value, _, profile, a = first
        next_value, _, next_profile, b = after
        mult = 2 - (profile is _LINEAR_KIND)  # the linear branch alone is simple
        even_first = profile is _EVEN
        if (
            next_value - value <= unit * (a + b)
            and even_first is not (next_profile is _EVEN)
            and (a > b if even_first else b > a)  # the even mode is the larger
        ):
            partner = after
            mult += 2 - (next_profile is _LINEAR_KIND)
            i += 1
            after = items[i]
        else:
            partner = None
        entries.append((value, first, partner, (position, position + mult - 1)))
        position += mult
        first = after
    # completeness: every item read lies in the proven prefix, up to E_n
    if items[i] > last_even:  # pragma: no cover - the bound is proven above
        raise RuntimeError("mode bound too small for requested count")
    return entries


def spectrum(kind: SurfaceKind, T: float, count: int) -> list[EigenvalueEntry]:
    """First `count` nonzero normalized eigenvalues, merged at crossings.

    The entries are those of `_walk`, with a record built for each.
    """
    entries = []
    for value, (_, _, profile, mode), partner, index_range in _walk(kind, T, count):
        group = (Branch(profile, mode),)
        if partner is not None:
            group += (Branch(partner[2], partner[3]),)
        entries.append(EigenvalueEntry(value, group, index_range))
    return entries


def sigma_bar(kind: SurfaceKind, j: int, T: float) -> float:
    """The j-th nonzero normalized eigenvalue, counted with multiplicity.

    It is the value of the last entry of the walk to index j (`_walk`), so it
    costs one table of at most j // 2 + 2 modes per family, sorted once, and
    builds no records.
    """
    j = _check_index(j, "eigenvalue index")
    return _walk(kind, T, j)[-1][0]  # the last entry holds index j


def sigma_bar_grid(kind: SurfaceKind, j_max: int, T) -> np.ndarray:
    """Vectorized sigma_bar for j = 1..j_max over an array of moduli.

    Returns an array of shape (j_max,) + T.shape, a scalar T counting as
    shape (1,).  Used as an independent grid-search route; raises if the mode
    cutoff could have missed a value.
    """
    T = np.atleast_1d(np.asarray(T, dtype=float))
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
    x = np.minimum(T, SATURATION)  # the same bits as T without overflow, as in _walk
    modes = zip(_modes(kind, _EVEN, n_modes + 1), _modes(kind, _ODD, n_modes + 1))
    for m, (a, b) in enumerate(modes, 1):
        lam = scale * a * np.tanh(a * x)
        mus = scale * b * coth(b * x)
        if m <= n_modes:
            rows.extend([lam, lam, mus, mus])
    stacked = np.stack(rows)  # a new leading axis: each modulus sorts alone
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
    even = Branch(_EVEN, _modes(kind, _EVEN, m)[-1])
    if n == 0:
        return LatticeCrossing(
            increasing=even,
            decreasing=_LINEAR,
            modulus=t10 / _double(m),
            height=m / t10,
            value=scale * m / t10,
            first_index=2 * m - 1,
        )
    odd = Branch(_ODD, _modes(kind, _ODD, n)[-1])
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
    first = int(kind is _MOBIUS)
    modes = range(1, _check_index(max_mode, "max_mode") + 1)
    return [_crossing(kind, m, n) for m in modes for n in range(first, m + first)]
