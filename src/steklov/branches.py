"""Closed-form normalized Steklov eigenvalue branches.

On the flat cylinder [-T, T] x S^1 separation of variables gives harmonic
functions alpha(t)*beta(theta) with alpha in {cosh(at), sinh(at), t, 1}.
Each profile yields one eigenvalue branch as a function of the conformal
modulus T; normalizing by total boundary length removes the conformal
factor entirely, so every branch is one formula in T alone:

    scale * a * tanh(a*T)   even (cosh profile)
    scale * a / tanh(a*T)   odd (sinh profile): scale * a * coth(a*T)
    scale / T               linear (profile t, mode 0; the a -> 0 limit of the odd one)

where a is the branch's theta-mode and scale is the boundary length per
unit conformal factor, 2*pi per boundary circle (`_SCALE`).  Every mode is
read from one table, `_modes`, and `branch_value` checks it:

    Mobius band (one circle, scale 2*pi; quotient (t, theta) ~ (-t, theta + pi)):
        even branch k   mode a = 2k
        odd branch l    mode a = 2l-1
    Annulus (two circles, scale 4*pi):
        even branch k   mode a = k
        odd branch n    mode a = n
        linear branch   mode 0, value 4*pi / T

`_value` evaluates the formula with scalar `math.tanh` on both hyperbolic
profiles, and `spectrum` orders the same values: no NumPy call, so their bits
do not depend on NumPy's SIMD dispatch.  `sigma_bar_grid` is the array route
(`np.tanh` and the array `crossings.coth`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .crossings import RESIDUAL_SCALE, SATURATION, coth, solve_crossing, solve_t10
from .exceptions import DomainError, UnsupportedBranchError, _check_index, _check_modulus, _check_positive
from .kinds import SurfaceKind


class BranchKind(Enum):
    EVEN_HYPERBOLIC = "even_hyperbolic"  # cosh profile, increasing in T
    ODD_HYPERBOLIC = "odd_hyperbolic"  # sinh profile, decreasing in T
    LINEAR = "linear"  # profile t, annulus only


class Branch(NamedTuple):
    """One separated-variables eigenvalue family: parity plus Fourier mode."""

    kind: BranchKind
    mode: int  # Fourier frequency in theta; 0 for the linear branch

    @property
    def multiplicity(self) -> int:
        return 1 if self.kind is BranchKind.LINEAR else 2

    def label(self) -> str:
        return f"{self.kind.value}:{self.mode}"


_LINEAR = Branch(BranchKind.LINEAR, 0)


class EigenvalueEntry(NamedTuple):
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


class _KindTable(dict):
    """A dict keyed by SurfaceKind whose failed lookup raises DomainError.

    `__missing__` runs only on a miss: a good kind adds no call and no check."""

    def __missing__(self, kind):
        raise DomainError(f"kind must be a SurfaceKind, got {kind!r}")


# Boundary length per unit conformal factor: 2*pi per boundary circle.
_SCALE = _KindTable({SurfaceKind.MOBIUS_BAND: 2.0 * math.pi, SurfaceKind.ANNULUS: 4.0 * math.pi})

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
    """scale * a * tanh(a*T), or scale * a / tanh(a*T) if odd; the linear branch is scale / T.

    `spectrum` evaluates the same expressions, grouped left to right, so both
    give the same bits.  A product past the double range is inf and tanh(inf)
    is 1.0, so huge T needs no clamp; a subnormal T gives +inf on the odd branch.
    """
    if profile is _EVEN:
        return _SCALE[kind] * a * math.tanh(a * T)
    if profile is _ODD:
        return _SCALE[kind] * a / math.tanh(a * T)
    return _SCALE[kind] / T


def lambda_bar(kind: SurfaceKind, mode_index: int, T: float):
    """Even (cosh-profile) normalized eigenvalue; increasing in T."""
    k = _check_index(mode_index)
    return _value(kind, _EVEN, _modes(kind, _EVEN, k)[-1], _check_modulus(T))


def mu_bar(kind: SurfaceKind, mode_index: int, T: float):
    """Odd (sinh-profile) normalized eigenvalue; decreasing in T, +inf at 0+."""
    l = _check_index(mode_index)
    return _value(kind, _ODD, _modes(kind, _ODD, l)[-1], _check_modulus(T))


def nu_bar(T: float):
    """Linear-profile normalized eigenvalue 4*pi/T, on the annulus (the Mobius band has none)."""
    return _value(SurfaceKind.ANNULUS, _LINEAR_KIND, 0, _check_modulus(T))


def branch_value(kind: SurfaceKind, branch: Branch, T: float) -> float:
    """Evaluate a Branch descriptor at modulus T.

    A branch the surface does not carry (a mode not in its `_modes` table; the
    linear one is mode 0 on the annulus only) raises UnsupportedBranchError;
    a bad kind raises DomainError."""
    _SCALE[kind]  # the lookup refuses a kind that is not a SurfaceKind
    if branch.kind is _LINEAR_KIND:
        if branch.mode != 0:
            raise UnsupportedBranchError(f"the linear branch has mode 0, got {branch.mode}")
        if kind is _MOBIUS:
            raise UnsupportedBranchError("the Mobius band has no linear branch")
        mode = 0
    else:
        mode = _check_index(branch.mode)
        if mode not in _modes(kind, branch.kind, mode):
            raise UnsupportedBranchError(f"the Mobius band has no branch {branch.label()}")
    return _value(kind, branch.kind, mode, _check_modulus(T))


def spectrum(kind: SurfaceKind, T: float, count: int) -> list[EigenvalueEntry]:
    """First `count` nonzero normalized eigenvalues, merged at crossings.

    Each entry holds its value, its one or two branches and the positions it
    occupies, counting multiplicity.  `sigma_bar`, `dtn.closed_form_sigma`
    and `steklov sweep` read these entries too.

    One table holds the even branches of indices 1..count // 2 + 2, the odd
    branches of those indices that can sort below the last even one and, on
    the annulus, the linear branch.  Both hyperbolic profiles come from scalar
    `math.tanh`, scale * a * tanh(a*T) and scale * b / tanh(b*T), bit for bit
    the values of `_value`.  One sort orders the table, and one walk of its sorted
    prefix builds the entries.  Two adjacent rows share one entry only where
    the two branches cross: an increasing (even) branch meets a decreasing
    one (odd, or linear of mode 0) of lower mode, and at the solved crossing
    their values differ by at most the crossing solver's bound
    RESIDUAL_SCALE * (a + b), times the 2*pi or 4*pi that normalizes the
    heights a*tanh(a*x) = b*coth(b*x).  Distinct branches that are merely
    close stay apart.
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
    #     index and rank.  With t = fl(tanh) in (0, 1] and rounding monotone,
    #     an even value of mode a is fl(fl(scale*a) * t) <= fl(scale*a), and
    #     an odd value of mode b is fl(fl(scale*b) / t) >= fl(scale*b): the
    #     left-to-right grouping of both expressions is what this needs.  So
    #     an odd item whose fl(scale*b) exceeds E_n's value, the only ones of
    #     index <= n left out, lies above it; one of index > n has mode b >= odd mode n + 1
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
    # the expressions of _value, so no clamp: mode * T past the double range is
    # inf, whose tanh is 1.0, and a subnormal T makes the odd values +inf
    tanh = math.tanh  # scalar: np.tanh differs from math.tanh in the last bit
    even_ranks, odd_ranks = range(1, 2 * n, 2), range(2, 2 * n + 1, 2)
    items = [(scale * a * tanh(a * T), r, _EVEN, a) for r, a in zip(even_ranks, even_modes)]
    last_even = items[-1]
    odd_modes = odd_modes[: bisect_right(odd_modes, last_even[0], key=lambda b: scale * b)]
    items += [(scale * b / tanh(b * T), r, _ODD, b) for r, b in zip(odd_ranks, odd_modes)]
    if kind is not _MOBIUS:
        items.append((scale / T, 0, _LINEAR_KIND, 0))
    items.sort()

    unit = scale * RESIDUAL_SCALE
    # tuple.__new__ fills a record with its fields in order, without the
    # Python-level __new__ frame of the NamedTuple's own constructor
    new = tuple.__new__
    entries = []
    position = 1
    i = 0  # index of the last item read
    value, _, profile, a = items[0]
    while position <= count:
        i += 1
        next_value, _, next_profile, b = items[i]
        mult = 2 - (profile is _LINEAR_KIND)  # the linear branch alone is simple
        even_first = profile is _EVEN
        if (
            next_value - value <= unit * (a + b)
            and even_first is not (next_profile is _EVEN)
            and (a > b if even_first else b > a)  # the even mode is the larger
        ):
            group = (new(Branch, (profile, a)), new(Branch, (next_profile, b)))
            mult += 2 - (next_profile is _LINEAR_KIND)
            i += 1
            next_value, _, next_profile, b = items[i]
        else:
            group = (new(Branch, (profile, a)),)
        entries.append(new(EigenvalueEntry, (value, group, (position, position + mult - 1))))
        position += mult
        value, profile, a = next_value, next_profile, b
    # completeness: every item read lies in the proven prefix, up to E_n
    if items[i] > last_even:  # pragma: no cover - the bound is proven above
        raise RuntimeError("mode bound too small for requested count")
    return entries


def sigma_bar(kind: SurfaceKind, j: int, T: float) -> float:
    """The j-th nonzero normalized eigenvalue, counted with multiplicity.

    It is the value of the last entry of `spectrum` to index j, so it costs
    one table of at most j // 2 + 2 modes per family, sorted once, and one
    record per entry up to j.
    """
    j = _check_index(j, "eigenvalue index")
    return spectrum(kind, T, j)[-1].value  # the last entry holds index j


def sigma_bar_grid(kind: SurfaceKind, j_max: int, T) -> np.ndarray:
    """Vectorized sigma_bar for j = 1..j_max over an array of moduli.

    Returns a new C-contiguous array of shape (j_max,) + T.shape, a scalar T
    counting as shape (1,).  An independent reference route, evaluated with
    np.tanh and the array `crossings.coth`:
    `extrema.grid_supremum` and the spectrum-ordering check of `verify
    --suite lemmas` read it, and no command prints its values.  Raises if
    the mode cutoff could have missed a value.
    """
    try:
        T = np.atleast_1d(np.asarray(T, dtype=float))
    except OverflowError:  # an integer past the double range, refused below
        T = np.array([math.inf])
    if np.any(T <= 0.0) or not np.all(np.isfinite(T)):
        raise DomainError("moduli must be positive and finite")
    j_max = _check_index(j_max, "j_max")
    # the even branches of modes 1..ceil(j_max/2) alone give j_max values,
    # and every branch of a higher mode lies above them
    n_modes = (j_max + 1) // 2
    # np.tanh, not the math.tanh of _value: the two differ in the last bit
    scale = _SCALE[kind]
    linear = int(kind is SurfaceKind.ANNULUS)
    width = linear + 4 * n_modes  # the values sorted, each hyperbolic one twice
    # one row per modulus, so each modulus sorts alone along the contiguous
    # last axis; the two columns past `width` hold the omitted mode n_modes + 1
    rows = np.empty(T.shape + (width + 2,))
    if linear:
        with np.errstate(over="ignore"):  # +inf, as nu_bar gives, for subnormal T
            np.divide(scale, T, out=rows[..., 0])
    x = np.minimum(T, SATURATION)  # the same bits as T, without overflow warnings
    modes = zip(_modes(kind, _EVEN, n_modes + 1), _modes(kind, _ODD, n_modes + 1))
    for col, (a, b) in zip(range(linear, width + 1, 4), modes):
        lam, mus = rows[..., col], rows[..., col + 1]
        # scale * a * np.tanh(a * x) and scale * b * coth(b * x), bit for bit
        np.multiply(scale * a, np.tanh(a * x), out=lam)
        np.multiply(scale * b, coth(b * x), out=mus)
        if col < width:
            rows[..., col + 2] = lam
            rows[..., col + 3] = mus
    rows[..., :width].sort()  # in place
    # a C-contiguous copy of the rows returned: the caller keeps no view of
    # the sort buffer
    out = np.moveaxis(rows[..., :j_max], -1, 0).copy()
    # completeness: the omitted mode, left in lam and mus, must lie above row j_max
    if not np.all(np.minimum(lam, mus) > out[-1]):  # pragma: no cover - cutoff is generous
        raise RuntimeError("mode cutoff too small for requested j_max")
    return out


@dataclass(frozen=True)
class LatticeCrossing:
    """Where an increasing branch meets a decreasing one, and its eigenvalue cluster."""

    increasing: Branch  # even
    decreasing: Branch  # odd, or linear on the annulus
    modulus: float
    height: float  # the solver's unnormalized height a*tanh(a*x), or m/t10 on the linear branch
    value: float  # sigma_bar at first_index and the modulus: the lower branch value there
    first_index: int  # lowest eigenvalue index of the cluster
    residual: float  # |crossing equation| at the modulus, set once by `_crossing`
    branch_indices: tuple[int, int]  # (k, l) on the band, (m, n) on the annulus; n = 0 is linear

    @property
    def multiplicity(self) -> int:
        return self.increasing.multiplicity + self.decreasing.multiplicity


def _crossing(kind: SurfaceKind, m: int, n: int) -> LatticeCrossing:
    """The crossing of even branch m with odd branch n (n = 0: the linear branch), labelled (m, n).

    It solves a*tanh(a*x) = b*coth(b*x) for the two modes a > b and keeps the
    solver's residual, or sits at the float t10/m on the linear branch, where
    the residual of m*tanh(m*x) = 1/x is a rounding error, not zero.  Its value
    is the lower of the two branch values `_value` gives at that modulus, the
    value `spectrum` reports for the merged entry there, so it is sigma_bar at
    the cluster's first index bit for bit.  That first index counts the values
    below it: each branch family increases with mode at fixed T, every odd
    annulus branch lies above the linear one, and the linear branch lies below
    even mode m exactly when T > t10/m.
    """
    t10 = solve_t10()
    even = Branch(_EVEN, _modes(kind, _EVEN, m)[-1])
    if n == 0:
        decreasing, x, height = _LINEAR, t10 / _check_positive(m, "mode"), m / t10
        residual = abs(m * math.tanh(m * x) - 1.0 / x)
        first_index = 2 * m - 1
    else:
        decreasing = Branch(_ODD, _modes(kind, _ODD, n)[-1])
        point = solve_crossing(even.mode, decreasing.mode)
        x, height, residual = point.x, point.height, point.residual
        # on the annulus the linear value is below the cluster too
        first_index = 2 * (m + n) - 3 + (kind is not _MOBIUS and x > t10 / m)
    value = min(
        _value(kind, _EVEN, even.mode, x), _value(kind, decreasing.kind, decreasing.mode, x)
    )
    return LatticeCrossing(even, decreasing, x, height, value, first_index, residual, (m, n))


def crossing_lattice(kind: SurfaceKind, max_mode: int) -> list[LatticeCrossing]:
    """Every crossing of an increasing and a decreasing branch up to max_mode.

    Mobius band: even mode 2k meets odd mode 2l-1 at T_{k,l}, l <= k.
    Annulus: even mode m meets the linear branch (n = 0) at t10/m, then odd
    mode n at t_{m,n}, n < m.  The list runs over k (or m) = 1..max_mode,
    and inside each over l = 1..k (or n = 0..m-1).
    """
    first = int(kind is _MOBIUS)
    modes = range(1, _check_index(max_mode, "max_mode") + 1)
    return [_crossing(kind, m, n) for m in modes for n in range(first, m + first)]
