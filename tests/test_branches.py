"""Eigenvalue branches, spectrum assembly, and the piecewise Mobius formula."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov.branches import (
    Branch,
    BranchKind,
    EigenvalueEntry,
    SurfaceKind,
    branch_index,
    branch_value,
    crossing_lattice,
    lambda_bar,
    mu_bar,
    nu_bar,
    sigma_bar,
    sigma_bar_grid,
    spectrum,
)
from steklov.crossings import RESIDUAL_SCALE, coth, crossing_partials, solve_crossing, solve_t10
from steklov.dtn import closed_form_sigma
from steklov.exceptions import DomainError, UnsupportedBranchError
from steklov.extrema import sup_sigma_annulus, sup_sigma_mobius

from mobius_reference import mobius_crossing_modulus, sigma_bar_piecewise_mobius

MB = SurfaceKind.MOBIUS_BAND
AN = SurfaceKind.ANNULUS

# frozen 40-digit references
LAM1_MB_T03 = 6.7487638971784285  # 4*pi*tanh(0.6)
MU1_MB_T03 = 21.568531668788283  # 2*pi*coth(0.3)
LAM2_AN_T1 = 24.228655707393060  # 8*pi*tanh(2)


def test_frozen_branch_values():
    assert lambda_bar(MB, 1, 0.3) == pytest.approx(LAM1_MB_T03, rel=1e-15)
    assert mu_bar(MB, 1, 0.3) == pytest.approx(MU1_MB_T03, rel=1e-15)
    assert lambda_bar(AN, 2, 1.0) == pytest.approx(LAM2_AN_T1, rel=1e-15)
    assert nu_bar(2.0) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_linear_branch_only_on_annulus():
    with pytest.raises(UnsupportedBranchError):
        nu_bar(1.0, kind=MB)


def test_branch_limits_at_large_modulus():
    # lambda_bar -> 4*pi*k, mu_bar -> its scale factor, nu_bar -> 0
    T = 50.0
    for k in (1, 2, 5):
        assert lambda_bar(MB, k, T) == pytest.approx(4.0 * math.pi * k, abs=1e-10)
        assert lambda_bar(AN, k, T) == pytest.approx(4.0 * math.pi * k, abs=1e-10)
        assert mu_bar(AN, k, T) == pytest.approx(4.0 * math.pi * k, abs=1e-10)
        assert mu_bar(MB, k, T) == pytest.approx(
            2.0 * math.pi * (2 * k - 1), abs=1e-10
        )
    assert nu_bar(math.inf) == 0.0


def test_domain_validation():
    with pytest.raises(DomainError):
        lambda_bar(MB, 0, 1.0)
    with pytest.raises(DomainError):
        mu_bar(AN, 1, -2.0)
    with pytest.raises(DomainError):
        sigma_bar(MB, 0, 1.0)
    with pytest.raises(DomainError):
        spectrum(MB, 1.0, 0)


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=1e-2, max_value=1.0),
)
def test_monotonicity_in_modulus(k, scale):
    # strict monotonicity is only visible while tanh/coth have not saturated
    # to 1.0 in double precision, so keep 2*k*T below 8
    T = scale * 4.0 / k
    h = 1e-4 * T
    assert lambda_bar(MB, k, T + h) > lambda_bar(MB, k, T)  # increasing
    assert mu_bar(MB, k, T + h) < mu_bar(MB, k, T)  # decreasing
    assert nu_bar(T + h) < nu_bar(T)


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=15),
    st.floats(min_value=5e-2, max_value=20.0),
)
def test_branch_interleaving(n, T):
    # each even branch stays below the next odd branch: n*tanh < (n+1)*coth
    assert lambda_bar(AN, n, T) < mu_bar(AN, n + 1, T)
    assert lambda_bar(MB, n, T) < mu_bar(MB, n + 1, T)


def test_multiplicity_law():
    assert Branch(BranchKind.LINEAR, 0).multiplicity == 1
    assert Branch(BranchKind.EVEN_HYPERBOLIC, 3).multiplicity == 2
    assert Branch(BranchKind.ODD_HYPERBOLIC, 1).multiplicity == 2


def test_records_are_immutable_and_hash_by_value():
    T = solve_crossing(2.0, 1.0).x  # Mobius T_{1,1}: a merged entry
    entry, again = spectrum(MB, T, 4)[0], spectrum(MB, T, 4)[0]
    branch = entry.branch
    for record, field in ((branch, "kind"), (branch, "mode"), (entry, "value"),
                          (entry, "branches"), (entry, "index_range")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert again is not entry and again == entry and hash(again) == hash(entry)
    copy = Branch(branch.kind, branch.mode)
    assert copy == branch and hash(copy) == hash(branch)
    rebuilt = EigenvalueEntry(entry.value, entry.branches, entry.index_range)
    assert rebuilt == entry and hash(rebuilt) == hash(entry)


@pytest.mark.parametrize("kind", [MB, AN])
@pytest.mark.parametrize("T", [0.1, 0.66, 1.2, 4.0])
def test_spectrum_structure(kind, T):
    entries = spectrum(kind, T, 12)
    values = [e.value for e in entries]
    assert values == sorted(values)
    # index ranges tile 1..count contiguously
    pos = 1
    for e in entries:
        assert e.index_range[0] == pos
        pos = e.index_range[1] + 1
    assert pos > 12
    # branch values recompute to the entry value
    for e in entries:
        for b in e.branches:
            assert branch_value(kind, b, T) == pytest.approx(e.value, rel=1e-9)


def test_spectrum_merges_crossing():
    T = solve_crossing(2.0, 1.0).x  # Mobius T_{1,1}
    entries = spectrum(MB, T, 4)
    assert entries[0].multiplicity == 4
    assert len(entries[0].branches) == 2
    assert entries[0].value == pytest.approx(2.0 * math.pi * math.sqrt(3.0), rel=1e-12)


def test_annulus_linear_branch_in_spectrum():
    entries = spectrum(AN, 3.0, 3)
    kinds = [b.kind for e in entries for b in e.branches]
    assert BranchKind.LINEAR in kinds
    assert sigma_bar(AN, 1, 3.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_sigma_bar_grid_matches_scalar():
    grid = np.geomspace(0.05, 10.0, 50)
    for kind in (MB, AN):
        table = sigma_bar_grid(kind, 8, grid)
        for j in (1, 4, 8):
            for i in (0, 17, 49):
                assert table[j - 1, i] == pytest.approx(
                    sigma_bar(kind, j, float(grid[i])), rel=1e-13
                )
        # a 2-D grid is sorted modulus by modulus, as the 1-D one, and a
        # scalar counts as one modulus
        square = sigma_bar_grid(kind, 8, grid.reshape(5, 10))
        assert square.shape == (8, 5, 10)
        assert square.tobytes() == table.tobytes()
        for (j, r, c), value in np.ndenumerate(square):
            T = float(grid[10 * r + c])
            assert value == pytest.approx(sigma_bar(kind, j + 1, T), rel=1e-13)
        assert sigma_bar_grid(kind, 8, grid[17]).tobytes() == table[:, 17:18].tobytes()


def test_mobius_crossing_modulus_conventions():
    assert mobius_crossing_modulus(3, 0) == 0.0
    assert mobius_crossing_modulus(1, 2) == math.inf
    assert mobius_crossing_modulus(1, 1) == pytest.approx(
        math.atanh(1.0 / math.sqrt(3.0)), rel=1e-14
    )


@pytest.mark.parametrize("j", range(1, 21))
def test_piecewise_equals_sorted_spectrum(j):
    for T in np.geomspace(0.02, 12.0, 60):
        expected = sigma_bar(MB, j, float(T))
        value, branch = sigma_bar_piecewise_mobius(j, float(T))
        assert value == pytest.approx(expected, rel=1e-12)
        assert branch_value(MB, branch, float(T)) == pytest.approx(value, rel=1e-13)


def test_piecewise_pairing():
    # sigma_bar(2k-1) == sigma_bar(2k) on the Mobius band, everywhere
    for T in (0.07, 0.31, 0.66, 1.5, 6.0):
        for k in range(1, 8):
            a = sigma_bar_piecewise_mobius(2 * k - 1, T)[0]
            b = sigma_bar_piecewise_mobius(2 * k, T)[0]
            assert a == b


@pytest.mark.parametrize("kind", [MB, AN])
def test_spectrum_matches_grid_over_full_range(kind):
    # tiny T, where every value is far below 1, and large T, where tanh and
    # coth both round to 1, are where a merge rule that is not exact fails
    j_max = 12
    moduli = np.geomspace(1e-14, 30.0, 400)
    table = sigma_bar_grid(kind, j_max, moduli)
    for i, T in enumerate(moduli):
        entries = spectrum(kind, float(T), j_max)
        values = [e.value for e in entries for _ in range(e.multiplicity)][:j_max]
        np.testing.assert_allclose(values, table[:, i], rtol=1e-12, atol=0.0)
        for j in (1, 2, 5, j_max):
            assert sigma_bar(kind, j, float(T)) == pytest.approx(table[j - 1, i], rel=1e-12)


def test_tiny_mobius_values_stay_apart():
    T = 1e-300
    entries = spectrum(MB, T, 4)
    assert [e.branches for e in entries] == [
        (Branch(BranchKind.EVEN_HYPERBOLIC, 2),),
        (Branch(BranchKind.EVEN_HYPERBOLIC, 4),),
    ]
    assert sigma_bar(MB, 1, T) == lambda_bar(MB, 1, T)
    assert sigma_bar(MB, 3, T) == lambda_bar(MB, 2, T)


@pytest.mark.parametrize("T", [12.0, 30.0])
def test_close_annulus_values_stay_apart(T):
    # lambda_1 and mu_1 never cross (equal frequencies), so they stay
    # separate entries: at T = 12 they differ by about 1.5e-10 relative, at
    # T = 30 both round to 4*pi
    entries = spectrum(AN, T, 5)
    assert [e.branches for e in entries] == [
        (Branch(BranchKind.LINEAR, 0),),
        (Branch(BranchKind.EVEN_HYPERBOLIC, 1),),
        (Branch(BranchKind.ODD_HYPERBOLIC, 1),),
    ]
    assert sigma_bar(AN, 2, T) == lambda_bar(AN, 1, T)
    assert sigma_bar(AN, 4, T) == mu_bar(AN, 1, T)


@pytest.mark.parametrize("kind", [MB, AN])
def test_spectrum_merges_every_lattice_crossing(kind):
    for c in crossing_lattice(kind, 40):
        last = c.first_index + c.multiplicity - 1
        entries = spectrum(kind, c.modulus, last)
        assert entries[-1].index_range == (c.first_index, last)
        assert set(entries[-1].branches) == {c.increasing, c.decreasing}
        assert all(len(e.branches) == 1 for e in entries[:-1])


def test_linear_crossing_residual_is_measured():
    # the linear/even crossing sits at the float t10/m, where m*tanh(m*x) = 1/x
    # holds only to rounding; the residual reports that rounding, within one
    # ulp of 1/x of the exact (50-digit) residual at the same float x
    import mpmath

    linear = [c for c in crossing_lattice(AN, 40) if c.decreasing.kind is BranchKind.LINEAR]
    assert [c.increasing.mode for c in linear] == list(range(1, 41))
    with mpmath.workdps(50):
        for c in linear:
            m, x = c.increasing.mode, mpmath.mpf(c.modulus)
            exact = float(abs(m * mpmath.tanh(m * x) - 1 / x))
            assert abs(c.residual - exact) <= math.ulp(1.0 / c.modulus), m
    assert max(c.residual for c in linear) > 0.0


def test_sigma_bar_grid_rejects_empty_index_range():
    for kind in (MB, AN):
        for j_max in (0, -2):
            with pytest.raises(DomainError):
                sigma_bar_grid(kind, j_max, [1.0])


_NOT_CARRIED = [
    (MB, Branch(BranchKind.EVEN_HYPERBOLIC, 1)),  # even Mobius modes are 2k
    (MB, Branch(BranchKind.EVEN_HYPERBOLIC, 7)),
    (MB, Branch(BranchKind.ODD_HYPERBOLIC, 2)),  # odd Mobius modes are 2l - 1
    (MB, Branch(BranchKind.ODD_HYPERBOLIC, 10)),
    (MB, Branch(BranchKind.LINEAR, 0)),
    (AN, Branch(BranchKind.LINEAR, 5)),  # the linear branch is mode 0
    (AN, Branch(BranchKind.LINEAR, -1)),
]


@pytest.mark.parametrize("kind, branch", _NOT_CARRIED)
def test_branch_value_refuses_a_branch_the_surface_lacks(kind, branch):
    with pytest.raises(UnsupportedBranchError):
        branch_value(kind, branch, 1.0)


@pytest.mark.parametrize("kind, branch", _NOT_CARRIED)
def test_branch_index_refuses_a_branch_the_surface_lacks(kind, branch):
    with pytest.raises(UnsupportedBranchError):
        branch_index(kind, branch)


@pytest.mark.parametrize("kind", [MB, AN])
def test_branch_index_inverts_the_mode_table(kind):
    # the modes are stated by the frozen reference below (_ref_even, _ref_odd),
    # and the library's index -> value map must agree with the branch's value
    assert branch_index(AN, Branch(BranchKind.LINEAR, 0)) == 0
    for i in range(1, 51):
        even, odd = _ref_even(kind, i), _ref_odd(kind, i)
        assert branch_index(kind, even) == branch_index(kind, odd) == i
        assert branch_value(kind, even, 0.7) == lambda_bar(kind, i, 0.7)
        assert branch_value(kind, odd, 0.7) == mu_bar(kind, i, 0.7)


@pytest.mark.parametrize("kind", [MB, AN])
@pytest.mark.parametrize("profile", [BranchKind.EVEN_HYPERBOLIC, BranchKind.ODD_HYPERBOLIC])
@pytest.mark.parametrize("mode", [0, -1, -2])
def test_branch_value_hyperbolic_mode_below_one(kind, profile, mode):
    with pytest.raises(DomainError):
        branch_value(kind, Branch(profile, mode), 1.0)


# ---------------------------------------------------------------------------
# Frozen reference: the branch formulas written out case by case, one per
# surface and profile, with T = inf handled apart.  The library evaluates them
# through one scale and one crossing constructor, and every routine must
# reproduce these bit for bit.

_REF_T = [1e-14, 0.7, 30.0, 1e6, math.inf]
_REF_MODES = list(range(1, 41)) + [997, 10**6]


def _ref_lambda(kind, k, T):
    if math.isinf(T):
        return 4.0 * math.pi * k
    freq = 2 * k if kind is MB else k
    return 4.0 * math.pi * k * math.tanh(freq * T)


def _ref_mu(kind, l, T):
    if kind is MB:
        freq = 2 * l - 1
        scale = 2.0 * math.pi * freq
    else:
        freq = l
        scale = 4.0 * math.pi * l
    if math.isinf(T):
        return scale
    return scale / math.tanh(freq * T)


def _ref_nu(T):
    if math.isinf(T):
        return 0.0
    return 4.0 * math.pi / T


def _ref_even(kind, k):
    return Branch(BranchKind.EVEN_HYPERBOLIC, 2 * k if kind is MB else k)


def _ref_odd(kind, l):
    return Branch(BranchKind.ODD_HYPERBOLIC, 2 * l - 1 if kind is MB else l)


def _ref_crosses(kind, first, v_first, second, v_second):
    even = BranchKind.EVEN_HYPERBOLIC
    increasing, decreasing = (first, second) if first.kind is even else (second, first)
    if increasing.kind is not even or decreasing.kind is even:
        return False
    if increasing.mode <= decreasing.mode:
        return False
    scale = 2.0 * math.pi if kind is MB else 4.0 * math.pi
    return v_second - v_first <= scale * RESIDUAL_SCALE * (increasing.mode + decreasing.mode)


def _ref_spectrum(kind, T, count):
    # the first count + 3 values of each family hold the first count + 3
    # values overall, because each family increases with the mode
    n = count + 3
    items = [(_ref_lambda(kind, m, T), 2 * m - 1, _ref_even(kind, m)) for m in range(1, n + 1)]
    items += [(_ref_mu(kind, m, T), 2 * m, _ref_odd(kind, m)) for m in range(1, n + 1)]
    if kind is AN:
        items.append((_ref_nu(T), 0, Branch(BranchKind.LINEAR, 0)))
    merged = iter(sorted(items))
    entries = []
    position = 1
    value, _, branch = next(merged)
    while position <= count:
        next_value, _, next_branch = next(merged)
        group = (branch,)
        if _ref_crosses(kind, branch, value, next_branch, next_value):
            group = (branch, next_branch)
            next_value, _, next_branch = next(merged)
        mult = sum(b.multiplicity for b in group)
        entries.append((value, group, (position, position + mult - 1)))
        position += mult
        value, branch = next_value, next_branch
    return entries


def _ref_grid(kind, j_max, T):
    n_modes = (j_max + 1) // 2
    rows = []
    if kind is AN:
        rows.append(4.0 * math.pi / T)
    for m in range(1, n_modes + 1):
        if kind is MB:
            lam = 4.0 * math.pi * m * np.tanh(2 * m * T)
            mus = 2.0 * math.pi * (2 * m - 1) * coth((2 * m - 1) * T)
        else:
            lam = 4.0 * math.pi * m * np.tanh(m * T)
            mus = 4.0 * math.pi * m * coth(m * T)
        rows.extend([lam, lam, mus, mus])
    stacked = np.vstack(rows)
    stacked.sort(axis=0)
    return stacked[:j_max]


def _ref_lattice(kind, max_mode):
    mobius = kind is MB
    t10 = solve_t10()
    lattice = []
    for m in range(1, max_mode + 1):
        even = _ref_even(kind, m)
        if not mobius:
            linear = Branch(BranchKind.LINEAR, 0)
            x = t10 / m
            residual = abs(m * math.tanh(m * x) - 1.0 / x)  # m tanh(m x) = 1/x
            value = min(_ref_lambda(kind, m, x), _ref_nu(x))  # the lower branch value
            lattice.append((even, linear, x, m / t10, value, residual, 2 * m - 1))
        for n in range(1, m + 1 if mobius else m):
            odd = _ref_odd(kind, n)
            point = solve_crossing(float(even.mode), float(odd.mode))
            first = 2 * (m + n) - 3 + (not mobius and point.x > t10 / m)
            value = min(_ref_lambda(kind, m, point.x), _ref_mu(kind, n, point.x))
            lattice.append((even, odd, point.x, point.height, value, point.residual, first))
    return lattice


def _ref_sup_mobius(j):
    # the lower branch value at T_{k,1}
    k = (j + 1) // 2
    x = solve_crossing(2.0 * k, 1.0).x
    return min(_ref_lambda(MB, k, x), _ref_mu(MB, 1, x)), True, x


def _ref_sup_annulus(j):
    # the lower branch value at t10/k, or at t_{k,1}
    t10 = solve_t10()
    if j % 2 == 1:
        k = (j + 1) // 2
        x = t10 / k
        return min(_ref_lambda(AN, k, x), _ref_nu(x)), True, x
    k = j // 2
    if k == 1:
        return 4.0 * math.pi, False, None
    x = solve_crossing(float(k), 1.0).x
    return min(_ref_lambda(AN, k, x), _ref_mu(AN, 1, x)), True, x


def _hex(values):
    return [None if v is None else float(v).hex() for v in values]


@pytest.mark.parametrize("kind", [MB, AN])
def test_branch_formulas_match_frozen_reference_bitwise(kind):
    for T in _REF_T:
        for m in _REF_MODES:
            want = _hex([_ref_lambda(kind, m, T), _ref_mu(kind, m, T)])
            assert _hex([lambda_bar(kind, m, T), mu_bar(kind, m, T)]) == want, (m, T)
            got = [
                branch_value(kind, _ref_even(kind, m), T),
                branch_value(kind, _ref_odd(kind, m), T),
            ]
            assert _hex(got) == want, (m, T)
        if kind is AN:
            got = [nu_bar(T), branch_value(kind, Branch(BranchKind.LINEAR, 0), T)]
            assert _hex(got) == _hex([_ref_nu(T)] * 2)


@pytest.mark.parametrize("kind", [MB, AN])
def test_spectrum_matches_frozen_reference_bitwise(kind):
    # spectrum refuses T = inf; at the lattice's crossings entries merge
    moduli = _REF_T[:-1] + [c.modulus for c in crossing_lattice(kind, 20)]
    for T in moduli:
        reference = _ref_spectrum(kind, T, 60)
        got = [(e.value.hex(), e.branches, e.index_range) for e in spectrum(kind, T, 60)]
        assert got == [(v.hex(), b, r) for v, b, r in reference], T
        for v, _, (lo, hi) in reference:
            for j in range(lo, min(hi, 60) + 1):
                assert sigma_bar(kind, j, T).hex() == v.hex(), (T, j)
        for f in (1.0, 0.3):
            length = (2.0 if kind is MB else 4.0) * math.pi * f
            values = [v / length for v, _, (lo, hi) in reference for _ in range(lo, hi + 1)]
            assert closed_form_sigma(kind, T, f, 60).tobytes() == np.array(values[:60]).tobytes()


@pytest.mark.parametrize("kind", [MB, AN])
def test_sigma_bar_grid_matches_frozen_reference_bitwise(kind):
    moduli = np.geomspace(1e-14, 30.0, 2000)
    for j_max in (1, 2, 13):
        got = sigma_bar_grid(kind, j_max, moduli)
        assert got.tobytes() == _ref_grid(kind, j_max, moduli).tobytes()


@pytest.mark.parametrize("kind", [MB, AN])
def test_crossing_lattice_matches_frozen_reference_bitwise(kind):
    got = [
        (c.increasing, c.decreasing, _hex([c.modulus, c.height, c.value, c.residual]),
         c.first_index)
        for c in crossing_lattice(kind, 20)
    ]
    want = [(inc, dec, _hex(floats), first) for inc, dec, *floats, first in _ref_lattice(kind, 20)]
    assert got == want


def test_suprema_match_frozen_reference_bitwise():
    routes = ((sup_sigma_mobius, _ref_sup_mobius), (sup_sigma_annulus, _ref_sup_annulus))
    for j in range(1, 41):
        for sup, ref in routes:
            r = sup(j)
            value, attained, modulus = ref(j)
            assert r.j == j and r.attained is attained
            assert _hex([r.value, r.attaining_modulus]) == _hex([value, modulus]), (sup, j)


# counts 1-40 plus three large ones; moduli log-uniform over the range aim 3
# names, plus the two ends a double can represent
_WIDE_COUNTS = list(range(1, 41)) + [97, 500, 2000]
_WIDE_T = 10.0 ** np.random.default_rng(1702).uniform(-14.0, math.log10(30.0), 12)
_WIDE_T = [float(T) for T in _WIDE_T] + [5e-324, 1e300]


def _assert_matches_reference(kind, T, counts):
    # the reference for fewer values is a prefix of the one for the most: its
    # entries that start at or below the count
    reference = _ref_spectrum(kind, T, max(counts))
    for count in counts:
        want = [(v.hex(), b, r) for v, b, r in reference if r[0] <= count]
        got = [(e.value.hex(), e.branches, e.index_range) for e in spectrum(kind, T, count)]
        assert got == want, (kind, T, count)
        assert sigma_bar(kind, count, T).hex() == want[-1][0], (kind, T, count)
    return reference


@pytest.mark.parametrize("kind", [MB, AN])
def test_spectrum_matches_frozen_reference_over_wide_corpus(kind):
    length = (2.0 if kind is MB else 4.0) * math.pi
    for T in _WIDE_T:
        reference = _assert_matches_reference(kind, T, _WIDE_COUNTS)
        values = [v / length for v, _, (lo, hi) in reference for _ in range(lo, hi + 1)]
        for count in (1, 12, 2000):
            got = closed_form_sigma(kind, T, 1.0, count)
            assert got.tobytes() == np.array(values[:count]).tobytes(), (T, count)
    for c in crossing_lattice(kind, 30):
        last = c.first_index + c.multiplicity - 1
        _assert_matches_reference(kind, c.modulus, (c.first_index, last, last + 1))


@pytest.mark.parametrize("kind", [MB, AN])
def test_spectrum_reports_only_real_crossings(kind):
    # a merged entry is a crossing the solver finds: the unnormalized heights
    # agree within the merge bound, at the solved modulus itself
    t10 = solve_t10()

    def merges(T, count):
        found = [e for e in spectrum(kind, T, count) if len(e.branches) == 2]
        for e in found:
            first_even = e.branches[0].kind is BranchKind.EVEN_HYPERBOLIC
            even, other = e.branches if first_even else e.branches[::-1]
            a, b = even.mode, other.mode
            if other.kind is BranchKind.LINEAR:
                assert T == t10 / a
                assert abs(a * math.tanh(a * T) - 1.0 / T) <= RESIDUAL_SCALE * a
            else:
                assert T == solve_crossing(a, b).x
                assert abs(a * math.tanh(a * T) - b * coth(b * T)) <= RESIDUAL_SCALE * (a + b)
        return found

    for c in crossing_lattice(kind, 30):
        assert merges(c.modulus, c.first_index + c.multiplicity + 3)
    for T in 10.0 ** np.random.default_rng(1703).uniform(-14.0, math.log10(30.0), 400):
        assert merges(float(T), 40) == []


class _NoNumPy:
    """Stands in for a NumPy binding: any use of it fails the test."""

    def __call__(self, *args, **kwargs):
        raise AssertionError("array call on the scalar path")

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} on the scalar path")


@pytest.mark.parametrize("kind", [MB, AN])
def test_scalar_path_makes_no_numpy_call(monkeypatch, kind):
    # both hyperbolic profiles come from math.tanh: the array coth, and NumPy
    # itself, serve only sigma_bar_grid
    import steklov.branches as branches

    monkeypatch.setattr(branches, "coth", _NoNumPy())
    monkeypatch.setattr(branches, "np", _NoNumPy())
    for T in (1e-320, 0.03, 0.7, 40.0, 1e308):
        assert len(spectrum(kind, T, 200)) >= 100
        assert sigma_bar(kind, 7, T) > 0.0
        assert lambda_bar(kind, 3, T) > 0.0 and mu_bar(kind, 3, T) > 0.0
        assert branch_value(kind, _ref_odd(kind, 2), T) > 0.0
    assert nu_bar(0.7) == 4.0 * math.pi / 0.7
    assert len(crossing_lattice(kind, 6)) == 21
    sup = sup_sigma_mobius if kind is MB else sup_sigma_annulus
    assert all(sup(j).value > 0.0 for j in range(1, 13))
    with pytest.raises(AssertionError, match="scalar path"):
        sigma_bar_grid(kind, 4, [0.7])  # the array route still reads them


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [MB, AN])
@pytest.mark.parametrize("T", [5e-324, 1e-320, 1e308, sys.float_info.max])
def test_subnormal_modulus_raises_no_warning(kind, T):
    # at a subnormal T every odd value and the linear one overflow to +inf,
    # and the even values stay finite and fill the spectrum; at 1e308 and the
    # largest double, mode * T overflows and every hyperbolic value saturates
    reference = _ref_spectrum(kind, T, 6)
    entries = spectrum(kind, T, 6)
    got = [(e.value.hex(), e.branches, e.index_range) for e in entries]
    assert got == [(v.hex(), b, r) for v, b, r in reference]
    values = [v for v, _, (lo, hi) in reference for _ in range(lo, hi + 1)][:6]
    if T < 1.0:
        assert mu_bar(kind, 1, T) == math.inf
        assert [e.branches for e in entries] == [(_ref_even(kind, m),) for m in (1, 2, 3)]
        assert values == [lambda_bar(kind, m, T) for m in (1, 1, 2, 2, 3, 3)]
    assert [sigma_bar(kind, j, T) for j in range(1, 7)] == values
    length = (2.0 if kind is MB else 4.0) * math.pi
    assert closed_form_sigma(kind, T, 1.0, 6).tolist() == [v / length for v in values]
    assert sigma_bar_grid(kind, 6, [T])[:, 0].tolist() == values


# ---------------------------------------------------------------------------
# Certification against 50-digit roots: the corners of both lattices up to
# mode index 60, and the closed-form partials of the crossing.  Each lattice
# entry is `solve_crossing` of its two modes (pinned bitwise above), so the
# corners are read from the solver and the suprema; a cold
# `crossing_lattice(kind, 60)` would also solve its 1700 interior crossings.


def _mp_crossing(a, b, x0):
    """(x, a*tanh(a*x)) where a*tanh(a*x) meets b*coth(b*x), or 1/x for b = 0.

    Newton with the exact derivative from the double root x0, at the
    caller's working precision.
    """
    tanh, coth, sech, csch = mpmath.tanh, mpmath.coth, mpmath.sech, mpmath.csch
    if b == 0:
        F = lambda x: a * tanh(a * x) - 1 / x  # noqa: E731
        dF = lambda x: a * a * sech(a * x) ** 2 + 1 / x**2  # noqa: E731
    else:
        F = lambda x: a * tanh(a * x) - b * coth(b * x)  # noqa: E731
        dF = lambda x: a * a * sech(a * x) ** 2 + b * b * csch(b * x) ** 2  # noqa: E731
    x = mpmath.findroot(F, mpmath.mpf(x0), solver="newton", df=dF)
    return x, a * tanh(a * x)


def _rel(value, exact):
    return float(abs(mpmath.mpf(value) - exact) / abs(exact))


def test_mobius_lattice_corners_match_50_digit_roots():
    # T_{k,1} and T_{k,k}: even mode 2k meets odd mode 2l - 1
    corners = {(k, l) for k in range(1, 61) for l in (1, k)}
    assert len(corners) == 119
    with mpmath.workdps(50):
        for k, l in sorted(corners):
            point = solve_crossing(2 * k, 2 * l - 1)
            x, height = _mp_crossing(2 * k, 2 * l - 1, point.x)
            assert _rel(point.x, x) <= 1e-14, (k, l)
            assert _rel(point.height, height) <= 1e-14, (k, l)
        for k in range(1, 61):  # the supremum of sigma_bar_{2k} sits at T_{k,1}
            sup = sup_sigma_mobius(2 * k)
            assert sup.attaining_modulus == solve_crossing(2 * k, 1).x
            assert sup.value == _ref_sup_mobius(2 * k)[0]


def test_annulus_lattice_corners_match_50_digit_roots():
    # t10/m on the linear branch (n = 0), read from the suprema of the odd
    # indices, and t_{m,1} for m >= 2: even mode m meets odd mode 1
    with mpmath.workdps(50):
        assert _rel(solve_t10(), _mp_crossing(1, 0, 1.2)[0]) <= 1e-14
        for m in range(1, 61):
            sup = sup_sigma_annulus(2 * m - 1)
            x, height = _mp_crossing(m, 0, sup.attaining_modulus)
            assert _rel(sup.attaining_modulus, x) <= 1e-14, m
            assert _rel(sup.value, 4 * mpmath.pi * height) <= 1e-14, m
        for m in range(2, 61):
            point = solve_crossing(m, 1)
            x, height = _mp_crossing(m, 1, point.x)
            assert _rel(point.x, x) <= 1e-14, m
            assert _rel(point.height, height) <= 1e-14, m


def test_lattice_interiors_match_50_digit_roots():
    # every pair off the corners for index k <= 20 and k = 40, 60: band
    # T_{k,l} (even mode 2k, odd mode 2l - 1) and annulus t_{m,n}, 1 < l < k
    pairs = [(k, l) for k in [*range(3, 21), 40, 60] for l in range(2, k)]
    assert len(pairs) == 267
    with mpmath.workdps(50):
        for k, l in pairs:
            for a, b in ((2 * k, 2 * l - 1), (k, l)):
                point = solve_crossing(a, b)
                x, height = _mp_crossing(a, b, point.x)
                assert _rel(point.x, x) <= 1e-14, (a, b)
                assert _rel(point.height, height) <= 1e-14, (a, b)


@pytest.mark.parametrize(
    "a, b", [(2, 1), (4, 1), (9, 1), (120, 1), (4, 3), (8, 7), (60, 59), (120, 119)]
)
def test_crossing_partials_match_50_digit_derivatives(a, b):
    # mpmath.diff of the 50-digit root and height in each mode.  The partials
    # inherit the double root's error (up to ~5e-15 relative at adjacent
    # modes, where they amplify it about 2*a*x ~ 6 times), hence 5e-14.  At
    # b*x < 1/2 ((4, 1), (9, 1), (120, 1)) coth(bx) - bx*csch(bx)^2 cancels
    # in double precision and must be summed from its series.
    x0 = solve_crossing(a, b).x
    p = crossing_partials(a, b)
    with mpmath.workdps(50):
        exact = (
            mpmath.diff(lambda s: _mp_crossing(s, b, x0)[0], a),
            mpmath.diff(lambda t: _mp_crossing(a, t, x0)[0], b),
            mpmath.diff(lambda s: _mp_crossing(s, b, x0)[1], a),
            mpmath.diff(lambda t: _mp_crossing(a, t, x0)[1], b),
        )
        got = (p.dx_da, p.dx_db, p.du_da, p.du_db)
        assert max(_rel(g, e) for g, e in zip(got, exact)) <= 5e-14


# log-uniform moduli over the normal range the odd values stay finite in, plus
# the subnormal and near-overflow moduli where scale*b/tanh(b*T) passes the
# largest double
_ODD_CORPUS = sorted(
    10.0 ** np.random.default_rng(3407).uniform(-300.0, 3.0, 150)
) + [5e-324, 1e-320, 1e-310, 1e-308, 5e-308, 7e-308, 1e-307]


@pytest.mark.parametrize("kind", [MB, AN])
def test_odd_values_match_50_digit_coth(kind):
    # mu_bar is scale*b / math.tanh(b*T); its exact value is scale*b*coth(b*T)
    # with the exact 2*pi or 4*pi.  Four rounding steps (scale, scale*b, tanh,
    # the quotient) stay within 4 eps, and a value past the largest double is +inf
    eps, largest = sys.float_info.epsilon, mpmath.mpf(sys.float_info.max)
    infinite = 0
    with mpmath.workdps(50):
        scale = (2 if kind is MB else 4) * mpmath.pi
        for l in range(1, 61):
            b = 2 * l - 1 if kind is MB else l
            for T in _ODD_CORPUS:
                got = mu_bar(kind, l, float(T))
                exact = scale * b * mpmath.coth(b * mpmath.mpf(float(T)))
                if exact > largest:
                    assert got == math.inf, (l, T)
                    infinite += 1
                else:
                    assert _rel(got, exact) <= 4 * eps, (l, T)
    assert infinite > 0  # the overflow side is reached
