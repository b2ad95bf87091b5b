"""Suprema, critical-set classification, and the inequality suites."""

import math

import numpy as np
import pytest

from steklov import branches, extrema
from steklov.branches import (
    SurfaceKind,
    crossing_lattice,
    lambda_bar,
    mu_bar,
    sigma_bar,
    sigma_bar_grid,
    spectrum,
)
from steklov.crossings import solve_crossing, solve_t10
from steklov.exceptions import DomainError
from steklov.extrema import (
    Character,
    InequalityRecord,
    critical_set,
    grid_supremum,
    sup_sigma_annulus,
    sup_sigma_mobius,
    verify_first_intersection_max,
    verify_no_asymptote,
)

MB = SurfaceKind.MOBIUS_BAND
AN = SurfaceKind.ANNULUS

# frozen 40-digit references
SUP_MB = {
    1: 10.882796185405307,  # 2*pi*sqrt(3)
    3: 21.144160520576416,
    5: 31.552992417674272,
}
SUP_AN_EVEN = {4: 21.765592370810614, 6: 31.949491576512429}
T10 = 1.1996786402577338


@pytest.mark.parametrize("j,expected", sorted(SUP_MB.items()))
def test_mobius_suprema_frozen(j, expected):
    for jj in (j, j + 1):  # eigenvalues come in equal pairs
        result = sup_sigma_mobius(jj)
        assert result.value == pytest.approx(expected, rel=1e-14)
        assert result.attained


def test_mobius_first_supremum_closed_form():
    result = sup_sigma_mobius(1)
    assert result.value == pytest.approx(2.0 * math.pi * math.sqrt(3.0), abs=1e-12)
    assert result.attaining_modulus == pytest.approx(
        math.atanh(1.0 / math.sqrt(3.0)), abs=1e-13
    )


def test_annulus_odd_suprema():
    for k in range(1, 11):
        result = sup_sigma_annulus(2 * k - 1)
        assert result.value == pytest.approx(4.0 * math.pi * k / T10, rel=1e-12)
        assert result.attained
        assert result.attaining_modulus == pytest.approx(T10 / k, rel=1e-12)


def test_annulus_second_not_attained():
    result = sup_sigma_annulus(2)
    assert result.value == pytest.approx(4.0 * math.pi, abs=1e-14)
    assert not result.attained
    assert result.attaining_modulus is None


@pytest.mark.parametrize("j,expected", sorted(SUP_AN_EVEN.items()))
def test_annulus_even_suprema_frozen(j, expected):
    result = sup_sigma_annulus(j)
    assert result.value == pytest.approx(expected, rel=1e-14)
    assert result.attained


def test_supremum_index_validation():
    with pytest.raises(DomainError):
        sup_sigma_mobius(0)
    with pytest.raises(DomainError):
        sup_sigma_annulus(-3)


# every public entry point that takes an integer index, count or mode bound
_INTEGER_ARGUMENT = {
    "spectrum": lambda v: spectrum(MB, 1.0, v),
    "sigma_bar": lambda v: sigma_bar(MB, v, 1.0),
    "sigma_bar_grid": lambda v: sigma_bar_grid(AN, v, [1.0]),
    "sup_sigma_mobius": sup_sigma_mobius,
    "sup_sigma_annulus": sup_sigma_annulus,
    "critical_set": lambda v: critical_set(MB, v),
    "crossing_lattice": lambda v: crossing_lattice(AN, v),
    "verify_first_intersection_max": verify_first_intersection_max,
    "verify_no_asymptote": verify_no_asymptote,
}


@pytest.mark.parametrize("value", [1.5, math.inf, math.nan])
@pytest.mark.parametrize("entry", sorted(_INTEGER_ARGUMENT))
def test_integer_arguments_refuse_fractions_and_non_finite(entry, value):
    # a fraction must not truncate, and inf or NaN must not escape as
    # OverflowError or ValueError
    with pytest.raises(DomainError, match="must be an integer"):
        _INTEGER_ARGUMENT[entry](value)


@pytest.mark.parametrize("entry", sorted(_INTEGER_ARGUMENT))
def test_integer_arguments_accept_integral_floats(entry):
    # 6.0 passes as 6, and the routine must go on with the int
    np.testing.assert_equal(_INTEGER_ARGUMENT[entry](6.0), _INTEGER_ARGUMENT[entry](6))


def test_integer_arguments_below_one_keep_their_message():
    with pytest.raises(DomainError, match=r"^count must be >= 1, got 0$"):
        spectrum(AN, 1.0, 0)
    with pytest.raises(DomainError, match=r"^eigenvalue index must be >= 1, got -3$"):
        sup_sigma_annulus(-3)
    with pytest.raises(DomainError, match=r"^max_mode must be >= 1, got 0$"):
        critical_set(MB, 0.0)
    with pytest.raises(DomainError, match=r"^max_even must be >= 1, got 0$"):
        verify_no_asymptote(0)


@pytest.mark.parametrize("kind,j", [(MB, 1), (MB, 4), (AN, 1), (AN, 3), (AN, 6)])
def test_grid_search_confirms_suprema(kind, j):
    closed = sup_sigma_mobius(j) if kind is MB else sup_sigma_annulus(j)
    value, modulus = grid_supremum(kind, j)
    assert value <= closed.value * (1.0 + 1e-12)
    assert value == pytest.approx(closed.value, rel=1e-6)
    assert modulus == pytest.approx(closed.attaining_modulus, rel=1e-3)


def test_grid_never_exceeds_unattained_bound():
    values = [sigma_bar(AN, 2, T) for T in np.geomspace(1e-2, 18.0, 2000)]
    assert max(values) < 4.0 * math.pi


def test_every_supremum_is_the_best_local_max_of_the_critical_set():
    # the exact critical set up to mode 40 holds the maximiser of every
    # sigma_j, j <= 40: its best local maximum is the supremum, bit for bit
    for kind, sup in ((MB, sup_sigma_mobius), (AN, sup_sigma_annulus)):
        maxima = [r for r in critical_set(kind, 40) if r.character is Character.LOCAL_MAX]
        for j in range(1, 41):
            result = sup(j)
            values = [r.value for r in maxima if j in r.indices]
            if not result.attained:
                # the annulus's sigma_2 rises to 4*pi and never reaches it
                assert (kind, j) == (AN, 2) and values == []
                continue
            assert max(values) == result.value, (kind, j)
            if kind is MB:
                # the T -> infinity limit lies below the supremum
                assert 2.0 * math.pi * math.ceil(j / 2) < result.value


# One route to a normalized value: each crossing, critical record and attained
# supremum reports sigma_bar at its own modulus, bit for bit.


@pytest.mark.parametrize("kind", [MB, AN])
def test_every_crossing_value_is_sigma_bar_at_its_modulus(kind):
    for c in crossing_lattice(kind, 60):
        assert c.value == sigma_bar(kind, c.first_index, c.modulus), c


@pytest.mark.parametrize("kind", [MB, AN])
def test_every_critical_value_is_sigma_bar_at_its_modulus(kind):
    for r in critical_set(kind, 20):
        for j in r.indices:
            assert r.value == sigma_bar(kind, j, r.modulus), (r, j)


@pytest.mark.parametrize("kind", [MB, AN])
def test_every_attained_supremum_is_sigma_bar_at_its_modulus(kind):
    sup = sup_sigma_mobius if kind is MB else sup_sigma_annulus
    for j in range(1, 41):
        result = sup(j)
        if result.attained:
            assert result.value == sigma_bar(kind, j, result.attaining_modulus), j


def test_mobius_critical_set_structure():
    records = critical_set(MB, 2)
    by_key = {(r.modulus, r.character): r for r in records}
    t11 = solve_crossing(2.0, 1.0).x
    maxima = [r for r in records if r.character is Character.LOCAL_MAX]
    minima = [r for r in records if r.character is Character.LOCAL_MIN]
    assert len(maxima) == 3 and len(minima) == 3
    first_max = min(maxima, key=lambda r: r.modulus)
    # T_{1,1} has the largest modulus among the maxima of this range
    top = max(maxima, key=lambda r: r.modulus)
    assert top.modulus == pytest.approx(t11, rel=1e-12)
    assert top.indices == (1, 2)
    assert top.eigen_multiplicity == 4
    # every crossing that is a max for the pair (2K+2L-3, 2K+2L-2) is a min
    # for the next pair at the same modulus
    for r in maxima:
        partner = by_key[(r.modulus, Character.LOCAL_MIN)]
        assert partner.indices == (r.indices[0] + 2, r.indices[1] + 2)
    assert first_max.value <= top.value or True  # values frozen elsewhere


def test_mobius_critical_index_rule():
    # crossing of even mode 2K and odd mode 2L-1: max for 2(K+L-1)-1, 2(K+L-1)
    records = critical_set(MB, 3)
    for r in records:
        modes = sorted(b.mode for b in r.branches)
        K = modes[1] // 2
        L = (modes[0] + 1) // 2
        if r.character is Character.LOCAL_MAX:
            base = 2 * (K + L - 1)
        else:
            base = 2 * (K + L)
        assert r.indices == (base - 1, base)


def test_annulus_critical_set_structure():
    records = critical_set(AN, 2)
    t10 = solve_t10()
    linear = [r for r in records if r.eigen_multiplicity == 3]
    full = [r for r in records if r.eigen_multiplicity == 4]
    assert {round(r.modulus, 10) for r in linear} == {
        round(t10, 10),
        round(t10 / 2.0, 10),
    }
    # at T = t10 the first eigenvalue peaks, the third dips, the second is flat
    at_t10 = [r for r in linear if abs(r.modulus - t10) < 1e-12]
    chars = {r.character: r.indices for r in at_t10}
    assert chars[Character.LOCAL_MAX] == (1,)
    assert chars[Character.LOCAL_MIN] == (3,)
    # the even/odd crossing t_{2,1} coincides with the Mobius T_{1,1} modulus
    t21 = solve_crossing(2.0, 1.0).x
    assert any(abs(r.modulus - t21) < 1e-12 for r in full)
    for r in full:
        assert r.value == pytest.approx(
            sigma_bar(AN, r.indices[0], r.modulus), rel=1e-9
        )


def test_first_intersection_margins():
    records = verify_first_intersection_max(10)
    assert records, "lattice inequality suite must be non-empty"
    assert all(r.margin > 0.0 for r in records)


def _ref_first_intersection_max(max_mode):
    # the crossing value, the lower branch value at T_{k,l}, written out:
    # even mode 2k meets odd mode 2l - 1
    values = {}
    for k in range(1, max_mode + 1):
        for l in range(1, k + 1):
            b = 2 * l - 1
            x = solve_crossing(2 * k, b).x
            values[k, l] = min(
                4.0 * math.pi * k * math.tanh(2 * k * x), 2.0 * math.pi * b / math.tanh(b * x)
            )
    return [
        (f"k={k},l={l},c={c}", values[k, l].hex(), values[k + c, l - c].hex())
        for k, l in values
        for c in range(1, min(l, max_mode - k + 1))
    ]


@pytest.mark.parametrize("max_mode", [1, 2, 12, 20, 30])
def test_first_intersection_max_matches_per_record_reference(max_mode):
    records = verify_first_intersection_max(max_mode)
    got = [(r.label, r.lhs.hex(), r.rhs.hex()) for r in records]
    assert got == _ref_first_intersection_max(max_mode)


def test_first_intersection_max_reads_indices_off_the_lattice_order(monkeypatch):
    # (k, l) is read off each crossing's `branch_indices` label, not recovered
    # by a call that inverts a branch's mode (branch_index, refused here if any
    # module still binds it)
    def refuse(*args):
        raise AssertionError("branch_index called")

    for module in (branches, extrema):
        monkeypatch.setattr(module, "branch_index", refuse, raising=False)
    records = verify_first_intersection_max(12)
    got = [(r.label, r.lhs.hex(), r.rhs.hex()) for r in records]
    assert got == _ref_first_intersection_max(12)


def test_verify_first_intersection_max_ignores_lattice_order(monkeypatch):
    # each record's values follow the crossings' own labels, whatever order
    # crossing_lattice lists them in
    def records():
        return {(r.label, r.lhs, r.rhs) for r in verify_first_intersection_max(12)}

    expected = records()
    monkeypatch.setattr(extrema, "crossing_lattice", lambda *a: crossing_lattice(*a)[::-1])
    assert records() == expected


def test_inequality_records_are_immutable_and_hash_by_value():
    record, again = verify_first_intersection_max(4)[0], verify_first_intersection_max(4)[0]
    for field in ("label", "lhs", "rhs"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert again is not record and again == record and hash(again) == hash(record)
    rebuilt = InequalityRecord(record.label, record.lhs, record.rhs)
    assert rebuilt == record and hash(rebuilt) == hash(record)
    assert rebuilt.margin == record.rhs - record.lhs


def test_no_asymptote_records():
    records = verify_no_asymptote(20)
    t10 = solve_t10()
    assert [r.k for r in records] == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    for r in records:
        assert r.margin > 0.0
        # derived identity: 2k * T_k = t10 where 2k*tanh(2k*T_k) = 1/T_k
        assert 2.0 * r.k * r.t_k == pytest.approx(t10, rel=1e-12)
        assert 2.0 * r.k * math.tanh(2.0 * r.k * r.t_k) == pytest.approx(
            1.0 / r.t_k, rel=1e-12
        )
        assert r.t_k < r.t_k1


def test_mobius_supremum_consistency_three_routes():
    # closed form 2*pi*height at T_{k,1}, the even branch and the odd branch
    for k in (1, 2, 5):
        point = solve_crossing(2.0 * k, 1.0)
        closed = 2.0 * math.pi * point.height
        assert closed == pytest.approx(lambda_bar(MB, k, point.x), rel=1e-13)
        assert closed == pytest.approx(mu_bar(MB, 1, point.x), rel=1e-13)


def test_annulus_even_report_resolves_variant():
    # the crossing identity forces 4*pi*height = 4*pi*k*tanh(k*t) = 4*pi*coth(t)
    k = 2
    point = solve_crossing(float(k), 1.0)
    t = point.x
    crossing_value = 4.0 * math.pi * point.height
    assert crossing_value == pytest.approx(4.0 * math.pi * k * math.tanh(k * t), rel=1e-13)
    assert crossing_value == pytest.approx(4.0 * math.pi / math.tanh(t), rel=1e-12)
    # the grid search confirms the crossing value
    grid_value, _ = grid_supremum(AN, 2 * k)
    assert grid_value == pytest.approx(crossing_value, rel=1e-6)


def _slope_character(left, mid, right):
    if mid > left and right < mid:
        return Character.LOCAL_MAX
    if mid < left and right > mid:
        return Character.LOCAL_MIN
    return None


@pytest.mark.parametrize("kind", [MB, AN])
def test_critical_set_matches_grid_slopes(kind):
    # the exact classification against one-sided differences of the
    # independent grid route at T(1 -+ 1e-9): by max mode 40 neighbouring
    # crossings are ~1.5e-7 apart, far wider than the step
    records = critical_set(kind, 40)
    clusters = {}
    for r in records:
        clusters.setdefault((r.modulus, r.value, r.eigen_multiplicity), {}).update(
            {j: r.character for j in r.indices}
        )
    keys = sorted(clusters)
    assert len(keys) == 820  # every crossing up to mode 40, on either surface
    j_max = max(max(c) for c in clusters.values()) + 2
    moduli = np.array([key[0] for key in keys])
    steps = np.concatenate([moduli * (1.0 - 1e-9), moduli, moduli * (1.0 + 1e-9)])
    table = sigma_bar_grid(kind, j_max, steps)
    n = len(keys)
    for col, (modulus, value, mult) in enumerate(keys):
        classified = clusters[modulus, value, mult]
        first = min(classified)
        left, mid, right = table[:, col], table[:, n + col], table[:, 2 * n + col]
        # the cluster is exactly indices first .. first + mult - 1
        if first > 1:
            assert mid[first - 2] < value * (1.0 - 1e-12)
        assert mid[first + mult - 1] > value * (1.0 + 1e-12)
        for j in range(first, first + mult):
            assert mid[j - 1] == pytest.approx(value, rel=1e-12)
            assert _slope_character(left[j - 1], mid[j - 1], right[j - 1]) is classified.get(j)


def test_grid_supremum_rejects_index_zero():
    for kind in (MB, AN):
        with pytest.raises(DomainError):
            grid_supremum(kind, 0)
