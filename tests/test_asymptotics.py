import math
import pickle
import random
from fractions import Fraction
from functools import cache

import pytest

from skewtab import asymptotics
from skewtab.asymptotics import (
    LimitSpec,
    _bulk_counts,
    _bulk_window,
    _members_rows_sum,
    _outside_rows_sum,
    _window_rows_sum,
    biane_estimate,
    bulk_mass,
    containment_probability_estimate,
    exp_estimate,
    mw_log_involutions_estimate,
    rectangle_factorization,
    relative_error,
    schur_value,
    super_schur_value,
    tvk_skew_estimate,
)
from skewtab.characters import syt_count
from skewtab.containment import containment_probability
from skewtab.exact import DomainError
from skewtab.partitions import SkewShape, conjugate, partitions_of
from skewtab.sequences import involutions
from skewtab.skew_count import skew_syt_det

from oracles import (
    bulk_members,
    hook_length_count,
    mw_log_plain_reference,
    mw_log_shifted_reference,
    power_sum,
    schur_sum_identity_check,
    super_schur_power_sum,
    unfolded_bulk_rows_sum,
)


# ---------------------------------------------------------------- oracles

def ssyt_monomial_sum(mu, values):
    """Schur value as an explicit sum over column-strict tableaux."""
    values = tuple(Fraction(v) for v in values)
    m = len(values)
    rows = len(mu)
    if rows == 0:
        return Fraction(1)
    if rows > m:
        return Fraction(0)

    total = Fraction(0)
    fillings = [[0] * width for width in mu]

    def fill(pos):
        nonlocal total
        if pos == sum(mu):
            weight = Fraction(1)
            for row in fillings:
                for entry in row:
                    weight *= values[entry]
            total += weight
            return
        # row-major position -> (i, j)
        i, acc = 0, 0
        while acc + mu[i] <= pos:
            acc += mu[i]
            i += 1
        j = pos - acc
        lo = fillings[i][j - 1] if j else 0  # weak increase along rows
        if i:
            lo = max(lo, fillings[i - 1][j] + 1)  # strict down columns
        for entry in range(lo, m):
            fillings[i][j] = entry
            fill(pos + 1)

    fill(0)
    return total


def random_fraction(rng):
    return Fraction(rng.randint(1, 9), rng.randint(10, 20))


# ------------------------------------------------------- involution series

def test_mw_leading_term_value():
    assert exp_estimate(mw_log_involutions_estimate(10, 0)) == pytest.approx(8766, abs=1.0)


def test_exp_estimate_is_inf_past_float_range():
    assert exp_estimate(709.0) == math.exp(709.0)
    assert exp_estimate(709.0 + 1e-9) == math.inf
    assert exp_estimate(mw_log_involutions_estimate(295)) < math.inf
    assert exp_estimate(mw_log_involutions_estimate(296)) == math.inf


def test_mw_order2_accuracy():
    assert abs(relative_error(mw_log_involutions_estimate(10, 2), involutions(10))) < 0.005
    assert abs(relative_error(mw_log_involutions_estimate(100, 2), involutions(100))) < 0.0005


def test_mw_error_decreases_with_order():
    for n in (20, 50, 100):
        errs = [
            abs(relative_error(mw_log_involutions_estimate(n, order), involutions(n)))
            for order in (0, 1, 2)
        ]
        assert errs[0] > errs[1] > errs[2]


def estimate_or_error(estimate, *args):
    """The float an estimator returns, or the type and message of what it raises."""
    try:
        return estimate(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_mw_one_estimator_gives_the_floats_of_the_two_it_replaced():
    # == on floats, not approx: t_n and t_{n-j} keep their old values bit for bit
    for n in range(1, 20001):
        for order in (0, 1, 2):
            new = mw_log_involutions_estimate(n, order)
            assert new == mw_log_plain_reference(n, order), (n, order)
    for n in range(1, 3001):
        for j in range(min(n, 60) + 1):
            new = estimate_or_error(mw_log_involutions_estimate, n, 2, j)
            assert new == estimate_or_error(mw_log_shifted_reference, n, j), (n, j)
    for n, order, j in [(0, 2, 0), (-3, 2, 0), (0, 3, -1), (10, 2, -1), (10, 2, 11)]:
        new = estimate_or_error(mw_log_involutions_estimate, n, order, j)
        assert new == estimate_or_error(mw_log_shifted_reference, n, j), (n, j)
        assert new[0] is DomainError
    for n, order in [(0, 0), (10, 3), (10, -1), (0, 3)]:
        new = estimate_or_error(mw_log_involutions_estimate, n, order)
        assert new == estimate_or_error(mw_log_plain_reference, n, order), (n, order)
        assert new[0] is DomainError


def test_mw_shifted_accuracy():
    assert abs(relative_error(mw_log_involutions_estimate(100, 2, 3), involutions(97))) < 0.005
    assert abs(relative_error(mw_log_involutions_estimate(400, 2, 3), involutions(397))) < 0.0005


SERIES_ORDER = 4  # x^0..x^4: a series divided by x^2 stays exact to x^2


def series_mul(p, q):
    return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(SERIES_ORDER + 1)]


def series_div_x(p, k):
    assert not any(p[:k]), "the series must vanish to order x^k"
    return p[k:] + [Fraction(0)] * k


def one_minus_t_power(a, j):
    """(1 - t)^a with t = j x^2, by the binomial series."""
    coeffs = [Fraction(0)] * (SERIES_ORDER + 1)
    binom = Fraction(1)
    for k in range(SERIES_ORDER // 2 + 1):
        coeffs[2 * k] = binom * (-j) ** k
        binom = binom * (a - k) / (k + 1)
    return coeffs


def derived_shifted_correction(j, c1, c2):
    """Coefficients of x^0, x^1, x^2 in the t_{n-j} estimate's correction
    written in n, with x = n^(-1/2).

    The t_m estimate is (1/sqrt 2) m^(m/2) exp(-m/2 + sqrt m - 1/4)
    (1 + c1/sqrt m + c2/m).  Put m = n - j = n(1 - t) with t = j x^2 and
    divide by (1/sqrt 2) n^(m/2) exp(-n/2 + sqrt n - 1/4): what is left is
    exp(u) (1 + c1 x (1 - t)^(-1/2) + c2 x^2 (1 - t)^(-1)), where
    u = (m/2) log(1 - t) + j/2 + x^-1 ((1 - t)^(1/2) - 1).
    """
    log_one_minus_t = [Fraction(0)] * (SERIES_ORDER + 1)
    for k in range(1, SERIES_ORDER // 2 + 1):
        log_one_minus_t[2 * k] = -Fraction(j) ** k / k
    m_log = series_div_x(series_mul(one_minus_t_power(1, j), log_one_minus_t), 2)
    half_m_log = [c / 2 for c in m_log]
    root_step = one_minus_t_power(Fraction(1, 2), j)
    root_step[0] -= 1
    u = [a + b for a, b in zip(half_m_log, series_div_x(root_step, 1))]
    u[0] += Fraction(j, 2)
    assert u[:3] == [0, Fraction(-j, 2), Fraction(j * j, 4)]
    exp_u = [Fraction(1)] + [Fraction(0)] * SERIES_ORDER
    term = list(exp_u)
    for k in range(1, SERIES_ORDER + 1):
        term = [c / k for c in series_mul(term, u)]
        exp_u = [a + b for a, b in zip(exp_u, term)]
    corr = [Fraction(1)] + [Fraction(0)] * SERIES_ORDER
    for coeff, power, a in ((c1, 1, Fraction(-1, 2)), (c2, 2, Fraction(-1))):
        shifted = [Fraction(0)] * power + one_minus_t_power(a, j)[: SERIES_ORDER + 1 - power]
        corr = [x + coeff * y for x, y in zip(corr, shifted)]
    return series_mul(exp_u, corr)[:3]


def test_mw_shifted_constants_derive_from_the_involution_estimate():
    # read c1 = 7/24 and c2 = -119/1152 off mw_log_involutions_estimate at n = 1
    corr = [math.exp(mw_log_involutions_estimate(1, k) - mw_log_involutions_estimate(1, 0))
            for k in (1, 2)]
    c1 = Fraction(corr[0] - 1).limit_denominator(10**4)
    c2 = Fraction(corr[1] - corr[0]).limit_denominator(10**4)
    assert (c1, c2) == (Fraction(7, 24), Fraction(-119, 1152))
    derived = {j: derived_shifted_correction(j, c1, c2) for j in range(11)}
    for j, coeffs in derived.items():
        assert coeffs == [
            1,
            Fraction(7, 24) - Fraction(j, 2),
            -(Fraction(119, 1152) + Fraction(7 * j, 48) - Fraction(3 * j * j, 8)),
        ], j
    for n in (400, 10**4):
        for j, (_, d1, d2) in derived.items():
            log_lead = mw_log_involutions_estimate(n, 0) - j / 2 * math.log(n)
            expected = log_lead + math.log(1 + float(d1) / math.sqrt(n) + float(d2) / n)
            shifted = mw_log_involutions_estimate(n, 2, j)
            assert shifted == pytest.approx(expected, rel=1e-12), (n, j)


def test_mw_domain_errors():
    with pytest.raises(ValueError):
        mw_log_involutions_estimate(0)
    with pytest.raises(ValueError):
        mw_log_involutions_estimate(10, 3)
    with pytest.raises(ValueError):
        mw_log_involutions_estimate(10, 2, 11)


# ------------------------------------------------- probability expansion

def test_probability_estimate_single_cell_is_exact():
    for n in (1, 5, 30, 100):
        assert containment_probability_estimate(n, (1,)) == 1.0


def test_probability_estimate_two_cells_is_exact():
    for n in (2, 10, 40):
        assert containment_probability_estimate(n, (2,)) == 0.5
        assert float(containment_probability(n, (2,))) == 0.5


def test_probability_residual_bounded():
    n = 30
    resid = abs(
        float(containment_probability(n, (2, 1)))
        - containment_probability_estimate(n, (2, 1))
    )
    assert resid * n**2.5 < 10


def test_probability_residual_shrinks():
    resid = {
        n: abs(
            float(containment_probability(n, (3,)))
            - containment_probability_estimate(n, (3,))
        )
        for n in (20, 40)
    }
    assert resid[40] < resid[20]


# ------------------------------------------------------------ shape limits

def test_biane_estimate_leading_term():
    assert biane_estimate(100, 50, (2, 1), 0.0) == pytest.approx(100 * 2 / 6)
    assert biane_estimate(7, 10, (1,), 123.0) == pytest.approx(7.0)


def test_biane_estimate_c3_independent_for_two_by_two():
    a = biane_estimate(1000, 100, (2, 2), 0.0)
    b = biane_estimate(1000, 100, (2, 2), 5.0)
    assert a == b


def test_biane_leading_term_on_staircase():
    lam = tuple(range(9, 0, -1))  # 45 cells
    f_lam = syt_count(lam)
    exact = skew_syt_det(SkewShape(lam, (2,)))
    lead = biane_estimate(f_lam, 45, (2,), 0.0)
    assert abs(exact / lead - 1) < 0.25


def test_bulk_members_monotone_in_eps():
    n = 25
    members = {
        eps: set(bulk_members(n, Fraction(*eps)))
        for eps in [(1, 4), (1, 2), (1, 1)]
    }
    assert members[(1, 4)] <= members[(1, 2)] <= members[(1, 1)]


def test_bulk_mass_in_unit_interval():
    for n in (16, 25):
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1, 1)):
            mass = bulk_mass(n, eps)
            assert 0 <= mass <= 1


def in_window_oracle(x, n, eps):
    """The bulk window's strict bounds (2 - eps) sqrt(n) < x < (2 + eps) sqrt(n),
    compared exactly by squaring in rationals (x is a positive integer)."""
    hi = 2 + eps
    if x * x >= hi * hi * n:
        return False
    lo = 2 - eps
    return lo <= 0 or lo * lo * n < x * x


# 1/2 and 1/5 put both bounds on integers at n = 16 and n = 25; 1 does so at
# every square n; 2 and beyond drop the lower bound
BULK_EPS_GRID = [
    Fraction(p, q)
    for p, q in [(1, 10), (1, 5), (1, 4), (1, 3), (1, 2), (3, 4), (1, 1), (3, 2),
                 (19, 10), (2, 1), (3, 1)]
]


def test_bulk_members_match_strict_squares_oracle():
    exact_hits = 0
    for n in range(1, 31):
        everything = list(partitions_of(n))
        for eps in BULK_EPS_GRID:
            ok = {x for x in range(1, n + 1) if in_window_oracle(x, n, eps)}
            expected = [lam for lam in everything if lam[0] in ok and len(lam) in ok]
            members = bulk_members(n, eps)
            assert members == expected, (n, eps)
            # bulk_mass folds each conjugate pair of members into one walk
            assert set(map(conjugate, members)) == set(members), (n, eps)
            exact_hits += sum(
                x * x == (2 + eps) ** 2 * n or (eps < 2 and x * x == (2 - eps) ** 2 * n)
                for x in range(1, n + 1)
            )
    assert exact_hits > 0  # some bounds landed exactly on an integer


def test_bulk_window_is_strict():
    # at n = 16, eps = 1/2 the window is (6, 10): parts 6 and 10 excluded
    members = bulk_members(16, Fraction(1, 2))
    assert all(6 < lam[0] < 10 and 6 < len(lam) < 10 for lam in members)


@pytest.mark.parametrize("n, eps", [(0, 1), (-3, 1), (5, 0), (5, Fraction(-1, 2))])
def test_bulk_window_validation(n, eps):
    with pytest.raises(ValueError):
        bulk_mass(n, eps)
    with pytest.raises(ValueError):
        bulk_members(n, eps)


def test_bulk_mass_matches_hook_lengths_over_members():
    # the enumerated members are the oracle: their number for the counts,
    # their hook-length sum for bulk_mass and for each side's walk on its
    # own, whichever side bulk_mass picks; so is the walk over every first
    # part in the window with no fold
    hooks = cache(hook_length_count)  # a member recurs under every wider eps
    for n in range(1, 31):
        shapes = sum(1 for _ in partitions_of(n))
        for eps in BULK_EPS_GRID:
            lo, hi = _bulk_window(n, eps)
            members = bulk_members(n, eps)
            assert _bulk_counts(n, lo, hi) == (len(members), shapes - len(members)), (n, eps)
            inside = sum(map(hooks, members))
            assert _members_rows_sum(n, lo, hi) == inside, (n, eps)
            assert _outside_rows_sum(n, lo, hi) + inside == involutions(n), (n, eps)
            total = bulk_mass(n, eps) * involutions(n)
            assert total == inside, (n, eps)
            assert total == unfolded_bulk_rows_sum(n, eps), (n, eps)


@pytest.mark.parametrize("n", [40, 49])
def test_bulk_mass_matches_unfolded_rows_sum(n):
    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        assert bulk_mass(n, eps) * involutions(n) == unfolded_bulk_rows_sum(n, eps), eps


def box_paths(n, rows, cols):
    """Growth paths of n steps from () in Young's lattice inside the
    rows x cols box, counted level by level."""
    level = {(): 1}
    for _ in range(n):
        grown = {}
        for lam, ways in level.items():
            for i in range(min(len(lam) + 1, rows)):
                part = lam[i] if i < len(lam) else 0
                if part < cols and (i == 0 or lam[i - 1] > part):
                    mu = lam[:i] + (part + 1,) + lam[i + 1 :]
                    grown[mu] = grown.get(mu, 0) + ways
        level = grown
    return sum(level.values())


def test_bulk_mass_matches_box_growth_paths():
    # a path ends in the window iff it stays in the hi x hi box and its end
    # is neither too narrow nor too short: by inclusion-exclusion and
    # conjugation the count is P(hi,hi) - 2 P(lo-1,hi) + P(lo-1,lo-1)
    for n in range(1, 17):
        for eps in BULK_EPS_GRID:
            ok = [x for x in range(1, n + 1) if in_window_oracle(x, n, eps)]
            count = 0
            if ok:
                lo, hi = ok[0], ok[-1]
                count = (
                    box_paths(n, hi, hi)
                    - 2 * box_paths(n, lo - 1, hi)
                    + box_paths(n, lo - 1, lo - 1)
                )
            assert bulk_mass(n, eps) == Fraction(count, involutions(n)), (n, eps)


def test_window_rows_sum_matches_hook_lengths():
    # lo = 1 lets (2, 1^(n-2)) and (1^n) close their column of 1s from the
    # first row; hi = 1 leaves only (1^n)
    for n in range(2, 21):
        by_length = {}
        for lam in partitions_of(n):
            by_length.setdefault(len(lam), []).append((lam[0], hook_length_count(lam)))
        windows = {(1, n), (1, 1), (1, 2), (2, n), (1, n // 2), (3, n // 2),
                   (n // 3 + 1, n - 1), (n // 2, n + 5), (n, n)}
        for ell in range(2, n + 1):
            # bulk_mass's own calls: the first parts above ell, up to some hi,
            # and empty ranges lo = hi + 1, ell == hi among them
            split = {(ell + 1, hi) for hi in (ell, ell + 1, n // 2, n - 1, n, n + 5)}
            empty = {(hi + 1, hi) for hi in (1, ell - 1, ell, n // 2, n)}
            for lo, hi in windows | split | empty:
                expected = sum(f for first, f in by_length[ell] if lo <= first <= hi)
                assert _window_rows_sum(n, ell, lo, hi) == expected, (n, ell, lo, hi)


def test_bulk_mass_is_one_when_window_holds_every_shape():
    for n in range(1, 21):
        assert bulk_mass(n, 3) == 1
    # nothing is sized by the window's upper bound
    assert bulk_mass(5, Fraction(10**400)) == 1


def test_bulk_mass_walks_no_window_that_holds_every_shape(monkeypatch):
    walks = []

    def counted(*args):
        walks.append(args)
        return _window_rows_sum(*args)

    def refuse(*args):
        raise AssertionError("walked a window that holds every shape")

    hooks = cache(hook_length_count)
    trivial = 0
    for n, eps in [(n, eps) for n in range(1, 31) for eps in BULK_EPS_GRID] + [(70, 10)]:
        lo, hi = _bulk_window(n, eps)
        holds_every_shape = lo == 1 and hi >= n
        trivial += holds_every_shape
        monkeypatch.setattr(asymptotics, "_window_rows_sum", refuse if holds_every_shape else counted)
        mass = bulk_mass(n, eps)
        if n <= 30:
            assert mass * involutions(n) == sum(map(hooks, bulk_members(n, eps))), (n, eps)
        if holds_every_shape:
            assert mass == 1, (n, eps)
    assert trivial > 1 and walks
    # the strict upper bound at the edge: (2 + 3)**2 * 25 = 25**2, so hi = 24
    # leaves (25) and (1^25) out, and that window is walked
    assert _bulk_window(25, 3) == (1, 24)
    monkeypatch.setattr(asymptotics, "_window_rows_sum", counted)
    walks.clear()
    assert bulk_mass(25, 3) == 1 - Fraction(2, involutions(25))
    assert walks


def walked_sides(walks, lo, hi):
    """Which side of the window lo..hi each nonempty walk (n, ell, first
    parts a..b) covers: "inside", "outside", or "both"."""
    sides = set()
    for _, ell, a, b in walks:
        if a > b:
            continue
        if lo <= ell <= hi and lo <= a and b <= hi:
            sides.add("inside")
        elif not lo <= ell <= hi or a > hi or b < lo:
            sides.add("outside")
        else:
            sides.add("both")
    return sides


@pytest.mark.parametrize(
    "n, eps, side",
    [
        (24, Fraction(3, 2), "outside"),
        (30, Fraction(3, 2), "outside"),
        (31, Fraction(1), "outside"),
        (29, Fraction(1, 4), "inside"),
        (40, Fraction(1, 4), "inside"),
    ],
)
def test_bulk_mass_walks_the_side_with_fewer_shapes(monkeypatch, n, eps, side):
    walks = []

    def counted(*args):
        walks.append(args)
        return _window_rows_sum(*args)

    monkeypatch.setattr(asymptotics, "_window_rows_sum", counted)
    bulk_mass(n, eps)
    members, outside = _bulk_counts(n, *_bulk_window(n, eps))
    assert (members > outside) == (side == "outside")
    assert walked_sides(walks, *_bulk_window(n, eps)) == {side}


# computed by the hook-length route over the enumerated members
BULK_MASS_FROZEN = {
    (16, Fraction(1, 4)): Fraction(21021, 23103368),
    (16, Fraction(1, 2)): Fraction(693539, 23103368),
    (16, Fraction(1)): Fraction(16161355, 23103368),
    (25, Fraction(1, 4)): Fraction(80872739035, 2517906414752),
    (25, Fraction(1, 2)): Fraction(233778959205, 1258953207376),
    (25, Fraction(1)): Fraction(21004659161281, 23920110940144),
    (36, Fraction(1, 4)): Fraction(2558986603103318289, 78651747080223781664),
    (36, Fraction(1, 2)): Fraction(49600376736100953379, 314606988320895126656),
    (36, Fraction(1)): Fraction(150623162274740483893, 157303494160447563328),
    (49, Fraction(1, 4)): Fraction(
        746576052540008241745804313193, 23082073743729423024934656384640
    ),
    (49, Fraction(1, 2)): Fraction(
        707099918116039185241611304942241, 1846565899498353841994772510771200
    ),
    (49, Fraction(1)): Fraction(
        911543130299573341048685172795647, 923282949749176920997386255385600
    ),
    (49, Fraction(3, 2)): Fraction(
        461641345327806526818256134817549, 461641474874588460498693127692800
    ),
    # by the walk over the members, where bulk_mass now walks the shapes outside
    (60, Fraction(3, 2)): Fraction(
        6821884529500612543962271738777158692513407,
        6821884987614954973275699858293003447885824,
    ),
}


@pytest.mark.parametrize("n, eps", sorted(BULK_MASS_FROZEN))
def test_bulk_mass_frozen_values(n, eps):
    assert bulk_mass(n, eps) == BULK_MASS_FROZEN[n, eps]


def test_bulk_mass_leaves_no_hook_length_cache():
    syt_count.cache_clear()
    bulk_mass(30, 1)
    assert syt_count.cache_info().currsize == 0


# ------------------------------------------------------- symmetric values

def test_power_sum_examples():
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    assert power_sum(1, (half, half)) == 1
    assert power_sum(2, (half, half)) == half
    assert power_sum(3, (half, third)) == Fraction(35, 216)
    with pytest.raises(ValueError):
        power_sum(0, (half,))


def test_schur_value_examples():
    half = Fraction(1, 2)
    assert schur_value((), (half,)) == 1
    assert schur_value((2,), (half, half)) == Fraction(3, 4)
    assert schur_value((1, 1), (half, half)) == Fraction(1, 4)
    assert schur_value((1, 1, 1), (half, half)) == 0


def test_schur_value_against_ssyt_enumeration():
    rng = random.Random(20250808)
    for _ in range(15):
        n = rng.randint(0, 4)
        mu = rng.choice(list(partitions_of(n)))
        values = tuple(random_fraction(rng) for _ in range(rng.randint(0, 3)))
        assert schur_value(mu, values) == ssyt_monomial_sum(mu, values)


def test_super_schur_examples():
    half = Fraction(1, 2)
    assert super_schur_value((1,), (half, half), ()) == 1
    assert super_schur_value((2,), (half, half), ()) == Fraction(3, 4)
    assert super_schur_value((1, 1), (), (Fraction(1, 3),)) == Fraction(1, 9)


def test_a_non_partition_alpha_is_refused():
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="partition parts"):
        super_schur_value((1, 2), (1,), ())
    with pytest.raises(ValueError, match="partition parts"):
        super_schur_value((1, 0), (half,), (half,))
    with pytest.raises(ValueError, match="partition parts"):
        schur_value((2, 0), (1, 1))
    with pytest.raises(ValueError, match="partition parts"):
        containment_probability_estimate(10, (2, 0))


def test_super_schur_restricts_to_schur():
    rng = random.Random(7)
    for k in range(6):
        for alpha in partitions_of(k):
            values = tuple(random_fraction(rng) for _ in range(3))
            assert super_schur_value(alpha, values, ()) == ssyt_monomial_sum(alpha, values)


def test_super_schur_matches_jacobi_trudi():
    rng = random.Random(17)
    shapes = [alpha for k in range(9) for alpha in partitions_of(k)]

    def values():
        return tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(0, 3))
        )

    for _ in range(400):
        alpha, a, b = rng.choice(shapes), values(), values()
        assert super_schur_value(alpha, a, b) == super_schur_power_sum(alpha, a, b), (
            alpha, a, b)
    for alpha in shapes:
        a = values()
        assert super_schur_value(alpha, a, ()) == super_schur_power_sum(alpha, a, ()), (
            alpha, a)


def test_super_schur_two_row_values_at_one_half():
    # s_(p,q)(x, y) = (xy)**q h_{p-q}(x, y), and h_r(1/2, 1/2) = (r + 1)/2**r
    half = Fraction(1, 2)
    for p in range(1, 80):
        for q in range(1, min(p, 80 - p) + 1):
            assert super_schur_value((p, q), (half, half), ()) == Fraction(
                p - q + 1, 2 ** (p + q)), (p, q)


def test_super_schur_conjugation_duality():
    rng = random.Random(11)
    for k in range(5):
        for alpha in partitions_of(k):
            a = tuple(sorted((random_fraction(rng) for _ in range(2)), reverse=True))
            b = tuple(sorted((random_fraction(rng) for _ in range(2)), reverse=True))
            assert super_schur_value(alpha, a, b) == super_schur_value(
                conjugate(alpha), b, a
            )


def test_rectangle_factorization_examples():
    half, third = Fraction(1, 2), Fraction(1, 3)
    alpha, value = rectangle_factorization(1, 1, (), (), (half,), (third,))
    assert alpha == (1,) and value == Fraction(5, 6)

    a = (half, Fraction(1, 4))
    b = (third, Fraction(1, 5))
    alpha, value = rectangle_factorization(2, 2, (), (), a, b)
    assert alpha == (2, 2)
    expected = Fraction(1)
    for ar in a:
        for bs in b:
            expected *= ar + bs
    assert value == expected

    alpha, value = rectangle_factorization(1, 1, (1,), (), (half,), (third,))
    assert alpha == (2,) and value == half * (half + third)


def test_rectangle_factorization_matches_super_schur():
    rng = random.Random(20250808)
    for _ in range(20):
        i = rng.randint(1, 3)
        j = rng.randint(1, 3)
        mu = rng.choice([p for w in range(4) for p in partitions_of(w) if len(p) <= i])
        nu = rng.choice([p for w in range(4) for p in partitions_of(w) if len(p) <= j])
        a = tuple(sorted((random_fraction(rng) for _ in range(i)), reverse=True))
        b = tuple(sorted((random_fraction(rng) for _ in range(j)), reverse=True))
        alpha, value = rectangle_factorization(i, j, mu, nu, a, b)
        assert value == super_schur_value(alpha, a, b)
        assert value == super_schur_power_sum(alpha, a, b)


def test_rectangle_factorization_validates():
    with pytest.raises(ValueError):
        rectangle_factorization(2, 1, (), (), (Fraction(1, 2),), (Fraction(1, 3),))
    with pytest.raises(ValueError):
        rectangle_factorization(1, 1, (1, 1), (), (Fraction(1, 2),), (Fraction(1, 3),))


def test_tvk_estimate_single_cell():
    spec = LimitSpec(a=(Fraction(1, 2), Fraction(1, 2)))
    assert tvk_skew_estimate(42, (1,), spec) == 42.0


def test_tvk_estimate_requires_full_mass():
    spec = LimitSpec(a=(Fraction(1, 2),))
    with pytest.raises(ValueError):
        tvk_skew_estimate(1, (1,), spec)


def test_tvk_two_row_law():
    spec = LimitSpec(a=(Fraction(1, 2), Fraction(1, 2)))
    limit = super_schur_value((2,), spec.a, spec.b)
    assert limit == Fraction(3, 4)
    for m in (10, 50, 200):
        exact = Fraction(skew_syt_det(SkewShape((m, m), (2,))), syt_count((m, m)))
        assert limit - exact == Fraction(3, 4 * (2 * m - 1))


def test_tvk_vanishing_when_shape_exceeds_frequencies():
    spec = LimitSpec(a=(Fraction(1),))
    assert super_schur_value((1, 1), spec.a, spec.b) == 0
    assert tvk_skew_estimate(99, (1, 1), spec) == 0.0


def test_limit_spec_validation():
    with pytest.raises(ValueError):
        LimitSpec(a=(Fraction(1, 2), Fraction(2, 3)))
    with pytest.raises(ValueError):
        LimitSpec(a=(Fraction(-1, 2),))
    with pytest.raises(ValueError):
        LimitSpec(a=(Fraction(3, 4),), b=(Fraction(1, 2),))
    spec = LimitSpec(a=(Fraction(1, 2),), b=(Fraction(1, 4),))
    assert spec.frequency_sum() == Fraction(3, 4)


def test_limit_spec_is_an_immutable_validated_record():
    half = Fraction(1, 2)
    spec = LimitSpec((half, half))
    assert repr(spec) == "LimitSpec(a=(Fraction(1, 2), Fraction(1, 2)), b=())"
    assert spec.b == ()
    assert LimitSpec(a=["1/2", 0.5], b=()) == spec == LimitSpec((half, half), ())
    a, b = spec
    assert (a, b) == spec == ((half, half), ())
    assert hash(LimitSpec((half, half))) == hash(spec)
    assert pickle.loads(pickle.dumps(spec)) == spec
    with pytest.raises(AttributeError):
        spec.a = (Fraction(1),)
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert spec._replace(b=(0,)) == LimitSpec((half, half), (Fraction(0),))
    with pytest.raises(ValueError, match="^total frequency mass exceeds 1$"):
        spec._replace(b=(half,))


@pytest.mark.parametrize(
    "a, b, message",
    [
        ((Fraction(-1, 2),), (), "frequencies must be nonnegative"),
        ((Fraction(1, 4),), (Fraction(-1, 4),), "frequencies must be nonnegative"),
        ((Fraction(1, 2), Fraction(2, 3)), (), "frequencies must be weakly decreasing"),
        ((Fraction(1, 2),), (0, Fraction(1, 4)), "frequencies must be weakly decreasing"),
        ((Fraction(3, 4),), (Fraction(1, 2),), "total frequency mass exceeds 1"),
    ],
)
def test_limit_spec_errors_keep_type_and_message(a, b, message):
    with pytest.raises(ValueError) as info:
        LimitSpec(a, b)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_schur_sum_identity():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert schur_sum_identity_check(1, (half,))
    assert schur_sum_identity_check(3, (half, third))
    assert schur_sum_identity_check(6, (1, 1, 1))
    with pytest.raises(ValueError):
        schur_sum_identity_check(9, (half,))
