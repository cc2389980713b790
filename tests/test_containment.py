from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from skewtab import cli, containment, skew_count
from skewtab.characters import character, syt_count
from skewtab.containment import (
    CLOSED_FORMS,
    N_binomial,
    N_closed_form,
    N_direct,
    N_expansion,
    N_row,
    containment_probability,
    generating_poly_check,
    stability_check,
    t_shift_coeff,
)
from skewtab.exact import IntegralityError
from skewtab.partitions import conjugate, contains, partitions_of
from skewtab.sequences import b_stable, involutions
from skewtab.skew_count import skew_syt_det

# every shape of at most 6 cells, including tall ones such as (1,)*6
ALPHAS_UP_TO_6 = [alpha for k in range(7) for alpha in partitions_of(k)]


def test_direct_examples():
    assert N_direct(3, (1,)) == 4 == involutions(3)
    assert N_direct(4, (3,)) == 2
    assert N_direct(2, (3,)) == 0


def test_expansion_examples():
    assert N_expansion(3, (3,)) == 1
    assert N_expansion(4, (2, 1)) == 3
    for n in range(1, 16):
        assert N_expansion(n, (1,)) == involutions(n)


def test_binomial_examples():
    assert N_binomial(4, (2, 1)) == 3
    assert N_binomial(4, (2,)) == 5
    for k in range(11):
        assert N_binomial(k, (k,) if k else ()) == 1


def test_zero_below_weight_under_all_methods():
    for alpha in [(2, 1), (3,), (2, 2)]:
        k = sum(alpha)
        for n in range(k):
            assert N_direct(n, alpha) == 0
            assert N_expansion(n, alpha) == 0
            assert N_binomial(n, alpha) == 0


def test_method_agreement_small():
    for k in range(5):
        for alpha in partitions_of(k):
            for n in range(k, 10):
                expansion = N_expansion(n, alpha)
                assert expansion == N_direct(n, alpha)
                assert expansion == N_binomial(n, alpha)


def test_t_shift_coeff_leading_and_vanishing():
    for k in range(7):
        for alpha in partitions_of(k):
            assert t_shift_coeff(0, alpha) == Fraction(syt_count(alpha), factorial(k))
            if k >= 1:
                assert t_shift_coeff(1, alpha) == 0
            if k >= 2:
                assert t_shift_coeff(2, alpha) == 0


def test_t_shift_coeff_examples():
    assert t_shift_coeff(3, (3,)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        t_shift_coeff(4, (3,))
    with pytest.raises(ValueError):
        t_shift_coeff(-1, (3,))


def test_t_shift_coeff_displayed_forms():
    # e_3 .. e_6 against their closed character expressions
    for k in range(9):
        for alpha in partitions_of(k):
            if k >= 3:
                chi = character(alpha, (3,) + (1,) * (k - 3))
                assert t_shift_coeff(3, alpha) == Fraction(chi, 3 * factorial(k - 3))
            if k >= 4:
                chi = character(alpha, (2, 2) + (1,) * (k - 4))
                assert t_shift_coeff(4, alpha) == Fraction(chi, 4 * factorial(k - 4))
            if k >= 5:
                chi = character(alpha, (5,) + (1,) * (k - 5))
                assert t_shift_coeff(5, alpha) == Fraction(chi, 5 * factorial(k - 5))
            if k >= 6:
                chi = character(alpha, (3, 3) + (1,) * (k - 6))
                assert t_shift_coeff(6, alpha) == Fraction(2 * chi, 9 * factorial(k - 6))


def test_closed_forms_cover_all_shapes_up_to_weight_5():
    shapes = [alpha for k in range(1, 6) for alpha in partitions_of(k)]
    assert set(CLOSED_FORMS) == set(shapes)
    # conjugate shapes share a formula
    for alpha in shapes:
        assert CLOSED_FORMS[alpha] == CLOSED_FORMS[conjugate(alpha)]


def test_closed_forms_match_expansion():
    for alpha in CLOSED_FORMS:
        for n in range(sum(alpha), 13):
            assert N_closed_form(n, alpha) == N_expansion(n, alpha)


def test_closed_form_unknown_shape():
    with pytest.raises(ValueError):
        N_closed_form(8, (6,))


def test_conjugate_symmetry():
    for k in range(7):
        for alpha in partitions_of(k):
            for n in range(k, 13):
                assert N_expansion(n, alpha) == N_expansion(n, conjugate(alpha))


def test_containment_probability():
    for n in range(1, 12):
        assert containment_probability(n, (1,)) == 1
    assert containment_probability(4, (2,)) == Fraction(1, 2)
    assert containment_probability(2, (3,)) == 0


def test_row_examples():
    assert N_row(4, 2) == 5
    assert N_row(8, 6) == b_stable(2) == 5
    for k in range(11):
        assert N_row(k, k) == 1
    with pytest.raises(ValueError):
        N_row(3, 4)


def test_row_matches_expansion_method():
    for total in range(14):
        for k in range(total + 1):
            assert N_row(total, k) == N_expansion(total, (k,) if k else ())


def test_row_two_forms_agree_up_to_20():
    for total in range(21):
        for k in range(total + 1):
            N_row(total, k)  # raises on any internal mismatch


def test_generating_poly_check():
    for n in range(4):
        assert generating_poly_check(n, 8)
    with pytest.raises(ValueError):
        generating_poly_check(3, 2)


def test_stability_check():
    for k in range(7):
        assert stability_check(k)


def test_routes_table():
    table = containment.routes()
    assert list(table) == ["direct", "expansion", "binomial"]
    assert {name: route(4, (2, 1)) for name, route in table.items()} == {
        "direct": 3,
        "expansion": 3,
        "binomial": 3,
    }


def test_three_routes_agree_up_to_six_cells():
    for alpha in ALPHAS_UP_TO_6:
        k = sum(alpha)
        for n in range(max(k - 1, 0), 19):
            direct = N_direct(n, alpha)
            assert direct == N_expansion(n, alpha), (n, alpha)
            assert direct == N_binomial(n, alpha), (n, alpha)


@settings(deadline=None)
@given(st.sampled_from(ALPHAS_UP_TO_6), st.integers(min_value=0, max_value=14))
def test_routes_agree_on_random_alpha(alpha, n):
    direct = N_direct(n, alpha)
    assert N_expansion(n, alpha) == direct
    assert N_binomial(n, alpha) == direct
    if alpha in CLOSED_FORMS:
        assert N_closed_form(n, alpha) == direct


def test_direct_with_empty_alpha_counts_involutions():
    assert N_direct(0, ()) == 1
    for n in range(13):
        assert N_direct(n, ()) == involutions(n)


def test_direct_frozen_values():
    # golden values computed with every determinant in lam's own orientation
    assert N_direct(28, (5, 1)) == 133591802704944
    assert N_direct(26, (1,) * 6) == 1027879382000


def test_per_shape_loops_take_the_orientation_with_fewer_rows(monkeypatch):
    outers = []

    def recording_det(shape):
        outers.append(shape[0])
        return skew_syt_det(shape)

    monkeypatch.setattr(containment, "skew_syt_det", recording_det)
    assert N_direct(12, (2, 1, 1)) == N_expansion(12, (2, 1, 1))
    assert outers and all(len(lam) <= lam[0] for lam in outers)


@pytest.mark.parametrize("n, alpha", [(12, (2, 1, 1)), (10, (3, 1)), (9, (1,) * 4), (8, ()), (7, (4, 3))])
def test_direct_hands_the_det_every_containing_lam_as_a_plain_pair(monkeypatch, n, alpha):
    pairs = []

    def recording_det(shape):
        pairs.append(shape)
        return skew_syt_det(shape)

    monkeypatch.setattr(containment, "skew_syt_det", recording_det)
    assert N_direct(n, alpha) == N_expansion(n, alpha)
    alpha_t = conjugate(alpha)
    expected = [
        (conjugate(lam), alpha_t) if lam and len(lam) > lam[0] else (lam, alpha)
        for lam in partitions_of(n)
        if contains(lam, alpha)
    ]
    assert pairs == expected
    assert all(type(pair) is tuple for pair in pairs)


def _with_one_coefficient_perturbed(monkeypatch, n, shift):
    # adds t/(t + 1), t = t_{n-shift}, to the sum: never an integer
    def perturbed(j, alpha):
        coeff = t_shift_coeff(j, alpha)
        return coeff + Fraction(1, involutions(n - j) + 1) if j == shift else coeff

    monkeypatch.setattr(containment, "t_shift_coeff", perturbed)


@pytest.mark.parametrize("alpha", [(2, 1), (3, 1, 1), (2, 2), (4,)])
def test_expansion_checks_its_one_division(monkeypatch, alpha):
    n = 9
    for shift in range(sum(alpha) + 1):
        with monkeypatch.context() as patch:
            _with_one_coefficient_perturbed(patch, n, shift)
            with pytest.raises(IntegralityError, match="expected an integer"):
                N_expansion(n, alpha)
    assert N_expansion(n, alpha) == N_direct(n, alpha)


def test_expansion_with_one_coefficient_perturbed_exits_4(monkeypatch, capsys):
    _with_one_coefficient_perturbed(monkeypatch, 9, 3)
    code = cli.main(["contain", "--n", "9", "--alpha", "3,1", "--method", "expansion", "--json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTEGRALITY == 4
    assert captured.out == ""
    assert captured.err.startswith("internal integrality violation:"), captured.err


def test_binomial_route_runs_no_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("the binomial route ran a determinant")

    monkeypatch.setattr(containment, "skew_syt_det", refuse)
    monkeypatch.setattr(skew_count, "skew_syt_det", refuse)
    monkeypatch.setattr(skew_count, "integer_det", refuse)
    assert N_binomial(12, (2, 1, 1, 1)) == N_expansion(12, (2, 1, 1, 1))
    for alpha in [(3, 2, 1), (4, 2, 1, 1), (2, 2, 2, 2), (1,) * 8, (8,), (5, 3)]:
        for n in (sum(alpha) - 1, sum(alpha), 14, 30):
            assert N_binomial(n, alpha) == N_expansion(n, alpha), (n, alpha)


def test_direct_route_runs_no_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("the direct route walked Young's lattice")

    monkeypatch.setattr(containment, "path_totals", refuse)
    monkeypatch.setattr(skew_count, "path_totals", refuse)
    for alpha in [(2, 1, 1), (3, 2), (1,) * 4, (4,)]:
        assert N_direct(12, alpha) == N_expansion(12, alpha), alpha


@pytest.mark.parametrize("alpha", [(1, 2), (0,), (2, 0), (1, -1)])
def test_binomial_rejects_an_invalid_alpha(alpha):
    with pytest.raises(ValueError):
        N_binomial(5, alpha)


@pytest.mark.parametrize("route", ["direct", "expansion", "binomial", "closed_form"])
@pytest.mark.parametrize("alpha", [(), (1,), (2, 1)])
def test_every_route_rejects_a_negative_n(route, alpha):
    # the golden closed form shares the routes' domain
    counts = {**containment.routes(), "closed_form": N_closed_form}
    with pytest.raises(ValueError, match="n must be nonnegative"):
        counts[route](-1, alpha)


def test_probability_rejects_a_negative_n():
    with pytest.raises(ValueError, match="n must be nonnegative"):
        containment_probability(-1, (2, 1))


@pytest.mark.parametrize("route", ["direct", "expansion", "binomial"])
@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("alpha", [(1, 2), (0,), (2, 0), (1, -1)])
def test_every_route_rejects_an_invalid_alpha(route, n, alpha):
    with pytest.raises(ValueError):
        containment.routes()[route](n, alpha)
