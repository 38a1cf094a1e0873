import pytest
from hypothesis import given
from hypothesis import strategies as st

from trilink.errors import InputError
from trilink.laurent import LOOP_FACTOR, LaurentPoly, equal_up_to_inversion

polys = st.dictionaries(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-50, max_value=50),
    max_size=8,
).map(LaurentPoly)


def test_loop_factor_value():
    assert LOOP_FACTOR == LaurentPoly({2: -1, -2: -1})


def test_text_examples():
    assert LaurentPoly({-4: -1, 4: -1}).to_text() == "-A^-4 - A^4"
    assert (LOOP_FACTOR * LOOP_FACTOR).to_text() == "A^-4 + 2 + A^4"
    assert LaurentPoly.zero().to_text() == "0"
    assert LaurentPoly.one().to_text() == "1"
    assert LaurentPoly({1: 1}).to_text() == "A"
    assert LaurentPoly({1: -3, 0: 2}).to_text() == "2 - 3A"


def test_from_text_rejects_garbage():
    with pytest.raises(InputError):
        LaurentPoly.from_text("A^^2")
    with pytest.raises(InputError):
        LaurentPoly.from_text("")


@pytest.mark.parametrize(
    "text",
    [
        "A + A",
        "A^4 + A^-4",
        "2 A",
        "1A",
        "A^1",
        "A^01",
        "A^-0",
        "00",
        "-0",
        "0A",
        "A^2 - A^2",
        " A",
        "A  + 1",
        pytest.param("1" * 5000, id="5000-digit-coefficient"),
        pytest.param("A^" + "1" * 5000, id="5000-digit-exponent"),
    ],
)
def test_from_text_accepts_only_the_normal_form(text):
    with pytest.raises(InputError):
        LaurentPoly.from_text(text)


def test_zero_coefficients_are_dropped():
    assert LaurentPoly({3: 0, 1: 2}) == LaurentPoly({1: 2})
    assert (LaurentPoly({1: 2}) - LaurentPoly({1: 2})).is_zero


def test_monomial_powers():
    cube = LaurentPoly.monomial(-1, 3)
    assert cube ** 2 == LaurentPoly({6: 1})
    assert cube ** 3 == LaurentPoly({9: -1})
    with pytest.raises(InputError):
        cube ** -1


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(polys)
def test_text_round_trip(p):
    assert LaurentPoly.from_text(p.to_text()) == p


@given(polys)
def test_substitute_inverse_is_involution(p):
    assert p.substitute_inverse().substitute_inverse() == p
    assert equal_up_to_inversion(p, p.substitute_inverse())
