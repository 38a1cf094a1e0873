import re

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


@pytest.mark.parametrize(
    "terms, pair",
    [
        pytest.param({1.5: 2.7}, "1.5: 2.7", id="float-pair"),
        pytest.param({"3": "2"}, "'3': '2'", id="str-pair"),
        pytest.param({True: 1}, "True: 1", id="bool-exponent"),
        pytest.param({2: True}, "2: True", id="bool-coefficient"),
        pytest.param({2: 1.0}, "2: 1.0", id="float-coefficient"),
    ],
)
def test_terms_must_be_ints(terms, pair):
    with pytest.raises(InputError, match=f"^term {pair} "):
        LaurentPoly(terms)


def test_zero_coefficients_are_dropped():
    assert LaurentPoly({3: 0, 1: 2}) == LaurentPoly({1: 2})
    assert not LaurentPoly({1: 2}) + LaurentPoly({1: -2})


def test_monomial_powers():
    cube = LaurentPoly.monomial(-1, 3)
    assert cube ** 2 == LaurentPoly({6: 1})
    assert cube ** 3 == LaurentPoly({9: -1})
    for exponent in (-1, 1.5, True):
        with pytest.raises(InputError, match="must be an int of at least 0"):
            cube ** exponent


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


def _text_exponents(text):
    """The exponent of each term of a polynomial text, split term by term."""
    return [
        int(term.partition("A^")[2]) if "A^" in term else int(term.endswith("A"))
        for term in re.split(" [+-] ", text)
    ]


@given(polys, polys)
def test_text_is_faithful(p, q):
    assert (p.to_text() == q.to_text()) == (p == q)


@given(polys)
def test_text_lists_exponents_in_increasing_order(p):
    exponents = _text_exponents(p.to_text())
    assert exponents == sorted(set(exponents))
    assert len(exponents) == max(1, len(list(p.items())))


@given(polys)
def test_substitute_inverse_is_involution(p):
    assert p.substitute_inverse().substitute_inverse() == p
    assert equal_up_to_inversion(p, p.substitute_inverse())
