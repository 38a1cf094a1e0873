"""Integer Laurent polynomials in one formal variable ``A``.

Coefficients are exact Python integers, terms are stored sparsely as
exponent -> coefficient, and zero coefficients are never kept.  The text
form lists terms in increasing exponent order, e.g. ``-A^-4 - A^4``; it is
written only, never parsed.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .errors import InputError


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if type(exp) is not int or type(coeff) is not int:
                    raise InputError(f"term {exp!r}: {coeff!r} is not a pair of ints")
                if coeff:
                    clean[exp] = coeff
        object.__setattr__(self, "_terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            terms[exp] = terms.get(exp, 0) + coeff
        return LaurentPoly(terms)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = e1 + e2
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return LaurentPoly(terms)

    def __pow__(self, n: int) -> "LaurentPoly":
        if type(n) is not int or n < 0:
            raise InputError(f"the exponent must be an int of at least 0, got {n!r}")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute_inverse(self) -> "LaurentPoly":
        """Return the polynomial with the variable replaced by its inverse."""
        return LaurentPoly({-exp: coeff for exp, coeff in self._terms.items()})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Render terms in increasing exponent order (``-A^-4 - A^4``)."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for i, (exp, coeff) in enumerate(sorted(self._terms.items())):
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                var = "A" if exp == 1 else f"A^{exp}"
                body = var if mag == 1 else f"{mag}{var}"
            if i == 0:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r})"


#: Loop factor of the bracket state sum: each extra closed loop multiplies by this.
LOOP_FACTOR = LaurentPoly({2: -1, -2: -1})


def equal_up_to_inversion(p: LaurentPoly, q: LaurentPoly) -> bool:
    """True when the polynomials agree exactly or after inverting the variable."""
    return p == q or p == q.substitute_inverse()
