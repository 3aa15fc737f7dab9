"""Exact integer Laurent polynomials and the twist-quotient of pairs.

A Laurent polynomial is stored sparsely as exponent -> coefficient with no
zero coefficients; it offers sums, differences, shifts by t^k, the value
and derivative at t = 1, and reduction mod t^s - 1.  On these this module
builds the quotient structure used for linking classes: pairs (f, g) of
polynomials reduced mod t^s - 1, identified under the simultaneous twist
(f, g) ~ (t^k f, t^(-k) g), with a deterministic canonical representative.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import WrongArgumentType

__all__ = ["LaurentPoly", "LinkingClass", "gamma_class", "least_rotation",
           "parse_poly", "period"]


class LaurentPoly:
    """Integer Laurent polynomial, immutable and hashable.

    >>> LaurentPoly({-1: 1, 1: -2, 3: 1})
    LaurentPoly('t^-1 - 2*t + t^3')
    """

    __slots__ = ("_terms",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(coeffs, Mapping):  # distinct exponents: no summing
            acc = coeffs
        else:
            acc = {}
            for e, c in coeffs:
                acc[e] = acc.get(e, 0) + c
        self._terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    def coeffs(self) -> dict[int, int]:
        return dict(self._terms)

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no minimum exponent")
        return self._terms[0][0]

    def eval_at_one(self) -> int:
        """Sum of coefficients, i.e. the value at t = 1."""
        return sum(c for _, c in self._terms)

    def derivative_at_one(self) -> int:
        """Value of the formal derivative at t = 1: sum of e * coeff(e)."""
        return sum(e * c for e, c in self._terms)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k (the one-sided twist)."""
        if k == 0:
            return self
        return LaurentPoly((e + k, c) for e, c in self._terms)

    def vector(self, s: int) -> tuple[int, ...]:
        """Length-s coefficient vector of the reduction mod t^s - 1."""
        v = [0] * s
        for e, c in self._terms:
            v[e % s] += c
        return tuple(v)

    @classmethod
    def from_vector(cls, v: Iterable[int]) -> "LaurentPoly":
        return cls(enumerate(v))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly(list(self._terms) + list(other._terms))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly((e, -c) for e, c in self._terms)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        """Ascending-exponent text form, e.g. ``t^-1 - 2*t + t^3``."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self._terms:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                t = "t" if e == 1 else f"t^{e}"
                body = t if mag == 1 else f"{mag}*{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>-?\d+)\*?)?(?:(?P<t>t)(?:\^(?P<exp>-?\d+))?)?$"
)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the textual form produced by ``str(LaurentPoly)``."""
    if not isinstance(text, str):
        raise WrongArgumentType(
            f"parse_poly needs a str, not {type(text).__name__}")
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    # Split on +/- separators; a sign directly after '^' belongs to an exponent.
    chunks = re.split(r"(?<!\^)\s*([+-])\s*", text)
    head = chunks[0].strip()
    terms: list[tuple[str, str]] = []
    if head:
        terms.append(("+", head))
    for sign, body in zip(chunks[1::2], chunks[2::2]):
        terms.append((sign, body.strip()))
    out: dict[int, int] = {}
    for sign, body in terms:
        m = _TERM_RE.match(body)
        if not m or (m.group("coeff") is None and m.group("t") is None):
            raise ValueError(f"bad polynomial term: {body!r}")
        c = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("t"):
            e = int(m.group("exp")) if m.group("exp") else 1
        else:
            e = 0
        out[e] = out.get(e, 0) + (c if sign == "+" else -c)
    return LaurentPoly(out)


@dataclass(frozen=True)
class LinkingClass:
    """Canonical representative of an element of the twist quotient.

    ``s`` is the modulus of the ambient ring Z[t,1/t]/(t^s - 1) (s = 0 means
    no reduction, s = 1 collapses polynomials to their integer values).  The
    pair (f, g) is stored in the canonical twist position, so dataclass
    equality decides class equality.
    """

    s: int
    f: LaurentPoly
    g: LaurentPoly

    def derivative_sum(self) -> int:
        """f'(1) + g'(1) of the stored representative.

        Well defined exactly for s = 0 and mod s otherwise, provided
        f(1) - g(1) = s.
        """
        d = self.f.derivative_at_one() + self.g.derivative_at_one()
        return d % self.s if self.s >= 2 else d

    def __str__(self) -> str:
        return f"[{self.f}, {self.g}] in Gamma({self.s})"


def least_rotation(s: list | tuple) -> int:
    """Start of the lexicographically least rotation of ``s`` (the smallest
    such start), by the two-pointer minimum-rotation scan in O(n)."""
    n = len(s)
    d = s + s
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = d[i + k], d[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def period(s: tuple[int, ...]) -> int:
    """Least p > 0 such that rotating ``s`` by p gives ``s`` (KMP failure
    function: the least linear period, if it divides the length)."""
    n = len(s)
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and s[i] != s[k]:
            k = fail[k - 1]
        if s[i] == s[k]:
            k += 1
        fail[i] = k
    p = n - fail[-1]
    return p if n % p == 0 else n


def gamma_class(s: int, f: LaurentPoly, g: LaurentPoly) -> LinkingClass:
    """Canonicalize the pair (f, g) under (f, g) ~ (t^k f, t^(-k) g) mod t^s - 1.

    Canonical twist: for s = 0 shift so the first nonzero entry of the pair
    has minimum exponent 0 (f takes priority); for s >= 1 pick the rotation
    whose concatenated coefficient vectors are lexicographically minimal
    (for s = 1 the one rotation, which leaves the integer pair), in O(s).

    Twist k reads f's vector from u = -k and g's from -u.  The least f part
    starts at u = r + j*p for f's least rotation r and period p; those
    twists read g's vector from -r, then -r - j*p, so the least of them is
    the least rotation of that vector cut into blocks of length p.
    """
    if not (type(s) is int and isinstance(f, LaurentPoly)
            and isinstance(g, LaurentPoly)):
        raise WrongArgumentType("gamma_class needs an int and two LaurentPolys")
    if s < 0:
        raise ValueError("modulus must be nonnegative")
    if s == 0:
        if f:
            k = -f.min_exp()
        elif g:
            k = g.min_exp()
        else:
            k = 0
        return LinkingClass(0, f.shift(k), g.shift(-k))
    fv, gv = f.vector(s), g.vector(s)
    r = least_rotation(fv)
    fv = fv[r:] + fv[:r]
    p = period(fv)
    gv = gv[-r:] + gv[:-r]
    b = p * least_rotation([gv[i:i + p] for i in range(0, s, p)])
    return LinkingClass(s, LaurentPoly.from_vector(fv),
                        LaurentPoly.from_vector(gv[b:] + gv[:b]))
