"""Laurent arithmetic and the twist-quotient canonicalization."""

import random

import pytest

from shellmoves.algebra import LaurentPoly, LinkingClass, gamma_class, parse_poly

LP = LaurentPoly


def test_eval_at_one():
    assert LP().eval_at_one() == 0
    assert LP({-1: 1, 1: -2, 3: 1}).eval_at_one() == 0
    assert LP({-1: 1, 0: 1, 4: 1}).eval_at_one() == 3


def test_derivative_at_one():
    assert LP().derivative_at_one() == 0
    assert LP({-1: 1, 1: -2, 3: 1}).derivative_at_one() == 0
    # 2t^2 - t^3: 2*2 - 3*1 = 1
    assert LP({2: 2, 3: -1}).derivative_at_one() == 1


def test_twist_shift():
    assert LP({0: 1, 1: 1}).shift(2) == LP({2: 1, 3: 1})
    p = LP({-2: 5, 7: -1})
    assert p.shift(0) == p
    assert LP({-3: 1}).shift(3) == LP({0: 1})


def test_arithmetic_is_exact():
    p = LP({0: 1, 1: 1})
    q = LP({0: 1, 1: -1})
    assert p + q == LP({0: 2})
    assert p - q == LP({1: 2})
    assert p + (-p) == LP()
    big = LP({1: 10**30})
    assert (big + big).coeffs() == {1: 2 * 10**30}


def test_no_zero_coefficients_stored():
    p = LP({3: 1}) - LP({3: 1})
    assert p.coeffs() == {}
    assert not p


def test_text_form():
    assert str(LP()) == "0"
    assert str(LP({-1: 1, 1: -2, 3: 1})) == "t^-1 - 2*t + t^3"
    assert str(LP({0: -4})) == "-4"
    assert str(LP({1: 1})) == "t"
    assert str(LP({2: -1, 0: 2})) == "2 - t^2"


@pytest.mark.parametrize("text", ["0", "t^-1 - 2*t + t^3", "-4", "t", "2 - t^2",
                                  "3*t^-5 + 7"])
def test_parse_poly_roundtrip(text):
    assert str(parse_poly(text)) == text


def test_parse_poly_rejects_garbage():
    for bad in ["", "t^", "x + 1", "2**t"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_gamma_class_modulus_zero_shifts_f_to_base():
    cls = gamma_class(0, LP({3: 1, 5: 1}), LP({-2: 1}))
    assert cls.f == LP({0: 1, 2: 1})
    assert cls.g == LP({1: 1})


def test_gamma_class_modulus_one_is_integer_pair():
    cls = gamma_class(1, LP({-1: 1, 0: 1, 4: 1}), LP({2: 2, 3: -1}))
    assert cls.f == LP({0: 3})
    assert cls.g == LP({0: 1})


def test_gamma_class_modulus_two_lex_minimum():
    # f = t^-1 + 1 + t^4 reduces to 2 + t, g = 2t^2 - t^3 to 2 - t; the
    # rotation by k=1 gives vectors (1, 2) and (-1, 2), the lex minimum.
    cls = gamma_class(2, LP({-1: 1, 0: 1, 4: 1}), LP({2: 2, 3: -1}))
    assert cls.f.vector(2) == (1, 2)
    assert cls.g.vector(2) == (-1, 2)


def _random_poly(rng, span=6, size=4):
    return LP({rng.randint(-span, span): rng.randint(-3, 3)
               for _ in range(rng.randint(0, size))})


def test_gamma_class_twist_invariance():
    rng = random.Random(7)
    for _ in range(300):
        s = rng.choice([0, 0, 1, 2, 3, 4, 5])
        f, g = _random_poly(rng), _random_poly(rng)
        k = rng.randint(-6, 6)
        assert gamma_class(s, f.shift(k), g.shift(-k)) == gamma_class(s, f, g)


def test_gamma_class_idempotent():
    rng = random.Random(8)
    for _ in range(200):
        s = rng.choice([0, 1, 2, 3, 5])
        cls = gamma_class(s, _random_poly(rng), _random_poly(rng))
        assert gamma_class(s, cls.f, cls.g) == cls


def _times_modulus(s, r):
    """r * (t^s - 1)."""
    return r.shift(s) - r


def _related_by_twist(s, f1, g1, f2, g2):
    """Independent check: is (f2, g2) = (t^k f1 + (t^s-1)p, t^-k g1 + (t^s-1)q)?"""
    if s == 0:
        for fa, fb, ga, gb in [(f1, f2, g1, g2)]:
            if bool(fa) != bool(fb) or bool(ga) != bool(gb):
                return False
            if fa:
                k = fb.min_exp() - fa.min_exp()
            elif ga:
                k = ga.min_exp() - gb.min_exp()
            else:
                return True
            return fa.shift(k) == fb and ga.shift(-k) == gb
    if s == 1:
        return (f1.eval_at_one(), g1.eval_at_one()) == \
            (f2.eval_at_one(), g2.eval_at_one())
    return any(
        f1.shift(k).vector(s) == f2.vector(s)
        and g1.shift(-k).vector(s) == g2.vector(s)
        for k in range(s))


def test_gamma_class_equality_matches_exhaustive_twist_check():
    rng = random.Random(9)
    for _ in range(400):
        s = rng.choice([0, 1, 2, 3, 4])
        f1, g1 = _random_poly(rng), _random_poly(rng)
        if rng.random() < 0.5:
            # A genuinely related pair, including mod (t^s - 1) garbage.
            k = rng.randint(-4, 4)
            f2, g2 = f1.shift(k), g1.shift(-k)
            if s >= 1:
                f2 = f2 + _times_modulus(s, _random_poly(rng, span=3, size=2))
                g2 = g2 + _times_modulus(s, _random_poly(rng, span=3, size=2))
        else:
            f2, g2 = _random_poly(rng), _random_poly(rng)
        same = gamma_class(s, f1, g1) == gamma_class(s, f2, g2)
        assert same == _related_by_twist(s, f1, g1, f2, g2)


def ref_gamma_class(s, f, g):
    """Every one of the s twists for s >= 1, each read as its concatenated
    vectors: the least is the canonical pair."""
    fv, gv = f.vector(s), g.vector(s)
    best = min(tuple(fv[(i - k) % s] for i in range(s))
               + tuple(gv[(i + k) % s] for i in range(s)) for k in range(s))
    return LinkingClass(s, LP.from_vector(best[:s]), LP.from_vector(best[s:]))


def _periodic_vector(rng, s):
    """A vector of length s that repeats a block of a random divisor of s."""
    p = rng.choice([d for d in range(1, s + 1) if s % d == 0])
    return [rng.randint(-2, 2) for _ in range(p)] * (s // p)


def test_gamma_class_matches_the_all_twists_reference():
    rng = random.Random(10)
    for trial in range(3000):
        s = rng.randint(1, 40)
        shape = trial % 3  # all-zero, periodic or random f
        fv = ([0] * s if shape == 0 else _periodic_vector(rng, s)
              if shape == 1 else [rng.randint(-2, 2) for _ in range(s)])
        gv = (_periodic_vector(rng, s) if rng.random() < 0.3
              else [rng.randint(-2, 2) for _ in range(s)])
        f = LP.from_vector(fv).shift(rng.randint(-50, 50))
        g = LP.from_vector(gv).shift(rng.randint(-50, 50))
        assert gamma_class(s, f, g) == ref_gamma_class(s, f, g), (s, fv, gv)


def test_derivative_sum_well_defined_on_classes():
    # For class-equal pairs with f(1) - g(1) = s the derivative sum f'(1)+g'(1)
    # agrees mod s (exactly when s = 0).
    rng = random.Random(10)
    for _ in range(300):
        s = rng.choice([0, 2, 3, 4])
        f1 = _random_poly(rng)
        g1 = _random_poly(rng)
        # force f1(1) - g1(1) = s by fixing the constant coefficient
        g1 = g1 + LP({0: f1.eval_at_one() - g1.eval_at_one() - s})
        assert f1.eval_at_one() - g1.eval_at_one() == s
        k = rng.randint(-4, 4)
        f2, g2 = f1.shift(k), g1.shift(-k)
        if s >= 2:
            f2 = f2 + _times_modulus(s, _random_poly(rng, span=3, size=2))
            g2 = g2 + _times_modulus(s, _random_poly(rng, span=3, size=2))
        d1 = f1.derivative_at_one() + g1.derivative_at_one()
        d2 = f2.derivative_at_one() + g2.derivative_at_one()
        if s == 0:
            assert d1 == d2
        else:
            assert (d1 - d2) % s == 0
        cls = gamma_class(s, f1, g1)
        expected = d1 if s == 0 else d1 % s
        assert cls.derivative_sum() == expected
