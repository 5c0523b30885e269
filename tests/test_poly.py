import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from irrseq import (FpPoly, PolyParseError, irreducibles, legendre,
                    q_irreducibility_predicate, r_irreducibility_predicate)
from irrseq.poly import admissible_seed

PRIMES = [3, 5, 7, 11, 13]

polys = st.builds(
    lambda p, c: FpPoly(c, p),
    st.sampled_from(PRIMES),
    st.lists(st.integers(0, 200), max_size=25),
)


def pairs(draw_p=st.sampled_from(PRIMES)):
    return st.tuples(draw_p, st.lists(st.integers(0, 200), max_size=25),
                     st.lists(st.integers(0, 200), max_size=25))


class TestTextForm:
    def test_canonical_output(self):
        assert str(FpPoly("x^4+3x^2+1", 7)) == "x^4+3x^2+1"
        assert str(FpPoly([1, 6, 5, 6, 1], 7)) == "x^4+6x^3+5x^2+6x+1"
        assert str(FpPoly.zero(5)) == "0"
        assert str(FpPoly(12, 7)) == "5"
        assert str(FpPoly("x", 3)) == "x"

    def test_negative_coefficients_accepted(self):
        assert FpPoly("x^2+3x-1", 7) == FpPoly("x^2+3x+6", 7)
        assert FpPoly("-x+1", 5) == FpPoly("4x+1", 5)
        assert FpPoly("x^2-3x-2", 7) == FpPoly([5, 4, 1], 7)

    def test_whitespace_and_repeats(self):
        assert FpPoly(" x^2 + 3x - 1 ", 7) == FpPoly("x^2+3x+6", 7)
        assert FpPoly("x+x", 7) == FpPoly("2x", 7)

    def test_parse_errors_name_the_token(self):
        with pytest.raises(PolyParseError, match="y"):
            FpPoly("x^2+y", 7)
        with pytest.raises(PolyParseError):
            FpPoly("", 7)
        with pytest.raises(PolyParseError):
            FpPoly("x+", 7)
        with pytest.raises(PolyParseError):
            FpPoly("x^", 7)
        with pytest.raises(PolyParseError):
            FpPoly("x^99999999", 7)

    @given(polys)
    def test_roundtrip(self, f):
        assert FpPoly(str(f), f.p) == f


class TestRingOps:
    def test_difference_of_squares(self):
        p = 7
        prod = FpPoly("x+1", p) * FpPoly("x-1", p)
        assert str(prod) == "x^2+6"

    @given(pairs())
    def test_add_sub_roundtrip(self, t):
        p, ca, cb = t
        a, b = FpPoly(ca, p), FpPoly(cb, p)
        assert a + b - b == a
        assert a - a == FpPoly.zero(p)

    @given(pairs())
    def test_mul_commutes_and_degree(self, t):
        p, ca, cb = t
        a, b = FpPoly(ca, p), FpPoly(cb, p)
        assert a * b == b * a
        if not a.is_zero and not b.is_zero:
            assert (a * b).degree == a.degree + b.degree

    @given(pairs())
    def test_divmod(self, t):
        p, ca, cb = t
        a, b = FpPoly(ca, p), FpPoly(cb, p)
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_gcd_of_zero(self):
        f = FpPoly("3x^2+3", 7)
        assert f.gcd(FpPoly.zero(7)) == f.monic()

    @given(pairs())
    def test_gcd_divides(self, t):
        p, ca, cb = t
        a, b = FpPoly(ca, p), FpPoly(cb, p)
        g = a.gcd(b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
        else:
            assert (a % g).is_zero and (b % g).is_zero

    def test_evaluate(self):
        f = FpPoly("x^2+3x+6", 7)
        assert f(1) == 3 and f(-1) == 4

    def test_pow_mod_small_case(self):
        # x^5 mod (x^2+1) over F_5: x^2 = -1, so x^5 = x
        got = FpPoly.x(5).pow_mod(5, FpPoly("x^2+1", 5))
        assert got == FpPoly.x(5)

    @given(st.sampled_from([3, 7]), st.lists(st.integers(0, 30), max_size=6),
           st.lists(st.integers(0, 30), min_size=1, max_size=5),
           st.integers(0, 40))
    def test_pow_mod_matches_slow(self, p, cb, cm, e):
        base = FpPoly(cb, p)
        modulus = FpPoly(cm + [1], p)
        assert base.pow_mod(e, modulus) == oracles.slow_pow_mod(base, e, modulus)


class TestTransforms:
    def test_published_r_values(self):
        assert str(FpPoly.x(7).r_transform()) == "x^2+1"
        assert str(FpPoly("x-3", 7).r_transform()) == "x^2+x+1"
        assert str(FpPoly("x^2+2", 7).r_transform()) == "x^4+3x^2+1"
        assert str(FpPoly("x^3+3x^2+2", 5).r_transform()) == \
            "x^6+x^5+3x^4+3x^3+3x^2+x+1"

    def test_published_q_values(self):
        assert str(FpPoly.x(5).q_transform()) == "x^2+1"
        # frozen from the expansion x^2((x+1/x)^2 + (x+1/x) + 1) over F_3
        assert str(FpPoly("x^2+x+1", 3).q_transform()) == "x^4+x^3+x+1"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            FpPoly("2x+1", 7).r_transform()
        with pytest.raises(ValueError):
            FpPoly(3, 7).r_transform()

    @given(st.sampled_from(PRIMES), st.lists(st.integers(0, 100), min_size=1,
                                             max_size=12))
    def test_matches_sympy_expansion(self, p, tail):
        f = FpPoly(tail + [1], p)
        assert f.r_transform() == oracles.sympy_r_transform(f)
        assert f.q_transform() == oracles.sympy_q_transform(f)

    @given(st.sampled_from(PRIMES), st.lists(st.integers(0, 100), min_size=1,
                                             max_size=10))
    def test_pointwise_identity(self, p, tail):
        # f_R(x0) = (2 x0)^n f((x0 + 1/x0)/2) at every nonzero point
        f = FpPoly(tail + [1], p)
        fr = f.r_transform()
        n = f.degree
        inv2 = pow(2, -1, p)
        for x0 in range(1, p):
            theta = (x0 + pow(x0, -1, p)) * inv2 % p
            assert fr(x0) == pow(2 * x0, n, p) * f(theta) % p

    def test_degree_doubles_large(self):
        rng = random.Random(2)
        f = FpPoly([rng.randrange(7) for _ in range(512)] + [1], 7)
        rt = f.r_transform()
        assert rt.degree == 1024 and rt.is_monic


class TestReciprocal:
    def test_published_values(self):
        assert FpPoly("x^2+1", 7).reciprocal() == FpPoly("x^2+1", 7)
        assert FpPoly("x-4", 7).reciprocal() == FpPoly("x-2", 7)
        assert FpPoly("x^3+3x+3", 5).reciprocal() == FpPoly("x^3+x^2+2", 5)

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ValueError):
            FpPoly.x(7).reciprocal()

    @given(st.sampled_from(PRIMES), st.lists(st.integers(0, 100), min_size=1,
                                             max_size=10))
    def test_involution_and_roots(self, p, tail):
        f = FpPoly([max(tail[0] % p, 1)] + tail[1:] + [1], p)
        r = f.reciprocal()
        assert r.reciprocal() == f.monic()
        for x0 in range(1, p):
            if f(x0) == 0:
                assert r(pow(x0, -1, p)) == 0


class TestIrreducibility:
    def test_published_values(self):
        assert FpPoly("x^2+1", 7).is_irreducible()
        assert not FpPoly("x^2+x+1", 7).is_irreducible()  # (x-4)(x-2)
        assert FpPoly("x^4-x^3-2x^2-x+1", 7).is_irreducible()

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            FpPoly(3, 7).is_irreducible()

    def test_exhaustive_vs_bruteforce(self):
        for p in [3, 5]:
            for n in range(1, 5):
                for f in oracles.all_monic(p, n):
                    assert f.is_irreducible() == oracles.brute_irreducible(f), f

    @given(st.sampled_from(PRIMES + [101]),
           st.lists(st.integers(0, 200), min_size=1, max_size=14))
    def test_matches_sympy(self, p, tail):
        f = FpPoly(tail + [1], p)
        assert f.is_irreducible() == oracles.sympy_irreducible(f)

    def test_counts_match_moebius_formula(self):
        for p in PRIMES:
            for n in [1, 2, 3]:
                got = sum(1 for _ in irreducibles(p, n))
                assert got == oracles.count_irreducibles(p, n)


class TestLambdaAndPredicates:
    def test_published_lambda_values(self):
        assert FpPoly.x(7).lambda_value() == 6
        assert FpPoly("x-3", 7).lambda_value() == 1
        assert FpPoly("x^2+2", 7).lambda_value() == 2

    def test_published_r_predicate(self):
        assert r_irreducibility_predicate(FpPoly.x(7)) is True
        assert r_irreducibility_predicate(FpPoly("x-3", 7)) is False
        assert r_irreducibility_predicate(FpPoly("x^2+2", 7)) is False

    def test_admissible_seed(self):
        for p in PRIMES:
            for text in ["x+1", "x-1", "2x^2+1", "3"]:
                assert not admissible_seed(FpPoly(text, p))
            assert not admissible_seed(FpPoly.zero(p))
            for text in ["x", "x^2+x+1", "x^2-1"]:
                assert admissible_seed(FpPoly(text, p))

    def test_r_predicate_rejects_unit_linears(self):
        with pytest.raises(ValueError):
            r_irreducibility_predicate(FpPoly("x+1", 7))
        with pytest.raises(ValueError):
            r_irreducibility_predicate(FpPoly("x-1", 7))

    def test_published_q_predicate(self):
        f = FpPoly.x(3)
        assert f(2) * f(-2) % 3 == 2 and legendre(2, 3) == -1
        assert q_irreducibility_predicate(f) is True
        assert FpPoly("x^2+1", 3).is_irreducible()
        g = FpPoly("x-1", 5)
        assert q_irreducibility_predicate(g) is True

    def test_q_predicate_agrees_with_transform_exhaustively(self):
        for p in PRIMES:
            for n in [1, 2, 3]:
                for f in irreducibles(p, n):
                    assert q_irreducibility_predicate(f) == \
                        f.q_transform().is_irreducible(), f
