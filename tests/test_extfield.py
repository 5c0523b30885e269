import itertools
import random

import pytest

import oracles
from irrseq import (INFINITY, ExtField, FpPoly, InternalInvariantError,
                    NonResidueError, factor_r, theta, tilde)
from irrseq.poly import irreducibles


@pytest.fixture(scope="module")
def f125():
    """The worked degree-3 field over F_5."""
    return ExtField(5, FpPoly("x^3+3x^2+2", 5))


class TestConstruction:
    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            ExtField(7, FpPoly("x^2+x+1", 7))

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            ExtField(7, FpPoly("2x^2+1", 7))

    def test_basic_attributes(self, f125):
        assert (f125.p, f125.n, f125.q) == (5, 3, 125)

    def test_degree_one_field(self):
        fld = ExtField(7, FpPoly("x-3", 7))
        assert fld.beta == fld.scalar(3)
        assert (fld.beta * fld.beta).coords == (2,)


class TestElementArithmetic:
    def test_beta_fifth_power(self, f125):
        # frozen from the worked example: b^5 = b^2 + b + 2
        b5 = f125.beta ** 5
        assert b5 == f125.element([2, 1, 1])
        assert str(b5) == "b^2+b+2"
        assert f125.beta ** 10 == f125.element([1, 2, 3])

    def test_inverse_roundtrip(self, f125):
        rng = random.Random(33)
        for _ in range(50):
            u = f125.element([rng.randrange(5) for _ in range(3)])
            if u.is_zero:
                with pytest.raises(ZeroDivisionError):
                    u.inverse()
                continue
            assert u * u.inverse() == f125.one
            assert (f125.one / u) * u == f125.one

    def test_frobenius_orbit_closes(self):
        for p, n in [(3, 2), (5, 3), (7, 2), (13, 3)]:
            fld = ExtField(p, next(iter(irreducibles(p, n))))
            b = fld.beta
            assert b ** (p ** n) == b
            v = b
            for _ in range(n):
                v = fld.frobenius(v)
            assert v == b

    def test_field_axioms_random(self, f125):
        rng = random.Random(5)
        for _ in range(40):
            a = f125.element([rng.randrange(5) for _ in range(3)])
            b = f125.element([rng.randrange(5) for _ in range(3)])
            c = f125.element([rng.randrange(5) for _ in range(3)])
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a + b == b + a

    def test_scalar_embedding(self, f125):
        assert f125.scalar(3) + f125.scalar(4) == f125.scalar(7)
        assert f125.scalar(2) * f125.scalar(3) == f125.one


class TestIsSquare:
    def test_worked_example(self, f125):
        u = f125.beta * f125.beta - f125.one
        assert u ** 62 == f125.one
        assert f125.is_square(u)

    def test_one_is_square(self, f125):
        assert f125.is_square(f125.one)

    def test_zero_rejected(self, f125):
        with pytest.raises(ValueError):
            f125.is_square(f125.zero)

    def test_against_enumeration(self):
        for p, n in [(3, 2), (5, 2), (7, 2), (3, 3)]:
            fld = ExtField(p, next(iter(irreducibles(p, n))))
            squares = oracles.squares_in_field(fld)
            for coords in itertools.product(range(p), repeat=n):
                u = fld.element(coords)
                if not u.is_zero:
                    assert fld.is_square(u) == (u.coords in squares)

    def test_norm_route_agrees_with_direct_power(self):
        # grow a certified irreducible of degree 256 over F_11
        from irrseq import SeqConfig, build_sequence
        trace = build_sequence(SeqConfig(p=11, f0=FpPoly.x(11), target_steps=11))
        f = next(g for g in trace.polynomials() if g.degree == 256)
        fld = ExtField(11, f, check_modulus=False)
        rng = random.Random(17)
        half = (fld.q - 1) // 2
        for _ in range(3):
            u = fld.element([rng.randrange(11) for _ in range(fld.n)])
            assert fld.is_square(u) == (u ** half == fld.one)


class TestSqrt:
    def test_worked_example(self, f125):
        b = f125.beta
        a = b * b - f125.one
        root = f125.sqrt(a)
        assert root * root == a
        # c/d = 2b^2 - 2b - 2 in the worked run
        assert root == f125.element([3, 3, 2])

    def test_sqrt_of_one(self, f125):
        assert f125.sqrt(f125.one) == f125.one

    def test_constant_in_quadratic_extension(self):
        fld = ExtField(7, FpPoly("x^2+1", 7))
        root = fld.sqrt(fld.scalar(4))
        assert root * root == fld.scalar(4)
        assert root.coords in {(2, 0), (5, 0)}

    def test_nonsquare_rejected(self):
        fld = ExtField(7, FpPoly("x^2+1", 7))
        # find a non-square by enumeration
        squares = oracles.squares_in_field(fld)
        bad = next(fld.element(c) for c in itertools.product(range(7), repeat=2)
                   if any(c) and c not in squares)
        with pytest.raises(NonResidueError):
            fld.sqrt(bad)
        with pytest.raises(NonResidueError):
            fld.sqrt(fld.zero)
        # a larger field: degree 6 over F_13, non-square found by the
        # direct (q-1)/2 power
        from irrseq.poly import random_irreducible
        rng = random.Random(613)
        big = ExtField(13, random_irreducible(13, 6, rng), check_modulus=False)
        half = (big.q - 1) // 2
        bad = next(u for u in (big.element([rng.randrange(13) for _ in range(6)])
                               for _ in range(100))
                   if not u.is_zero and u ** half != big.one)
        with pytest.raises(NonResidueError):
            big.sqrt(bad)

    def test_kernel_is_one_dimensional(self, f125):
        from irrseq import solve_nullspace
        b = f125.beta
        a = b * b - f125.one
        cap_a = a ** 2
        frob = f125.frobenius_matrix()
        mult = f125.multiplication_matrix(cap_a)
        system = [[(frob[i][j] - mult[i][j]) % 5 for j in range(3)] for i in range(3)]
        basis = solve_nullspace(system, 5)
        assert len(basis) == 1
        lead = next(v for v in basis[0] if v)
        inv = pow(lead, -1, 5)
        assert [v * inv % 5 for v in basis[0]] == [1, 1, 4]  # the line (c0, c0, -c0)

    def test_random_roundtrip(self):
        rng = random.Random(99)
        for p, n in [(5, 4), (13, 3), (101, 2), (3, 6)]:
            from irrseq.poly import random_irreducible
            fld = ExtField(p, random_irreducible(p, n, rng), check_modulus=False)
            for _ in range(10):
                r = fld.element([rng.randrange(p) for _ in range(n)])
                if r.is_zero:
                    continue
                a = r * r
                root = fld.sqrt(a)
                assert root * root == a
                assert root in (r, -r)


class TestMinimalPoly:
    def test_worked_example(self, f125):
        alpha = f125.element([3, 4, 2])  # 2b^2 - b - 2
        assert f125.minimal_poly(alpha) == FpPoly("x^3+3x+3", 5)

    def test_constants_and_generator(self, f125):
        assert f125.minimal_poly(f125.scalar(2)) == FpPoly("x-2", 5)
        assert f125.minimal_poly(f125.beta) == f125.modulus
        assert f125.minimal_poly(f125.zero) == FpPoly.x(5)

    def test_annihilates_and_is_irreducible(self):
        rng = random.Random(4)
        fld = ExtField(7, FpPoly("x^3+2", 7, ) if FpPoly("x^3+2", 7).is_irreducible()
                       else next(iter(irreducibles(7, 3))))
        for _ in range(20):
            u = fld.element([rng.randrange(7) for _ in range(3)])
            m = fld.minimal_poly(u)
            assert m.is_irreducible()
            assert fld.n % m.degree == 0
            # evaluate m at u inside the field
            acc = fld.zero
            for c in reversed(m.coeffs):
                acc = acc * u + fld.scalar(c)
            assert acc.is_zero

    @pytest.mark.parametrize("p, n", [(3, 4), (5, 4), (3, 6), (7, 6)])
    def test_every_subfield_degree(self, p, n):
        # u^((q-1)/(p^d-1)) lies in the subfield of degree d, so these
        # fields reach minimal polynomials of degree strictly between 1 and n
        from irrseq.poly import random_irreducible
        rng = random.Random(p * 100 + n)
        fld = ExtField(p, random_irreducible(p, n, rng), check_modulus=False)
        q = p ** n
        elems = [fld.zero, fld.one, fld.scalar(p - 1), fld.scalar(2)]
        elems += [fld.element([rng.randrange(p) for _ in range(n)]) for _ in range(15)]
        elems += [u ** ((q - 1) // (p ** d - 1)) for u in elems[4:9]
                  for d in range(1, n + 1) if n % d == 0]
        degrees = set()
        for u in elems:
            m = fld.minimal_poly(u)
            assert m.is_monic and m.is_irreducible()
            assert n % m.degree == 0
            acc = fld.zero
            for c in reversed(m.coeffs):
                acc = acc * u + fld.scalar(c)
            assert acc.is_zero
            degrees.add(m.degree)
        assert {d for d in range(2, n) if n % d == 0} <= degrees


class TestTheta:
    def test_fixed_cases(self, f125):
        assert theta(INFINITY) is INFINITY
        assert theta(f125.zero) is INFINITY
        assert theta(f125.one) == f125.one
        assert theta(f125.scalar(-1)) == f125.scalar(-1)

    def test_prime_field_value(self):
        fld = ExtField(7, FpPoly("x-3", 7))
        # (3 + 3^-1)/2 = (3 + 5) * 4 = 4 mod 7
        assert theta(fld.beta) == fld.scalar(4)


class TestTilde:
    def test_mutually_inverse_roots_collapse(self):
        assert tilde(FpPoly("x^2+1", 7)) == FpPoly.x(7)

    def test_not_inverse_closed_keeps_degree(self):
        t = tilde(FpPoly("x^2+2", 7))
        assert t.degree == 2
        assert t == FpPoly("x^2+1", 7)

    def test_roundtrip_through_transform(self):
        for p, f in [(7, FpPoly("x^2+3x+6", 7)), (5, FpPoly("x-2", 5)),
                     (13, FpPoly("x^2+x+2", 13))]:
            if not f.is_irreducible():
                continue
            res = factor_r(f)
            if res.is_irreducible:
                assert tilde(res.r_poly) == f

    def test_rejected_inputs(self):
        with pytest.raises(ValueError):
            tilde(FpPoly.x(7))
        with pytest.raises(ValueError):
            tilde(FpPoly("x+1", 7))
        with pytest.raises(ValueError):
            tilde(FpPoly("x-1", 7))
        with pytest.raises(ValueError):
            tilde(FpPoly("x^2+x+1", 7))  # reducible

    def test_degree_law_small(self):
        for p in [3, 5, 7]:
            for n in [1, 2, 3, 4]:
                for f in irreducibles(p, n):
                    if f.degree == 1 and f.coeffs[0] in (0, 1, p - 1):
                        continue
                    want = n // 2 if f.reciprocal() == f else n
                    assert tilde(f).degree == want, f


class TestFactorR:
    def test_worked_degree3_split(self):
        res = factor_r(FpPoly("x^3+3x^2+2", 5))
        assert not res.is_irreducible
        assert set(map(str, res.factors)) == {"x^3+3x+3", "x^3+x^2+2"}
        assert res.factors[0] * res.factors[1] == res.r_poly

    def test_published_quadratic_split(self):
        res = factor_r(FpPoly("x^2+3x+1", 7))
        assert set(map(str, res.factors)) == {"x^2+x+3", "x^2+5x+5"}

    def test_published_irreducible_case(self):
        res = factor_r(FpPoly("x^2-3x-2", 7))
        assert res.is_irreducible
        # the transform, recomputed coefficient by coefficient, carries the
        # middle x term (self-reciprocality forces it)
        assert str(res.r_poly) == "x^4+x^3+x^2+x+1"
        assert res.r_poly.reciprocal() == res.r_poly

    def test_seed_x_both_residue_classes(self):
        res7 = factor_r(FpPoly.x(7))  # 7 = 3 mod 4: x^2+1 stays irreducible
        assert res7.is_irreducible and str(res7.r_poly) == "x^2+1"
        res5 = factor_r(FpPoly.x(5))  # 5 = 1 mod 4: x^2+1 = (x-2)(x-3)
        assert not res5.is_irreducible
        assert set(map(str, res5.factors)) == {"x+2", "x+3"}
        assert res5.factors[0] * res5.factors[1] == res5.r_poly

    def test_predicate_fault_is_an_invariant_error(self, monkeypatch):
        # the f(1)f(-1) character alone decides the split; a wrong call
        # must surface as an invariant failure, not as a bad factorization
        import irrseq.extfield as extfield_mod
        monkeypatch.setattr(extfield_mod, "r_irreducibility_predicate", lambda f: False)
        with pytest.raises(InternalInvariantError):
            factor_r(FpPoly("x^2-3x-2", 7))
        with pytest.raises(InternalInvariantError):
            factor_r(FpPoly.x(7))

    def test_rejects_bad_seeds(self):
        with pytest.raises(ValueError):
            factor_r(FpPoly("x+1", 7))
        with pytest.raises(ValueError):
            factor_r(FpPoly("x-1", 7))
        with pytest.raises(ValueError):
            factor_r(FpPoly("x^2+x+1", 7))  # reducible
        with pytest.raises(ValueError):
            factor_r(FpPoly("2x^2+1", 7))  # not monic

    def test_matches_sympy_factorization(self):
        rng = random.Random(12)
        for p in [3, 5, 7, 11, 13]:
            seeds = [f for f in irreducibles(p, 2)][:6]
            seeds += [f for f in irreducibles(p, 3)][:4]
            for f in seeds:
                res = factor_r(f)
                want = oracles.sympy_factors(res.r_poly)
                if res.is_irreducible:
                    assert want == [res.r_poly.monic()]
                else:
                    assert sorted(res.factors,
                                  key=lambda g: tuple(reversed(g.coeffs))) == want

    def test_split_factors_never_coincide(self):
        for p in [5, 13]:
            for f in irreducibles(p, 2):
                res = factor_r(f)
                if not res.is_irreducible:
                    g1, g2 = res.factors
                    assert g1 != g2
                    assert g2 == g1.reciprocal()

    def test_transform_vanishes_at_lifted_root_and_its_inverse(self):
        # with a = b + sqrt(b^2 - 1), both a and 1/a are roots of the
        # transform of the modulus
        def eval_poly(field, poly, at):
            acc = field.zero
            for c in reversed(poly.coeffs):
                acc = acc * at + field.scalar(c)
            return acc

        for p, seed in [(5, "x^3+3x^2+2"), (7, "x^2+3x+1"), (13, "x^2+2")]:
            f = FpPoly(seed, p)
            fld = ExtField(p, f)
            b = fld.beta
            u = b * b - fld.one
            if not fld.is_square(u):
                continue
            alpha = b + fld.sqrt(u)
            rp = f.r_transform()
            assert eval_poly(fld, rp, alpha).is_zero
            assert eval_poly(fld, rp, alpha.inverse()).is_zero
