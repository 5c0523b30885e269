"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (trial division, dense schoolbook
loops) or delegated to sympy, so the fast paths in the package are
checked against code that shares none of their machinery.
"""

import itertools

import sympy
from sympy.abc import x as _x

from irrseq import FpPoly
# the trial-division oracle lives in the package, where `irrseq verify` uses it
from irrseq.verify import all_monic, brute_irreducible  # noqa: F401


def to_sympy(f: FpPoly):
    return sympy.Poly(list(reversed(f.coeffs)), _x, modulus=f.p)


def from_sympy(poly, p: int) -> FpPoly:
    return FpPoly([int(c) % p for c in reversed(poly.all_coeffs())], p)


def sympy_irreducible(f: FpPoly) -> bool:
    return to_sympy(f).is_irreducible


def sympy_factors(f: FpPoly) -> list[FpPoly]:
    """Monic irreducible factors with multiplicity, sorted canonically."""
    _, factors = sympy.factor_list(to_sympy(f))
    out = []
    for poly, mult in factors:
        out.extend([from_sympy(poly.monic(), f.p)] * mult)
    return sorted(out, key=lambda g: tuple(reversed(g.coeffs)))


def sympy_r_transform(f: FpPoly) -> FpPoly:
    """(2x)^n f((x + 1/x)/2) expanded symbolically over the integers."""
    n = f.degree
    expr = sympy.expand(
        (2 * _x) ** n * to_sympy(f).as_expr().subs(_x, (_x + 1 / _x) / 2))
    return from_sympy(sympy.Poly(expr, _x), f.p)


def sympy_q_transform(f: FpPoly) -> FpPoly:
    n = f.degree
    expr = sympy.expand(_x ** n * to_sympy(f).as_expr().subs(_x, _x + 1 / _x))
    return from_sympy(sympy.Poly(expr, _x), f.p)


def slow_pow_mod(base: FpPoly, e: int, modulus: FpPoly) -> FpPoly:
    acc = FpPoly.one(base.p) % modulus
    for _ in range(e):
        acc = (acc * base) % modulus
    return acc


def squares_in_field(field) -> set:
    """All nonzero squares of an ExtField, by enumeration."""
    p, n = field.p, field.n
    out = set()
    for coords in itertools.product(range(p), repeat=n):
        u = field.element(coords)
        if not u.is_zero:
            out.add((u * u).coords)
    return out


def count_irreducibles(p: int, n: int) -> int:
    """Number of monic irreducibles of degree n via Moebius inversion."""
    total = 0
    for d in sympy.divisors(n):
        total += sympy.mobius(n // d) * p ** d
    return total // n
