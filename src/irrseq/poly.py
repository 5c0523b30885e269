"""Dense univariate polynomials over F_p.

FpPoly wraps a canonical coefficient tuple (ascending degree, entries in
[0, p), no trailing zeros) together with its odd prime modulus.  Values
are immutable and hashable; all operators return new objects.  On top of
ring arithmetic the module provides the two degree-doubling transforms,
their fast irreducibility predicates, reciprocals, and a deterministic
irreducibility test.

The canonical text form lists terms by descending power with
coefficients reduced to [0, p), e.g. ``x^4+3x^2+1``.  The parser also
accepts negative coefficients (``x^2+3x-1``), which are reduced modulo
p, so literature-style inputs round-trip.
"""

from __future__ import annotations

import itertools
import re

from . import _arith
from .errors import PolyParseError
from .fp import legendre, require_odd_prime

_TERM_RE = re.compile(r"^(\d+)?(x(\^(\d+))?)?$")
_MAX_EXPONENT = 1_000_000


class FpPoly:
    """Immutable dense polynomial over F_p."""

    __slots__ = ("p", "_c")

    def __init__(self, coeffs, p: int, _checked: bool = False):
        self.p = p if _checked else require_odd_prime(p)
        if _checked:
            self._c = coeffs
            return
        if isinstance(coeffs, str):
            self._c = tuple(_parse(coeffs, p))
        elif isinstance(coeffs, int):
            self._c = (coeffs % p,) if coeffs % p else ()
        else:
            c = [int(v) % p for v in coeffs]
            self._c = tuple(_arith.trim(c))

    @classmethod
    def _raw(cls, coeffs: list[int], p: int) -> "FpPoly":
        return cls(tuple(coeffs), p, _checked=True)

    @classmethod
    def zero(cls, p: int) -> "FpPoly":
        return cls((), p)

    @classmethod
    def one(cls, p: int) -> "FpPoly":
        return cls((1,), p)

    @classmethod
    def x(cls, p: int) -> "FpPoly":
        return cls((0, 1), p)

    @classmethod
    def from_string(cls, text: str, p: int) -> "FpPoly":
        return cls(text, p)

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, FpPoly):
            return self.p == other.p and self._c == other._c
        if isinstance(other, int):
            return self == FpPoly(other, self.p)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self._c))

    def _coerce(self, other) -> "FpPoly":
        if isinstance(other, FpPoly):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpPoly(other, self.p)
        return NotImplemented

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other) -> "FpPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpPoly._raw(_arith.add(list(self._c), list(other._c), self.p), self.p)

    __radd__ = __add__

    def __sub__(self, other) -> "FpPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpPoly._raw(_arith.sub(list(self._c), list(other._c), self.p), self.p)

    def __rsub__(self, other) -> "FpPoly":
        return (-self) + other

    def __neg__(self) -> "FpPoly":
        return FpPoly._raw(_arith.neg(list(self._c), self.p), self.p)

    def __mul__(self, other) -> "FpPoly":
        if isinstance(other, int):
            return FpPoly._raw(_arith.scalar_mul(list(self._c), other, self.p), self.p)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpPoly._raw(_arith.mul(list(self._c), list(other._c), self.p), self.p)

    __rmul__ = __mul__

    def __divmod__(self, other) -> tuple["FpPoly", "FpPoly"]:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        q, r = _arith.divmod_poly(list(self._c), list(other._c), self.p)
        return FpPoly._raw(q, self.p), FpPoly._raw(r, self.p)

    def __floordiv__(self, other) -> "FpPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "FpPoly":
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point, result in [0, p)."""
        return _arith.eval_at(list(self._c), x, self.p)

    def monic(self) -> "FpPoly":
        if self.is_zero or self.is_monic:
            return self
        inv = pow(self._c[-1], -1, self.p)
        return self * inv

    def gcd(self, other) -> "FpPoly":
        """Monic greatest common divisor; gcd(f, 0) = monic(f)."""
        other = self._coerce(other)
        return FpPoly._raw(_arith.gcd(list(self._c), list(other._c), self.p), self.p)

    def pow_mod(self, exponent: int, modulus: "FpPoly") -> "FpPoly":
        """self**exponent mod modulus by square and multiply."""
        modulus = self._coerce(modulus)
        if modulus.is_zero:
            raise ZeroDivisionError("zero modulus polynomial")
        if exponent < 0:
            raise ValueError("negative exponent")
        if modulus.degree == 0:
            return FpPoly.zero(self.p)
        ctx = _arith.ModCtx(list(modulus.monic()._c), self.p)
        return FpPoly._raw(ctx.powmod(list(self._c), exponent), self.p)

    # -- transforms and predicates -------------------------------------------

    def r_transform(self) -> "FpPoly":
        """Degree-doubling transform (2x)^n f((x + 1/x)/2) of a monic f."""
        n = self.degree
        if n < 1 or not self.is_monic:
            raise ValueError("transform requires a monic polynomial of degree >= 1")
        p = self.p
        two_pow = pow(2, n, p)
        inv2 = pow(2, -1, p)
        scaled = []
        for i, a in enumerate(self._c):
            scaled.append(a * two_pow % p)
            two_pow = two_pow * inv2 % p
        return FpPoly._raw(_arith.expand_x_plus_xinv(scaled, p), p)

    def q_transform(self) -> "FpPoly":
        """Degree-doubling transform x^n f(x + 1/x) of a monic f."""
        n = self.degree
        if n < 1 or not self.is_monic:
            raise ValueError("transform requires a monic polynomial of degree >= 1")
        return FpPoly._raw(_arith.expand_x_plus_xinv(list(self._c), self.p), self.p)

    def reciprocal(self) -> "FpPoly":
        """x^deg(f) * f(1/x), normalized by f(0)^-1 so monic stays monic."""
        if self.is_zero or self._c[0] == 0:
            raise ValueError("reciprocal requires a nonzero constant term")
        inv = pow(self._c[0], -1, self.p)
        rev = [v * inv % self.p for v in reversed(self._c)]
        return FpPoly._raw(_arith.trim(rev), self.p)

    def lambda_value(self) -> int:
        """The product f(1) * f(-1) in F_p."""
        return self(1) * self(-1) % self.p

    def is_irreducible(self) -> bool:
        """Deterministic irreducibility test (Rabin).

        Checks x**(p**n) = x mod f together with coprimality of
        x**(p**(n/t)) - x and f for every prime t dividing n, using
        composed Frobenius powers so large degrees stay affordable.
        """
        n = self.degree
        if n < 1:
            raise ValueError("irreducibility is undefined for constants")
        if n == 1:
            return True
        if self._c[0] == 0:
            return False  # divisible by x
        f = list(self.monic()._c)
        p = self.p
        ctx = _arith.ModCtx(f, p)
        if ctx.frob_power(n) != [0, 1]:
            return False
        for t in _prime_divisors(n):
            w = _arith.sub(ctx.frob_power(n // t), [0, 1], p)
            if not w or _arith.gcd(w, f, p) != [1]:
                return False
        return True

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e in range(len(self._c) - 1, -1, -1):
            c = self._c[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                var = "x" if e == 1 else f"x^{e}"
                parts.append(var if c == 1 else f"{c}{var}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"FpPoly({str(self)!r}, p={self.p})"


def _parse(text: str, p: int) -> list[int]:
    s = "".join(text.split())
    if not s:
        raise PolyParseError("empty polynomial string")
    coeffs: dict[int, int] = {}
    pos = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        pos = 1
    while pos <= len(s):
        nxt = len(s)
        for i in range(pos, len(s)):
            if s[i] in "+-":
                nxt = i
                break
        token = s[pos:nxt]
        m = _TERM_RE.match(token)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise PolyParseError(f"invalid term {token!r} in polynomial string")
        coeff = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            exp = 0
        elif m.group(4) is not None:
            exp = int(m.group(4))
        else:
            exp = 1
        if exp > _MAX_EXPONENT:
            raise PolyParseError(f"exponent {exp} too large in term {token!r}")
        coeffs[exp] = (coeffs.get(exp, 0) + sign * coeff) % p
        if nxt == len(s):
            break
        sign = -1 if s[nxt] == "-" else 1
        pos = nxt + 1
        if pos == len(s):
            raise PolyParseError("polynomial string ends with a dangling sign")
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for e, c in coeffs.items():
        out[e] = c
    return _arith.trim(out)


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def admissible_seed(f: FpPoly) -> bool:
    """Whether f may seed the doubling construction as far as its shape
    goes: monic of degree >= 1 and neither x+1 nor x-1, whose transforms
    are the squares (x+1)^2 and (x-1)^2.  Irreducibility is not checked."""
    return (f.is_monic and f.degree >= 1
            and not (f.degree == 1 and f.coeffs[0] in (1, f.p - 1)))


def r_irreducibility_predicate(f: FpPoly) -> bool:
    """Whether the doubling transform of f is irreducible, decided from
    the quadratic character of f(1)*f(-1).

    Requires f monic irreducible and different from x+1 and x-1 (for
    which the product is zero and the transform is excluded).
    """
    lam = f.lambda_value()
    if lam == 0:
        raise ValueError("f(1)*f(-1) = 0: x+1 and x-1 are excluded")
    return legendre(lam, f.p) == -1


def q_irreducibility_predicate(f: FpPoly) -> bool:
    """Whether x^n f(x + 1/x) is irreducible, from the character of f(2)*f(-2)."""
    val = f(2) * f(-2) % f.p
    return legendre(val, f.p) == -1


def irreducibles(p: int, n: int):
    """Yield all monic irreducible polynomials of degree n over F_p,
    in ascending order of their coefficient vectors (constant term first)."""
    require_odd_prime(p)
    if n < 1:
        raise ValueError("degree must be positive")
    for tail in itertools.product(range(p), repeat=n):
        f = FpPoly(tail + (1,), p)
        if f.is_irreducible():
            yield f


def random_irreducible(p: int, n: int, rng) -> FpPoly:
    """Random monic irreducible of degree n over F_p, using rng.randrange."""
    require_odd_prime(p)
    while True:
        coeffs = [rng.randrange(p) for _ in range(n)] + [1]
        f = FpPoly(coeffs, p)
        if f.is_irreducible():
            return f
