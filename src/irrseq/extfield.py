"""The extension field F_{p^n} = F_p[x]/(f) and the operations built on it.

ExtField fixes an odd prime p together with a monic irreducible modulus
and exposes element arithmetic, the quadratic-residue test, square roots
and minimal polynomials, the map x -> (x + 1/x)/2 on the projective line,
and the equal-degree factorization of the doubling transform of an
irreducible polynomial.  Square roots and minimal polynomials both come
from the kernel of a matrix of powers over F_p (solve_nullspace): the
square root from c**p = A*c, the minimal polynomial of u from the first
linear dependency among 1, u, ..., u**n.
Whether that transform splits is decided once, from the character of
f(1)*f(-1) in F_p; the field is only built to find the factors.

Elements carry their coordinates in the power basis 1, b, ..., b^(n-1)
of the residue class b of x.  The point at infinity of the projective
line is the module-level singleton INFINITY.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _arith
from .errors import InternalInvariantError, NonResidueError, ReducibleError
from .fp import fp_sqrt, legendre, require_odd_prime, solve_nullspace
from .poly import FpPoly, admissible_seed, r_irreducibility_predicate


class ExtField:
    """F_p[x]/(modulus) with cached reduction and Frobenius data."""

    def __init__(self, p: int, modulus: FpPoly, *, check_modulus: bool = True):
        require_odd_prime(p)
        if modulus.p != p:
            raise ValueError("modulus polynomial has a different characteristic")
        if not modulus.is_monic or modulus.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if check_modulus and not modulus.is_irreducible():
            raise ReducibleError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.modulus = modulus
        self.n = modulus.degree
        self.q = p ** self.n
        self._ctx = _arith.ModCtx(list(modulus.coeffs), p)
        self._frob_matrix = None

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, modulus={str(self.modulus)!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtField)
                and self.p == other.p and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.modulus))

    # -- element constructors ---------------------------------------------

    def element(self, coords) -> "ExtElem":
        """Element from an iterable of at most n coordinates (low power first)."""
        c = [int(v) % self.p for v in coords]
        if len(c) > self.n:
            raise ValueError(f"got {len(c)} coordinates for a degree-{self.n} field")
        c += [0] * (self.n - len(c))
        return ExtElem(self, tuple(c))

    def scalar(self, a: int) -> "ExtElem":
        return self.element([a])

    @property
    def zero(self) -> "ExtElem":
        return self.element([])

    @property
    def one(self) -> "ExtElem":
        return self.element([1])

    @property
    def beta(self) -> "ExtElem":
        """The residue class of x, a root of the modulus."""
        return ExtElem(self, tuple(self._pad(self._ctx.reduce([0, 1]))))

    def from_poly(self, f: FpPoly) -> "ExtElem":
        if f.p != self.p:
            raise ValueError("polynomial has a different characteristic")
        return ExtElem(self, tuple(self._pad(self._ctx.reduce(list(f.coeffs)))))

    def _pad(self, c: list[int]) -> list[int]:
        return c + [0] * (self.n - len(c))

    def _make(self, c: list[int]) -> "ExtElem":
        return ExtElem(self, tuple(self._pad(c)))

    # -- linear structure ----------------------------------------------------

    def _power_matrix(self, a: "ExtElem", v: "ExtElem", k: int) -> list[list[int]]:
        """n x k matrix whose column j holds the coordinates of a * v**j."""
        cols = [a]
        while len(cols) < k:
            cols.append(cols[-1] * v)
        return [list(row) for row in zip(*(c.coords for c in cols))]

    def frobenius_matrix(self) -> list[list[int]]:
        """n x n matrix F with column j the coordinates of b**(p*j).

        Applying F to a coordinate vector computes the p-power map, which
        is F_p-linear.  Built once per field and cached.
        """
        if self._frob_matrix is None:
            self._frob_matrix = self._power_matrix(
                self.one, self._make(self._ctx.frob_base()), self.n)
        return self._frob_matrix

    def multiplication_matrix(self, a: "ExtElem") -> list[list[int]]:
        """n x n matrix M with column j the coordinates of a * b**j."""
        return self._power_matrix(a, self.beta, self.n)

    # -- predicates and roots --------------------------------------------

    def is_square(self, u: "ExtElem") -> bool:
        """Whether nonzero u satisfies u**((q-1)/2) = 1.

        Decided by the Legendre symbol of the norm of u in F_p, which is
        the same quantity because (q-1)/2 = ((p-1)/2) * (q-1)/(p-1).
        """
        self._own(u)
        if u.is_zero:
            raise ValueError("zero has no quadratic character")
        return legendre(self._ctx.norm_to_prime(list(u.coords)), self.p) == 1

    def sqrt(self, a: "ExtElem") -> "ExtElem":
        """Square root of a nonzero square a.

        Sets A = a**((p-1)/2) and solves c**p = A*c as an n x n linear
        system over F_p; the solution line gives c with c**2/a in F_p,
        and dividing c by a square root of that constant yields the
        result.  The kernel vector is normalized (first nonzero
        coordinate 1) so the output is deterministic.  A zero or
        non-square a leaves the kernel empty (a nonzero solution c would
        make a = c**2 / (c**2/a) a square), which raises NonResidueError;
        no separate residue test runs.
        """
        self._own(a)
        p = self.p
        cap_a = a ** ((p - 1) // 2)
        frob = self.frobenius_matrix()
        mult = self.multiplication_matrix(cap_a)
        system = [[(frob[i][j] - mult[i][j]) % p for j in range(self.n)]
                  for i in range(self.n)]
        kernel = solve_nullspace(system, p)
        if not kernel:
            raise NonResidueError(f"{a} is not a nonzero square in {self!r}")
        if len(kernel) != 1:
            raise InternalInvariantError(
                f"square-root system has kernel dimension {len(kernel)}, expected 1")
        vec = kernel[0]
        lead = next(v for v in vec if v)
        inv = pow(lead, -1, p)
        c = self.element([v * inv % p for v in vec])
        t = c * c / a
        if any(t.coords[1:]):
            raise InternalInvariantError("c^2/a escaped the prime subfield")
        d = fp_sqrt(t.coords[0], p)
        root = c * pow(d, -1, p)
        if root * root != a:
            raise InternalInvariantError("computed square root fails to square back")
        return root

    def frobenius(self, u: "ExtElem") -> "ExtElem":
        """u**p, computed by composing with x**p mod f."""
        self._own(u)
        ctx = self._ctx
        return self._make(ctx.compose(_arith.trim(list(u.coords)), ctx.frob_base()))

    def minimal_poly(self, u: "ExtElem") -> FpPoly:
        """Minimal polynomial of u over F_p.

        It is the first linear dependency among 1, u, ..., u**n: the
        columns before the first free one of that n x (n+1) power matrix
        are independent, so the first vector of the canonical kernel basis
        is (c_0, ..., c_(m-1), 1, 0, ...) with m the least possible degree.
        """
        self._own(u)
        kernel = solve_nullspace(self._power_matrix(self.one, u, self.n + 1), self.p)
        m = FpPoly(kernel[0], self.p)
        if self.n % m.degree:
            raise InternalInvariantError(
                f"minimal polynomial degree {m.degree} does not divide {self.n}")
        return m

    def _own(self, u: "ExtElem") -> None:
        if u.field is not self and u.field != self:
            raise ValueError("element belongs to a different field")


class ExtElem:
    """Element of an ExtField, immutable coordinate tuple of length n."""

    __slots__ = ("field", "coords")

    def __init__(self, field: ExtField, coords: tuple[int, ...]):
        if len(coords) != field.n:
            raise ValueError(f"need exactly {field.n} coordinates")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *_):
        raise AttributeError("ExtElem is immutable")

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def _same(self, other) -> "ExtElem":
        if isinstance(other, ExtElem):
            if other.field != self.field:
                raise ValueError("elements from different fields")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._same(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return ExtElem(self.field, tuple((a + b) % p for a, b in
                                         zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._same(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.field.p
        return ExtElem(self.field, tuple((a - b) % p for a, b in
                                         zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.field.p
        return ExtElem(self.field, tuple((-a) % p for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            k = other % p
            return ExtElem(self.field, tuple(a * k % p for a in self.coords))
        other = self._same(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        prod = f._ctx.mulmod(_arith.trim(list(self.coords)),
                             _arith.trim(list(other.coords)))
        return f._make(prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._same(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        return f._make(f._ctx.powmod(_arith.trim(list(self.coords)), e))

    def inverse(self) -> "ExtElem":
        if self.is_zero:
            raise ZeroDivisionError("inversion of zero field element")
        f = self.field
        return f._make(f._ctx.invmod(_arith.trim(list(self.coords))))

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtElem):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, int):
            return self == self.field.scalar(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def __str__(self) -> str:
        return coords_str(self.coords)

    def __repr__(self) -> str:
        return f"<{self} in {self.field!r}>"


def coords_str(coords) -> str:
    """Canonical text form of a coordinate vector as a polynomial in b."""
    parts = []
    for e in range(len(coords) - 1, -1, -1):
        c = coords[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            var = "b" if e == 1 else f"b^{e}"
            parts.append(var if c == 1 else f"{c}{var}")
    return "+".join(parts) if parts else "0"


class _Infinity:
    """The point at infinity of the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()


def theta(x) -> object:
    """The halving map on the projective line: 0 and infinity go to
    infinity, any other x goes to (x + 1/x)/2."""
    if x is INFINITY:
        return INFINITY
    if not isinstance(x, ExtElem):
        raise TypeError("theta expects an ExtElem or INFINITY")
    if x.is_zero:
        return INFINITY
    inv2 = pow(2, -1, x.field.p)
    return (x + x.inverse()) * inv2


@dataclass(frozen=True)
class RFactorization:
    """Outcome of factoring the doubling transform of an irreducible f.

    Either the transform itself is irreducible (factors is None) or it
    splits as factors[0] * factors[1], two distinct monic irreducible
    polynomials of the same degree as f that are mutual reciprocals.
    """

    r_poly: FpPoly
    factors: tuple[FpPoly, FpPoly] | None

    @property
    def is_irreducible(self) -> bool:
        return self.factors is None


def _validate_seed(f: FpPoly, trusted: bool) -> None:
    """The one check of a seed: admissible in shape (ValueError) and, unless
    trusted, irreducible (ReducibleError)."""
    if not admissible_seed(f):
        raise ValueError(f"{f} is not an admissible seed: it must be monic of "
                         "degree >= 1 and neither x+1 nor x-1")
    if not trusted and not f.is_irreducible():
        raise ReducibleError(f"{f} is reducible over F_{f.p}")


def factor_r(f: FpPoly, *, trusted: bool = False) -> RFactorization:
    """Factor the doubling transform of a monic irreducible f (not x+-1).

    Whether the transform splits is decided by r_irreducibility_predicate,
    the quadratic character of f(1)*f(-1): for a root b of f that is the
    norm of b**2 - 1, so it tells whether b**2 - 1 is a square in
    F_p[x]/(f).  Only in the split case is that field built; the root
    a = b + sqrt(b**2 - 1) gives one factor as its minimal polynomial and
    the other as the reciprocal.  Pass trusted=True to skip re-checking
    that f is irreducible (used by the sequence builder, which already
    knows).
    """
    _validate_seed(f, trusted)
    p = f.p
    rp = f.r_transform()
    if r_irreducibility_predicate(f):
        return RFactorization(rp, None)
    try:
        if f == FpPoly.x(p):
            # f = x is the one case without a nonzero root: its transform
            # x^2 + 1 splits over the square roots of -1.
            g1 = FpPoly((p - fp_sqrt(p - 1, p), 1), p)
        else:
            field = ExtField(p, f, check_modulus=False)
            beta = field.beta
            g1 = field.minimal_poly(beta + field.sqrt(beta * beta - field.one))
    except NonResidueError:
        raise InternalInvariantError(
            f"f(1)f(-1) is a square but b^2-1 is not, for {f}") from None
    if g1.degree != f.degree:
        raise InternalInvariantError(
            f"split factor has degree {g1.degree}, expected {f.degree}")
    g2 = g1.reciprocal()
    if g1 == g2:
        raise InternalInvariantError(f"split factors of {f} coincide")
    if g1 * g2 != rp:
        raise InternalInvariantError(f"split factors of {f} do not multiply back")
    return RFactorization(rp, (g1, g2))


def tilde(f: FpPoly) -> FpPoly:
    """Minimal polynomial of (b + 1/b)/2 for a root b of f.

    Defined for monic irreducible f other than x, x+1 and x-1.  The
    result has degree n when the root set of f is not closed under
    inversion and degree n/2 when it is.
    """
    p = f.p
    if f == FpPoly.x(p):
        raise ValueError("x is excluded: its only root is 0")
    _validate_seed(f, trusted=False)
    field = ExtField(p, f, check_modulus=False)
    image = theta(field.beta)
    if image is INFINITY:
        raise InternalInvariantError("theta sent a nonzero field element to infinity")
    return field.minimal_poly(image)
