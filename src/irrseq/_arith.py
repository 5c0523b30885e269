"""Kernel routines for dense univariate polynomials over F_p.

A polynomial is a plain Python list of ints in [0, p), ascending degree,
with no trailing zeros; [] is the zero polynomial.  Inputs are trusted
to be canonical, callers in the public modules enforce that.

One dispatch (``_product``) picks the multiplication path for both
``mul`` and ``sqr`` from the shorter operand length and p:

* shorter operand below 24 coefficients: schoolbook;
* shorter operand of at least 256 coefficients, and p small enough for
  the float64 exactness bound of ``_fft_exact``: a numpy ``rfft``/``irfft``
  convolution of the coefficients centred in (-p/2, p/2], rounded to the
  nearest integer and reduced mod p.  For p = 7 this covers operands of
  up to about 10**11 coefficients; at length 4096 it covers p up to
  49541, at length 256 p up to 234469.  The product checks its own
  rounding and raises ``InternalInvariantError`` rather than return a
  wrong coefficient;
* otherwise Kronecker substitution: the coefficient vector is packed into
  one large integer (through numpy byte buffers, and gmpy2 when it is
  installed), the integers are multiplied, and the product coefficients
  are unpacked and reduced with vectorized numpy.  Slots are 4 or 8
  bytes wide when the products fit, wider (a Python pack loop) for large
  p such as 2**31 - 1.

gmpy2 only speeds up the Kronecker path; small primes at large degree
take the FFT path and do not need it.

Reduction modulo a fixed monic polynomial goes through a cached Newton
series inverse of the reversed modulus, so a modular multiplication
costs three multiplies instead of a quadratic long division.

Frobenius powers x**(p**e) mod f are assembled from modular compositions
(baby-step giant-step, with the inner matrix product dispatched to BLAS
when the coefficient bound allows exact float64 accumulation).  Norms to
the prime subfield use the same composition table, which keeps repeated
power computations at degree in the thousands affordable.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalInvariantError

try:
    from gmpy2 import mpz as _big
except ImportError:  # pragma: no cover - CPython ints carry the Kronecker path
    _big = int

_SCHOOLBOOK_LIMIT = 24          # min operand length below which schoolbook wins
_FFT_MIN_LENGTH = 256           # min operand length from which the FFT product wins
_NUMPY_GCD_LIMIT = 128          # degree above which the euclid loop is vectorized
_COMPOSE_HORNER_LIMIT = 32      # modulus degree below which plain Horner composes
_FLOAT_MATMUL_BOUND = 1 << 53   # exact-integer limit for float64 accumulation
_INT64_MATMUL_BOUND = 1 << 62


def trim(c: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place and return the list."""
    while c and c[-1] == 0:
        c.pop()
    return c


def add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return trim(out)


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = a + [0] * (n - len(a))
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return trim(out)


def neg(a: list[int], p: int) -> list[int]:
    return [(-v) % p for v in a]


def scalar_mul(a: list[int], k: int, p: int) -> list[int]:
    k %= p
    if k == 0:
        return []
    return trim([v * k % p for v in a])


def add_const(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    if c == 0:
        return a[:]
    out = a[:] if a else [0]
    out[0] = (out[0] + c) % p
    return trim(out)


def _mul_schoolbook(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim([v % p for v in out])


def _mul_packed(a: list[int], b: list[int], p: int, width: int) -> list[int]:
    # Kronecker substitution with a fixed slot width of 4 or 8 bytes.
    dtype = "<u4" if width == 4 else "<u8"
    xa = _big.from_bytes(np.asarray(a, dtype=dtype).tobytes(), "little")
    xb = xa if b is a else _big.from_bytes(np.asarray(b, dtype=dtype).tobytes(), "little")
    buf = (xa * xb).to_bytes((len(a) + len(b)) * width, "little")
    arr = np.frombuffer(buf, dtype=dtype)[: len(a) + len(b) - 1]
    return trim((arr % p).astype(np.int64).tolist())


def _mul_wide(a: list[int], b: list[int], p: int, width: int) -> list[int]:
    # Fallback for very large p: arbitrary slot width, Python pack loop.
    xa = _big.from_bytes(b"".join(v.to_bytes(width, "little") for v in a), "little")
    xb = xa if b is a else _big.from_bytes(
        b"".join(v.to_bytes(width, "little") for v in b), "little")
    n = len(a) + len(b) - 1
    buf = (xa * xb).to_bytes((n + 1) * width, "little")
    return trim([int.from_bytes(buf[i * width:(i + 1) * width], "little") % p
                 for i in range(n)])


# Exactness of the float64 FFT product.
#
# With coefficients centred in (-p/2, p/2], every |a_i|, |b_j| <= h =
# (p - 1)/2, so ||a||_2 * ||b||_2 <= sqrt(la * lb) * h**2.  For a transform
# of length N = 2**k, Percival ("Rapid multiplication modulo the sum and
# difference of highly composite numbers", Math. Comp. 2003, Thm. 5.1)
# bounds the error of every coefficient of an FFT convolution by
#
#     ||a||_2 * ||b||_2 * ((1+e)**(3k) * (1+sqrt(5) e)**(3k+1) * (1+t)**(3k) - 1)
#
# with e = 2**-53 and t the relative error of the twiddle factors.  While
# k * e is tiny the bracket is about (3k + sqrt(5) (3k+1)) e + 3k t, below
# (13k + 3) e for t <= e and below (22k + 3) e for t <= 3e.  We allow
# _FFT_ERROR_FACTOR * (k + 1) * e, which covers twiddles off by up to 3
# ulps and leaves room for the extra passes of numpy's real-input
# transforms, and require the whole error to stay below 1/8:
#
#     sqrt(la * lb) * h**2 * _FFT_ERROR_FACTOR * (k + 1) * 2**-53 <= 2**-3,
#
# squared into integers by _fft_exact.  Rounding to the nearest integer is
# then exact, and every true coefficient (at most min(la, lb) * h**2 <
# 2**50 in size) fits a float64 mantissa.  _mul_fft checks that each
# coefficient came out within _FFT_ROUNDING_SLACK of an integer, twice the
# bound, so a fault in the bound or in the transform cannot pass silently.
_FFT_ERROR_FACTOR = 32
_FFT_ROUNDING_SLACK = 0.25


def _fft_exact(la: int, lb: int, p: int) -> bool:
    """Whether the float64 FFT product of lengths la, lb is exact mod p."""
    k = (la + lb - 2).bit_length()      # transform length 2**k >= la + lb - 1
    h = p // 2
    return la * lb * (h * h * _FFT_ERROR_FACTOR * (k + 1)) ** 2 <= 1 << 100


def _centred(a: list[int], p: int) -> np.ndarray:
    x = np.fromiter(a, dtype=np.int64, count=len(a))
    return np.where(x > p // 2, x - p, x)


def _mul_fft(a: list[int], b: list[int], p: int) -> list[int]:
    # Exact only inside _fft_exact(len(a), len(b), p).
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    fa = np.fft.rfft(_centred(a, p), size)
    fb = fa if b is a else np.fft.rfft(_centred(b, p), size)
    z = np.fft.irfft(fa * fb, size)[:n]
    r = np.rint(z)
    err = float(np.max(np.abs(z - r)))
    if not err <= _FFT_ROUNDING_SLACK:
        raise InternalInvariantError(
            f"FFT product off an integer by {err:.3g} (p={p}, lengths {len(a)}, {len(b)})")
    return trim((r.astype(np.int64) % p).tolist())


def _product(a: list[int], b: list[int], p: int) -> list[int]:
    # The one path choice behind mul and sqr; b is a for a square.
    small = min(len(a), len(b))
    if small < _SCHOOLBOOK_LIMIT:
        return _mul_schoolbook(a, b, p)
    if small >= _FFT_MIN_LENGTH and _fft_exact(len(a), len(b), p):
        return _mul_fft(a, b, p)
    bits = (small * (p - 1) * (p - 1)).bit_length() + 1
    if bits <= 32:
        return _mul_packed(a, b, p, 4)
    if bits <= 64:
        return _mul_packed(a, b, p, 8)
    return _mul_wide(a, b, p, (bits + 7) // 8)


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    """Product of two canonical coefficient lists."""
    if not a or not b:
        return []
    return _product(a, b, p)


def sqr(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    return _product(a, a, p)


def mul_low(a: list[int], b: list[int], p: int, k: int) -> list[int]:
    """Low k coefficients of a*b."""
    if not a or not b or k <= 0:
        return []
    return trim(mul(a[:k], b[:k], p)[:k])


def series_inverse(a: list[int], p: int, prec: int) -> list[int]:
    """Inverse of a modulo x**prec by Newton iteration; needs a[0] != 0."""
    inv0 = pow(a[0], -1, p)
    v = [inv0]
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        av = mul_low(a, v, p, k)
        corr = [(-t) % p for t in av]
        corr = add_const(corr, 2, p)
        v = mul_low(v, corr, p, k)
    return v


def divmod_poly(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Schoolbook long division: a = q*b + r with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if len(a) < len(b):
        return [], a[:]
    r = a[:]
    db = len(b) - 1
    binv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = r[k]
        if c:
            c = c * binv % p
            q[k - db] = c
            for j in range(db + 1):
                r[k - db + j] = (r[k - db + j] - c * b[j]) % p
    return trim(q), trim(r[:db])


def rem(a: list[int], b: list[int], p: int) -> list[int]:
    return divmod_poly(a, b, p)[1]


def _gcd_numpy(a: list[int], b: list[int], p: int) -> list[int]:
    x = np.asarray(a, dtype=np.int64)
    y = np.asarray(b, dtype=np.int64)
    while y.size:
        # reduce x modulo y with one vectorized elimination per lead term
        dy = y.size - 1
        yinv = pow(int(y[-1]), -1, p)
        k = x.size - 1
        while k >= dy:
            c = int(x[k])
            if c:
                c = c * yinv % p
                x[k - dy:k + 1] = (x[k - dy:k + 1] - c * y) % p
            k -= 1
            while k >= 0 and x[k] == 0:
                k -= 1
        x = x[:k + 1]
        x, y = y, x
    if not x.size:
        return []
    g = x.tolist()
    return scalar_mul(g, pow(g[-1], -1, p), p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic greatest common divisor."""
    if max(len(a), len(b)) > _NUMPY_GCD_LIMIT and p < (1 << 30):
        return _gcd_numpy(a, b, p)
    while b:
        a, b = b, rem(a, b, p)
    if not a:
        return []
    return scalar_mul(a, pow(a[-1], -1, p), p)


def xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    lead_inv = pow(r0[-1], -1, p)
    return (scalar_mul(r0, lead_inv, p),
            scalar_mul(s0, lead_inv, p),
            scalar_mul(t0, lead_inv, p))


def eval_at(a: list[int], x: int, p: int) -> int:
    """Evaluate a coefficient list at the point x (Horner)."""
    x %= p
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


class ModCtx:
    """Arithmetic modulo a fixed monic polynomial f over F_p.

    Caches the Newton inverse used for fast remainders and the table of
    Frobenius residues x**(p**(2**k)) mod f used for composed powers.
    Each cache is built in a local and published by one assignment, never
    mutated afterwards, so threads may share a context.
    """

    __slots__ = ("p", "f", "d", "_inv", "_frob_sq")

    def __init__(self, f: list[int], p: int):
        if len(f) < 2:
            raise ValueError("modulus must have degree at least 1")
        if f[-1] != 1:
            raise ValueError("modulus must be monic")
        self.p = p
        self.f = f[:]
        self.d = len(f) - 1
        self._inv = None
        self._frob_sq = None

    # -- reduction -------------------------------------------------------

    def _inverse(self) -> list[int]:
        # reduce needs at most d - 1 coefficients of 1/rev(f)
        inv = self._inv
        if inv is None:
            inv = self._inv = series_inverse(self.f[::-1], self.p, self.d)
        return inv

    def reduce(self, c: list[int]) -> list[int]:
        """Remainder of a canonical list modulo f."""
        d = self.d
        if len(c) <= d:
            return trim(c[:])
        if len(c) > 2 * d - 1:
            return rem(c, self.f, self.p)
        p = self.p
        m = len(c) - d
        inv = self._inverse()
        qrev = mul_low(c[::-1], inv, p, m)
        qrev += [0] * (m - len(qrev))
        q = trim(qrev[::-1])
        low = mul_low(q, self.f, p, d)
        return sub(c[:d], low, p)

    def mulmod(self, a: list[int], b: list[int]) -> list[int]:
        return self.reduce(mul(a, b, self.p))

    def sqrmod(self, a: list[int]) -> list[int]:
        return self.reduce(sqr(a, self.p))

    def powmod(self, a: list[int], e: int) -> list[int]:
        """a**e mod f by left-to-right square and multiply."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return [1]
        base = self.reduce(a)
        acc = base[:]
        for bit in bin(e)[3:]:
            acc = self.sqrmod(acc)
            if bit == "1":
                acc = self.mulmod(acc, base)
        return acc

    def invmod(self, a: list[int]) -> list[int]:
        g, s, _ = xgcd(self.reduce(a), self.f, self.p)
        if g != [1]:
            raise ZeroDivisionError("element is not invertible modulo f")
        return self.reduce(s)

    # -- modular composition and Frobenius powers -------------------------

    def _matmul(self, G: np.ndarray, H: np.ndarray) -> np.ndarray | None:
        p = self.p
        bound = G.shape[1] * (p - 1) * (p - 1)
        if bound < _FLOAT_MATMUL_BOUND:
            prod = G.astype(np.float64) @ H.astype(np.float64)
            return prod.astype(np.int64) % p
        if bound < _INT64_MATMUL_BOUND:
            return (G @ H) % p
        return None

    def compose(self, g: list[int], h: list[int]) -> list[int]:
        """g(h) mod f for reduced canonical g, h."""
        p, d = self.p, self.d
        if len(g) <= 1:
            return g[:]
        if len(g) == 2:
            return add_const(scalar_mul(h, g[1], p), g[0], p)
        if d <= _COMPOSE_HORNER_LIMIT:
            return self._compose_horner(g, h)
        s = math.isqrt(len(g) - 1) + 1
        powers = [[1], h[:]]
        for _ in range(s - 2):
            powers.append(self.mulmod(powers[-1], h))
        H = np.zeros((s, d), dtype=np.int64)
        for i, pw in enumerate(powers):
            H[i, : len(pw)] = pw
        nchunks = -(-len(g) // s)
        G = np.zeros((nchunks, s), dtype=np.int64)
        for i in range(nchunks):
            chunk = g[i * s:(i + 1) * s]
            G[i, : len(chunk)] = chunk
        C = self._matmul(G, H)
        if C is None:
            return self._compose_horner(g, h)
        rows = [trim(r.tolist()) for r in C]
        giant = self.mulmod(powers[s - 1], h)
        acc = rows[-1]
        for i in range(nchunks - 2, -1, -1):
            acc = add(self.mulmod(acc, giant), rows[i], p)
        return acc

    def _compose_horner(self, g: list[int], h: list[int]) -> list[int]:
        acc = [g[-1]]
        for c in reversed(g[:-1]):
            acc = add_const(self.mulmod(acc, h), c, self.p)
        return acc

    def frob_base(self) -> list[int]:
        """x**p mod f."""
        table = self._frob_sq
        if table is None:
            table = self._frob_sq = [self.powmod([0, 1], self.p)]
        return table[0]

    def _frob_table(self, k: int) -> list[list[int]]:
        self.frob_base()
        table = self._frob_sq
        if len(table) <= k:
            table = table[:]
            while len(table) <= k:
                table.append(self.compose(table[-1], table[-1]))
            self._frob_sq = table
        return table

    def frob_power(self, e: int) -> list[int]:
        """x**(p**e) mod f, assembled from the cached doubling table."""
        if e < 0:
            raise ValueError("negative Frobenius power")
        if e == 0:
            return self.reduce([0, 1])
        table = self._frob_table(e.bit_length() - 1)
        acc = None
        for k in range(e.bit_length()):
            if (e >> k) & 1:
                acc = table[k] if acc is None else self.compose(acc, table[k])
        return acc

    def norm_to_prime(self, u: list[int]) -> int:
        """Norm of u down to F_p, i.e. the product of all conjugates of u.

        Computed as u**((p**d - 1)/(p - 1)) via the Frobenius doubling
        table, which needs O(log d) compositions instead of a bit-length
        ladder over the full exponent.
        """
        d = self.d
        u = self.reduce(u)
        if not u:
            return 0
        if d == 1:
            return u[0]
        table = self._frob_table(d.bit_length() - 1)
        acc_n = None  # norm-style product for the processed exponent bits
        acc_e = 0
        cur_n = u
        for k in range(d.bit_length()):
            if (d >> k) & 1:
                if acc_n is None:
                    acc_n = cur_n
                else:
                    acc_n = self.mulmod(self.compose(acc_n, table[k]), cur_n)
                acc_e += 1 << k
            if (d >> (k + 1)) == 0:
                break
            cur_n = self.mulmod(cur_n, self.compose(cur_n, table[k]))
        if len(acc_n) > 1:
            raise ArithmeticError("norm did not land in the prime field")
        return acc_n[0] if acc_n else 0


def expand_x_plus_xinv(b: list[int], p: int) -> list[int]:
    """Sum of b[i] * x**(n-i) * (x**2+1)**i for a length-(n+1) list b.

    This is the shared expansion behind both doubling transforms; it is
    evaluated Horner-style with vectorized shifts so degree-thousands
    inputs stay cheap.
    """
    n = len(b) - 1
    acc = np.zeros(1, dtype=np.int64)
    acc[0] = b[n]
    for m in range(1, n + 1):
        # values stay below 2p <= 2**63 before the reduction
        nxt = np.zeros(acc.size + 2, dtype=np.int64)
        nxt[2:] = acc
        nxt[: acc.size] += acc
        nxt %= p
        nxt[m] = (nxt[m] + b[n - m]) % p
        acc = nxt
    return trim(acc.tolist())
