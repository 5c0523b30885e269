"""Plain-Python reference arithmetic the benchmark checks results against.

Coefficient lists are ascending with entries in [0, p) and no trailing
zeros, the same convention as ``irrseq._arith`` and ``FpPoly.coeffs``,
but nothing here calls into irrseq, so a fault in the package's kernels
cannot hide itself from the checks.
"""

from __future__ import annotations


def trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def mul(a, b, p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim([v % p for v in out])


def r_transform(f, p: int) -> list[int]:
    """(2x)^n f((x + 1/x)/2) = sum_i f_i 2^(n-i) x^(n-i) (x^2 + 1)^i, by Horner in (x^2 + 1)."""
    n = len(f) - 1
    acc = [f[n]]
    for i in range(n - 1, -1, -1):
        nxt = [0, 0] + acc             # acc * x^2
        for k, v in enumerate(acc):    # + acc
            nxt[k] += v
        nxt[n - i] += f[i] * pow(2, n - i, p)
        acc = [v % p for v in nxt]
    return trim(acc)


def reciprocal(f, p: int) -> list[int]:
    """x^n f(1/x) scaled by f(0)^-1, so a monic f stays monic."""
    inv = pow(f[0], -1, p)
    return trim([v * inv % p for v in reversed(f)])


def affine(f, a: int, b: int, p: int) -> list[int]:
    """a^-n f(a x + b): monic of the same degree, irreducible iff f is."""
    acc: list[int] = []
    for c in reversed(f):
        nxt = [0] * (len(acc) + 1)
        for k, v in enumerate(acc):    # acc * (a x + b)
            nxt[k] += v * b
            nxt[k + 1] += v * a
        nxt[0] += c
        acc = [v % p for v in nxt]
    scale = pow(a, -(len(f) - 1), p)
    return trim([v * scale % p for v in acc])


def evaluate(f, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def is_square(a: int, p: int) -> bool:
    """Euler's criterion for a nonzero a."""
    return pow(a % p, (p - 1) // 2, p) == 1
