"""Equivalence of the fast kernel paths with naive reference loops."""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import nextprime, prevprime

from irrseq import _arith
from irrseq.errors import InternalInvariantError

PRIMES = [3, 5, 7, 13, 101, 65537, (1 << 31) - 1, (1 << 61) - 1]

coeff_lists = st.lists(st.integers(0, 10 ** 9), min_size=0, max_size=90)


def canon(raw, p):
    return _arith.trim([v % p for v in raw])


@given(st.sampled_from(PRIMES), coeff_lists, coeff_lists)
def test_mul_matches_schoolbook(p, raw_a, raw_b):
    a, b = canon(raw_a, p), canon(raw_b, p)
    assert _arith.mul(a, b, p) == _arith._mul_schoolbook(a, b, p) if a and b \
        else _arith.mul(a, b, p) == []


@given(st.sampled_from(PRIMES), coeff_lists)
def test_sqr_matches_mul(p, raw_a):
    a = canon(raw_a, p)
    assert _arith.sqr(a, p) == _arith.mul(a, a[:], p)


def test_packed_paths_all_agree():
    rng = random.Random(7)
    for p in [3, 251, 65521, (1 << 40) - 87]:
        for size in [24, 64, 257]:
            a = [rng.randrange(p) for _ in range(size - 1)] + [rng.randrange(1, p)]
            b = [rng.randrange(p) for _ in range(size - 1)] + [rng.randrange(1, p)]
            want = _arith._mul_schoolbook(a, b, p)
            assert _arith.mul(a, b, p) == want
            width = ((size * (p - 1) ** 2).bit_length() + 8) // 8
            assert _arith._mul_wide(a, b, p, width) == want
            if width <= 8:
                assert _arith._mul_packed(a, b, p, 8) == want


def _fft_calls(monkeypatch):
    calls = []
    real = _arith._mul_fft

    def spy(a, b, p):
        calls.append((len(a), len(b), p))
        return real(a, b, p)

    monkeypatch.setattr(_arith, "_mul_fft", spy)
    return calls


def _largest_fft_prime(la, lb):
    lo, hi = 3, 1 << 40          # _fft_exact is monotone in p
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _arith._fft_exact(la, lb, mid) else (lo, mid)
    return prevprime(lo + 1)


def _random_poly(rng, n, p):
    return [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]


@pytest.mark.parametrize("la,lb", [(256, 256), (300, 257), (256, 1000)])
def test_fft_product_exact_on_both_sides_of_its_bound(monkeypatch, la, lb):
    calls = _fft_calls(monkeypatch)
    rng = random.Random(la * lb)
    inside = _largest_fft_prime(la, lb)
    outside = nextprime(inside)
    assert _arith._fft_exact(la, lb, inside)
    assert not _arith._fft_exact(la, lb, outside)
    # the first longer operand that closes the gate for the inside prime
    lb_out = next(n for n in range(lb, 4 * lb) if not _arith._fft_exact(la, n, inside))
    cases = [(inside, la, lb, True), (outside, la, lb, False), (inside, la, lb_out, False)]
    for p, na, nb, fft in cases:
        for a, b in [(_random_poly(rng, na, p), _random_poly(rng, nb, p)),
                     # every centred coefficient at -(p-1)/2: the largest sums
                     ([(p + 1) // 2] * na, [(p + 1) // 2] * nb)]:
            calls.clear()
            assert _arith.mul(a, b, p) == _arith._mul_schoolbook(a, b, p)
            assert _arith.mul(b, a, p) == _arith._mul_schoolbook(a, b, p)
            assert bool(calls) == fft
            if na == nb:
                calls.clear()
                assert _arith.sqr(a, p) == _arith.mul(a, a[:], p)
                assert bool(calls) == fft


def test_fft_product_not_taken_below_crossover_or_for_large_primes(monkeypatch):
    calls = _fft_calls(monkeypatch)
    rng = random.Random(4)
    short = _arith._FFT_MIN_LENGTH - 1
    cases = [(7, short, 4096), (7, 4096, short), (7, short, short)]
    for p in [(1 << 31) - 1, 2147483587, (1 << 61) - 1]:
        # _fft_exact falls as the lengths grow, so the shortest lengths the
        # FFT would take decide for every length
        assert not _arith._fft_exact(_arith._FFT_MIN_LENGTH, _arith._FFT_MIN_LENGTH, p)
        cases.append((p, _arith._FFT_MIN_LENGTH, _arith._FFT_MIN_LENGTH + 40))
    for p, na, nb in cases:
        a, b = _random_poly(rng, na, p), _random_poly(rng, nb, p)
        assert _arith.mul(a, b, p) == _arith._mul_schoolbook(a, b, p)
        s = a if na <= nb else b
        assert _arith.sqr(s, p) == _arith.mul(s, s[:], p)
    assert calls == []
    a, b = _random_poly(rng, 4096, 7), _random_poly(rng, 4096, 7)
    _arith.mul(a, b, 7)
    assert calls == [(4096, 4096, 7)]


def test_fft_product_refuses_a_rounding_fault(monkeypatch):
    rng = random.Random(6)
    p = 7
    a, b = _random_poly(rng, 300, p), _random_poly(rng, 300, p)
    want = _arith._mul_schoolbook(a, b, p)
    assert _arith.mul(a, b, p) == want
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.375)
    with pytest.raises(InternalInvariantError):
        _arith.mul(a, b, p)
    with pytest.raises(InternalInvariantError):
        _arith.sqr(a, p)


@given(st.sampled_from([3, 7, 101]), coeff_lists, coeff_lists)
def test_divmod_identity(p, raw_a, raw_b):
    a, b = canon(raw_a, p), canon(raw_b, p)
    if not b:
        return
    q, r = _arith.divmod_poly(a, b, p)
    assert len(r) < len(b)
    assert _arith.add(_arith.mul(q, b, p), r, p) == a


@given(st.sampled_from([3, 7, 101]), coeff_lists, coeff_lists)
def test_gcd_divides_both_and_matches_euclid(p, raw_a, raw_b):
    a, b = canon(raw_a, p), canon(raw_b, p)
    g = _arith.gcd(a, b, p)
    if not a and not b:
        assert g == []
        return
    assert g[-1] == 1
    if a:
        assert _arith.rem(a, g, p) == []
    if b:
        assert _arith.rem(b, g, p) == []
    gg, s, t = _arith.xgcd(a, b, p)
    assert gg == g
    combo = _arith.add(_arith.mul(s, a, p), _arith.mul(t, b, p), p)
    assert combo == g


def test_gcd_numpy_path_matches_schoolbook():
    rng = random.Random(11)
    p = 13
    for _ in range(10):
        a = [rng.randrange(p) for _ in range(400)] + [1]
        b = [rng.randrange(p) for _ in range(333)] + [1]
        want_g = _arith.gcd(a, b, p)
        slow = a, b
        while slow[1]:
            slow = slow[1], _arith.rem(slow[0], slow[1], p)
        ref = slow[0]
        ref = _arith.scalar_mul(ref, pow(ref[-1], -1, p), p) if ref else []
        assert want_g == ref
    # force common factors
    for _ in range(5):
        c = [rng.randrange(p) for _ in range(50)] + [1]
        a = _arith.mul(c, [rng.randrange(p) for _ in range(80)] + [1], p)
        b = _arith.mul(c, [rng.randrange(p) for _ in range(90)] + [1], p)
        g = _arith._gcd_numpy(a, b, p)
        assert _arith.rem(g, c, p) == [] or _arith.rem(c, g, p) == []
        assert _arith.rem(a, g, p) == [] and _arith.rem(b, g, p) == []


@given(st.sampled_from([3, 7, 101]),
       st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=40),
       st.integers(1, 60))
def test_series_inverse(p, raw_f, prec):
    f = [1] + [v % p for v in raw_f]
    inv = _arith.series_inverse(f, p, prec)
    prod = _arith.mul_low(f, inv, p, prec)
    assert prod == [1]


@settings(max_examples=30)
@given(st.sampled_from([3, 7, 101]),
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=50),
       st.lists(st.integers(0, 10 ** 6), min_size=0, max_size=120))
def test_ctx_reduce_matches_rem(p, raw_f, raw_c):
    f = [v % p for v in raw_f] + [1]
    c = canon(raw_c, p)
    ctx = _arith.ModCtx(f, p)
    assert ctx.reduce(c) == _arith.rem(c, f, p)


@settings(max_examples=30)
@given(st.sampled_from([3, 7]),
       st.lists(st.integers(0, 100), min_size=2, max_size=16),
       st.lists(st.integers(0, 100), min_size=0, max_size=16),
       st.integers(0, 600))
def test_ctx_powmod_matches_iterated_multiply(p, raw_f, raw_a, e):
    f = [v % p for v in raw_f] + [1]
    ctx = _arith.ModCtx(f, p)
    a = ctx.reduce(canon(raw_a, p))
    want = [1] if len(f) > 1 else []
    want = ctx.reduce(want)
    for _ in range(e):
        want = ctx.mulmod(want, a)
    assert ctx.powmod(a, e) == want


@settings(max_examples=40)
@given(st.sampled_from([3, 7, 101]),
       st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=70),
       st.lists(st.integers(0, 10 ** 6), min_size=0, max_size=70),
       st.lists(st.integers(0, 10 ** 6), min_size=0, max_size=70))
def test_compose_matches_horner(p, raw_f, raw_g, raw_h):
    f = [v % p for v in raw_f] + [1]
    ctx = _arith.ModCtx(f, p)
    g = ctx.reduce(canon(raw_g, p))
    h = ctx.reduce(canon(raw_h, p))
    assert ctx.compose(g, h) == ctx._compose_horner(g, h) if g else ctx.compose(g, h) == []


def test_compose_uses_matmul_above_cutoff():
    rng = random.Random(3)
    p = 7
    f = [rng.randrange(p) for _ in range(80)] + [1]
    ctx = _arith.ModCtx(f, p)
    assert ctx.d > _arith._COMPOSE_HORNER_LIMIT
    for _ in range(5):
        g = _arith.trim([rng.randrange(p) for _ in range(ctx.d)])
        h = _arith.trim([rng.randrange(p) for _ in range(ctx.d)])
        assert ctx.compose(g, h) == ctx._compose_horner(g, h)


def test_frob_power_matches_plain_powmod():
    rng = random.Random(5)
    for p in [3, 7, 13]:
        f = [rng.randrange(p) for _ in range(12)] + [1]
        ctx = _arith.ModCtx(f, p)
        for e in [0, 1, 2, 3, 5, 8, 12]:
            assert ctx.frob_power(e) == ctx.powmod([0, 1], p ** e)


def test_norm_matches_direct_exponent():
    rng = random.Random(9)
    for p in [3, 7, 13]:
        for d in [1, 2, 3, 5, 8, 12]:
            f = [rng.randrange(p) for _ in range(d)] + [1]
            ctx = _arith.ModCtx(f, p)
            e = (p ** d - 1) // (p - 1)
            for _ in range(4):
                u = _arith.trim([rng.randrange(p) for _ in range(d)])
                want = ctx.powmod(u, e) if u else []
                if len(want) > 1:
                    # modulus was reducible and the power escaped F_p: the
                    # norm helper only promises anything for fields, skip
                    continue
                got = ctx.norm_to_prime(u)
                assert got == (want[0] if want else 0)


def test_norm_route_equals_residue_test_in_fields():
    from irrseq import FpPoly, legendre
    from irrseq.poly import irreducibles
    for p, n in [(3, 4), (5, 3), (7, 2), (13, 2)]:
        f = next(iter(irreducibles(p, n)))
        ctx = _arith.ModCtx(list(f.coeffs), p)
        q = p ** n
        rng = random.Random(p * n)
        for _ in range(25):
            u = _arith.trim([rng.randrange(p) for _ in range(n)])
            if not u:
                continue
            direct = ctx.powmod(u, (q - 1) // 2) == [1]
            via_norm = legendre(ctx.norm_to_prime(u), p) == 1
            assert direct == via_norm


def test_expand_grows_degree_and_is_monic():
    rng = random.Random(1)
    for p in [3, 7, (1 << 61) - 1]:
        for n in [1, 2, 5, 30]:
            b = [rng.randrange(p) for _ in range(n)] + [1]
            out = _arith.expand_x_plus_xinv(b, p)
            assert len(out) == 2 * n + 1
            assert out[-1] == 1


def test_frob_power_threads_share_one_context():
    # concurrent first calls race to extend the doubling table; each
    # must still get its own power
    rng = random.Random(11)
    p, exps = 7, [37, 150, 255, 299]
    f = [rng.randrange(p) for _ in range(300)] + [1]
    ref = _arith.ModCtx(f, p)
    want = {e: ref.frob_power(e) for e in exps}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _ in range(3):
            ctx = _arith.ModCtx(f, p)
            barrier = threading.Barrier(len(exps), timeout=60)
            got = {}

            def run(e):
                barrier.wait()
                got[e] = ctx.frob_power(e)

            threads = [threading.Thread(target=run, args=(e,)) for e in exps]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert got == want
    finally:
        sys.setswitchinterval(interval)
