"""Independent integer arithmetic for generating inputs and checking outputs.

Nothing here imports kempner: a checker that called the code under test
would agree with it by construction.
"""

from __future__ import annotations

INT64_MAX = 2**63 - 1

_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve primes: exact below 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _SMALL:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def prev_prime(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


def legendre(m: int, p: int) -> int:
    """Exponent of p in m!."""
    total, q = 0, m // p
    while q:
        total += q
        q //= p
    return total


def is_eta_p(m: int, k: int, p: int) -> bool:
    """True when m is the least integer with p^k dividing m!."""
    return m >= 1 and legendre(m, p) >= k > legendre(m - 1, p)


def is_factorization(n: int, sign: int, factors) -> bool:
    """sign * prod(p^a) == n with strictly increasing primes, exponents >= 1."""
    value = sign
    previous = 1
    for p, a in factors:
        if p <= previous or a < 1 or not is_prime(p):
            return False
        previous = p
        value *= p**a
    return value == n


def repunit(p: int, n: int) -> int:
    return (p**n - 1) // (p - 1)


def is_repunit_decomposition(k: int, p: int, terms) -> bool:
    """Terms recompose to k and satisfy the digit and exponent invariants."""
    if not terms:
        return False
    exponents = [n for n, _ in terms]
    digits = [t for _, t in terms]
    if exponents[-1] < 1 or any(a <= b for a, b in zip(exponents, exponents[1:])):
        return False
    if any(not 1 <= t <= p - 1 for t in digits[:-1]) or not 1 <= digits[-1] <= p:
        return False
    return sum(t * repunit(p, n) for n, t in terms) == k


def least_with_zeros(z: int) -> int:
    """Least m >= 1 with at least z trailing zeros in m!, by binary search."""
    lo, hi = 1, 5 * z
    while lo < hi:
        mid = (lo + hi) // 2
        if legendre(mid, 5) >= z:
            hi = mid
        else:
            lo = mid + 1
    return lo


def zeros_members(z: int) -> list[int]:
    """Every m >= 1 whose factorial ends in exactly z zeros."""
    m = least_with_zeros(z)
    if legendre(m, 5) != z:
        return []
    return list(range(m, m + 5))
