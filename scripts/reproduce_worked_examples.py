#!/usr/bin/env python3
"""Walk through the two flagship computations step by step.

1. The smallest m whose factorial is a multiple of +/-2^31 * 3^27 * 7^13.
2. All m whose factorial ends in exactly 1000 zeros.

Run: python scripts/reproduce_worked_examples.py
"""

from kempner import (
    Factorization,
    PrimePower,
    decompose,
    eta,
    eta_p,
    eta_p_oracle,
    repunit,
    solve_trailing_zeros,
    trailing_zeros,
)


def show_eta_p(k: int, p: int) -> int:
    table = []
    n = 1
    while repunit(p, n) <= k:
        table.append(repunit(p, n))
        n += 1
    print(f"  repunits of {p}: {', '.join(map(str, table))}, ...")
    d = decompose(k, p)
    expansion = " + ".join(f"{t}*{repunit(p, e)}" for e, t in d.terms)
    powers = " + ".join(f"{t}*{p}^{e}" for e, t in d.terms)
    value = eta_p(k, p)
    print(f"  {k} = {expansion}  ->  eta_{p}({k}) = {powers} = {value}")
    assert value == eta_p_oracle(k, p), "search oracle disagrees"
    return value


def main() -> None:
    print("Smallest m with m! a multiple of +/-2^31 * 3^27 * 7^13")
    for p, a in ((2, 31), (3, 27), (7, 13)):
        show_eta_p(a, p)
    target = Factorization(1, (PrimePower(2, 31), PrimePower(3, 27), PrimePower(7, 13)))
    result = eta(target)
    per = ", ".join(str(e) for _, _, e in result.per_prime)
    print(f"  eta = max {{ {per} }} = {result.value} (from prime {result.argmax_prime})")

    print()
    print("Which m! end in exactly 1000 zeros?")
    print("  m! ends in >= z zeros iff 10^z | m! iff m >= eta(10^z) = eta_5(z):")
    start = show_eta_p(1000, 5)
    stop = show_eta_p(1001, 5)
    solution = solve_trailing_zeros(1000)
    assert solution.members == tuple(range(start, stop))
    print(f"  members run from eta_5(1000) = {start} to eta_5(1001) - 1 = {stop - 1}")
    print(f"  members: {' '.join(map(str, solution.members))}")
    after = solution.members[-1] + 1
    print(f"  boundary: {after}! has {trailing_zeros(after)} zeros, so the range stops there")

    print()
    print("First zero count no factorial attains:")
    z = 1
    while solve_trailing_zeros(z).members:
        z += 1
    print(f"  z = {z} (eta_5({z}) = {eta_p(z, 5)}, whose factorial already has "
          f"{trailing_zeros(eta_p(z, 5))} zeros)")


if __name__ == "__main__":
    main()
