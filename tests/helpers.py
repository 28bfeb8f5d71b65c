"""Shared fixtures-by-import for the test suite: canonical small fields and
brute-force reference computations."""

from __future__ import annotations

import random
from itertools import product

from lincomp.bench import random_sequence
from lincomp.field import FieldElement, FieldSpec, make_field
from lincomp.poly import Poly
from lincomp.sequence import PeriodicSequence

GF2 = make_field(2)
GF3 = make_field(3)
GF5 = make_field(5)
GF7 = make_field(7)
GF13 = make_field(13)
GF9 = make_field(3, 2)

__all__ = [
    "GF2",
    "GF3",
    "GF5",
    "GF7",
    "GF13",
    "GF9",
    "all_elements",
    "all_sequences",
    "brute_force_order",
    "ggc_fold_reference",
    "poly_pow_reference",
    "random_sequence",
    "rng",
    "seq",
]


def rng(label: str) -> random.Random:
    return random.Random(f"lincomp-tests/{label}")


def seq(spec: FieldSpec, values) -> PeriodicSequence:
    return PeriodicSequence.from_coords(spec, values)


def all_elements(spec: FieldSpec) -> list[FieldElement]:
    return list(spec.elements())


def all_sequences(spec: FieldSpec, n: int):
    """Every period-n sequence over spec (use only at tiny sizes)."""
    elems = all_elements(spec)
    for combo in product(elems, repeat=n):
        yield PeriodicSequence(spec, combo)


def brute_force_order(g: FieldElement) -> int:
    """Multiplicative order by repeated multiplication."""
    assert not g.is_zero()
    one = g.spec.one()
    acc = g
    k = 1
    while acc != one:
        acc = acc * g
        k += 1
    return k


def poly_pow_reference(f: Poly, k: int) -> Poly:
    """f**k by dense square and multiply; f**0 = 1."""
    result = Poly.one(f.spec)
    base = f
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def ggc_fold_reference(values, spec: FieldSpec) -> list[tuple[FieldElement, ...]]:
    """All p contraction combinations b^(mu) = sum_j binom(p-j-1, mu) * s^(j),
    mu = 0..p-1, built from Pascal's triangle mod p with scalar multiples."""
    p = spec.p
    block = len(values) // p
    blocks = [tuple(values[i * block : (i + 1) * block]) for i in range(p)]
    binom = [[1]]
    for a in range(1, p):
        prev = binom[-1]
        binom.append([1] + [(prev[i - 1] + prev[i]) % p for i in range(1, a)] + [1])
    out = []
    for mu in range(p):
        acc = [spec.zero()] * block
        for j in range(p - mu):
            coef = spec.scalar(binom[p - j - 1][mu])
            acc = [a + coef * v for a, v in zip(acc, blocks[j])]
        out.append(tuple(acc))
    return out
