"""Periodic sequences over GF(p^m) and the gcd-based linear complexity oracle.

A period-N sequence is stored as one full period; the sequence itself is its
infinite repetition. The linear complexity c of such a sequence equals
N - deg gcd(f, 1 - x^N) for the generating numerator f, and the minimal
connection polynomial is (1 - x^N) / gcd(f, 1 - x^N), normalized so its
constant term is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .field import FieldElement, FieldSpec
from .poly import Poly, one_minus_x_pow, poly_gcd_normalized


class BadConnectionPolyError(ValueError):
    pass


@dataclass(frozen=True)
class PeriodicSequence:
    spec: FieldSpec
    period: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        if len(self.period) < 1:
            raise ValueError("a periodic sequence needs at least one element")
        for e in self.period:
            if e.spec is not self.spec and e.spec != self.spec:
                raise ValueError("all elements must belong to the sequence's field")

    @classmethod
    def from_coords(cls, spec: FieldSpec, values: Sequence) -> "PeriodicSequence":
        """Build from ints (scalars) or per-element coordinate sequences."""
        return cls(spec, tuple(spec.element(v) for v in values))

    def __len__(self) -> int:
        return len(self.period)

    def at(self, i: int) -> FieldElement:
        """Element a_i of the infinite repetition (index taken mod N)."""
        return self.period[i % len(self.period)]

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.period)

    def rotated(self, r: int) -> "PeriodicSequence":
        n = len(self.period)
        r %= n
        return PeriodicSequence(self.spec, self.period[r:] + self.period[:r])


@dataclass(frozen=True)
class LinCompResult:
    """Linear complexity plus the minimal connection polynomial that attains it.

    algorithm records which path produced the result (oracle, bm, ggc or
    reduction).
    """

    complexity: int
    min_poly: Poly
    algorithm: str

    def __post_init__(self) -> None:
        if self.complexity < 0:
            raise ValueError("complexity must be nonnegative")
        if self.min_poly.constant_term() != self.min_poly.spec.one():
            raise BadConnectionPolyError("connection polynomial must have constant term 1")
        if self.min_poly.degree > self.complexity:
            raise ValueError("connection polynomial degree exceeds the complexity")


def generating_poly(s: PeriodicSequence) -> Poly:
    """Numerator of the generating function: a_0 + a_1 x + ... + a_{N-1} x^{N-1}."""
    return Poly(s.spec, s.period)


def oracle_lincomp(s: PeriodicSequence) -> LinCompResult:
    """Linear complexity straight from the gcd formula.

    Exact for every periodic sequence and independent of the iterative
    solvers, which makes it the reference the other paths are tested
    against. The all-zero sequence yields c=0 and connection polynomial 1.
    """
    n = len(s)
    f = generating_poly(s)
    denom = one_minus_x_pow(s.spec, n)
    d = poly_gcd_normalized(f, denom)
    m, r = divmod(denom, d)
    assert r.is_zero(), "gcd must divide 1 - x^N"
    return LinCompResult(n - d.degree, m, "oracle")


def verify_recurrence(s: PeriodicSequence, m: Poly) -> bool:
    """Check that m = 1 - (c_1 x + ... + c_k x^k) generates the sequence.

    The recurrence a_{i+k} = c_1 a_{i+k-1} + ... + c_k a_i is checked for
    every i in [0, 2N), which covers all wraparound alignments; k = 0
    accepts only the all-zero sequence.
    """
    if m.constant_term() != s.spec.one():
        raise BadConnectionPolyError("connection polynomial must have constant term 1")
    k = m.degree
    n = len(s)
    if k > n:
        raise ValueError("connection polynomial degree exceeds the period")
    for i in range(2 * n):
        acc = s.at(i + k)
        for t in range(1, k + 1):
            mt = m.coeffs[t]
            if not mt.is_zero():
                acc = acc + mt * s.at(i + k - t)
        if not acc.is_zero():
            return False
    return True
