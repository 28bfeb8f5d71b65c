"""Shared fixtures-by-import for the test suite: canonical small fields and
brute-force reference computations."""

from __future__ import annotations

import random
import re
from itertools import product

from lincomp.bench import random_sequence
from lincomp.field import FieldElement, FieldSpec, make_field
from lincomp.poly import Poly
from lincomp.reduction import ReductionPlan
from lincomp.sequence import PeriodicSequence

GF2 = make_field(2)
GF3 = make_field(3)
GF5 = make_field(5)
GF7 = make_field(7)
GF13 = make_field(13)
GF9 = make_field(3, 2)

# the differential-test field matrix: p = 2 extensions, odd-p extensions,
# the benchmark's GF(2^8) modulus and the largest prime field under the cap
GF4 = make_field(2, 2)
GF8 = make_field(2, 3)
GF16 = make_field(2, 4)
GF25 = make_field(5, 2)
GF27 = make_field(3, 3)
GF125 = make_field(5, 3)
GF256 = make_field(2, 8, (1, 0, 0, 0, 1, 1, 0, 1, 1))
GF1048573 = make_field(1048573)
FIELD_MATRIX = (
    GF2, GF4, GF7, GF8, GF9, GF13, GF16, GF25, GF27, GF125, GF256, GF1048573
)

__all__ = [
    "GF2",
    "GF3",
    "GF5",
    "GF7",
    "GF13",
    "GF9",
    "GF4",
    "GF8",
    "GF16",
    "GF25",
    "GF27",
    "GF125",
    "GF256",
    "GF1048573",
    "FIELD_MATRIX",
    "all_elements",
    "all_sequences",
    "bm_reference",
    "brute_force_order",
    "decompose_reference",
    "ggc_fold_reference",
    "parse_poly",
    "poly_pow_reference",
    "random_sequence",
    "rng",
    "seq",
    "verify_recurrence_reference",
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


def decompose_reference(s: PeriodicSequence, plan: ReductionPlan) -> list[PeriodicSequence]:
    """The split element by element: component 0 by block sums, then per
    remaining root an incremental table b^0..b^(N-1) and multiply-accumulate.
    Every operation is counted by the FieldElement operators."""
    u, n, N = plan.u, plan.n, plan.N
    vals = s.period
    first = []
    for i in range(n):
        acc = vals[i]
        for k in range(1, u):
            acc = acc + vals[k * n + i]
        first.append(acc)
    comps = [PeriodicSequence(plan.spec, tuple(first))]
    for j in range(1, u):
        b = plan.roots_b[j]
        powers = [plan.spec.one(), b]
        for _ in range(2, N):
            powers.append(powers[-1] * b)
        rows = []
        for i in range(n):
            acc = vals[i] * powers[i]
            for k in range(1, u):
                idx = k * n + i
                acc = acc + vals[idx] * powers[idx]
            rows.append(acc)
        comps.append(PeriodicSequence(plan.spec, tuple(rows)))
    return comps


def verify_recurrence_reference(s: PeriodicSequence, m: Poly) -> bool:
    """The recurrence check equation by equation, stopping at the first that
    fails; one multiplication and one addition per nonzero tap and equation.
    Takes a valid connection polynomial (constant term 1, degree <= N)."""
    k = m.degree
    taps = [(t, c) for t, c in enumerate(m.coeffs) if t and not c.is_zero()]
    for i in range(len(s)):
        acc = s.at(i + k)
        for t, c in taps:
            acc = acc + c * s.at(i + k - t)
        if not acc.is_zero():
            return False
    return True


def bm_reference(s: list[FieldElement], spec: FieldSpec) -> tuple[int, list[FieldElement]]:
    """Berlekamp-Massey one FieldElement at a time, for any GF(p^m); returns
    the length and the connection coefficients c_0 = 1, ..., c_L.

    Every operation is counted by the FieldElement operators: per step n, L
    multiplications and L additions for the discrepancy, and on a nonzero
    discrepancy 2 for the scale d/b plus len_b multiplications and
    subtractions for the polynomial update.
    """
    total = len(s)
    zero, one = spec.zero(), spec.one()
    c_arr = [zero] * (total + 1)
    c_arr[0] = one
    b_arr: list[FieldElement] = [one]
    len_b = 1
    length = 0
    shift = 1
    last_disc = one
    for n in range(total):
        d = s[n]
        for i in range(1, length + 1):
            d = d + c_arr[i] * s[n - i]
        if d.is_zero():
            shift += 1
            continue
        f = d * last_disc.inv()
        if 2 * length <= n:
            old = c_arr[: length + 1]
            for i in range(len_b):
                c_arr[shift + i] = c_arr[shift + i] - f * b_arr[i]
            length = n + 1 - length
            b_arr = old
            len_b = len(old)
            last_disc = d
            shift = 1
        else:
            for i in range(len_b):
                c_arr[shift + i] = c_arr[shift + i] - f * b_arr[i]
            shift += 1
    return length, c_arr[: length + 1]


_TERM_RE = re.compile(
    r"^(?P<coeff>\((?:-?\d+)(?:,-?\d+)*\)|-?\d+)(?:\*x(?:\^(?P<exp>\d+))?)?$"
)


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    """Inverse of lincomp.cli.render_poly for the given field."""
    text = text.strip()
    if text == "0":
        return Poly.zero(spec)
    coeffs: dict[int, FieldElement] = {}
    for term in text.split("+"):
        term = term.strip()
        match = _TERM_RE.match(term)
        if not match:
            raise ValueError(f"bad polynomial term {term!r}")
        coeff_text = match.group("coeff")
        if coeff_text.startswith("("):
            coords = [int(v) for v in coeff_text[1:-1].split(",")]
            elem = spec.element(coords)
        else:
            elem = spec.scalar(int(coeff_text))
        if match.group("exp") is not None:
            exp = int(match.group("exp"))
        elif term.endswith("x"):
            exp = 1
        else:
            exp = 0
        if exp in coeffs:
            raise ValueError(f"duplicate exponent {exp} in {text!r}")
        coeffs[exp] = elem
    top = max(coeffs)
    out = [spec.zero()] * (top + 1)
    for exp, elem in coeffs.items():
        out[exp] = elem
    return Poly(spec, out)
