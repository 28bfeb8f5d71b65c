"""Direct linear complexity solvers.

Two paths: classical Berlekamp-Massey LFSR synthesis for arbitrary prefixes,
and the generalized Games-Chan contraction for sequences whose period is a
power of the field characteristic. Both report their work to the active
OpCounter; for a full two-period prefix (Berlekamp-Massey) or a p^h period
(Games-Chan) the results coincide with the gcd oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .field import FieldElement, FieldSpec
from .opcount import tally
from .poly import Poly
from .sequence import LinCompResult, PeriodicSequence


class EmptyPrefixError(ValueError):
    pass


class BadLengthError(ValueError):
    pass


class NotPrimePowerPeriodError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Berlekamp-Massey


def berlekamp_massey(prefix: Sequence[FieldElement], spec: FieldSpec) -> LinCompResult:
    """Shortest LFSR (length and connection polynomial) generating the prefix.

    The connection polynomial is returned with constant term 1, matching the
    recurrence a_{i+k} = c_1 a_{i+k-1} + ... + c_k a_i. To analyze a
    period-N sequence, pass two full periods; the result then equals the gcd
    oracle in both the complexity and the polynomial.
    """
    items = list(prefix)
    if not items:
        raise EmptyPrefixError("prefix must be nonempty")
    first = items[0]
    if first.spec is not spec and first.spec != spec:
        raise ValueError("prefix elements must belong to the given field")
    if spec.m == 1:
        residues = np.array([e.coeffs[0] for e in items], dtype=np.int64)
        length, ints = _bm_prime(residues, spec.p)
        coeffs = [spec.scalar(v) for v in ints]
    else:
        length, coeffs = _bm_generic(items, spec)
    return LinCompResult(length, Poly(spec, coeffs), "bm")


def _bm_generic(s: list[FieldElement], spec: FieldSpec) -> tuple[int, list[FieldElement]]:
    """Element-wise discrepancy iteration; works for any GF(p^m).

    Operation accounting per step n: L multiplications + L additions for the
    discrepancy, and on a nonzero discrepancy 2 operations for the update
    scale d/b plus len_b multiplications and subtractions for the polynomial
    update. The prime-field fast path mirrors this exactly.
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


def _bm_prime(s: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Prime-field specialization on integer residues.

    Identical iteration and identical operation accounting as _bm_generic
    (counts are reported in bulk via tally); only the inner arithmetic is
    vectorized.
    """
    total = len(s)
    c_arr = np.zeros(total + 1, dtype=np.int64)
    c_arr[0] = 1
    b_arr = np.zeros(total + 1, dtype=np.int64)
    b_arr[0] = 1
    len_b = 1
    length = 0
    shift = 1
    last_disc = 1
    for n in range(total):
        if length:
            window = s[n - 1 :: -1][:length]
            d = (int(s[n]) + int(c_arr[1 : length + 1] @ window)) % p
        else:
            d = int(s[n]) % p
        tally(2 * length)
        if d == 0:
            shift += 1
            continue
        f = (d * pow(last_disc, -1, p)) % p
        tally(2)
        if 2 * length <= n:
            old = c_arr[: length + 1].copy()
            c_arr[shift : shift + len_b] = (
                c_arr[shift : shift + len_b] - f * b_arr[:len_b]
            ) % p
            tally(2 * len_b)
            length = n + 1 - length
            b_arr = old
            len_b = len(old)
            last_disc = d
            shift = 1
        else:
            c_arr[shift : shift + len_b] = (
                c_arr[shift : shift + len_b] - f * b_arr[:len_b]
            ) % p
            tally(2 * len_b)
            shift += 1
    return length, [int(v) for v in c_arr[: length + 1]]


# ---------------------------------------------------------------------------
# Generalized Games-Chan


def _exact_log(n: int, p: int) -> int | None:
    h = 0
    while n % p == 0:
        n //= p
        h += 1
    return h if n == 1 else None


def ggc_fold(
    values: Sequence[FieldElement], spec: FieldSpec
) -> Iterator[tuple[FieldElement, ...]]:
    """One contraction level of a p^h tuple, yielded lazily.

    Splits values into p consecutive blocks s^(0), ..., s^(p-1) of length
    p^(h-1) and yields b^(mu) = sum_j binom(p-j-1, mu) * s^(j) for
    mu = 0..p-1, the Taylor coefficients at w = 1 of
    R(w) = sum_j s^(j) w^(p-1-j). Each is the remainder of a synthetic
    division by (w - 1): the last running sum of the blocks, whose other
    running sums are the blocks of the next division. So b^(mu) costs
    p-mu-1 block additions and no multiplications. b^(p-1) = s^(0), and for
    p = 2 the pair is the classic (left + right, left). The length is
    checked at call time.
    """
    p = spec.p
    n = len(values)
    h = _exact_log(n, p)
    if h is None or h < 1:
        raise BadLengthError(f"tuple length {n} is not p^h for p={p}, h >= 1")
    block = n // p
    return _running_sum_folds(
        [tuple(values[i * block : (i + 1) * block]) for i in range(p)]
    )


def _running_sum_folds(
    blocks: list[tuple[FieldElement, ...]]
) -> Iterator[tuple[FieldElement, ...]]:
    while blocks:
        *blocks, fold = accumulate(
            blocks, lambda acc, b: tuple(x + y for x, y in zip(acc, b))
        )
        yield fold


@dataclass(frozen=True)
class GgcState:
    """Contraction loop state: current tuple, remaining level, accumulated c."""

    values: tuple[FieldElement, ...]
    level: int
    complexity: int


def ggc_steps(s: PeriodicSequence) -> Iterator[GgcState]:
    """Yield the contraction state level by level, initial state first.

    Stops early when the current tuple is all zero (its contribution is 0);
    otherwise ends at level 0 with a single element.
    """
    spec = s.spec
    p = spec.p
    h = _exact_log(len(s), p)
    if h is None:
        raise NotPrimePowerPeriodError(
            f"period {len(s)} is not a power of the characteristic {p}"
        )
    vals = s.period
    c = 0
    yield GgcState(vals, h, c)
    while h > 0:
        if all(v.is_zero() for v in vals):
            return
        # a nonzero tuple always has a nonzero fold (b^(p-1) = s^(0) forces
        # a backward induction), and the first nonzero index pins w uniquely;
        # folding stops there
        t, vals = next(
            (t, b)
            for t, b in enumerate(ggc_fold(vals, spec))
            if any(not e.is_zero() for e in b)
        )
        w = p - t
        c += (w - 1) * p ** (h - 1)
        h -= 1
        yield GgcState(vals, h, c)


def ggc_complexity(s: PeriodicSequence) -> int:
    """Linear complexity of a period-p^h sequence by contraction.

    Reports the fold arithmetic to the active counter. A level computes
    running sums only up to its first nonzero combination, so a period-N
    contraction costs fewer than p*N/2 additions, about N when every first
    combination is nonzero, well inside the paper's 2*p^2*N budget.
    """
    state = None
    for state in ggc_steps(s):
        pass
    assert state is not None
    c = state.complexity
    if state.level == 0 and not state.values[0].is_zero():
        c += 1
    return c
