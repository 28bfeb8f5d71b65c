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

from .field import FieldElement, FieldSpec, from_array, mul_matrices, scale_array, to_array
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

    The iteration runs on the (T, m) coordinate array s of the prefix, for
    every GF(p^m). Row block T-1-k of `mats` is the multiplication matrix of
    s_k, so at step n the taps c_0 = 1, c_1, ..., c_L meet s_n, s_{n-1},
    ..., s_{n-L} in one contiguous slice, and the discrepancy d is one
    product of the flattened taps with that slice. The polynomial update
    subtracts f * b for f = d / (last nonzero discrepancy). All of it stays
    exact in int64 while T m p^2 < 2^63, which every prefix of fewer than
    2^23 elements meets under the field-order cap.

    Operation count per step: 2L for the discrepancy, and on a nonzero
    discrepancy 2 for the division (counted by the FieldElement operators)
    and 2 len(b) for the update, reported in one tally at the end.
    """
    items = list(prefix)
    if not items:
        raise EmptyPrefixError("prefix must be nonempty")
    first = items[0]
    if first.spec is not spec and first.spec != spec:
        raise ValueError("prefix elements must belong to the given field")
    total, m, p = len(items), spec.m, spec.p
    mats = mul_matrices(spec, to_array(spec, items)[::-1]).reshape(total * m, m)
    c = np.zeros((total + 1, m), dtype=np.int64)
    c[0, 0] = 1
    taps = c.reshape(-1)
    b = c[:1].copy()
    length = 0
    shift = 1
    last = spec.one()
    ops = 0
    for n in range(total):
        lo, width = (total - 1 - n) * m, (length + 1) * m
        acc = taps[:width] @ mats[lo : lo + width]
        ops += 2 * length
        d = FieldElement(spec, tuple(v % p for v in acc.tolist()))
        if d.is_zero():
            shift += 1
            continue
        update = scale_array(spec, d / last, b)
        ops += 2 * len(b)
        window = c[shift : shift + len(b)]
        if 2 * length <= n:
            b, length, last, shift = c[: length + 1].copy(), n + 1 - length, d, 1
        else:
            shift += 1
        window -= update
        window %= p
    tally(ops)
    return LinCompResult(length, Poly(spec, from_array(spec, c[: length + 1])), "bm")


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
