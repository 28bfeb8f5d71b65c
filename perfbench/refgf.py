"""Reference answers for the benchmark, independent of lincomp.

A table-driven GF(p^m) in numpy and the gcd oracle on top of it: for a
period-N sequence with generating numerator f, the linear complexity is
N - deg gcd(f, 1 - x^N) and the minimal connection polynomial is
(1 - x^N) / gcd(f, 1 - x^N) scaled to constant term 1. This is the formula
lincomp's own oracle uses, computed with whole-row numpy operations so that
checking every solve costs milliseconds instead of seconds.

Elements are integers in [0, p^m) whose base-p digits are the coordinates
over GF(p), low degree first; polynomials are int arrays, low degree first.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class TableField:
    """GF(p^m) with full addition and multiplication tables (q <= 256)."""

    def __init__(self, p: int, m: int, modulus: Sequence[int] | None = None):
        q = p**m
        if q > 1 << 8:
            raise ValueError(f"GF({p}^{m}) is too large for full tables")
        if m > 1 and (modulus is None or len(modulus) != m + 1 or modulus[m] != 1):
            raise ValueError("m > 1 needs a monic degree-m modulus")
        weights = p ** np.arange(m)
        digits = (np.arange(q)[:, None] // weights) % p  # (q, m)
        mod_low = np.asarray(modulus[:m] if m > 1 else [0])
        # powers[a, i] = coordinates of a * t^i; t^m = -(c_0 + ... + c_{m-1} t^{m-1})
        powers = np.zeros((q, m, m), dtype=np.int64)
        powers[:, 0] = digits
        for i in range(1, m):
            prev = powers[:, i - 1]
            powers[:, i, 1:] = prev[:, :-1]
            powers[:, i] = (powers[:, i] - prev[:, m - 1 : m] * mod_low) % p
        # one row at a time keeps the tables' peak memory at O(q^2)
        self.add = np.empty((q, q), dtype=np.int64)
        self.mul = np.empty((q, q), dtype=np.int64)
        for a in range(q):
            self.add[a] = ((digits[a] + digits) % p) @ weights
            self.mul[a] = ((digits @ powers[a]) % p) @ weights  # sum_i b_i * (a t^i)
        self.neg = ((-digits) % p) @ weights
        self.sub = self.add[:, self.neg]
        inv = np.zeros(q, dtype=np.int64)
        nz_rows, nz_cols = np.nonzero(self.mul[1:] == 1)
        inv[nz_rows + 1] = nz_cols
        if len(nz_rows) != q - 1:
            raise ValueError(f"modulus {list(modulus or [])} is reducible over GF({p})")
        self.inv = inv

    def one_minus_x_pow(self, N: int) -> np.ndarray:
        out = np.zeros(N + 1, dtype=np.int64)
        out[0] = 1
        out[N] = self.neg[1]
        return out


def _trim(f: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(f)
    return f[: nz[-1] + 1] if len(nz) else f[:0]


def _divmod(F: TableField, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Long division a = quo*b + rem over the table field; b is trimmed."""
    db = len(b) - 1
    rem = a.copy()
    if len(rem) - 1 < db:
        return np.zeros(0, dtype=np.int64), _trim(rem)
    quo = np.zeros(len(rem) - db, dtype=np.int64)
    lead_inv = F.inv[b[-1]]
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c:
            f = F.mul[c, lead_inv]
            quo[top - db] = f
            lo = top - db
            rem[lo : top + 1] = F.sub[rem[lo : top + 1], F.mul[f][b]]
    return quo, _trim(rem[:db])


def gcd_oracle(F: TableField, period: Sequence[int]) -> tuple[int, list[int]]:
    """(linear complexity, minimal connection polynomial) of one period."""
    N = len(period)
    denom = F.one_minus_x_pow(N)
    a, b = denom, _trim(np.asarray(period, dtype=np.int64))
    while len(b):
        a, b = b, _divmod(F, a, b)[1]
    g = a
    m, rem = _divmod(F, denom, g)
    if len(rem):
        raise AssertionError("gcd does not divide 1 - x^N")
    m = F.mul[F.inv[m[0]]][_trim(m)]
    return N - (len(g) - 1), m.tolist()
