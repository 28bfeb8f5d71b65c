"""Exact arithmetic in small finite fields GF(p^m).

An element is a length-m coordinate vector over GF(p) in the polynomial
basis: (c0, ..., c_{m-1}) stands for c0 + c1*t + ... + c_{m-1}*t^{m-1}
modulo a monic irreducible polynomial of degree m. Fields are deliberately
desk-scale (p^m is capped): modulus selection, primitive-element search and
order checks are exhaustive, which keeps every canonical choice
deterministic and reproducible across runs.

Every add/sub/mul/inv on FieldElement values reports exactly one operation
to the active OpCounter; pow reports one per multiplication it performs.
Constructing elements and comparing them is free.

The array helpers at the end (to_array, from_array, mul_array, mul_matrices,
scale_array) hold many elements as one (N, m) int64 coordinate array for the
vectorized kernels. They count nothing: each kernel reports its operations
in bulk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain as _chain
from itertools import product as _cartesian
from typing import Iterator, Sequence

import numpy as np

from .opcount import tally

MAX_FIELD_ORDER = 1 << 20


class FieldError(ValueError):
    """Base class for field construction and usage errors."""


class NonPrimeError(FieldError):
    pass


class ReducibleModulusError(FieldError):
    pass


class DegreeMismatchError(FieldError):
    pass


class MixedFieldsError(FieldError):
    pass


class NotADivisorError(FieldError):
    pass


class NotCoprimeError(FieldError):
    pass


class ZeroElementError(FieldError):
    pass


class ZeroInverseError(ZeroDivisionError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (desk scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over GF(p), plain int coefficient lists (low degree
# first). Used for modulus validation and element inversion; not counted as
# field operations in GF(p^m).


def _zp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _zp_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        av = a[i] if i < len(a) else 0
        bv = b[i] if i < len(b) else 0
        out[i] = (av - bv) % p
    return _zp_trim(out)


def _zp_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _zp_trim(out)


def _zp_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    r = [x % p for x in a]
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], _zp_trim(r)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * (len(r) - db)
    for d in range(len(r) - 1, db - 1, -1):
        c = r[d]
        if c:
            qc = (c * inv_lead) % p
            q[d - db] = qc
            for i in range(db + 1):
                r[d - db + i] = (r[d - db + i] - qc * b[i]) % p
    return _zp_trim(q), _zp_trim(r)


def _zp_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    return _zp_divmod(a, mod, p)[1]


def _zp_mulmod(a, b, mod, p):
    return _zp_mod(_zp_mul(a, b, p), mod, p)


def _zp_powmod(a, e: int, mod, p) -> list[int]:
    result = [1]
    base = _zp_mod(a, mod, p)
    while e:
        if e & 1:
            result = _zp_mulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = _zp_mulmod(base, base, mod, p)
    return result


def _zp_gcd(a, b, p) -> list[int]:
    a = _zp_trim([x % p for x in a])
    b = _zp_trim([x % p for x in b])
    while b:
        a, b = b, _zp_mod(a, b, p)
    return a


def _zp_invmod(a, mod, p) -> list[int]:
    r0, r1 = list(mod), _zp_mod(a, mod, p)
    s0, s1 = [], [1]
    while r1:
        q, r = _zp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zp_sub(s0, _zp_mul(q, s1, p), p)
    if len(r0) != 1:
        raise ZeroInverseError("element has no inverse modulo a reducible modulus")
    c_inv = pow(r0[0], -1, p)
    return _zp_mod([(x * c_inv) % p for x in s0], mod, p)


def _zp_eval(poly: Sequence[int], v: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * v + c) % p
    return acc


def _zp_is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Irreducibility over GF(p) for a monic polynomial of degree >= 1.

    Degrees 2 and 3 reduce to a root search; beyond that, f is irreducible
    iff it shares no factor with x^(p^k) - x for k up to deg(f)/2.
    """
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:
        return False
    if deg <= 3:
        return all(_zp_eval(poly, v, p) != 0 for v in range(p))
    x = [0, 1]
    xq = x
    for _ in range(deg // 2):
        xq = _zp_powmod(xq, p, poly, p)
        g = _zp_gcd(poly, _zp_sub(xq, x, p), p)
        if len(g) > 1:
            return False
    return True


def _check_order(p: int, m: int) -> None:
    """Validate the characteristic, the extension degree and the order cap.

    p and m are held to the cap on their own first (p^m >= 2^m for every
    prime p), so neither the trial division nor p ** m runs on a huge value.
    """
    cap = f"exceeds the desk-scale cap {MAX_FIELD_ORDER}"
    if isinstance(p, int) and p > MAX_FIELD_ORDER:
        raise FieldError(f"characteristic {p} {cap}")
    if not isinstance(p, int) or not _is_prime(p):
        raise NonPrimeError(f"characteristic {p!r} is not prime")
    if not isinstance(m, int) or m < 1:
        raise DegreeMismatchError(f"extension degree must be >= 1, got {m!r}")
    if m >= MAX_FIELD_ORDER.bit_length() or p ** m > MAX_FIELD_ORDER:
        raise FieldError(f"field order {p}^{m} {cap}")


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p).

    Low-degree coefficients are compared first, so the search order is the
    natural tuple order on (c0, ..., c_{m-1}).
    """
    if m == 1:
        return (0, 1)
    for low in _cartesian(range(p), repeat=m):
        poly = list(low) + [1]
        if _zp_is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("unreachable: irreducibles of every degree exist")


@dataclass(frozen=True, repr=False)
class FieldSpec:
    """A concrete finite field GF(p^m).

    p: prime characteristic; m: extension degree; modulus: monic degree-m
    irreducible over GF(p) (coefficients low degree first, length m+1);
    order_minus_one: p^m - 1. All invariants are checked at construction.
    """

    p: int
    m: int
    modulus: tuple[int, ...]
    order_minus_one: int

    def __post_init__(self) -> None:
        p, m = self.p, self.m
        _check_order(p, m)
        mod = tuple(int(c) % p for c in self.modulus)
        if len(mod) != m + 1:
            raise DegreeMismatchError(
                f"modulus must have m+1={m + 1} coefficients, got {len(mod)}"
            )
        if mod[m] != 1:
            raise DegreeMismatchError("modulus must be monic of degree m")
        if self.order_minus_one != p ** m - 1:
            raise FieldError("order_minus_one must equal p^m - 1")
        if not _zp_is_irreducible(list(mod), p):
            raise ReducibleModulusError(f"modulus {list(mod)} is reducible over GF({p})")
        if m == 1:
            # GF(p) arithmetic never reads the modulus: keep one canonical form
            mod = (0, 1)
        if mod != self.modulus:
            object.__setattr__(self, "modulus", mod)
        # reduction table: coordinates of t^m .. t^(2m-2)
        xpows: list[tuple[int, ...]] = []
        if m > 1:
            xm = [(-c) % p for c in mod[:m]]
            cur = list(xm)
            xpows.append(tuple(cur))
            for _ in range(m - 2):
                carry = cur[m - 1]
                cur = [0] + cur[: m - 1]
                if carry:
                    for i in range(m):
                        cur[i] = (cur[i] + carry * xm[i]) % p
                xpows.append(tuple(cur))
        object.__setattr__(self, "_xpow", tuple(xpows))
        object.__setattr__(self, "_zero", FieldElement(self, (0,) * m))
        object.__setattr__(self, "_one", FieldElement(self, (1,) + (0,) * (m - 1)))

    @property
    def order(self) -> int:
        return self.p ** self.m

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def scalar(self, v: int) -> "FieldElement":
        """Embed an integer as the GF(p) scalar v mod p."""
        return FieldElement(self, (v % self.p,) + (0,) * (self.m - 1))

    def element(self, value) -> "FieldElement":
        """Build an element from an int (scalar) or a length-m coordinate sequence."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise MixedFieldsError(f"element belongs to {value.spec!r}, not {self!r}")
            return value
        if isinstance(value, int):
            return self.scalar(value)
        coords = tuple(int(c) % self.p for c in value)
        if len(coords) != self.m:
            raise DegreeMismatchError(
                f"expected {self.m} coordinates, got {len(coords)}"
            )
        return FieldElement(self, coords)

    def elements(self) -> Iterator["FieldElement"]:
        """All elements in canonical order (low-degree coordinate varies slowest)."""
        for coords in _cartesian(range(self.p), repeat=self.m):
            yield FieldElement(self, coords)

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


class FieldElement:
    """One element of GF(p^m), an immutable coordinate vector over GF(p).

    Coordinates are trusted to be reduced mod p; use FieldSpec.element /
    scalar to build values from arbitrary integers.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _check(self, other: "FieldElement") -> None:
        if other.spec is not self.spec and other.spec != self.spec:
            raise MixedFieldsError(
                f"operands from different fields: {self.spec!r} vs {other.spec!r}"
            )

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        tally()
        spec = self.spec
        p = spec.p
        if spec.m == 1:
            return FieldElement(spec, ((self.coeffs[0] + other.coeffs[0]) % p,))
        return FieldElement(
            spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        tally()
        spec = self.spec
        p = spec.p
        if spec.m == 1:
            return FieldElement(spec, ((self.coeffs[0] - other.coeffs[0]) % p,))
        return FieldElement(
            spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        tally()
        p = self.spec.p
        return FieldElement(self.spec, tuple((-c) % p for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        tally()
        spec = self.spec
        p = spec.p
        a, b = self.coeffs, other.coeffs
        if spec.m == 1:
            return FieldElement(spec, ((a[0] * b[0]) % p,))
        m = spec.m
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        res = conv[:m]
        for k in range(m, 2 * m - 1):
            ck = conv[k]
            if ck:
                xp = self.spec._xpow[k - m]
                for i in range(m):
                    res[i] += ck * xp[i]
        return FieldElement(spec, tuple(r % p for r in res))

    def inv(self) -> "FieldElement":
        if not any(self.coeffs):
            raise ZeroInverseError("zero has no multiplicative inverse")
        tally()
        spec = self.spec
        p = spec.p
        if spec.m == 1:
            return FieldElement(spec, (pow(self.coeffs[0], -1, p),))
        coords = _zp_invmod(list(self.coeffs), list(spec.modulus), p)
        coords = coords + [0] * (spec.m - len(coords))
        return FieldElement(spec, tuple(coords))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        result = self.spec.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.spec is other.spec or self.spec == other.spec
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.spec.m == 1:
            return f"{self.spec!r}:{self.coeffs[0]}"
        return f"{self.spec!r}:{','.join(map(str, self.coeffs))}"


def make_field(p: int, m: int = 1, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Construct GF(p^m), validating every invariant.

    When the modulus is omitted, the lexicographically smallest monic
    irreducible of degree m is selected (coefficients compared low degree
    first), so repeated calls agree across runs. For m=1 the placeholder
    modulus is t itself (any valid linear modulus is stored as t) and
    arithmetic is plain arithmetic mod p.
    """
    _check_order(p, m)
    if modulus is None:
        modulus = _smallest_irreducible(p, m)
    return FieldSpec(
        p=p, m=m, modulus=tuple(int(c) for c in modulus), order_minus_one=p ** m - 1
    )


@lru_cache(maxsize=None)
def primitive_element(spec: FieldSpec) -> FieldElement:
    """Canonical generator of the multiplicative group.

    Returns the first element in canonical order whose order is exactly
    p^m - 1, confirmed by checking g^(q/r) != 1 for every prime r of q.
    """
    q = spec.order_minus_one
    one = spec.one()
    if q == 1:
        return one
    exponents = [q // r for r in prime_factors(q)]
    for g in spec.elements():
        if g.is_zero():
            continue
        if all((g ** e) != one for e in exponents):
            return g
    raise AssertionError("unreachable: every finite field has a primitive element")


def uth_roots_of_unity(spec: FieldSpec, u: int) -> list[FieldElement]:
    """The u distinct u-th roots of unity [x_0=1, x_1, ...] in canonical order.

    x_i = g^(i*q/u) for the canonical primitive element g; requires u | q.
    """
    q = spec.order_minus_one
    if not isinstance(u, int) or u < 1 or q % u != 0:
        raise NotADivisorError(f"{u} does not divide the group order {q}")
    g = primitive_element(spec)
    step = g ** (q // u)
    roots = [spec.one()]
    cur = spec.one()
    for _ in range(u - 1):
        cur = cur * step
        roots.append(cur)
    return roots


def nth_root_coprime(spec: FieldSpec, x: FieldElement, n: int) -> FieldElement:
    """The unique b with b^n = x, valid when gcd(n, p^m - 1) = 1 and x != 0.

    Computed as x^(n^{-1} mod q); uniqueness holds because y -> y^n is a
    bijection on the multiplicative group.
    """
    if x.spec != spec:
        raise MixedFieldsError(f"element belongs to {x.spec!r}, not {spec!r}")
    if x.is_zero():
        raise ZeroElementError("zero has no root in the multiplicative group")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"root index must be a positive integer, got {n!r}")
    q = spec.order_minus_one
    if math.gcd(n, q) != 1:
        raise NotCoprimeError(f"gcd({n}, {q}) != 1")
    return x ** pow(n, -1, q)


# -- array form for the vectorized kernels. Coordinates are < p, so a product
# of two is < p^2 and the m^2 products reduced through _product_matrix stay
# below m^2 p^3 <= 2^60 for every field under MAX_FIELD_ORDER.


def to_array(spec: FieldSpec, elems: Sequence[FieldElement]) -> np.ndarray:
    """Coordinates of the elements as an (N, m) int64 array."""
    flat = _chain.from_iterable(e.coeffs for e in elems)
    return np.fromiter(flat, dtype=np.int64, count=len(elems) * spec.m).reshape(-1, spec.m)


def from_array(spec: FieldSpec, arr: np.ndarray) -> tuple[FieldElement, ...]:
    """The elements whose coordinates are the rows of a reduced (N, m) array."""
    return tuple(FieldElement(spec, tuple(row)) for row in arr.tolist())


@lru_cache(maxsize=64)
def _product_matrix(spec: FieldSpec) -> np.ndarray:
    """The (m^2, m) matrix whose row i*m + j holds the coordinates of t^(i+j)."""
    m = spec.m
    tpow = [tuple(int(i == k) for i in range(m)) for k in range(m)] + list(spec._xpow)
    table = np.array([tpow[i + j] for i in range(m) for j in range(m)], dtype=np.int64)
    table.flags.writeable = False
    return table


def mul_array(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise products of two broadcastable (..., m) coordinate arrays."""
    conv = a[..., :, None] * b[..., None, :]
    conv = conv.reshape(conv.shape[:-2] + (spec.m * spec.m,))
    return conv @ _product_matrix(spec) % spec.p


def mul_matrices(spec: FieldSpec, a: np.ndarray) -> np.ndarray:
    """The (..., m, m) matrices of multiplication by each element of an
    (..., m) coordinate array: row i of a matrix holds t^i times its element,
    so x @ mul_matrices(spec, a)[k] is the unreduced product x * a_k."""
    m = spec.m
    table = _product_matrix(spec).reshape(m, m * m)
    return (a @ table % spec.p).reshape(a.shape[:-1] + (m, m))


def scale_array(spec: FieldSpec, f: FieldElement, a: np.ndarray) -> np.ndarray:
    """f times every element of a reduced (..., m) coordinate array, left
    unreduced (entries below m p^2) so that the caller reduces mod p once,
    after its own additions. Over GF(p) this is a plain broadcast multiply."""
    if spec.m == 1:
        return a * f.coeffs[0]
    return a @ mul_matrices(spec, np.array(f.coeffs, dtype=np.int64))
