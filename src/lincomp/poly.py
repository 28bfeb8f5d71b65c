"""Dense univariate polynomials over GF(p^m).

Coefficients are stored low degree first with no trailing zeros; the zero
polynomial has an empty coefficient tuple and reports degree -1 (callers
treat it as the minus-infinity sentinel in degree arithmetic). All
operations are pure; field operations performed on coefficients are counted
through the usual element arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import FieldElement, FieldSpec, MixedFieldsError


class PolyError(ValueError):
    pass


class DivideByZeroPolyError(ZeroDivisionError):
    pass


class BothZeroError(PolyError):
    pass


class ZeroScaleError(PolyError):
    pass


class Poly:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Iterable[FieldElement] = ()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, spec: FieldSpec, values: Sequence) -> "Poly":
        """Build from ints (scalars) or coordinate sequences, low degree first."""
        return cls(spec, [spec.element(v) for v in values])

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (spec.one(),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> FieldElement:
        return self.coeffs[0] if self.coeffs else self.spec.zero()

    def _check(self, other: "Poly") -> None:
        if other.spec is not self.spec and other.spec != self.spec:
            raise MixedFieldsError(
                f"polynomials over different fields: {self.spec!r} vs {other.spec!r}"
            )

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.spec, out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.spec.zero()
        out = []
        for i in range(n):
            av = self.coeffs[i] if i < len(self.coeffs) else zero
            if i < len(other.coeffs):
                out.append(av - other.coeffs[i])
            else:
                out.append(av)
        return Poly(self.spec, out)

    def __neg__(self):
        return Poly(self.spec, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.spec)
        zero = self.spec.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        right = [(j, b) for j, b in enumerate(other.coeffs) if not b.is_zero()]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in right:
                out[i + j] = out[i + j] + a * b
        return Poly(self.spec, out)

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if other.is_zero():
            raise DivideByZeroPolyError("polynomial division by zero")
        dg = other.degree
        if self.degree < dg:
            return Poly.zero(self.spec), self
        zero = self.spec.zero()
        lead_inv = other.coeffs[-1].inv()
        rem = list(self.coeffs)
        quo = [zero] * (self.degree - dg + 1)
        for d in range(self.degree, dg - 1, -1):
            c = rem[d]
            if c.is_zero():
                continue
            qc = c * lead_inv
            quo[d - dg] = qc
            for i in range(dg):
                gc = other.coeffs[i]
                if not gc.is_zero():
                    rem[d - dg + i] = rem[d - dg + i] - qc * gc
            rem[d] = zero
        return Poly(self.spec, quo), Poly(self.spec, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.spec is other.spec or self.spec == other.spec
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return f"Poly({self.spec!r}, 0)"
        if self.spec.m == 1:
            body = ",".join(str(c.coeffs[0]) for c in self.coeffs)
        else:
            body = ",".join("(" + ",".join(map(str, c.coeffs)) + ")" for c in self.coeffs)
        return f"Poly({self.spec!r}, [{body}])"


def _normalize_unit(f: Poly) -> Poly:
    """Scale by a unit: constant term 1 when the constant term is nonzero,
    monic otherwise."""
    c0 = f.coeffs[0]
    unit = c0 if not c0.is_zero() else f.coeffs[-1]
    inv = unit.inv()
    return Poly(f.spec, [c * inv for c in f.coeffs])


def poly_gcd_normalized(f: Poly, g: Poly) -> Poly:
    """Euclidean gcd, normalized to constant term 1 (or monic when the
    constant term vanishes)."""
    if f.is_zero() and g.is_zero():
        raise BothZeroError("gcd of two zero polynomials")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return _normalize_unit(a)


def scale_argument(f: Poly, s: FieldElement) -> Poly:
    """Substitute s*x for x: coefficient of x^i is multiplied by s^i.

    Powers of s are built incrementally, one multiplication per coefficient
    index; the degree is preserved because s is a unit.
    """
    if s.is_zero():
        raise ZeroScaleError("argument scale must be nonzero")
    if f.is_zero():
        return f
    out = [f.coeffs[0]]
    spow = s.spec.one()
    for i in range(1, len(f.coeffs)):
        spow = spow * s
        ci = f.coeffs[i]
        out.append(ci if ci.is_zero() else ci * spow)
    return Poly(f.spec, out)


def poly_pow(f: Poly, k: int) -> Poly:
    """f**k; f**0 = 1. See product_of_powers."""
    return product_of_powers(f.spec, [(f, k)])


def _frobenius(f: Poly, t: int) -> Poly:
    """f^(phi^t): every coefficient raised to the power p^t.

    phi^m is the identity on GF(p^m) and GF(p) coefficients are its fixed
    points, so those cost nothing; any other coefficient costs the
    multiplications of c ** p^(t mod m).
    """
    r = t % f.spec.m
    if not r:
        return f
    e = f.spec.p ** r
    return Poly(f.spec, [c if not any(c.coeffs[1:]) else c ** e for c in f.coeffs])


def _spread(g: Poly, step: int) -> Poly:
    """g(x^step): no arithmetic, the coefficients move to multiples of step."""
    out = [g.spec.zero()] * (g.degree * step + 1)
    out[::step] = g.coeffs
    return Poly(g.spec, out)


def product_of_powers(spec: FieldSpec, factors: Iterable[tuple[Poly, int]]) -> Poly:
    """The product of f**k over the (f, k) pairs; the empty product is 1.

    In characteristic p, f(x)^p = f^phi(x^p), where phi raises every
    coefficient to the p-th power. So with k = sum_t d_t p^t in base p,
    f^k = prod_t (f^(phi^t))^(d_t) (x^(p^t)). The factors of one stride t
    are multiplied together as small polynomials in y = x^(p^t); each
    stride's product is then spread to x^(p^t) and multiplied in, widest
    stride first, so the running product keeps nonzero coefficients only at
    multiples of p^t until stride t. Raises ValueError on a negative or
    non-integer exponent.
    """
    p = spec.p
    strides: dict[int, Poly] = {}
    for f, k in factors:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        if f.spec is not spec and f.spec != spec:
            raise MixedFieldsError(f"polynomial over {f.spec!r}, not {spec!r}")
        t = 0
        while k:
            k, d = divmod(k, p)
            if d:
                g = _frobenius(f, t)
                power = g
                for _ in range(d - 1):
                    power = power * g
                strides[t] = strides[t] * power if t in strides else power
            t += 1
    result = Poly.one(spec)
    for i, t in enumerate(sorted(strides, reverse=True)):
        g = _spread(strides[t], p ** t)
        result = g if i == 0 else result * g
    return result


def one_minus_x_pow(spec: FieldSpec, n: int) -> Poly:
    """The polynomial 1 - x^n (n >= 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [spec.one()] + [spec.zero()] * (n - 1) + [spec.scalar(-1)]
    return Poly(spec, coeffs)
