import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GF2, GF7, GF9, GF13, all_elements, poly_pow_reference, rng
from lincomp.field import MixedFieldsError, make_field
from lincomp.poly import (
    BothZeroError,
    DivideByZeroPolyError,
    Poly,
    ZeroScaleError,
    one_minus_x_pow,
    poly_gcd_normalized,
    poly_pow,
    product_of_powers,
    scale_argument,
)


def p7(*ints):
    return Poly.from_ints(GF7, ints)


def polys(spec, max_degree=7):
    elems = st.sampled_from(all_elements(spec))
    return st.lists(elems, min_size=0, max_size=max_degree + 1).map(
        lambda cs: Poly(spec, cs)
    )


class TestBasics:
    def test_trailing_zeros_trimmed(self):
        assert p7(1, 2, 0, 0) == p7(1, 2)
        assert p7(0, 0).is_zero()

    def test_zero_degree_sentinel(self):
        assert Poly.zero(GF7).degree == -1
        assert p7(5).degree == 0

    def test_mul_example(self):
        one_minus_x = p7(1, -1)
        one_plus_x = p7(1, 1)
        assert one_minus_x * one_plus_x == p7(1, 0, -1)

    def test_divrem_example(self):
        f = one_minus_x_pow(GF7, 7)
        g = p7(1, -1)
        q, r = divmod(f, g)
        assert q == p7(1, 1, 1, 1, 1, 1, 1)
        assert r.is_zero()
        assert q * g + r == f

    def test_add_identity(self):
        f = p7(3, 1, 4)
        assert f + Poly.zero(GF7) == f

    def test_divide_by_zero_poly(self):
        with pytest.raises(DivideByZeroPolyError):
            divmod(p7(1, 2), Poly.zero(GF7))


class TestGcd:
    def test_char_p_identity_example(self):
        # (1-x)^7 = 1-x^7 in characteristic 7, so 1-x divides 1-x^7
        g = poly_gcd_normalized(one_minus_x_pow(GF7, 7), p7(1, -1))
        assert g == p7(1, -1)

    def test_gcd_with_one(self):
        assert poly_gcd_normalized(p7(4, 2, 1), Poly.one(GF7)) == Poly.one(GF7)

    def test_self_gcd_normalizes_constant_term(self):
        f = p7(3, 5, 1)
        g = poly_gcd_normalized(f, f)
        assert g.constant_term() == GF7.one()
        # same polynomial up to the unit 3^{-1} = 5
        assert g == Poly(GF7, [c * GF7.scalar(5) for c in f.coeffs])

    def test_monic_normalization_when_constant_vanishes(self):
        f = p7(0, 3)
        g = poly_gcd_normalized(f, f)
        assert g == p7(0, 1)

    def test_both_zero_rejected(self):
        with pytest.raises(BothZeroError):
            poly_gcd_normalized(Poly.zero(GF7), Poly.zero(GF7))

    def test_gcd_with_zero_is_the_other(self):
        f = p7(2, 0, 1)
        g = poly_gcd_normalized(Poly.zero(GF7), f)
        assert g.constant_term() == GF7.one()
        assert divmod(f, g)[1].is_zero()

    @pytest.mark.parametrize("spec", [GF7, GF9])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_gcd_divides_both(self, spec, data):
        f = data.draw(polys(spec, 6))
        g = data.draw(polys(spec, 6))
        if f.is_zero() and g.is_zero():
            return
        d = poly_gcd_normalized(f, g)
        assert divmod(f, d)[1].is_zero()
        assert divmod(g, d)[1].is_zero()

    def test_every_common_divisor_divides_gcd_exhaustive(self):
        # all pairs of small polynomials over GF(2), all candidate divisors
        all_p = [Poly.from_ints(GF2, bits) for k in range(0, 4)
                 for bits in product(range(2), repeat=k)]
        candidates = [d for d in all_p if not d.is_zero()]
        for f in all_p:
            for g in all_p:
                if f.is_zero() and g.is_zero():
                    continue
                gcd = poly_gcd_normalized(f, g)
                for d in candidates:
                    if divmod(f, d)[1].is_zero() and divmod(g, d)[1].is_zero():
                        assert divmod(gcd, d)[1].is_zero()

    @settings(max_examples=40)
    @given(data=st.data())
    def test_gcd_with_one_minus_xn_has_unit_constant(self, data):
        f = data.draw(polys(GF7, 7))
        n = data.draw(st.integers(min_value=1, max_value=9))
        d = poly_gcd_normalized(f, one_minus_x_pow(GF7, n))
        assert not d.constant_term().is_zero()
        assert d.constant_term() == GF7.one()


class TestDivremRoundtrip:
    @pytest.mark.parametrize("spec", [GF7, GF9])
    @settings(max_examples=80)
    @given(data=st.data())
    def test_roundtrip(self, spec, data):
        f = data.draw(polys(spec, 8))
        g = data.draw(polys(spec, 5).filter(lambda q: not q.is_zero()))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


class TestScaleArgument:
    def test_direct_substitution(self):
        assert scale_argument(p7(1, -1), GF7.scalar(4)) == p7(1, -4)

    def test_identity_scale(self):
        f = p7(2, 0, 5, 1)
        assert scale_argument(f, GF7.one()) == f

    def test_power_coefficient(self):
        # 2^7 = 2 mod 7 (square-and-multiply by hand: 2^2=4, 2^4=2, 2^7=2)
        assert pow(2, 7, 7) == 2
        got = scale_argument(one_minus_x_pow(GF7, 7), GF7.scalar(2))
        assert got == Poly.from_ints(GF7, [1, 0, 0, 0, 0, 0, 0, -2])

    def test_zero_scale_rejected(self):
        with pytest.raises(ZeroScaleError):
            scale_argument(p7(1, 1), GF7.zero())

    @pytest.mark.parametrize("spec", [GF7, GF9])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_roundtrip_and_multiplicativity(self, spec, data):
        nonzero = st.sampled_from([e for e in all_elements(spec) if not e.is_zero()])
        f = data.draw(polys(spec, 6))
        g = data.draw(polys(spec, 6))
        s = data.draw(nonzero)
        assert scale_argument(scale_argument(f, s), s.inv()) == f
        assert scale_argument(f * g, s) == scale_argument(f, s) * scale_argument(g, s)

    def test_degree_preserved(self):
        f = p7(1, 2, 3)
        assert scale_argument(f, GF7.scalar(5)).degree == f.degree


class TestPolyPow:
    def test_char_p_binomial_collapse(self):
        # independent check: binom(7, k) = 0 mod 7 for 0 < k < 7
        assert all(math.comb(7, k) % 7 == 0 for k in range(1, 7))
        # and an expansion oracle by repeated multiplication
        base = p7(1, -1)
        expected = Poly.one(GF7)
        for _ in range(7):
            expected = expected * base
        assert expected == one_minus_x_pow(GF7, 7)
        assert poly_pow(base, 7) == one_minus_x_pow(GF7, 7)

    def test_power_zero_and_one(self):
        f = p7(2, 3, 1)
        assert poly_pow(f, 0) == Poly.one(GF7)
        assert poly_pow(f, 1) == f

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            poly_pow(p7(1, 1), -1)

    @settings(max_examples=30)
    @given(data=st.data())
    def test_matches_repeated_multiplication(self, data):
        f = data.draw(polys(GF9, 3))
        k = data.draw(st.integers(min_value=0, max_value=5))
        expected = Poly.one(GF9)
        for _ in range(k):
            expected = expected * f
        assert poly_pow(f, k) == expected


# p = 2 and odd p, prime fields and extensions of degree 2 to 4
FROBENIUS_FIELDS = [
    GF2, make_field(2, 2), GF7, make_field(2, 3), GF9, GF13,
    make_field(2, 4), make_field(5, 2), make_field(3, 3),
]


def random_factor(spec, r):
    """A polynomial of degree 1 or 2 whose leading coefficient lies outside
    GF(p) when m > 1, so the Frobenius map moves it."""
    elems = all_elements(spec)
    outside = [e for e in elems if any(e.coeffs[1:])] or elems[1:]
    low = [r.choice(elems) for _ in range(r.randint(1, 2))]
    return Poly(spec, low + [r.choice(outside)])


class TestProductOfPowers:
    @pytest.mark.parametrize("spec", FROBENIUS_FIELDS, ids=repr)
    def test_poly_pow_matches_reference(self, spec):
        r = rng(f"pow-ref-{spec!r}")
        p = spec.p
        ks = sorted({0, 1, p - 1, p, p + 1, p * p - 1, p * p, 3 * p * p}
                    | {r.randint(0, 3 * p * p) for _ in range(4)})
        for k in ks:
            f = random_factor(spec, r)
            assert poly_pow(f, k) == poly_pow_reference(f, k), (f, k)

    @pytest.mark.parametrize("spec", FROBENIUS_FIELDS, ids=repr)
    def test_lists_match_reference(self, spec):
        # exponents sum to at most 3p^2, which keeps the dense reference quick
        r = rng(f"product-ref-{spec!r}")
        budget = 3 * spec.p ** 2
        for count in (1, 2, 3, 4, 4):
            factors, left = [], budget
            for _ in range(count):
                k = r.randint(0, left)
                left -= k
                factors.append((random_factor(spec, r), k))
            factors.append((factors[0][0], r.randint(0, left)))  # a repeated factor
            expected = Poly.one(spec)
            for f, k in factors:
                expected = expected * poly_pow_reference(f, k)
            assert product_of_powers(spec, factors) == expected, factors

    @pytest.mark.parametrize("spec", [GF2, make_field(2, 3), GF7, GF9, GF13], ids=repr)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_exponents_add(self, spec, data):
        f = data.draw(polys(spec, 3))
        a, b = (data.draw(st.integers(0, 3 * spec.p ** 2)) for _ in range(2))
        assert product_of_powers(spec, [(f, a), (f, b)]) == poly_pow(f, a + b)

    def test_edge_cases(self):
        one, zero = Poly.one(GF9), Poly.zero(GF9)
        f = Poly.from_ints(GF9, [[1, 2], [0, 1]])
        assert product_of_powers(GF9, []) == one
        assert product_of_powers(GF9, [(f, 0), (zero, 0)]) == one
        assert product_of_powers(GF9, [(f, 5), (zero, 1)]) == zero
        assert product_of_powers(GF9, [(one, 10), (f, 1)]) == f
        with pytest.raises(ValueError):
            product_of_powers(GF9, [(f, 2), (f, -1)])
        with pytest.raises(ValueError):
            product_of_powers(GF9, [(f, 1.0)])
        with pytest.raises(MixedFieldsError):
            product_of_powers(GF9, [(p7(1, 1), 2)])
