import math
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GF2, GF7, GF9, GF13, all_elements, brute_force_order
from lincomp.field import (
    DegreeMismatchError,
    FieldError,
    MixedFieldsError,
    NonPrimeError,
    NotADivisorError,
    NotCoprimeError,
    ReducibleModulusError,
    ZeroElementError,
    ZeroInverseError,
    _zp_is_irreducible,
    make_field,
    nth_root_coprime,
    primitive_element,
    uth_roots_of_unity,
)
from lincomp.opcount import OpCounter


class TestMakeField:
    def test_prime_field_placeholder_modulus(self):
        spec = make_field(7)
        assert (spec.p, spec.m) == (7, 1)
        assert spec.modulus == (0, 1)
        assert spec.order_minus_one == 6

    def test_gf9_smallest_modulus_matches_enumeration(self):
        # independent search: first monic quadratic over GF(3) with no root
        expected = None
        for c0, c1 in product(range(3), repeat=2):
            if all((v * v + c1 * v + c0) % 3 != 0 for v in range(3)):
                expected = (c0, c1, 1)
                break
        assert expected == (1, 0, 1)  # pinned winner: t^2 + 1
        assert make_field(3, 2).modulus == expected
        assert make_field(3, 2).order_minus_one == 8

    def test_gf16_modulus_is_irreducible_quartic(self):
        spec = make_field(2, 4)
        assert len(spec.modulus) == 5 and spec.modulus[-1] == 1
        assert _zp_is_irreducible(list(spec.modulus), 2)

    def test_composite_characteristic_rejected(self):
        with pytest.raises(NonPrimeError):
            make_field(4, 1)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ReducibleModulusError):
            make_field(3, 2, [0, 0, 1])  # t^2 has the root 0

    def test_wrong_length_modulus_rejected(self):
        with pytest.raises(DegreeMismatchError):
            make_field(3, 2, [1, 1])

    def test_non_monic_modulus_rejected(self):
        with pytest.raises(DegreeMismatchError):
            make_field(3, 2, [1, 0, 2])

    def test_desk_scale_cap(self):
        with pytest.raises(FieldError):
            make_field(2, 21)

    def test_prime_field_modulus_normalized(self):
        # any valid linear modulus gives the same GF(p) as the placeholder
        spec = make_field(7, 1, [1, 1])
        assert spec == make_field(7)
        assert spec.modulus == (0, 1)
        with pytest.raises(DegreeMismatchError):
            make_field(7, 1, [1, 2])

    def test_enumeration_order_low_degree_first(self):
        first = [e.coeffs for e in list(GF9.elements())[:4]]
        assert first == [(0, 0), (0, 1), (0, 2), (1, 0)]


class TestArithmetic:
    def test_add_example(self):
        assert GF7.scalar(3) + GF7.scalar(5) == GF7.scalar(1)

    def test_mul_example(self):
        assert GF7.scalar(4) * GF7.scalar(2) == GF7.scalar(1)

    def test_pow_example(self):
        # repeated multiplication as the reference
        two = GF7.scalar(2)
        expected = reduce(lambda a, b: a * b, [two] * 7)
        assert expected == GF7.scalar(2)
        assert two ** 7 == GF7.scalar(2)

    @pytest.mark.parametrize("spec", [GF7, GF9])
    def test_pow_matches_repeated_multiplication(self, spec):
        for a in all_elements(spec):
            acc = spec.one()
            for e in range(9):
                assert a ** e == acc
                acc = acc * a

    def test_pow_negative_is_inverse_power(self):
        a = GF7.scalar(3)
        assert a ** -2 == (a.inv()) ** 2
        assert a ** -1 == a.inv()

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroInverseError):
            GF7.zero().inv()
        with pytest.raises(ZeroInverseError):
            GF9.zero() ** -1

    def test_mixed_fields_rejected(self):
        with pytest.raises(MixedFieldsError):
            GF7.scalar(1) + GF13.scalar(1)
        with pytest.raises(MixedFieldsError):
            GF7.scalar(1) * GF13.scalar(1)

    def test_division(self):
        a, b = GF9.element([1, 2]), GF9.element([2, 1])
        assert (a / b) * b == a

    def test_element_normalizes_ints(self):
        assert GF7.element(-1) == GF7.scalar(6)
        assert GF9.element([4, -1]) == GF9.element([1, 2])
        with pytest.raises(DegreeMismatchError):
            GF9.element([1, 2, 0])


@pytest.mark.parametrize("spec", [GF7, GF13, GF9])
@settings(max_examples=150)
@given(data=st.data())
def test_field_axioms(spec, data):
    elems = all_elements(spec)
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    c = data.draw(st.sampled_from(elems))
    one, zero = spec.one(), spec.zero()
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a + (-a) == zero
    assert a - b == a + (-b)
    if not a.is_zero():
        assert a * a.inv() == one


class TestPrimitiveElement:
    def test_gf7_canonical(self):
        assert primitive_element(GF7) == GF7.scalar(3)
        # brute force: orders of 2 and 3
        assert brute_force_order(GF7.scalar(2)) == 3
        assert brute_force_order(GF7.scalar(3)) == 6

    def test_gf2_trivial(self):
        assert primitive_element(GF2) == GF2.one()

    def test_gf13_canonical(self):
        assert primitive_element(GF13) == GF13.scalar(2)
        assert brute_force_order(GF13.scalar(2)) == 12

    def test_gf9_canonical_matches_brute_force(self):
        expected = None
        for g in GF9.elements():
            if not g.is_zero() and brute_force_order(g) == 8:
                expected = g
                break
        assert expected is not None
        assert primitive_element(GF9) == expected
        assert expected == GF9.element([1, 1])


class TestRootsOfUnity:
    def test_gf7_cube_roots(self):
        roots = uth_roots_of_unity(GF7, 3)
        assert roots == [GF7.scalar(1), GF7.scalar(2), GF7.scalar(4)]
        brute = {e for e in all_elements(GF7) if not e.is_zero() and e ** 3 == GF7.one()}
        assert set(roots) == brute

    def test_u_equal_one(self):
        assert uth_roots_of_unity(GF13, 1) == [GF13.one()]

    def test_non_divisor_rejected(self):
        with pytest.raises(NotADivisorError):
            uth_roots_of_unity(GF7, 5)

    @pytest.mark.parametrize("spec", [GF7, GF9, GF13])
    def test_properties_for_every_divisor(self, spec):
        q = spec.order_minus_one
        for u in range(1, q + 1):
            if q % u:
                continue
            roots = uth_roots_of_unity(spec, u)
            assert len(roots) == u
            assert len(set(roots)) == u
            assert roots[0] == spec.one()
            assert all(x ** u == spec.one() for x in roots)


def _small_fields():
    specs = []
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        m = 1
        while p ** m <= 49:
            specs.append(make_field(p, m))
            m += 1
    return specs


class TestNthRoot:
    def test_examples_over_gf7(self):
        assert nth_root_coprime(GF7, GF7.scalar(2), 7) == GF7.scalar(2)
        assert nth_root_coprime(GF7, GF7.scalar(6), 7) == GF7.scalar(6)
        assert nth_root_coprime(GF7, GF7.one(), 5) == GF7.one()

    def test_not_coprime_rejected(self):
        with pytest.raises(NotCoprimeError):
            nth_root_coprime(GF7, GF7.scalar(2), 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroElementError):
            nth_root_coprime(GF7, GF7.zero(), 5)

    def test_uniqueness_exhaustive_on_small_fields(self):
        # every field of order <= 49: the computed root is the only n-th root
        for spec in _small_fields():
            q = spec.order_minus_one
            ns = [n for n in range(1, 2 * q + 3) if math.gcd(n, q) == 1][:3]
            nonzero = [e for e in all_elements(spec) if not e.is_zero()]
            for n in ns:
                for x in nonzero:
                    b = nth_root_coprime(spec, x, n)
                    assert b ** n == x
                    matches = [y for y in nonzero if y ** n == x]
                    assert matches == [b]


class TestOpCounter:
    def test_multiplications_counted_exactly(self):
        a = GF7.scalar(3)
        with OpCounter() as ctr:
            for _ in range(17):
                a = a * a
        assert ctr.total == 17

    def test_each_op_counts_one(self):
        a, b = GF9.element([1, 2]), GF9.element([2, 2])
        ops = {
            "add": lambda: a + b,
            "sub": lambda: a - b,
            "mul": lambda: a * b,
            "neg": lambda: -a,
            "inv": lambda: a.inv(),
        }
        for op, run in ops.items():
            with OpCounter() as ctr:
                run()
            assert ctr.total == 1, op

    def test_pow_counts_its_multiplications(self):
        # square-and-multiply on e=13 (0b1101): 3 squarings + 3 multiplies
        with OpCounter() as ctr:
            GF7.scalar(3) ** 13
        assert ctr.total == 6

    def test_nested_counters_merge_by_summation(self):
        a = GF7.scalar(5)
        with OpCounter() as outer:
            a * a
            with OpCounter() as inner:
                a * a
                a * a
            assert inner.total == 2
        assert outer.total == 3

    def test_no_counter_is_fine(self):
        assert GF7.scalar(2) * GF7.scalar(3) == GF7.scalar(6)
