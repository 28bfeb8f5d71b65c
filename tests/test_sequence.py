from itertools import product

import pytest

from helpers import GF2, GF3, GF7, GF9, all_sequences, random_sequence, rng, seq
from lincomp.poly import Poly, one_minus_x_pow, poly_gcd_normalized, poly_pow
from lincomp.sequence import (
    BadConnectionPolyError,
    LinCompResult,
    PeriodicSequence,
    generating_poly,
    oracle_lincomp,
    verify_recurrence,
)


class TestPeriodicSequence:
    def test_needs_one_element(self):
        with pytest.raises(ValueError):
            PeriodicSequence(GF7, ())

    def test_wraparound_index(self):
        s = seq(GF7, [1, 2, 3])
        assert s.at(0) == GF7.scalar(1)
        assert s.at(4) == GF7.scalar(2)

    def test_foreign_elements_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSequence(GF7, (GF3.one(),))


class TestGeneratingPoly:
    def test_impulse(self):
        assert generating_poly(seq(GF7, [1, 0, 0])) == Poly.one(GF7)

    def test_full_period(self):
        s = seq(GF7, [4, 4, 2, 4, 6, 4, 5])
        assert generating_poly(s) == Poly.from_ints(GF7, [4, 4, 2, 4, 6, 4, 5])

    def test_all_zero(self):
        assert generating_poly(seq(GF7, [0, 0, 0, 0])).is_zero()


class TestOracle:
    def test_component_golden(self):
        res = oracle_lincomp(seq(GF7, [4, 4, 2, 4, 6, 4, 5]))
        assert res.complexity == 7
        assert res.min_poly == poly_pow(Poly.from_ints(GF7, [1, -1]), 7)
        assert res.min_poly == one_minus_x_pow(GF7, 7)
        assert res.algorithm == "oracle"

    def test_all_zero(self):
        res = oracle_lincomp(seq(GF7, [0] * 10))
        assert res.complexity == 0
        assert res.min_poly == Poly.one(GF7)

    def test_constant_ones(self):
        # gcd(1 + x + ... + x^6, 1 - x^7) = 1 + ... + x^6, so c = 7 - 6 = 1
        res = oracle_lincomp(seq(GF7, [1] * 7))
        assert res.complexity == 1
        assert res.min_poly == Poly.from_ints(GF7, [1, -1])

    @pytest.mark.parametrize("spec,n", [(GF7, 12), (GF9, 8), (GF2, 9)])
    def test_oracle_result_generates_its_input(self, spec, n):
        r = rng(f"oracle-{spec.p}-{spec.m}-{n}")
        for _ in range(15):
            s = random_sequence(spec, n, r)
            res = oracle_lincomp(s)
            assert res.complexity <= n
            assert res.min_poly.degree == res.complexity
            assert verify_recurrence(s, res.min_poly)

    @pytest.mark.parametrize("spec,n", [(GF7, 11), (GF9, 6)])
    def test_gcd_degree_accounting(self, spec, n):
        r = rng(f"account-{spec.p}-{spec.m}")
        for _ in range(20):
            s = random_sequence(spec, n, r)
            d = poly_gcd_normalized(generating_poly(s), one_minus_x_pow(spec, n))
            assert d.degree + oracle_lincomp(s).complexity == n

    def test_rotation_preserves_complexity(self):
        r = rng("rotate")
        for _ in range(20):
            s = random_sequence(GF7, 10, r)
            c = oracle_lincomp(s).complexity
            for k in range(1, 10):
                assert oracle_lincomp(s.rotated(k)).complexity == c


class TestVerifyRecurrence:
    def test_constant_sequence(self):
        assert verify_recurrence(seq(GF7, [5, 5, 5]), Poly.from_ints(GF7, [1, -1]))

    def test_component_connection_poly(self):
        s = seq(GF7, [4, 4, 2, 4, 6, 4, 5])
        assert verify_recurrence(s, poly_pow(Poly.from_ints(GF7, [1, -1]), 7))

    def test_rejecting_wrong_poly(self):
        assert not verify_recurrence(seq(GF7, [1, 2]), Poly.from_ints(GF7, [1, -1]))

    def test_degree_zero_accepts_only_zero(self):
        one = Poly.one(GF7)
        assert verify_recurrence(seq(GF7, [0, 0]), one)
        assert not verify_recurrence(seq(GF7, [0, 1]), one)

    def test_bad_constant_term_rejected(self):
        with pytest.raises(BadConnectionPolyError):
            verify_recurrence(seq(GF7, [1, 2]), Poly.from_ints(GF7, [2, 1]))
        with pytest.raises(BadConnectionPolyError):
            verify_recurrence(seq(GF7, [1, 2]), Poly.zero(GF7))

    def test_too_long_poly_rejected(self):
        with pytest.raises(ValueError):
            verify_recurrence(seq(GF7, [1, 2]), Poly.from_ints(GF7, [1, 0, 0, 1]))

    def test_wraparound_violation_detected(self):
        # a_{i+1} = a_i holds inside one period but not across the boundary
        s = seq(GF7, [2, 2, 2, 3])
        assert not verify_recurrence(s, Poly.from_ints(GF7, [1, -1]))


class TestMinimality:
    @pytest.mark.parametrize(
        "spec,max_n", [(GF2, 6), (GF3, 4)], ids=["gf2", "gf3"]
    )
    def test_no_shorter_connection_poly_exists(self, spec, max_n):
        # exhaustive: for every sequence, no polynomial with constant term 1
        # and degree < c satisfies the recurrence
        elems = list(spec.elements())
        for n in range(1, max_n + 1):
            for s in all_sequences(spec, n):
                res = oracle_lincomp(s)
                assert verify_recurrence(s, res.min_poly)
                c = res.complexity
                for tail in product(elems, repeat=c - 1 if c else 0):
                    cand = Poly(spec, (spec.one(),) + tail)
                    if cand.degree < c:
                        assert not verify_recurrence(s, cand), (
                            f"shorter recurrence {cand} for {s}"
                        )


class TestLinCompResult:
    def test_validation(self):
        with pytest.raises(BadConnectionPolyError):
            LinCompResult(1, Poly.from_ints(GF7, [2, 1]), "oracle")
        with pytest.raises(ValueError):
            LinCompResult(0, Poly.from_ints(GF7, [1, 1]), "oracle")
        with pytest.raises(ValueError):
            LinCompResult(-1, Poly.one(GF7), "oracle")
