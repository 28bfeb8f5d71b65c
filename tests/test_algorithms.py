import numpy as np
import pytest

from helpers import GF2, GF7, GF9, GF13, all_sequences, random_sequence, rng, seq
from lincomp.algorithms import (
    BadLengthError,
    EmptyPrefixError,
    NotPrimePowerPeriodError,
    _bm_generic,
    _bm_prime,
    berlekamp_massey,
    ggc_complexity,
    ggc_fold,
    ggc_steps,
)
from lincomp.opcount import OpCounter
from lincomp.poly import Poly, one_minus_x_pow, poly_pow
from lincomp.reduction import AlgorithmInapplicableError, solve
from lincomp.sequence import oracle_lincomp


class TestBerlekampMassey:
    def test_constant_prefix(self):
        res = berlekamp_massey([GF7.one()] * 4, GF7)
        assert res.complexity == 1
        assert res.min_poly == Poly.from_ints(GF7, [1, -1])
        assert res.algorithm == "bm"

    def test_two_periods_of_component(self):
        s = seq(GF7, [4, 4, 2, 4, 6, 4, 5])
        res = berlekamp_massey(list(s.period) * 2, GF7)
        assert res.complexity == 7
        assert res.min_poly == one_minus_x_pow(GF7, 7)

    def test_random_vs_oracle_gf13(self):
        r = rng("bm-gf13")
        for _ in range(10):
            s = random_sequence(GF13, 12, r)
            res = berlekamp_massey(list(s.period) * 2, GF13)
            ref = oracle_lincomp(s)
            assert (res.complexity, res.min_poly) == (ref.complexity, ref.min_poly)

    @pytest.mark.parametrize("spec,n", [(GF7, 64), (GF13, 48), (GF9, 40)])
    def test_two_periods_match_oracle(self, spec, n):
        r = rng(f"bm-{spec.p}-{spec.m}-{n}")
        for _ in range(8):
            s = random_sequence(spec, n, r)
            res = berlekamp_massey(list(s.period) * 2, spec)
            ref = oracle_lincomp(s)
            assert res.complexity == ref.complexity
            assert res.min_poly == ref.min_poly

    def test_empty_prefix_rejected(self):
        with pytest.raises(EmptyPrefixError):
            berlekamp_massey([], GF7)

    def test_all_zero_prefix(self):
        res = berlekamp_massey([GF7.zero()] * 6, GF7)
        assert res.complexity == 0
        assert res.min_poly == Poly.one(GF7)

    def test_prime_and_generic_paths_agree(self):
        # identical results and identical operation counts
        r = rng("bm-parity")
        for n in [1, 2, 7, 16, 31]:
            for _ in range(5):
                s = random_sequence(GF7, n, r)
                prefix = list(s.period) * 2
                with OpCounter() as c_gen:
                    l_gen, coeffs_gen = _bm_generic(prefix, GF7)
                residues = np.array([e.coeffs[0] for e in prefix], dtype=np.int64)
                with OpCounter() as c_fast:
                    l_fast, ints_fast = _bm_prime(residues, 7)
                assert l_gen == l_fast
                assert [e.coeffs[0] for e in coeffs_gen] == ints_fast
                assert c_gen.total == c_fast.total


class TestGgcFold:
    def test_p2_is_the_classic_rule(self):
        s = seq(GF2, [1, 0, 1, 1])
        left, right = s.period[:2], s.period[2:]
        b = ggc_fold(s.period, GF2)
        assert b[0] == tuple(l + r for l, r in zip(left, right))
        assert b[1] == left

    def test_p3_combination_coefficients(self):
        # binom(2,0)=binom(1,0)=binom(0,0)=1; binom(2,1)=2, binom(1,1)=1; binom(2,2)=1
        s = seq(GF9, [[1, 0], [0, 1], [2, 2]])
        s0, s1, s2 = s.period
        b = ggc_fold(s.period, GF9)
        two = GF9.scalar(2)
        assert b[0] == (s0 + s1 + s2,)
        assert b[1] == (two * s0 + s1,)
        assert b[2] == (s0,)

    def test_all_zero_linearity(self):
        zeros = tuple([GF7.zero()] * 49)
        for b in ggc_fold(zeros, GF7):
            assert all(e.is_zero() for e in b)

    def test_bad_length_rejected(self):
        with pytest.raises(BadLengthError):
            ggc_fold(tuple([GF7.zero()] * 21), GF7)
        with pytest.raises(BadLengthError):
            ggc_fold((GF7.one(),), GF7)


class TestGgcComplexity:
    def test_component_golden(self):
        s = seq(GF7, [4, 4, 2, 4, 6, 4, 5])
        res = solve(s, "ggc").result
        assert res.complexity == 7
        assert res.min_poly == poly_pow(Poly.from_ints(GF7, [1, -1]), 7)
        assert res.algorithm == "ggc"

    def test_all_zero_period_49(self):
        res = solve(seq(GF7, [0] * 49), "ggc").result
        assert res.complexity == 0
        assert res.min_poly == Poly.one(GF7)

    def test_impulse_full_complexity(self):
        # gcd(1, 1 - x^7) = 1, so the oracle gives 7 - 0
        s = seq(GF7, [1, 0, 0, 0, 0, 0, 0])
        assert oracle_lincomp(s).complexity == 7
        assert ggc_complexity(s) == 7

    def test_single_element_periods(self):
        assert ggc_complexity(seq(GF7, [5])) == 1
        assert ggc_complexity(seq(GF7, [0])) == 0

    def test_non_prime_power_rejected(self):
        with pytest.raises(NotPrimePowerPeriodError):
            ggc_complexity(seq(GF7, [1] * 21))
        with pytest.raises(AlgorithmInapplicableError):
            solve(seq(GF7, [1] * 21), "ggc")

    def test_exhaustive_gf2_up_to_8(self):
        for n in [1, 2, 4, 8]:
            for s in all_sequences(GF2, n):
                res = solve(s, "ggc").result
                ref = oracle_lincomp(s)
                assert res.complexity == ref.complexity, s.period
                assert res.min_poly == ref.min_poly

    @pytest.mark.parametrize(
        "spec,n,count",
        [(GF7, 7, 40), (GF7, 49, 25), (GF9, 27, 25), (GF13, 13, 25), (GF9, 9, 25)],
    )
    def test_randomized_vs_oracle(self, spec, n, count):
        r = rng(f"ggc-{spec.p}-{spec.m}-{n}")
        for _ in range(count):
            s = random_sequence(spec, n, r)
            res = solve(s, "ggc").result
            ref = oracle_lincomp(s)
            assert res.complexity == ref.complexity
            assert res.min_poly == ref.min_poly

    @pytest.mark.parametrize("spec,n", [(GF2, 8), (GF7, 49), (GF9, 27), (GF13, 169)])
    def test_op_bound(self, spec, n):
        r = rng(f"ggc-bound-{spec.p}-{spec.m}-{n}")
        for _ in range(10):
            s = random_sequence(spec, n, r)
            with OpCounter() as ctr:
                ggc_complexity(s)
            assert ctr.total <= 2 * spec.p ** 2 * n

    def test_level_invariants(self):
        r = rng("ggc-states")
        for _ in range(10):
            s = random_sequence(GF7, 343, r)
            prev_c = -1
            for state in ggc_steps(s):
                assert len(state.values) == 7 ** state.level
                assert state.complexity >= prev_c
                assert state.complexity <= 343 - 7 ** state.level + 1
                prev_c = state.complexity
