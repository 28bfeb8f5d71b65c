from dataclasses import replace

import pytest

from helpers import (
    GF2,
    GF4,
    GF7,
    GF8,
    GF9,
    GF13,
    GF16,
    GF25,
    GF27,
    GF125,
    GF256,
    GF1048573,
    decompose_reference,
    random_sequence,
    rng,
    seq,
)
from lincomp.field import make_field
from lincomp.opcount import OpCounter
from lincomp.poly import Poly, one_minus_x_pow, poly_gcd_normalized, poly_pow, scale_argument
from lincomp.reduction import (
    ALGORITHMS,
    AlgorithmInapplicableError,
    ArityMismatchError,
    Inapplicable,
    PeriodMismatchError,
    ReductionPlan,
    compose,
    decompose,
    plan_reduction,
    solve,
)
from lincomp.sequence import PeriodicSequence, oracle_lincomp, verify_recurrence

N21 = [1, 2, 3, 4, 0, 1, 5, 2, 0, 1, 1, 3, 0, 6, 1, 2, 5, 6, 3, 3, 1]


def digits(component):
    return "".join(str(e.coeffs[0]) for e in component.period)


def assert_pairwise_coprime(plan):
    """The u factors 1 - (b_i^{-1} x)^n of 1 - x^N share no factor."""
    base = one_minus_x_pow(plan.spec, plan.n)
    polys = [scale_argument(base, b.inv()) for b in plan.roots_b]
    one = Poly.one(plan.spec)
    for i in range(plan.u):
        for j in range(i + 1, plan.u):
            assert poly_gcd_normalized(polys[i], polys[j]) == one, (i, j)


class TestPlan:
    def test_gf7_n21(self):
        plan = plan_reduction(GF7, 21)
        assert isinstance(plan, ReductionPlan)
        assert_pairwise_coprime(plan)
        assert (plan.u, plan.n) == (3, 7)
        assert set(plan.roots_x) == {GF7.scalar(1), GF7.scalar(2), GF7.scalar(4)}
        assert set(plan.roots_b) == {GF7.scalar(1), GF7.scalar(2), GF7.scalar(4)}
        assert plan.roots_x[0] == GF7.one() and plan.roots_b[0] == GF7.one()

    def test_gf7_n13_nothing_to_split(self):
        plan = plan_reduction(GF7, 13)
        assert isinstance(plan, Inapplicable)
        assert plan.reason == "u_is_one"

    def test_gf7_n9_multiplicity_too_high(self):
        # v_3(9) = 2 forces u = 9, but 9 does not divide 6
        plan = plan_reduction(GF7, 9)
        assert isinstance(plan, Inapplicable)
        assert plan.reason == "u_not_divisor"

    def test_gf9_n40(self):
        plan = plan_reduction(GF9, 40)
        assert isinstance(plan, ReductionPlan)
        assert_pairwise_coprime(plan)
        assert (plan.u, plan.n) == (8, 5)

    def test_roots_satisfy_their_equations(self):
        for spec, n_period in [(GF7, 21), (GF13, 39), (GF9, 40)]:
            plan = plan_reduction(spec, n_period)
            assert isinstance(plan, ReductionPlan)
            for x, b in zip(plan.roots_x, plan.roots_b):
                assert x ** plan.u == spec.one()
                assert b ** plan.n == x

    def test_roots_x_must_be_roots_of_unity(self):
        # 3 and 5 are not cube roots of unity mod 7; b^7 = b in GF(7), so
        # roots_b = roots_x passes the n-th root check
        roots = tuple(GF7.scalar(v) for v in (1, 3, 5))
        with pytest.raises(ValueError, match="roots of unity"):
            ReductionPlan(GF7, 21, 3, 7, roots, roots)
        plan = plan_reduction(GF7, 21)
        assert ReductionPlan(GF7, 21, 3, 7, plan.roots_x, plan.roots_b) == plan

    def test_plans_are_cached_by_value(self):
        spec_a, spec_b = make_field(7), make_field(7)
        assert spec_a is not spec_b and spec_a == spec_b
        assert plan_reduction(spec_a, 21) is plan_reduction(spec_b, 21)
        assert plan_reduction(spec_a, 13) is plan_reduction(spec_b, 13)
        for _ in range(2):
            with pytest.raises(ValueError):
                plan_reduction(spec_a, 0)


class TestDecompose:
    def test_golden_n21(self):
        s = seq(GF7, N21)
        plan = plan_reduction(GF7, 21)
        comps = decompose(s, plan)
        assert {digits(c) for c in comps} == {"4424645", "4366203", "2622130"}
        # component 0 pairs with b=1: it is the plain block sum
        assert digits(comps[0]) == "4424645"

    def test_all_zero(self):
        plan = plan_reduction(GF7, 21)
        comps = decompose(seq(GF7, [0] * 21), plan)
        assert all(c.is_zero() for c in comps)

    def test_antisymmetric_halves(self):
        # second half negated: component 0 vanishes, component 1 is 2*a_i*b^i
        r = rng("antisym-decompose")
        half = [r.randrange(7) for _ in range(5)]
        s = seq(GF7, half + [(-v) % 7 for v in half])
        plan = plan_reduction(GF7, 10)
        assert isinstance(plan, ReductionPlan) and plan.u == 2
        comps = decompose(s, plan)
        assert comps[0].is_zero()
        b = plan.roots_b[1]
        two = GF7.scalar(2)
        expected = [two * s.period[i] * b ** i for i in range(5)]
        assert list(comps[1].period) == expected

    def test_period_mismatch_rejected(self):
        plan = plan_reduction(GF7, 21)
        with pytest.raises(PeriodMismatchError):
            decompose(seq(GF7, [1] * 20), plan)


# (field, periods N = u*n); each field gets one period with n = 1
KERNEL_CASES = [
    pytest.param(spec, N, id=f"{spec!r}-N{N}")
    for spec, periods in [
        (GF4, (6, 12, 3)),
        (GF7, (21, 42, 10, 6)),
        (GF8, (14, 28, 7)),
        (GF9, (40, 72, 8)),
        (GF13, (39, 156, 12)),
        (GF16, (30, 48, 15)),
        (GF25, (40, 120, 24)),
        (GF27, (78, 117, 26)),
        (GF125, (155, 20, 31)),
        (GF256, (272, 30, 17)),
        (GF1048573, (60, 95, 12)),
    ]
    for N in periods
]


class TestDecomposeKernel:
    """The array kernel against the element-wise reference: identical
    components and identical operation counts."""

    @staticmethod
    def assert_matches_reference(s, plan):
        with OpCounter() as ref_ops:
            expected = decompose_reference(s, plan)
        with OpCounter() as ops:
            got = decompose(s, plan)
        assert got == expected
        u, n, N = plan.u, plan.n, plan.N
        assert ops.total == ref_ops.total == (u - 1) * n + (u - 1) * ((N - 2) + n * (2 * u - 1))

    @pytest.mark.parametrize("spec,N", KERNEL_CASES)
    def test_matches_reference(self, spec, N):
        plan = plan_reduction(spec, N)
        assert isinstance(plan, ReductionPlan)
        r = rng(f"kernel-{spec!r}-{N}")
        top = spec.element([spec.p - 1] * spec.m)
        inputs = [random_sequence(spec, N, r) for _ in range(2)]
        inputs += [PeriodicSequence(spec, (spec.zero(),) * N), PeriodicSequence(spec, (top,) * N)]
        for s in inputs:
            self.assert_matches_reference(s, plan)

    def test_identity_plan_over_gf2(self):
        # q = 1 over GF(2): the only plan has u = 1 and returns the sequence
        one = GF2.one()
        plan = ReductionPlan(GF2, 8, 1, 8, (one,), (one,))
        s = random_sequence(GF2, 8, rng("kernel-gf2"))
        self.assert_matches_reference(s, plan)
        assert decompose(s, plan) == [s]


class TestCompose:
    def test_golden_product(self):
        plan = plan_reduction(GF7, 21)
        m7 = poly_pow(Poly.from_ints(GF7, [1, -1]), 7)
        combined = compose([(m7, 1)] * 3, plan)
        expected = (
            poly_pow(Poly.from_ints(GF7, [1, -1]), 7)
            * poly_pow(Poly.from_ints(GF7, [1, -4]), 7)
            * poly_pow(Poly.from_ints(GF7, [1, -2]), 7)
        )
        assert combined == expected
        # same thing, collapsed by the characteristic-7 identity
        assert combined == one_minus_x_pow(GF7, 21)

    def test_zero_components(self):
        plan = plan_reduction(GF7, 21)
        one = Poly.one(GF7)
        assert compose([(one, 1)] * 3, plan) == one

    def test_u2_single_live_component(self):
        plan = plan_reduction(GF7, 10)
        assert isinstance(plan, ReductionPlan) and plan.u == 2
        m1 = oracle_lincomp(seq(GF7, [3, 1, 4, 1, 5])).min_poly
        combined = compose([(Poly.one(GF7), 1), (m1, 1)], plan)
        assert combined.degree == m1.degree
        assert combined == scale_argument(m1, plan.roots_b[1].inv())

    def test_arity_mismatch(self):
        plan = plan_reduction(GF7, 21)
        with pytest.raises(ArityMismatchError):
            compose([(Poly.one(GF7), 1)], plan)


class TestSolveAuto:
    def test_golden_n21(self):
        report = solve(seq(GF7, N21))
        assert report.result.algorithm == "reduction"
        assert report.result.complexity == 21
        assert all(c.algorithm == "ggc" for c in report.components)
        assert [c.complexity for c in report.components] == [7, 7, 7]
        assert report.ops_total == (
            report.ops_reduction + report.ops_components + report.ops_compose
        )
        assert report.ops_components == sum(c.ops for c in report.components)
        assert report.budget_flags() == []

    def test_direct_ggc_when_period_is_p_power(self):
        r = rng("auto-49")
        s = random_sequence(GF7, 49, r)
        report = solve(s)
        assert report.plan is None
        assert report.result.algorithm == "ggc"
        ref = oracle_lincomp(s)
        assert (report.result.complexity, report.result.min_poly) == (
            ref.complexity,
            ref.min_poly,
        )

    def test_gf13_n39_reduces_to_contraction(self):
        r = rng("auto-39")
        s = random_sequence(GF13, 39, r)
        report = solve(s)
        assert report.plan is not None and (report.plan.u, report.plan.n) == (3, 13)
        assert all(c.algorithm == "ggc" for c in report.components)
        ref = oracle_lincomp(s)
        assert (report.result.complexity, report.result.min_poly) == (
            ref.complexity,
            ref.min_poly,
        )

    def test_bm_fallback(self):
        # N = 13 over GF(7): no split and 13 is not a power of 7
        r = rng("auto-13")
        s = random_sequence(GF7, 13, r)
        report = solve(s)
        assert report.plan is None
        assert report.result.algorithm == "bm"
        ref = oracle_lincomp(s)
        assert (report.result.complexity, report.result.min_poly) == (
            ref.complexity,
            ref.min_poly,
        )

    @pytest.mark.parametrize(
        "spec,n_period,count",
        [(GF7, 21, 12), (GF7, 42, 10), (GF9, 40, 8), (GF13, 39, 8), (GF7, 147, 4)],
    )
    def test_end_to_end_equals_oracle(self, spec, n_period, count):
        r = rng(f"auto-{spec.p}-{spec.m}-{n_period}")
        for _ in range(count):
            s = random_sequence(spec, n_period, r)
            res = solve(s).result
            ref = oracle_lincomp(s)
            assert res.complexity == ref.complexity
            assert res.min_poly == ref.min_poly
            assert verify_recurrence(s, res.min_poly)

    def test_additivity_and_product_form(self):
        for spec, n_period in [(GF7, 21), (GF9, 40), (GF13, 39)]:
            r = rng(f"theorem-{spec.p}-{spec.m}-{n_period}")
            plan = plan_reduction(spec, n_period)
            assert isinstance(plan, ReductionPlan)
            for _ in range(6):
                s = random_sequence(spec, n_period, r)
                comps = decompose(s, plan)
                refs = [oracle_lincomp(c) for c in comps]
                whole = oracle_lincomp(s)
                assert sum(x.complexity for x in refs) == whole.complexity
                prod = Poly.one(spec)
                for x, b in zip(refs, plan.roots_b):
                    prod = prod * scale_argument(x.min_poly, b.inv())
                assert prod == whole.min_poly

    def test_composition_is_permutation_invariant(self):
        r = rng("perm")
        plan = plan_reduction(GF7, 21)
        s = random_sequence(GF7, 21, r)
        comps = decompose(s, plan)
        refs = [oracle_lincomp(c) for c in comps]
        combined = compose([(x.min_poly, 1) for x in refs], plan)
        assert combined == oracle_lincomp(s).min_poly
        for order in [(2, 0, 1), (1, 2, 0), (2, 1, 0)]:
            prod = Poly.one(GF7)
            for j in order:
                prod = prod * scale_argument(refs[j].min_poly, plan.roots_b[j].inv())
            assert prod == combined

    def test_decompose_op_budget(self):
        from lincomp.opcount import OpCounter

        for spec, n_period in [(GF7, 21), (GF7, 42), (GF9, 40), (GF13, 39)]:
            plan = plan_reduction(spec, n_period)
            assert isinstance(plan, ReductionPlan)
            r = rng(f"budget-{spec.p}-{spec.m}-{n_period}")
            for _ in range(5):
                s = random_sequence(spec, n_period, r)
                with OpCounter() as ctr:
                    decompose(s, plan)
                assert ctr.total <= 3 * (plan.u - 1) * n_period


class TestSolve:
    @pytest.mark.parametrize(
        "spec,n_period", [(GF7, 21), (GF7, 49), (GF7, 13), (GF9, 40), (GF13, 39)]
    )
    def test_every_applicable_algorithm_equals_oracle(self, spec, n_period):
        r = rng(f"solve-all-{spec.p}-{spec.m}-{n_period}")
        for _ in range(3):
            s = random_sequence(spec, n_period, r)
            ref = oracle_lincomp(s)
            for alg in ALGORITHMS:
                try:
                    res = solve(s, alg).result
                except AlgorithmInapplicableError:
                    continue
                assert (res.complexity, res.min_poly) == (ref.complexity, ref.min_poly), alg

    def test_inapplicable_algorithms(self):
        with pytest.raises(AlgorithmInapplicableError, match="nothing to split"):
            solve(seq(GF7, [1] * 13), "reduction")
        with pytest.raises(AlgorithmInapplicableError, match="power of the characteristic"):
            solve(seq(GF7, N21), "ggc")
        with pytest.raises(ValueError):
            solve(seq(GF7, N21), "magic")

    @pytest.mark.parametrize("algorithm", ["auto", "ggc", "bm"])
    def test_skipping_assembly_keeps_complexity_and_solver_ops(self, algorithm):
        s = random_sequence(GF7, 49 if algorithm == "ggc" else 21, rng("solve-nopoly"))
        full = solve(s, algorithm)
        bare = solve(s, algorithm, min_poly=False)
        assert bare.complexity == full.complexity
        assert bare.ops_reduction == full.ops_reduction
        assert bare.ops_components == full.ops_components
        assert bare.ops_compose == 0
        assert bare.ops_total == full.ops_reduction + full.ops_components
        if algorithm != "bm":
            assert bare.min_poly is None
            with pytest.raises(ValueError):
                bare.result

    def test_budget_flags(self):
        report = solve(seq(GF7, N21))
        assert report.budget_flags() == []
        over = replace(report, ops_reduction=3 * 2 * 21 + 1)
        assert over.budget_flags() == ["decompose_bound_exceeded"]
        heavy = replace(report.components[0], ops=2 * 49 * 7 + 1)
        over = replace(
            report,
            components=(heavy,) + report.components[1:],
            ops_components=report.ops_components + 2 * 49 * 21,
        )
        assert over.budget_flags() == ["ggc_bound_exceeded", "reduction_ggc_bound_exceeded"]


class TestAntisymmetric:
    def test_shortcut_matches_oracle(self):
        # a period-2n sequence whose second half negates its first halves by
        # the u = 2 split, with b the n-th root of -1
        for spec, n in [(GF7, 5), (GF7, 7), (GF13, 7), (GF13, 5)]:
            r = rng(f"antisym-{spec.p}-{n}")
            for _ in range(10):
                half = [spec.scalar(r.randrange(spec.p)) for _ in range(n)]
                full = half + [-v for v in half]
                s = PeriodicSequence(spec, tuple(full))
                plan = plan_reduction(spec, 2 * n)
                zero, s2 = decompose(s, plan)
                b = plan.roots_b[1]
                assert zero.is_zero()
                assert b ** n == spec.scalar(-1)
                direct = oracle_lincomp(s)
                halved = oracle_lincomp(s2)
                assert direct.complexity == halved.complexity
                assert direct.min_poly == scale_argument(halved.min_poly, b)


class TestAssemblyCost:
    """Assembly stays within 4 u p N operations on the contraction route,
    whatever the component complexities."""

    @staticmethod
    def inputs(h):
        N = 3 * 7 ** h
        r = rng(f"assembly-cost-{h}")
        block = random_sequence(GF7, N // 7, r).period
        yield PeriodicSequence(GF7, block * 7)  # low complexity: every component deficient
        for _ in range(6 if h < 3 else 1):
            yield random_sequence(GF7, N, r)

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_compose_ops_linear(self, h):
        for s in self.inputs(h):
            report = solve(s)
            assert report.plan.u == 3 and report.plan.n == 7 ** h
            assert report.ops_compose <= 4 * 3 * 7 * len(s)
            assert report.min_poly == oracle_lincomp(s).min_poly
