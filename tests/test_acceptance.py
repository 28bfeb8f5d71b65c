"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from dataclasses import dataclass
from itertools import product

import pytest

from helpers import GF2, GF3, GF7, GF9, GF13, all_sequences, random_sequence, rng, seq
from lincomp.algorithms import berlekamp_massey
from lincomp.bench import BenchConfig, run_bench
from lincomp.poly import Poly, poly_pow, scale_argument
from lincomp.reduction import (
    ReductionPlan,
    decompose,
    plan_reduction,
    solve,
)
from lincomp.sequence import (
    LinCompResult,
    PeriodicSequence,
    oracle_lincomp,
    verify_recurrence,
)

N21 = [1, 2, 3, 4, 0, 1, 5, 2, 0, 1, 1, 3, 0, 6, 1, 2, 5, 6, 3, 3, 1]


def _passed(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} {name}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: golden period-21 instance over GF(7)


def test_criterion_1_golden_period21():
    s = seq(GF7, N21)
    t0 = time.perf_counter()
    report = solve(s)
    elapsed = time.perf_counter() - t0

    assert report.result.complexity == 21
    expected = (
        poly_pow(Poly.from_ints(GF7, [1, -1]), 7)
        * poly_pow(Poly.from_ints(GF7, [1, -4]), 7)
        * poly_pow(Poly.from_ints(GF7, [1, -2]), 7)
    )
    assert report.result.min_poly == expected

    plan = report.plan
    assert isinstance(plan, ReductionPlan) and (plan.u, plan.n) == (3, 7)
    comps = decompose(s, plan)
    got = {"".join(str(e.coeffs[0]) for e in c.period) for c in comps}
    assert got == {"4424645", "4366203", "2622130"}
    m7 = poly_pow(Poly.from_ints(GF7, [1, -1]), 7)
    for comp in report.components:
        assert comp.complexity == 7
        assert comp.min_poly == m7

    assert elapsed < 1.0, f"solve took {elapsed:.3f}s"
    _passed(1, "golden-period21")


# ---------------------------------------------------------------------------
# criterion 2 (and reuse for 3 and 7): seeded oracle-equivalence corpus


@dataclass
class SolvedInstance:
    name: str
    sequence: PeriodicSequence
    auto_report: object
    bm: LinCompResult
    ggc: LinCompResult | None
    oracle: LinCompResult


CORPUS_CONFIGS = [
    ("gf7-n21", GF7, 21, 50),
    ("gf7-n42", GF7, 42, 50),
    ("gf7-n147", GF7, 147, 40),
    ("gf13-n39", GF13, 39, 50),
    ("gf9-n40", GF9, 40, 50),
    ("gf7-n49", GF7, 49, 50),
]


@pytest.fixture(scope="module")
def corpus():
    instances: list[SolvedInstance] = []
    t0 = time.perf_counter()
    for name, spec, n_period, count in CORPUS_CONFIGS:
        r = rng(f"acceptance2/{name}")
        for i in range(count):
            s = random_sequence(spec, n_period, r)
            instances.append(_solve_instance(f"{name}#{i}", s))
    # GF(2), N = 8: exhaustive over all 256 sequences
    for i, s in enumerate(all_sequences(GF2, 8)):
        instances.append(_solve_instance(f"gf2-n8#{i}", s))
    elapsed = time.perf_counter() - t0
    return instances, elapsed


def _solve_instance(name: str, s: PeriodicSequence) -> SolvedInstance:
    spec = s.spec
    ggc_res = None
    n = len(s)
    p_power = n
    while p_power % spec.p == 0:
        p_power //= spec.p
    if p_power == 1:
        ggc_res = solve(s, "ggc").result
    return SolvedInstance(
        name=name,
        sequence=s,
        auto_report=solve(s),
        bm=berlekamp_massey(list(s.period) * 2, spec),
        ggc=ggc_res,
        oracle=oracle_lincomp(s),
    )


def test_criterion_2_oracle_equivalence(corpus):
    instances, elapsed = corpus
    assert len(instances) >= 500, f"only {len(instances)} instances"
    for inst in instances:
        ref = inst.oracle
        for res in [inst.auto_report.result, inst.bm, inst.ggc]:
            if res is None:
                continue
            assert res.complexity == ref.complexity, inst.name
            assert res.min_poly == ref.min_poly, inst.name
    assert elapsed < 30.0, f"corpus solve took {elapsed:.1f}s"
    _passed(2, f"oracle-equivalence ({len(instances)} instances, {elapsed:.1f}s)")


def test_criterion_3_reduction_identities(corpus):
    instances, _ = corpus
    shuffler = rng("acceptance3/permutations")
    checked = 0
    for inst in instances:
        plan = inst.auto_report.plan
        if plan is None:
            continue
        comps = decompose(inst.sequence, plan)
        refs = [oracle_lincomp(c) for c in comps]
        # additivity of complexities
        assert sum(x.complexity for x in refs) == inst.oracle.complexity, inst.name
        # product form with inverse-root argument scaling
        prod = Poly.one(plan.spec)
        for x, b in zip(refs, plan.roots_b):
            prod = prod * scale_argument(x.min_poly, b.inv())
        assert prod == inst.oracle.min_poly, inst.name
        # permutation invariance of the composition
        order = list(range(plan.u))
        shuffler.shuffle(order)
        shuffled = Poly.one(plan.spec)
        for j in order:
            shuffled = shuffled * scale_argument(refs[j].min_poly, plan.roots_b[j].inv())
        assert shuffled == prod, inst.name
        checked += 1
    assert checked > 0
    _passed(3, f"reduction-identities ({checked} decomposable instances)")


# ---------------------------------------------------------------------------
# criterion 4: antisymmetric halving


def test_criterion_4_antisymmetric_halving():
    cases = [(GF7, 5), (GF7, 7), (GF13, 5), (GF13, 7)]
    total = 0
    for spec, n in cases:
        r = rng(f"acceptance4/{spec.p}/{n}")
        for _ in range(25):
            half = [spec.scalar(r.randrange(spec.p)) for _ in range(n)]
            s = PeriodicSequence(spec, tuple(half + [-v for v in half]))
            # the u = 2 split: component 0 vanishes, component 1 is the half
            plan = plan_reduction(spec, 2 * n)
            zero, s2 = decompose(s, plan)
            b = plan.roots_b[1]
            assert zero.is_zero()
            assert b ** n == spec.scalar(-1)
            direct = oracle_lincomp(s)
            halved = oracle_lincomp(s2)
            assert direct.complexity == halved.complexity
            assert direct.min_poly == scale_argument(halved.min_poly, b)
            total += 1
    assert total == 100
    _passed(4, "antisymmetric-halving (100 instances)")


# ---------------------------------------------------------------------------
# criteria 5 and 6: cost bounds and scaling shape via the bench harness


@pytest.fixture(scope="module")
def bench_result():
    cfg = BenchConfig(
        p=7,
        m=1,
        modulus=None,
        periods=tuple(3 * 7 ** h for h in range(1, 5)),
        trials=2,
        seed=20260809,
        algorithms=("auto", "bm"),
    )
    return run_bench(cfg)


def test_criterion_5_cost_bounds(bench_result):
    rows = [r for r in bench_result["rows"] if r.get("algorithm") == "auto"]
    assert len(rows) == 8  # 4 periods x 2 trials
    p = 7
    for row in rows:
        n_period = row["period"]
        u, n = row["u"], row["n"]
        assert (u, n) == (3, n_period // 3)
        ops = row["ops"]
        assert ops["reduction"] <= 3 * (u - 1) * n_period, row
        for comp_ops in ops["component_list"]:
            assert comp_ops <= 2 * p ** 2 * n, row
        assert ops["total"] <= (3 * (u - 1) + 2 * p ** 2) * n_period, row
        assert row["flags"] == []
        assert row["strategy"] == "reduction+ggc"
    _passed(5, "cost-bounds (8 runs, hard bounds)")


def test_criterion_6_scaling_shape(bench_result):
    p, u = 7, 3
    c_linear = 3 * (u - 1) + 2 * p ** 2  # 104
    auto = {}
    bm = {}
    for row in bench_result["summary"]:
        if row["algorithm"] == "auto":
            auto[row["period"]] = row["mean_ops"]
        elif row["algorithm"] == "bm":
            bm[row["period"]] = row["mean_ops"]
    periods = sorted(auto)
    assert periods == [21, 147, 1029, 7203]
    for n_period in periods:
        assert auto[n_period] <= c_linear * n_period
    # direct synthesis grows quadratically; k = 1/4 holds with a wide margin
    k = 0.25
    for n_period in [1029, 7203]:
        assert bm[n_period] > k * n_period ** 2, (n_period, bm[n_period])
    _passed(
        6,
        "scaling-shape (reduction+ggc <= {}N, bm > {}N^2 at h>=3)".format(c_linear, k),
    )


# ---------------------------------------------------------------------------
# criterion 7: result invariants and exhaustive minimality at tiny sizes


def test_criterion_7_minimality_and_recurrence(corpus):
    instances, _ = corpus
    for inst in instances:
        results = [inst.auto_report.result, inst.bm, inst.oracle]
        if inst.ggc is not None:
            results.append(inst.ggc)
        for res in results:
            assert res.min_poly.degree == res.complexity, inst.name
            assert res.min_poly.constant_term() == inst.sequence.spec.one(), inst.name
        # the polynomials are pairwise equal (criterion 2), so one recurrence
        # check covers every result of this instance
        assert verify_recurrence(inst.sequence, inst.auto_report.result.min_poly)

    # exhaustive minimality at tiny sizes: no shorter recurrence exists
    small = 0
    for spec, max_n in [(GF2, 6), (GF3, 4)]:
        elems = list(spec.elements())
        for n in range(1, max_n + 1):
            for s in all_sequences(spec, n):
                res = oracle_lincomp(s)
                assert res.min_poly.degree == res.complexity
                assert verify_recurrence(s, res.min_poly)
                c = res.complexity
                for tail in product(elems, repeat=c - 1 if c else 0):
                    cand = Poly(spec, (spec.one(),) + tail)
                    if cand.degree < c:
                        assert not verify_recurrence(s, cand), (s.period, cand)
                small += 1
    _passed(7, f"minimality-and-recurrence ({len(instances)} + {small} exhaustive)")
