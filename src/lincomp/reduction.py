"""Period reduction through roots of unity.

For N = u*n with u | p^m - 1 and gcd(n, p^m - 1) = 1, a period-N sequence
splits into u period-n sequences a^j with a^j_i = sum_k a_{kn+i} * b_j^{kn+i},
where b_j is the unique n-th root of the j-th u-th root of unity.
Complexities add across the components and the connection polynomial is the
product of the component polynomials with arguments scaled by b_j^{-1}.

The decomposition runs as one array kernel and is counted by a fixed scheme:
component 0 by direct summation, one incremental power table per remaining
root, then multiply-accumulate, for at most 3(u-1)N field operations in
total.

solve() is the one place that picks a strategy; the CLI, the bench harness
and the tests all go through it, and it alone counts the operations of each
phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algorithms import _exact_log, berlekamp_massey, ggc_complexity
from .field import (
    FieldElement,
    FieldSpec,
    from_array,
    mul_array,
    nth_root_coprime,
    prime_factors,
    to_array,
    uth_roots_of_unity,
)
from .opcount import OpCounter, tally
from .poly import Poly, poly_pow, product_of_powers, scale_argument
from .sequence import LinCompResult, PeriodicSequence, oracle_lincomp

ALGORITHMS = ("auto", "bm", "ggc", "reduction", "oracle")


class PeriodMismatchError(ValueError):
    pass


class ArityMismatchError(ValueError):
    pass


class AlgorithmInapplicableError(Exception):
    """The requested algorithm's precondition fails for this input."""


@dataclass(frozen=True)
class Inapplicable:
    """Why a period admits no root-of-unity split (a value, not an error)."""

    reason: str  # "u_is_one" or "u_not_divisor"
    detail: str


@dataclass(frozen=True)
class ReductionPlan:
    """A validated factorization N = u*n with its root tables.

    roots_x are the u-th roots of unity in canonical order (roots_x[0] = 1)
    and roots_b[i] is the unique n-th root of roots_x[i].
    """

    spec: FieldSpec
    N: int
    u: int
    n: int
    roots_x: tuple[FieldElement, ...]
    roots_b: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        q = self.spec.order_minus_one
        if self.u < 1 or self.n < 1 or self.N != self.u * self.n:
            raise ValueError("plan requires N = u*n with positive factors")
        if q % self.u != 0:
            raise ValueError(f"u={self.u} must divide {q}")
        if math.gcd(self.n, q) != 1:
            raise ValueError(f"n={self.n} must be coprime to {q}")
        if len(self.roots_x) != self.u or len(self.roots_b) != self.u:
            raise ValueError("need exactly u roots of each kind")
        one = self.spec.one()
        if self.roots_x[0] != one or self.roots_b[0] != one:
            raise ValueError("the first root of each kind must be 1")
        if len(set(self.roots_x)) != self.u or len(set(self.roots_b)) != self.u:
            raise ValueError("roots must be distinct")
        if any(x ** self.u != one for x in self.roots_x):
            raise ValueError(f"roots_x must be {self.u}-th roots of unity")
        for x, b in zip(self.roots_x, self.roots_b):
            if b ** self.n != x:
                raise ValueError("roots_b[i]^n must equal roots_x[i]")


@lru_cache(maxsize=64)
def plan_reduction(spec: FieldSpec, N: int) -> ReductionPlan | Inapplicable:
    """Choose the unique admissible split N = u*n, or explain why none exists.

    Every prime shared between N and q = p^m - 1 must contribute its full
    multiplicity in N to u (otherwise n would not be coprime to q), so u is
    forced. Returns Inapplicable when u = 1 (nothing to split) or when that
    forced u does not divide q.

    Results are cached by value: FieldSpec, ReductionPlan and Inapplicable
    are frozen, and equal specs (one per parsed file) share one plan.
    """
    if N < 1:
        raise ValueError("period must be >= 1")
    q = spec.order_minus_one
    u = 1
    for r in prime_factors(q):
        nn = N
        while nn % r == 0:
            u *= r
            nn //= r
    if u == 1:
        return Inapplicable("u_is_one", f"gcd({N}, {q}) = 1, nothing to split")
    if q % u != 0:
        return Inapplicable(
            "u_not_divisor",
            f"the shared-prime part {u} of N={N} does not divide {q}",
        )
    n = N // u
    roots_x = tuple(uth_roots_of_unity(spec, u))
    roots_b = tuple(nth_root_coprime(spec, x, n) for x in roots_x)
    return ReductionPlan(spec, N, u, n, roots_x, roots_b)


def _root_powers(spec: FieldSpec, b: FieldElement, count: int) -> np.ndarray:
    """b^0, ..., b^(count-1) as a (count, m) coordinate array, by doubling:
    a table of b^0..b^L times b^L is b^L..b^(2L)."""
    table = to_array(spec, [spec.one(), b])
    while len(table) < count:
        table = np.concatenate([table, mul_array(spec, table, table[-1:])[1:]])
    return table[:count]


def decompose(s: PeriodicSequence, plan: ReductionPlan) -> list[PeriodicSequence]:
    """Split a period-N sequence into the plan's u period-n components.

    The kernel works on the (N, m) coordinate array of the period. Component
    0 is the sum of its u blocks of n rows. Every b_j is itself a u-th root
    of unity: b_j = x_j^(n^-1 mod q), so b_j^u = (x_j^u)^(n^-1 mod q) = 1.
    Hence b_j^(kn+i) is looked up, at index (kn+i) mod u, in a table of the
    u powers b_j^0..b_j^(u-1), and component j multiplies the period by the
    looked-up powers and sums the u blocks. Temporaries are O(N m^2), for one
    root at a time.

    Cost contract, unchanged from the element-wise loop it replaces and
    reported in one tally: (u-1)n additions for component 0, then per
    remaining root N-2 multiplications for an incremental power table and
    n(2u-1) for the multiply-accumulate, within the 3(u-1)N budget overall.
    """
    if s.spec != plan.spec or len(s) != plan.N:
        raise PeriodMismatchError(
            f"sequence (period {len(s)}) does not match the plan (period {plan.N})"
        )
    spec = s.spec
    u, n, N, p = plan.u, plan.n, plan.N, spec.p
    vals = to_array(spec, s.period)
    comps = [vals.reshape(u, n, spec.m).sum(0) % p]
    cycle = np.arange(N) % u
    for b in plan.roots_b[1:]:
        terms = mul_array(spec, vals, _root_powers(spec, b, u)[cycle])
        comps.append(terms.reshape(u, n, spec.m).sum(0) % p)
    tally((u - 1) * n + (u - 1) * ((N - 2) + n * (2 * u - 1)))
    return [PeriodicSequence(spec, from_array(spec, c)) for c in comps]


def compose(factors: list[tuple[Poly, int]], plan: ReductionPlan) -> Poly:
    """Connection polynomial of the split sequence from its components':
    the product of f_j(b_j^{-1} x)^(k_j) over the plan's roots, given one
    (f_j, k_j) pair per component.

    Cost: u inversions and the argument scaling of each f_j, then
    product_of_powers. On the contraction route every factor is (1 - x, c_j)
    with c_j <= n = p^h; the stride-t product has degree at most u(p-1) in
    y = x^(p^t) and meets a running product with at most N/p^(t+1) + 1
    nonzero coefficients, so stride t costs about 2(u(p-1) + 1)N/p^(t+1)
    multiplications and additions, plus O((up)^2) for the stride product
    itself and, over GF(p^m) with m > 1, O(m log p) per factor for the
    Frobenius map. The whole assembly is O(u p N) field operations whatever
    the component complexities.
    """
    if len(factors) != plan.u:
        raise ArityMismatchError(f"expected {plan.u} component factors, got {len(factors)}")
    return product_of_powers(
        plan.spec,
        [(scale_argument(f, b.inv()), k) for (f, k), b in zip(factors, plan.roots_b)],
    )


@dataclass(frozen=True)
class ComponentReport:
    """One sequence solved directly: which solver ran, what it found, and
    the operations it spent.

    ops counts the solver's own work; building (1-x)^c after a contraction
    is assembly and counts as compose. min_poly is None when the solve
    skipped assembly and the solver does not produce the polynomial itself.
    """

    sequence: PeriodicSequence
    algorithm: str
    complexity: int
    min_poly: Poly | None
    ops: int


@dataclass(frozen=True)
class SolveReport:
    """Full trace of a solve: the answer, the plan (if the period was split),
    the per-component reports, and the operation counts of the three phases.

    min_poly is None when the solve skipped assembly (min_poly=False), in
    which case ops_compose is 0.
    """

    algorithm: str
    complexity: int
    min_poly: Poly | None
    plan: ReductionPlan | None
    components: tuple[ComponentReport, ...]
    ops_reduction: int
    ops_components: int
    ops_compose: int

    @property
    def result(self) -> LinCompResult:
        """The answer as a LinCompResult; needs the connection polynomial."""
        if self.min_poly is None:
            raise ValueError("solved with min_poly=False: no connection polynomial")
        return LinCompResult(self.complexity, self.min_poly, self.algorithm)

    @property
    def ops_total(self) -> int:
        return self.ops_reduction + self.ops_components + self.ops_compose

    def budget_flags(self) -> list[str]:
        """The paper's cost budgets this solve exceeded; empty when it kept all.

        The split may cost 3(u-1)N, a contraction on period N' 2p^2 N', and
        a split whose components all contract (3(u-1) + 2p^2)N in total.
        Assembly is reporting work on top and no budget covers it.
        """
        p = self.components[0].sequence.spec.p
        flags = []
        split_budget = 0
        if self.plan is not None:
            split_budget = 3 * (self.plan.u - 1) * self.plan.N
            if self.ops_reduction > split_budget:
                flags.append("decompose_bound_exceeded")
        for comp in self.components:
            if comp.algorithm == "ggc" and comp.ops > 2 * p ** 2 * len(comp.sequence):
                flags.append("ggc_bound_exceeded")
        if (
            self.plan is not None
            and all(comp.algorithm == "ggc" for comp in self.components)
            and self.ops_reduction + self.ops_components
            > split_budget + 2 * p ** 2 * self.plan.N
        ):
            flags.append("reduction_ggc_bound_exceeded")
        return flags


def _solve_direct(s: PeriodicSequence, algorithm: str) -> tuple[int, Poly | None]:
    """Complexity of s by one direct solver, plus the connection polynomial
    when that solver produces it (the contraction does not)."""
    if algorithm == "ggc":
        return ggc_complexity(s), None
    if algorithm == "bm":
        res = berlekamp_massey(list(s.period) * 2, s.spec)
    else:
        res = oracle_lincomp(s)
    return res.complexity, res.min_poly


def solve(
    s: PeriodicSequence, algorithm: str = "auto", min_poly: bool = True
) -> SolveReport:
    """Linear complexity of s and, unless min_poly is False, its minimal
    connection polynomial, by one of ALGORITHMS.

    auto reduces when the period splits and solves the whole sequence
    directly otherwise; each sequence it solves directly gets the contraction
    when its period is a power of p and synthesis on two periods otherwise.
    reduction is auto that requires the split, ggc the contraction on the
    whole sequence (period p^h only), bm synthesis and oracle the gcd
    formula. Raises AlgorithmInapplicableError when the requested
    algorithm's precondition fails. Every algorithm gives the gcd oracle's
    complexity and polynomial.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    spec, N = s.spec, len(s)
    plan = None
    route = algorithm
    if algorithm in ("auto", "reduction"):
        plan = plan_reduction(spec, N)
        if isinstance(plan, Inapplicable):
            if algorithm == "reduction":
                raise AlgorithmInapplicableError(
                    f"reduction is not applicable to period {N} over {spec!r}: "
                    f"{plan.detail}"
                )
            plan = None
        n = plan.n if plan is not None else N
        route = "ggc" if _exact_log(n, spec.p) is not None else "bm"
    elif algorithm == "ggc" and _exact_log(N, spec.p) is None:
        raise AlgorithmInapplicableError(
            f"period {N} is not a power of the characteristic {spec.p}"
        )

    with OpCounter() as red:
        parts = decompose(s, plan) if plan is not None else [s]
    solved = []
    for part in parts:
        with OpCounter() as ctr:
            c, poly = _solve_direct(part, route)
        solved.append((part, c, poly, ctr.total))
    polys = [poly for _, _, poly, _ in solved]
    mp = None
    with OpCounter() as asm:
        if min_poly:
            # 1 - x^(p^h) = (1-x)^(p^h) in characteristic p, so the polynomial
            # of a contraction with complexity c is (1-x)^c
            one_minus_x = Poly(spec, [spec.one(), spec.scalar(-1)])
            factors = [
                (poly, 1) if poly is not None else (one_minus_x, c)
                for _, c, poly, _ in solved
            ]
            polys = [poly_pow(f, k) for f, k in factors]
            mp = compose(factors, plan) if plan is not None else polys[0]
    comps = tuple(
        ComponentReport(part, route, c, poly, ops)
        for (part, c, _, ops), poly in zip(solved, polys)
    )
    return SolveReport(
        "reduction" if plan is not None else route,
        sum(comp.complexity for comp in comps),
        mp,
        plan,
        comps,
        red.total,
        sum(comp.ops for comp in comps),
        asm.total,
    )

