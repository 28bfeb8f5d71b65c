#!/usr/bin/env python3
"""Walk through the period-21 GF(7) demo sequence with the library API.

Solves it with the automatic strategy, shows the reduction trace, and
cross-checks complexity and connection polynomial against the gcd oracle.
"""

from pathlib import Path

from lincomp.cli import parse_sequence_file, render_element, render_poly
from lincomp.reduction import solve
from lincomp.sequence import oracle_lincomp, verify_recurrence

DATA = Path(__file__).resolve().parent.parent / "data" / "gf7_n21.seq"


def main() -> None:
    s = parse_sequence_file(DATA)
    report = solve(s)
    result = report.result
    print(f"period {len(s)} over {s.spec!r}")
    print(f"algorithm: {result.algorithm}")
    if report.plan:
        print(f"split: u={report.plan.u}, n={report.plan.n}")
        for j, (comp, b) in enumerate(zip(report.components, report.plan.roots_b)):
            digits = "".join(str(e.coeffs[0]) for e in comp.sequence.period)
            print(
                f"  component {j}: {digits}  (b={render_element(b)}) -> "
                f"c={comp.complexity}, m_j={render_poly(comp.min_poly)}"
            )
    print(f"complexity: {result.complexity}")
    print(f"min_poly: {render_poly(result.min_poly)}")
    print(
        f"ops: reduction={report.ops_reduction} components={report.ops_components} "
        f"compose={report.ops_compose} total={report.ops_total}"
    )

    ref = oracle_lincomp(s)
    ok = (
        ref.complexity == result.complexity
        and ref.min_poly == result.min_poly
        and verify_recurrence(s, result.min_poly)
    )
    print(f"oracle cross-check: {'ok' if ok else 'MISMATCH'}")


if __name__ == "__main__":
    main()
