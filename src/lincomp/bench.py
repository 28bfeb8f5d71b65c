"""Cost-claim benchmark harness.

Generates seeded random sequences, runs the requested solvers on identical
inputs, and records per-phase field-operation counts plus wall time. Runs of
the reduction + contraction path are checked against the linear budgets:
decompose within 3(u-1)N, each contraction within 2 p^2 N', and their sum
within (3(u-1) + 2p^2) N. Violations are flagged per row, never silently
dropped.

Bench rows come from the same solve() as the CLI, run with min_poly=False:
they measure complexity determination only (no connection-polynomial
reconstruction), which is what the linear budgets cover.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from statistics import mean

from .field import FieldSpec, make_field
from .reduction import ALGORITHMS, AlgorithmInapplicableError, SolveReport, solve
from .sequence import PeriodicSequence


class BadConfigError(ValueError):
    pass


@dataclass(frozen=True)
class BenchConfig:
    p: int
    m: int
    modulus: tuple[int, ...] | None
    periods: tuple[int, ...]
    trials: int
    seed: int
    algorithms: tuple[str, ...]


def bench_config_from_dict(data: dict) -> BenchConfig:
    """Validate a config mapping: field, period family or list, trials, seed."""
    if not isinstance(data, dict):
        raise BadConfigError("config must be a JSON object")
    try:
        fld = data["field"]
        p = int(fld["p"])
        m = int(fld.get("m", 1))
        modulus = fld.get("mod")
        if modulus is not None:
            modulus = tuple(int(c) for c in modulus)
        make_field(p, m, modulus)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadConfigError(f"bad or missing 'field': {exc}") from exc
    if "periods" in data:
        try:
            periods = tuple(int(n) for n in data["periods"])
        except (TypeError, ValueError) as exc:
            raise BadConfigError(f"bad periods list: {exc}") from exc
    elif "family" in data:
        fam = data["family"]
        try:
            coeff = int(fam["coeff"])
            base = int(fam["base"])
            h_min = int(fam["h_min"])
            h_max = int(fam["h_max"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BadConfigError(f"bad period family: {exc}") from exc
        if h_min < 0 or h_max < h_min:
            raise BadConfigError("family needs 0 <= h_min <= h_max")
        periods = tuple(coeff * base ** h for h in range(h_min, h_max + 1))
    else:
        raise BadConfigError("config needs either 'periods' or 'family'")
    if not periods or any(n < 1 for n in periods):
        raise BadConfigError("periods must be positive")
    trials = _config_int(data, "trials", 1)
    if trials < 1:
        raise BadConfigError("trials must be >= 1")
    seed = _config_int(data, "seed", 0)
    algorithms = data.get("algorithms", ["auto"])
    if not isinstance(algorithms, list):
        raise BadConfigError("'algorithms' must be a list of algorithm names")
    if not algorithms:
        raise BadConfigError("algorithms must be nonempty")
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise BadConfigError(f"unknown algorithm {alg!r} in 'algorithms'")
    return BenchConfig(p, m, modulus, periods, trials, seed, tuple(algorithms))


def _config_int(data: dict, key: str, default: int) -> int:
    try:
        return int(data.get(key, default))
    except (TypeError, ValueError) as exc:
        raise BadConfigError(f"bad {key!r}: {exc}") from exc


def random_sequence(spec: FieldSpec, n: int, rng: random.Random) -> PeriodicSequence:
    """Uniform random period-n sequence over spec."""
    p, m = spec.p, spec.m
    if m == 1:
        elems = tuple(spec.scalar(rng.randrange(p)) for _ in range(n))
    else:
        elems = tuple(
            spec.element([rng.randrange(p) for _ in range(m)]) for _ in range(n)
        )
    return PeriodicSequence(spec, elems)


def _rng_for(seed: int, spec: FieldSpec, n: int, trial: int) -> random.Random:
    return random.Random(f"{seed}/{spec.p}^{spec.m}/{n}/{trial}")


def _bench_row(report: SolveReport) -> dict:
    """Strategy, complexity, per-phase op counts and budget flags of a solve."""
    row = {
        "strategy": (
            f"reduction+{report.components[0].algorithm}"
            if report.plan is not None
            else report.algorithm
        ),
        "complexity": report.complexity,
        "ops": {
            "reduction": report.ops_reduction,
            "components": report.ops_components,
            "component_list": [comp.ops for comp in report.components],
            "total": report.ops_total,
        },
        "flags": report.budget_flags(),
    }
    if report.plan is not None:
        row.update(u=report.plan.u, n=report.plan.n)
    return row


def run_bench(cfg: BenchConfig) -> dict:
    """Run the configured trials and return rows plus per-(N, algorithm)
    aggregates; all counts are deterministic for a given config."""
    spec = make_field(cfg.p, cfg.m, cfg.modulus)
    rows: list[dict] = []
    for n_period in cfg.periods:
        for trial in range(cfg.trials):
            s = random_sequence(spec, n_period, _rng_for(cfg.seed, spec, n_period, trial))
            trial_complexities: dict[str, int] = {}
            for alg in cfg.algorithms:
                t0 = time.perf_counter()
                try:
                    report = solve(s, alg, min_poly=False)
                except AlgorithmInapplicableError as exc:
                    rows.append(
                        {"period": n_period, "trial": trial, "algorithm": alg,
                         "skipped": str(exc)}
                    )
                    continue
                wall = time.perf_counter() - t0
                row = _bench_row(report)
                row.update({"period": n_period, "trial": trial, "algorithm": alg,
                            "wall_time_s": wall})
                trial_complexities[alg] = row["complexity"]
                rows.append(row)
            if len(set(trial_complexities.values())) > 1:
                for row in rows:
                    if row.get("period") == n_period and row.get("trial") == trial \
                            and "complexity" in row:
                        row.setdefault("flags", []).append("complexity_mismatch")
    summary = _summarize(rows)
    return {
        "config": {
            "field": {"p": cfg.p, "m": cfg.m, "modulus": list(spec.modulus)},
            "periods": list(cfg.periods),
            "trials": cfg.trials,
            "seed": cfg.seed,
            "algorithms": list(cfg.algorithms),
        },
        "rows": rows,
        "summary": summary,
    }


def _summarize(rows: list[dict]) -> list[dict]:
    groups: dict[tuple[int, str], list[dict]] = {}
    for row in rows:
        if "skipped" in row:
            continue
        groups.setdefault((row["period"], row["algorithm"]), []).append(row)
    out = []
    for (n_period, alg), grp in sorted(groups.items()):
        ops = [r["ops"]["total"] for r in grp]
        flags = sorted({f for r in grp for f in r.get("flags", [])})
        out.append(
            {
                "period": n_period,
                "algorithm": alg,
                "trials": len(grp),
                "mean_ops": mean(ops),
                "ops_per_n": mean(ops) / n_period,
                "ops_per_n2": mean(ops) / n_period ** 2,
                "mean_wall_s": mean(r["wall_time_s"] for r in grp),
                "flags": flags,
            }
        )
    return out


def render_bench_table(result: dict) -> str:
    """Human-readable summary table."""
    lines = []
    cfg = result["config"]
    fld = cfg["field"]
    lines.append(
        f"field GF({fld['p']}^{fld['m']}), trials={cfg['trials']}, seed={cfg['seed']}"
    )
    header = f"{'N':>8} {'algorithm':<14} {'mean ops':>12} {'ops/N':>10} {'ops/N^2':>10} {'wall (s)':>10} flags"
    lines.append(header)
    lines.append("-" * len(header))
    for row in result["summary"]:
        lines.append(
            f"{row['period']:>8} {row['algorithm']:<14} {row['mean_ops']:>12.1f} "
            f"{row['ops_per_n']:>10.2f} {row['ops_per_n2']:>10.4f} "
            f"{row['mean_wall_s']:>10.4f} {','.join(row['flags']) or '-'}"
        )
    skipped = [r for r in result["rows"] if "skipped" in r]
    if skipped:
        noted = sorted({(r["period"], r["algorithm"], r["skipped"]) for r in skipped})
        for n_period, alg, why in noted:
            lines.append(f"note: {alg} skipped at N={n_period}: {why}")
    return "\n".join(lines)
