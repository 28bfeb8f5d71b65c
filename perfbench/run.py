#!/usr/bin/env python3
"""End-to-end benchmark of lincomp's CLI solve path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: lincomp is imported from ./src.
Each solve is one in-process call of lincomp.cli.main(["--input", <file>,
"--json", ...]) on a freshly generated sequence file. It is a closed loop
with a single client, one solve at a time, until the solves have taken
--seconds in total. Every answer is checked against an independent gcd
oracle computed outside the timed calls, and the op counts in the JSON are
checked against the paper's budgets.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced solves over the same kind of inputs; the traced ones give per-layer
spans (see spans.py), and the pair gives the tracing overhead. Field
microbenchmarks through the public FieldElement operators ride along.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the environment and
details. Inputs, details and spans go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
# every run must end within 180 s; the loop stops here whatever it still owes
LOOP_DEADLINE_S = 150.0
SETUP_REPS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    m: int
    modulus: tuple[int, ...] | None  # written into the file header when m > 1
    N: int
    verify: bool
    # solves made even when --seconds is used up: ops_per_symbol is the median
    # over the first ops_window inputs, so it repeats exactly for one seed
    ops_window: int
    # the timing tail: at seed speed at least ten solves lie beyond it
    tail_pct: int
    why: str

    @property
    def q(self) -> int:
        return self.p**self.m


# Sizes keep each run's median inside one mode of a bimodal solve time: an
# input whose components all have full complexity gets a sparse connection
# polynomial and is several times faster than one that does not, and that
# happens with probability ((q-1)/q)^u.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "assemble_gf7", 7, 1, None, 3 * 7**2, False, 60, 99,
            "GF(7), N=3*7^2: connection-polynomial assembly (poly_pow, compose) "
            "is most of a solve; inputs with a deficient component form the tail",
        ),
        Workload(
            "split_gf256", 2, 8, (1, 0, 0, 0, 1, 1, 0, 1, 1), 17 * 2**4, False, 50, 90,
            "GF(2^8), N=17*2^4: decompose with extension-field multiplication "
            "dominates; assembly stays sparse except on 6% of inputs",
        ),
        Workload(
            "nosplit_gf9", 3, 2, (1, 0, 1), 16 * 9, False, 20, 90,
            "GF(9), N=16*9 cannot split (16 does not divide 8), so generic "
            "Berlekamp-Massey runs on the whole period",
        ),
        Workload(
            "verify_gf7", 7, 1, None, 3 * 7**2, True, 100, 95,
            "GF(7), N=3*7^2 with --verify: the gcd oracle and recurrence check "
            "are most of the run",
        ),
    )
}

END_TO_END_UNITS = {
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "symbols_per_s": "1/s",
    "ops_per_symbol": "count",
    "pass_frac": "frac",
    "budget_pass_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

FIELD_ROWS = {"gf7": (7, 1), "gf9": (3, 2), "gf16": (2, 4), "gf125": (5, 3), "gf256": (2, 8)}

# spans (see spans.py) that get a self-time metric "<span>_s"
LAYER_SPANS = (
    "poly.pow", "reduction.plan", "reduction.decompose", "reduction.compose",
    "algorithms.bm", "algorithms.ggc", "sequence.oracle",
    "sequence.verify_recurrence", "cli.parse",
)
OPS_SPANS = ("reduction.decompose", "algorithms.bm", "algorithms.ggc",
             "sequence.oracle", "sequence.verify_recurrence")
RATE_SPANS = ("reduction.decompose", "algorithms.bm")
BUDGET_SPANS = ("reduction.decompose", "algorithms.ggc")


def per_layer_units() -> dict[str, str]:
    units = {f"{n}_s": "s" for n in LAYER_SPANS}
    units.update({f"{n}_ops": "count" for n in OPS_SPANS})
    units.update({f"{n}_ops_per_s": "1/s" for n in RATE_SPANS})
    units.update({f"{n}_budget_frac": "frac" for n in BUDGET_SPANS})
    units["poly.assemble_ops"] = "count"
    units["cli.self_s"] = "s"
    for row in FIELD_ROWS:
        for op in ("mul", "add", "inv"):
            units[f"field.{op}_ns.{row}"] = "ns"
    units["field.ops_per_s"] = "1/s"
    units["trace.overhead_frac"] = "frac"
    units["trace.missing_spans"] = "count"
    return units


class SourceMissing(RuntimeError):
    pass


def import_lincomp():
    """Import lincomp from this checkout's src/, and nowhere else."""
    if not (SRC / "lincomp" / "cli.py").is_file():
        raise SourceMissing(f"no lincomp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lincomp.cli

    if not Path(lincomp.cli.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"lincomp was imported from {lincomp.cli.__file__}, not {SRC}")
    return lincomp.cli


# ---------------------------------------------------------------------------
# checks


def split_of(p: int, m: int, N: int) -> tuple[int, int]:
    """(u, n): u is the part of N made of the primes that divide p^m - 1."""
    rest = p**m - 1
    primes = []
    r = 2
    while r * r <= rest:
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
        r += 1
    if rest > 1:
        primes.append(rest)
    u, n = 1, N
    for r in primes:
        while n % r == 0:
            u, n = u * r, n // r
    return u, n


def _is_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def budget_breaches(w: Workload, ops: dict) -> list[str]:
    """The paper's cost bounds, derived from N and p^m - 1 alone.

    They apply when N = u*p^h with u = 1 or u | p^m - 1: the split costs at
    most 3(u-1)N, the contractions at most 2p^2 N, and both together at most
    (3(u-1) + 2p^2) N field operations.
    """
    u, n = split_of(w.p, w.m, w.N)
    if (u > 1 and (w.p**w.m - 1) % u) or not _is_power(n, w.p):
        return []
    limits = {
        "reduction": 3 * (u - 1) * w.N,
        "components": 2 * w.p**2 * w.N,
    }
    out = [f"ops.{k}={ops[k]} > {lim}" for k, lim in limits.items() if ops[k] > lim]
    both = ops["reduction"] + ops["components"]
    if both > sum(limits.values()):
        out.append(f"ops.reduction+components={both} > {sum(limits.values())}")
    return out


def to_ints(poly_coords, p: int) -> list[int]:
    return [sum(c * p**i for i, c in enumerate(coords)) for coords in poly_coords]


def check_report(w: Workload, code, stdout: str, ref: tuple[int, list[int]]) -> tuple[str | None, dict | None]:
    """(failure reason or None, parsed report or None) for one solve."""
    if code != 0:
        return f"exit code {code}", None
    try:
        rep = json.loads(stdout)
        complexity = rep["complexity"]
        poly = to_ints(rep["min_poly_expanded"], w.p)
        ops = {k: int(rep["ops"][k]) for k in ("reduction", "components", "compose", "total")}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable report: {exc!r}", None
    rep["ops"] = ops
    if complexity != ref[0]:
        return f"complexity {complexity} != {ref[0]}", rep
    if poly != ref[1]:
        return "min_poly_expanded differs from the oracle", rep
    if w.verify and rep.get("verified") is not True:
        return f"verified = {rep.get('verified')!r}", rep
    return None, rep


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Solve:
    index: int
    seconds: float
    traced: bool
    failure: str | None
    breaches: list[str]
    ops: dict | None


def run_loop(cli, w: Workload, seed: int, seconds: float, deadline: float, tracer=None) -> list[Solve]:
    """Solve fresh inputs one at a time until they have taken `seconds`.

    With a tracer, every second solve is traced.
    """
    from gen import input_stream, write_sequence_file
    from refgf import TableField, gcd_oracle

    field = TableField(w.p, w.m, w.modulus)
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{w.name}-{seed}-{os.getpid()}.seq"
    argv = ["--input", str(path), "--json"] + (["--verify"] if w.verify else [])
    stream = input_stream(w.name, seed, w.q, w.N)
    solves: list[Solve] = []
    busy = 0.0
    while len(solves) < w.ops_window or busy < seconds:
        if perf_counter() > deadline:
            break
        i = len(solves)
        values = next(stream)
        write_sequence_file(path, w.p, w.m, w.modulus, values, f"{w.name} seed={seed} input={i}")
        ref = gcd_oracle(field, values)
        traced = tracer is not None and i % 2 == 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.installed() if traced else contextlib.nullcontext():
                with tracer.span("solve", i) if traced else contextlib.nullcontext():
                    t0 = perf_counter()
                    try:
                        code = cli.main(argv)
                    except Exception:  # a traceback is a failed solve
                        code = "exception " + traceback.format_exc(limit=-3)
                    elapsed = perf_counter() - t0
        busy += elapsed
        failure, rep = check_report(w, code, out.getvalue(), ref)
        if failure and err.getvalue():
            failure += ": " + err.getvalue().strip().splitlines()[-1]
        ops = rep["ops"] if rep else None
        breaches = budget_breaches(w, ops) if ops else []
        solves.append(Solve(i, elapsed, traced, failure, breaches, ops))
    path.unlink(missing_ok=True)
    return solves


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def measure_setup(w: Workload, reps: int = SETUP_REPS) -> list[float]:
    """Fresh interpreter: import lincomp.cli, build the field and first plan."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import lincomp.cli\n"
        "from lincomp.field import make_field\n"
        "from lincomp.reduction import plan_reduction\n"
        f"plan_reduction(make_field({w.p}, {w.m}, {w.modulus!r}), {w.N})\n"
    )
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
        times.append(perf_counter() - t0)
    return times


def end_to_end(w: Workload, solves: list[Solve], setup: list[float]) -> tuple[dict, dict]:
    times = [s.seconds for s in solves]
    window = [s for s in solves[: w.ops_window] if s.ops]
    tail = nearest_rank(times, w.tail_pct)
    failed = sum(1 for s in solves if s.failure)
    violations = sum(1 for s in solves if s.breaches)
    values = {
        "solve_p50_s": statistics.median(times),
        "solve_tail_s": tail,
        "symbols_per_s": w.N * len(solves) / sum(times),
        "ops_per_symbol": statistics.median(s.ops["total"] / w.N for s in window) if window else 0.0,
        "pass_frac": 1 - failed / len(solves),
        "budget_pass_frac": 1 - violations / len(solves),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "solves": len(solves),
        "tail_pct": w.tail_pct,
        "solves_beyond_tail": sum(1 for t in times if t > tail),
        "ops_window": len(window),
        "failed": failed,
        "budget_violations": violations,
        "setup_samples_s": setup,
    }
    return values, details


def field_microbench(seed: int, n: int = 2000, reps: int = 5) -> dict[str, float]:
    """ns per operation through FieldElement's public operators."""
    from lincomp.field import make_field

    rng = random.Random(f"perfbench/field/{seed}")
    out = {}
    for row, (p, m) in FIELD_ROWS.items():
        spec = make_field(p, m)
        nonzero = [spec.element([rng.randrange(p) for _ in range(m)]) for _ in range(3 * n)]
        nonzero = [e for e in nonzero if not e.is_zero()][: 2 * n]
        a, b = nonzero[:n], nonzero[n:]
        loops = {
            "mul": lambda: [x * y for x, y in zip(a, b)],
            "add": lambda: [x + y for x, y in zip(a, b)],
            "inv": lambda: [x.inv() for x in a],
        }
        for op, loop in loops.items():
            samples = []
            for _ in range(reps):
                t0 = perf_counter()
                loop()
                samples.append((perf_counter() - t0) / len(a) * 1e9)
            out[f"field.{op}_ns.{row}"] = statistics.median(samples)
    return out


def per_layer(tracer, solves: list[Solve], field_ns: dict) -> tuple[dict, dict]:
    traced = [s for s in solves if s.traced]
    plain = [s for s in solves if not s.traced]
    count = max(1, len(traced))
    selfs = tracer.self_seconds()
    by_name: dict[str, list[tuple]] = {}
    for span, self_s in zip(tracer.spans, selfs):
        by_name.setdefault(span.name, []).append((span, self_s))

    def total(name, key):
        return sum(key(span, self_s) for span, self_s in by_name.get(name, ()))

    values = {}
    for name in LAYER_SPANS:
        values[f"{name}_s"] = total(name, lambda s, self_s: self_s) / count
    for name in OPS_SPANS:
        values[f"{name}_ops"] = total(name, lambda s, _: s.ops) / count
    for name in RATE_SPANS:
        secs = total(name, lambda s, _: s.seconds)
        values[f"{name}_ops_per_s"] = total(name, lambda s, _: s.ops) / secs if secs else 0.0
    for name in BUDGET_SPANS:
        fracs = [s.ops / s.budget for s, _ in by_name.get(name, ()) if s.budget]
        values[f"{name}_budget_frac"] = max(fracs, default=0.0)
    values["poly.assemble_ops"] = sum(s.ops["compose"] for s in traced if s.ops) / count
    values["cli.self_s"] = total("solve", lambda s, self_s: self_s) / count
    values.update(field_ns)
    solve_secs = total("solve", lambda s, _: s.seconds)
    values["field.ops_per_s"] = total("solve", lambda s, _: s.ops) / solve_secs if solve_secs else 0.0
    if traced and plain:
        values["trace.overhead_frac"] = (
            statistics.median(s.seconds for s in traced)
            / statistics.median(s.seconds for s in plain) - 1
        )
    else:
        values["trace.overhead_frac"] = 0.0
    values["trace.missing_spans"] = len(tracer.missing)
    details = {
        "traced_solves": len(traced),
        "untraced_solves": len(plain),
        "missing_spans": sorted(tracer.missing),
        "span_counts": {name: len(v) for name, v in sorted(by_name.items())},
    }
    return values, details


# ---------------------------------------------------------------------------
# environment and output


def environment() -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "lincomp").rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        cli = import_lincomp()
    except (SourceMissing, ImportError) as exc:
        print(f"perfbench: cannot load lincomp: {exc}", file=sys.stderr)
        return 2
    try:
        setup = measure_setup(w) if not args.trace else []
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    deadline = started + LOOP_DEADLINE_S
    solves = run_loop(cli, w, args.seed, args.seconds, deadline, tracer)
    if args.trace:
        metrics, details = per_layer(tracer, solves, field_microbench(args.seed))
        units = per_layer_units()
    else:
        metrics, details = end_to_end(w, solves, setup)
        units = END_TO_END_UNITS
    failed = sum(1 for s in solves if s.failure or s.breaches)
    details.update({
        "workload": w.name, "N": w.N, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": perf_counter() - started,
        "failures": [f"input {s.index}: {s.failure}" for s in solves if s.failure][:5],
        "breaches": [f"input {s.index}: {b}" for s in solves for b in s.breaches][:5],
        "env": environment(),
    })
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"details-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        (WORK / f"spans-{tag}.json").write_text(json.dumps([vars(s) for s in tracer.spans]) + "\n")
    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.6g} {units[name]}")
    print("details " + json.dumps(details, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
