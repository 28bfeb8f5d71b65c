"""Command-line front end.

Solve mode ingests a sequence file, runs the selected solver, optionally
verifies the result against the gcd oracle, and emits a text or JSON report.
Bench mode runs the cost harness from a JSON config.

Sequence file format (UTF-8 text): the first non-comment line is a header
``p=<int> m=<int> [mod=<c0,c1,...,cm>]``, each key at most once; the
remaining whitespace-separated tokens are elements. An element is a single
integer in [0, p) when m = 1, otherwise m comma-separated integers
(low-degree coordinate first). A ``#`` starts a comment to the end of the
line.

Exit codes: 0 ok (and verified when requested), 1 verification mismatch,
2 usage or parse error, 3 selected algorithm not applicable to the input,
141 standard output closed before the report was written (the shell's
code for SIGPIPE; the rest of the output is dropped).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import TextIO

from .bench import BadConfigError, bench_config_from_dict, render_bench_table, run_bench
from .field import FieldElement, FieldError, FieldSpec, make_field
from .poly import Poly
from .reduction import ALGORITHMS, AlgorithmInapplicableError, SolveReport, solve
from .sequence import PeriodicSequence, oracle_lincomp, verify_recurrence

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INAPPLICABLE = 3
EXIT_BROKEN_PIPE = 141


class SequenceFileError(ValueError):
    """Problem in a sequence file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BadHeaderError(SequenceFileError):
    pass


class SequenceSyntaxError(SequenceFileError):
    pass


class ElementOutOfRangeError(SequenceFileError):
    pass


# ---------------------------------------------------------------------------
# sequence files


def parse_field_header(text: str, line_no: int = 1) -> FieldSpec:
    """Parse ``p=<int> m=<int> [mod=<c0,...,cm>]`` into a field; a repeated
    key is a BadHeaderError."""
    p = m = None
    modulus = None
    tokens = text.split()
    if not tokens:
        raise BadHeaderError(line_no, "empty header")
    seen = set()
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep:
            raise BadHeaderError(line_no, f"expected key=value, got {tok!r}")
        if key in seen:
            raise BadHeaderError(line_no, f"header key {key!r} given twice")
        seen.add(key)
        try:
            if key == "p":
                p = int(value)
            elif key == "m":
                m = int(value)
            elif key == "mod":
                modulus = tuple(int(c) for c in value.split(","))
            else:
                raise BadHeaderError(line_no, f"unknown header key {key!r}")
        except ValueError as exc:
            raise BadHeaderError(line_no, f"bad value in {tok!r}: {exc}") from exc
    if p is None or m is None:
        raise BadHeaderError(line_no, "header must set both p and m")
    try:
        return make_field(p, m, modulus)
    except FieldError as exc:
        raise BadHeaderError(line_no, str(exc)) from exc


def _parse_element(spec: FieldSpec, token: str, line_no: int) -> FieldElement:
    parts = token.split(",") if spec.m > 1 else [token]
    if len(parts) != spec.m:
        raise SequenceSyntaxError(
            line_no, f"element {token!r} needs exactly {spec.m} coordinates"
        )
    coords = []
    for part in parts:
        try:
            v = int(part)
        except ValueError as exc:
            raise SequenceSyntaxError(line_no, f"bad element token {token!r}") from exc
        if not 0 <= v < spec.p:
            raise ElementOutOfRangeError(
                line_no, f"coordinate {v} out of range [0, {spec.p})"
            )
        coords.append(v)
    return spec.element(coords)


def parse_sequence_file(source) -> PeriodicSequence:
    """Read a sequence file from a path, '-' (stdin) or a text stream."""
    if hasattr(source, "read"):
        stream: TextIO = source
        lines = stream.read().splitlines()
    elif source == "-":
        lines = sys.stdin.buffer.read().decode("utf-8").splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    spec = None
    elements: list[FieldElement] = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if spec is None:
            spec = parse_field_header(text, line_no)
            continue
        for token in text.split():
            elements.append(_parse_element(spec, token, line_no))
    if spec is None:
        raise BadHeaderError(len(lines) + 1, "missing header line")
    if not elements:
        raise SequenceSyntaxError(len(lines) + 1, "no sequence elements found")
    return PeriodicSequence(spec, tuple(elements))


# ---------------------------------------------------------------------------
# polynomial rendering (the CLI's textual format)


def render_element(e: FieldElement) -> str:
    if e.spec.m == 1:
        return str(e.coeffs[0])
    return "(" + ",".join(map(str, e.coeffs)) + ")"


def render_poly(f: Poly) -> str:
    """Low-to-high terms, zero coefficients skipped, e.g. ``1 + 6*x^21``."""
    if f.is_zero():
        return "0"
    terms = []
    for i, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        base = render_element(c)
        if i == 0:
            terms.append(base)
        elif i == 1:
            terms.append(f"{base}*x")
        else:
            terms.append(f"{base}*x^{i}")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# solve


def _element_coords(e: FieldElement) -> list[int]:
    return list(e.coeffs)


def _poly_coords(f: Poly) -> list[list[int]]:
    return [list(c.coeffs) for c in f.coeffs]


def _factored_entries(report: SolveReport) -> list[dict]:
    if report.plan is not None:
        return [
            {
                "factor_coeffs": _poly_coords(comp.min_poly),
                "scale_b": _element_coords(b),
            }
            for comp, b in zip(report.components, report.plan.roots_b)
        ]
    one = report.min_poly.spec.one()
    return [
        {
            "factor_coeffs": _poly_coords(report.min_poly),
            "scale_b": _element_coords(one),
        }
    ]


def build_solve_report_dict(
    input_name: str,
    s: PeriodicSequence,
    report: SolveReport,
    verified: bool | None,
    wall_time_s: float,
) -> dict:
    spec = s.spec
    out = {
        "input": input_name,
        "field": {"p": spec.p, "m": spec.m, "modulus": list(spec.modulus)},
        "period": len(s),
        "algorithm": report.algorithm,
        "complexity": report.complexity,
        "min_poly_expanded": _poly_coords(report.min_poly),
        "min_poly_factored": _factored_entries(report),
        "ops": {
            "reduction": report.ops_reduction,
            "components": report.ops_components,
            "compose": report.ops_compose,
            "total": report.ops_total,
        },
        "wall_time_s": wall_time_s,
    }
    if verified is not None:
        out["verified"] = verified
    return out


def _render_solve_text(report_dict: dict, report: SolveReport) -> str:
    fld = report_dict["field"]
    lines = [
        f"input: {report_dict['input']}",
        f"field: GF({fld['p']}^{fld['m']}), modulus coefficients {fld['modulus']}",
        f"period: {report_dict['period']}",
        f"algorithm: {report_dict['algorithm']}",
        f"complexity: {report_dict['complexity']}",
        f"min_poly: {render_poly(report.min_poly)}",
    ]
    if report.plan is not None:
        lines.append(f"reduction: u={report.plan.u}, n={report.plan.n}")
        for j, (comp, b) in enumerate(zip(report.components, report.plan.roots_b)):
            lines.append(
                f"  component {j}: {comp.algorithm}, c={comp.complexity}, "
                f"scale_b={render_element(b)}, m_j={render_poly(comp.min_poly)}"
            )
    ops = report_dict["ops"]
    lines.append(
        "ops: reduction={reduction} components={components} compose={compose} "
        "total={total}".format(**ops)
    )
    if "verified" in report_dict:
        lines.append(
            "verified: ok" if report_dict["verified"] else "verified: MISMATCH"
        )
    lines.append(f"wall_time_s: {report_dict['wall_time_s']:.6f}")
    return "\n".join(lines)


def _run_solve(args) -> int:
    try:
        s = parse_sequence_file(args.input)
    except SequenceFileError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        print(f"error: {args.input} is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.field:
        try:
            expected = parse_field_header(args.field)
        except SequenceFileError as exc:
            print(f"error: bad --field value: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if expected != s.spec:
            print(
                f"error: --field {args.field!r} does not match the file header "
                f"({s.spec!r})",
                file=sys.stderr,
            )
            return EXIT_USAGE
    t0 = time.perf_counter()
    try:
        report = solve(s, args.algorithm)
    except AlgorithmInapplicableError as exc:
        print(f"error: algorithm {args.algorithm!r} not applicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    wall = time.perf_counter() - t0
    verified: bool | None = None
    if args.verify:
        ref = oracle_lincomp(s)
        verified = (
            report.complexity == ref.complexity
            and report.min_poly == ref.min_poly
            and verify_recurrence(s, report.min_poly)
        )
    report_dict = build_solve_report_dict(str(args.input), s, report, verified, wall)
    if args.json:
        print(json.dumps(report_dict, sort_keys=True))
    else:
        print(_render_solve_text(report_dict, report))
    if verified is False:
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _run_bench(args) -> int:
    try:
        with open(args.bench, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.bench}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        print(f"error: {args.bench} is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: {args.bench} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        data = dict(data)
        data["seed"] = args.seed
    try:
        cfg = bench_config_from_dict(data)
    except BadConfigError as exc:
        print(f"error: bad bench config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = run_bench(cfg)
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print(render_bench_table(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lincomp",
        description=(
            "Linear complexity and minimal connection polynomial of a periodic "
            "sequence over GF(p^m)."
        ),
    )
    parser.add_argument("--input", help="sequence file ('-' for stdin)")
    parser.add_argument(
        "--field",
        help="optional field cross-check, same syntax as the file header "
        "(e.g. 'p=7 m=1')",
    )
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="auto",
        help="solver to run (default: auto)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the result against the gcd oracle and the recurrence",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=int, default=None, help="bench seed override")
    parser.add_argument("--bench", help="run the benchmark harness from this config file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not args.bench and not args.input:
        parser.print_usage(sys.stderr)
        print("error: --input (or --bench) is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = _run_bench(args) if args.bench else _run_solve(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered, and the flush at
        # exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
