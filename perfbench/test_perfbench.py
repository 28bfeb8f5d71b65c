"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from gen import input_stream, write_sequence_file  # noqa: E402
from refgf import TableField, gcd_oracle  # noqa: E402

cli = run.import_lincomp()

# GF(7), N = 3*7: splits as u=3, n=7, so every budget applies
TINY = run.Workload("tiny_gf7", 7, 1, None, 21, True, 6, 50, "self-test")


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)


def loop(tracer=None):
    return run.run_loop(cli, TINY, 3, 0.0, perf_counter() + 60, tracer)


def test_generator_is_deterministic_per_seed(tmp_path):
    def first(seed, k=3):
        stream = input_stream("split_gf256", seed, 256, 40)
        return [next(stream) for _ in range(k)]

    assert first(5) == first(5)
    assert first(5) != first(6)
    a, b = tmp_path / "a.seq", tmp_path / "b.seq"
    for path in (a, b):
        write_sequence_file(path, 2, 8, (1, 0, 0, 0, 1, 1, 0, 1, 1), first(5)[0])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "p,m,modulus,N",
    [(7, 1, None, 21), (3, 2, (1, 0, 1), 24), (2, 8, (1, 0, 0, 0, 1, 1, 0, 1, 1), 34),
     (2, 4, (1, 0, 0, 1, 1), 30), (5, 3, (1, 0, 1, 1), 20)],
)
def test_reference_oracle_agrees_with_lincomp(p, m, modulus, N):
    from lincomp.field import make_field
    from lincomp.sequence import PeriodicSequence, oracle_lincomp

    field, spec = TableField(p, m, modulus), make_field(p, m, modulus)
    rng = random.Random(N)
    for trial in range(12):
        values = [rng.randrange(p**m) if trial % 3 else rng.randrange(2) for _ in range(N)]
        if trial == 0:
            values = [0] * N
        seq = PeriodicSequence.from_coords(spec, [[(v // p**i) % p for i in range(m)] for v in values])
        ref = oracle_lincomp(seq)
        want = run.to_ints([list(c.coeffs) for c in ref.min_poly.coeffs], p)
        assert gcd_oracle(field, values) == (ref.complexity, want)


def test_seed_code_passes_and_ops_repeat():
    first, second = loop(), loop()
    assert [s.failure for s in first] == [None] * TINY.ops_window
    assert not any(s.breaches for s in first)
    values, details = run.end_to_end(TINY, first, [0.1])
    assert values["pass_frac"] == 1 and values["budget_pass_frac"] == 1
    assert values["ops_per_symbol"] == run.end_to_end(TINY, second, [0.1])[0]["ops_per_symbol"]


def test_wrong_answer_counts_as_failed(monkeypatch):
    original = cli.build_solve_report_dict

    def wrong(*args, **kwargs):
        out = original(*args, **kwargs)
        out["complexity"] += 1
        return out

    monkeypatch.setattr(cli, "build_solve_report_dict", wrong)
    solves = loop()
    values, details = run.end_to_end(TINY, solves, [0.1])
    assert details["failed"] == len(solves)
    assert values["pass_frac"] == 0


def test_inflated_op_count_trips_budget(monkeypatch):
    original = cli.build_solve_report_dict

    def inflated(*args, **kwargs):
        out = original(*args, **kwargs)
        out["ops"]["reduction"] += 3 * 2 * TINY.N + 1
        return out

    monkeypatch.setattr(cli, "build_solve_report_dict", inflated)
    solves = loop()
    values, details = run.end_to_end(TINY, solves, [0.1])
    assert details["budget_violations"] == len(solves)
    assert values["budget_pass_frac"] == 0
    assert all("ops.reduction=" in s.breaches[0] for s in solves)


def test_traced_run_records_layers_without_changing_counts(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("lincomp.poly", "gone", "poly.gone", None),))
    tracer = spans.Tracer()
    traced = loop(tracer=tracer)
    plain = loop()
    assert [s.ops for s in traced] == [s.ops for s in plain]
    assert all(s.failure is None for s in traced)
    names = {s.name for s in tracer.spans}
    assert {"solve", "cli.parse", "reduction.plan", "reduction.decompose", "reduction.compose",
            "algorithms.ggc", "poly.pow", "sequence.oracle", "sequence.verify_recurrence"} <= names
    assert tracer.missing == {"poly.gone"}
    values, _ = run.per_layer(tracer, traced, {})
    assert 0 < values["reduction.decompose_budget_frac"] <= 1
    assert 0 < values["algorithms.ggc_budget_frac"] <= 1
    assert values["trace.missing_spans"] == 1
    # the wrappers are gone again after each traced solve
    assert cli.parse_sequence_file.__module__ == "lincomp.cli"
    assert not hasattr(cli.parse_sequence_file, "__wrapped__")


def test_split_of():
    assert run.split_of(7, 1, 3 * 7**3) == (3, 343)
    assert run.split_of(2, 8, 17 * 64) == (17, 64)
    assert run.split_of(3, 2, 16 * 9) == (16, 9)
