"""Golden regression test: CLI outputs pinned to recorded digests.

Every case runs ``lincomp.cli.main`` in-process on a fixed input and compares
its exit code, stderr, and a sha256 of stdout (the sorted-key JSON report
without ``wall_time_s`` and ``ops``, or the text report without its
``wall_time_s:`` and ``ops:`` lines) with ``tests/data/golden_cli.json``.
The op counts are stored in clear, outside the hash, so a change that only
moves counts leaves every digest as it was and its fixture diff lists exactly
the counts that moved. The complexity and algorithm are stored in clear too.
One ``--bench`` run is pinned the same way: wall times and the text of
skipped rows are left out, and each row's ``ops`` and each summary row's
``mean_ops``, ``ops_per_n`` and ``ops_per_n2`` are stored in clear.

Regenerate the fixture with ``PYTHONPATH=src python tests/test_golden.py``;
do so only for a change that is meant to alter the outputs, and say why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "data" / "golden_cli.json"
ALGORITHMS = ("auto", "bm", "ggc", "reduction", "oracle")

# (field label, p, m, period, all zero); the periods cover every route:
# reduction with contraction or synthesis per component, direct contraction,
# and synthesis where no split applies (u_is_one and u_not_divisor)
SEEDED_INPUTS = (
    ("gf7", 7, 1, 21, False),
    ("gf7", 7, 1, 42, False),
    ("gf7", 7, 1, 49, False),
    ("gf7", 7, 1, 13, False),
    ("gf7", 7, 1, 9, False),
    ("gf7", 7, 1, 21, True),
    ("gf16", 2, 4, 16, False),
    ("gf16", 2, 4, 12, False),
    ("gf16", 2, 4, 40, False),
    ("gf16", 2, 4, 7, False),
    ("gf9", 3, 2, 27, False),
    ("gf9", 3, 2, 24, False),
    ("gf9", 3, 2, 40, False),
    ("gf9", 3, 2, 16, False),
    ("gf9", 3, 2, 24, True),
    ("gf13", 13, 1, 39, False),
    ("gf13", 13, 1, 13, False),
    ("gf13", 13, 1, 24, False),
)

BENCH_CONFIG = {
    "field": {"p": 7, "m": 1},
    "periods": [13, 21, 49],
    "trials": 2,
    "seed": 5,
    "algorithms": ["auto", "bm", "ggc", "oracle"],
}

SUMMARY_OPS = ("mean_ops", "ops_per_n", "ops_per_n2")


def _seeded_text(label: str, p: int, m: int, n: int, zero: bool) -> str:
    r = random.Random(f"golden/{label}/{n}/{zero}")
    tokens = []
    for _ in range(n):
        coords = [0 if zero else r.randrange(p) for _ in range(m)]
        tokens.append(",".join(map(str, coords)))
    return f"p={p} m={m}\n" + " ".join(tokens) + "\n"


def input_files() -> dict[str, str]:
    """Relative file name -> contents, for every solve case."""
    files = {}
    for label, p, m, n, zero in SEEDED_INPUTS:
        name = f"{label}-n{n}{'-zero' if zero else ''}.seq"
        files[name] = _seeded_text(label, p, m, n, zero)
    for path in sorted((ROOT / "data").glob("*.seq")):
        files[f"data/{path.name}"] = path.read_text(encoding="utf-8")
    return files


def cases() -> list[tuple[str, list[str]]]:
    out = []
    for name in input_files():
        modes = ("json", "text") if name.startswith("data/") else ("json",)
        for alg in ALGORITHMS:
            for verify in (False, True):
                for mode in modes:
                    argv = ["--input", name, "--algorithm", alg]
                    argv += ["--verify"] if verify else []
                    argv += ["--json"] if mode == "json" else []
                    case_id = f"{name}/{alg}/{'verify' if verify else 'plain'}/{mode}"
                    out.append((case_id, argv))
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_cli(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    from lincomp.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def record_solve(argv: list[str], workdir: Path) -> dict:
    code, out, err = _run_cli(argv, workdir)
    rec = {"exit": code, "stderr": err}
    if "--json" in argv and out.strip():
        report = json.loads(out)
        report.pop("wall_time_s")
        rec.update(
            complexity=report["complexity"],
            algorithm=report["algorithm"],
            ops=report.pop("ops"),
        )
        out = json.dumps(report, sort_keys=True)
    else:
        kept = []
        for line in out.splitlines():
            if line.startswith("ops:"):
                rec["ops"] = line
            elif not line.startswith("wall_time_s:"):
                kept.append(line)
        out = "\n".join(kept)
    rec["stdout_sha256"] = _sha256(out)
    return rec


def record_bench(workdir: Path) -> dict:
    (workdir / "bench.json").write_text(json.dumps(BENCH_CONFIG), encoding="utf-8")
    code, out, err = _run_cli(["--bench", "bench.json", "--json"], workdir)
    result = json.loads(out)
    row_ops = []
    for row in result["rows"]:
        row.pop("wall_time_s", None)
        row_ops.append(row.pop("ops", None))
        if "skipped" in row:
            row["skipped"] = True
    summary_ops = []
    for row in result["summary"]:
        row.pop("mean_wall_s", None)
        summary_ops.append({key: row.pop(key) for key in SUMMARY_OPS})
    return {
        "exit": code,
        "stderr": err,
        "sha256": _sha256(json.dumps(result, sort_keys=True)),
        "row_ops": row_ops,
        "summary_ops": summary_ops,
    }


def write_inputs(workdir: Path) -> None:
    for name, text in input_files().items():
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_inputs(path)
    return path


def test_fixture_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(case_id for case_id, _ in cases())


@pytest.mark.parametrize("case_id,argv", cases(), ids=[c for c, _ in cases()])
def test_solve_matches_golden(golden, workdir, case_id, argv):
    assert record_solve(argv, workdir) == golden["cases"][case_id]


def test_bench_matches_golden(golden, workdir):
    assert record_bench(workdir) == golden["bench"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        fixture = {
            "cases": {case_id: record_solve(argv, work) for case_id, argv in cases()},
            "bench": record_bench(work),
        }
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fixture['cases'])} cases to {FIXTURE}", file=sys.stderr)
