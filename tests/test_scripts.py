import runpy
from pathlib import Path

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "solve_demo.py"


def test_solve_demo_runs(capsys):
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "split: u=3, n=7" in out
    assert "oracle cross-check: ok" in out
