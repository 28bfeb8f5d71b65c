import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lincomp.cli
from helpers import GF7, GF9, all_elements, parse_poly
from lincomp.cli import (
    BadHeaderError,
    ElementOutOfRangeError,
    SequenceSyntaxError,
    main,
    parse_field_header,
    parse_sequence_file,
    render_poly,
)
from lincomp.field import make_field
from lincomp.poly import Poly
from lincomp.sequence import LinCompResult, oracle_lincomp

SRC = Path(__file__).resolve().parent.parent / "src"
N21_TEXT = "p=7 m=1\n1 2 3 4 0 1 5 2 0 1 1 3 0 6 1 2 5 6 3 3 1\n"


def write_seq(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseSequenceFile:
    def test_n21_header_and_elements(self):
        s = parse_sequence_file(io.StringIO(N21_TEXT))
        assert s.spec == GF7
        assert len(s) == 21
        assert [e.coeffs[0] for e in s.period] == [
            1, 2, 3, 4, 0, 1, 5, 2, 0, 1, 1, 3, 0, 6, 1, 2, 5, 6, 3, 3, 1,
        ]

    def test_extension_field_elements(self):
        s = parse_sequence_file(io.StringIO("p=3 m=2\n0,1 2,2\n"))
        assert s.spec == GF9
        assert len(s) == 2
        assert s.period[0] == GF9.element([0, 1])
        assert s.period[1] == GF9.element([2, 2])

    def test_explicit_modulus_header(self):
        s = parse_sequence_file(io.StringIO("p=3 m=2 mod=1,0,1\n1,1\n"))
        assert s.spec.modulus == (1, 0, 1)

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\np=7 m=1  # trailing comment\n1 2 # data comment\n3\n"
        s = parse_sequence_file(io.StringIO(text))
        assert [e.coeffs[0] for e in s.period] == [1, 2, 3]

    def test_out_of_range_element(self):
        with pytest.raises(ElementOutOfRangeError):
            parse_sequence_file(io.StringIO("p=7 m=1\n1 7\n"))

    def test_bad_header(self):
        with pytest.raises(BadHeaderError):
            parse_sequence_file(io.StringIO("period=7\n1 2\n"))
        with pytest.raises(BadHeaderError):
            parse_sequence_file(io.StringIO("p=4 m=1\n1\n"))

    def test_missing_header_or_elements(self):
        with pytest.raises(BadHeaderError):
            parse_sequence_file(io.StringIO("# nothing here\n"))
        with pytest.raises(SequenceSyntaxError):
            parse_sequence_file(io.StringIO("p=7 m=1\n"))

    def test_malformed_tokens(self):
        with pytest.raises(SequenceSyntaxError):
            parse_sequence_file(io.StringIO("p=7 m=1\nabc\n"))
        with pytest.raises(SequenceSyntaxError):
            parse_sequence_file(io.StringIO("p=3 m=2\n1\n"))

    def test_error_carries_line_number(self):
        with pytest.raises(ElementOutOfRangeError) as err:
            parse_sequence_file(io.StringIO("p=7 m=1\n1 2\n9\n"))
        assert err.value.line == 3

    def test_field_header_parser(self):
        assert parse_field_header("p=7 m=1") == GF7
        assert parse_field_header("p=3 m=2 mod=1,0,1") == GF9

    def test_prime_field_modulus_normalized(self):
        assert parse_field_header("p=7 m=1 mod=1,1") == make_field(7)

    @pytest.mark.parametrize(
        "header", ["p=7 m=1 p=5", "p=3 m=2 m=1", "p=3 m=2 mod=1,0,1 mod=2,2,1"]
    )
    def test_repeated_key_rejected(self, tmp_path, capsys, header):
        with pytest.raises(BadHeaderError, match="twice"):
            parse_field_header(header)
        path = write_seq(tmp_path, "s.seq", f"{header}\n1 2 3\n")
        assert main(["--input", path]) == 2
        assert "twice" in capsys.readouterr().err


class TestPolyRendering:
    def test_rendering_examples(self):
        assert render_poly(Poly.zero(GF7)) == "0"
        assert render_poly(Poly.from_ints(GF7, [1, 6])) == "1 + 6*x"
        assert render_poly(Poly.from_ints(GF7, [0, 0, 3])) == "3*x^2"
        assert (
            render_poly(Poly.from_ints(GF9, [[1, 2], [0, 0], [2, 1]]))
            == "(1,2) + (2,1)*x^2"
        )

    @pytest.mark.parametrize("spec", [GF7, GF9])
    @settings(max_examples=80)
    @given(data=st.data())
    def test_round_trip(self, spec, data):
        elems = st.sampled_from(all_elements(spec))
        f = Poly(spec, data.draw(st.lists(elems, max_size=9)))
        assert parse_poly(spec, render_poly(f)) == f


class TestSolveCommand:
    def test_auto_with_verify(self, tmp_path, capsys):
        path = write_seq(tmp_path, "s.seq", N21_TEXT)
        code = main(["--input", path, "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "complexity: 21" in out
        assert "verified: ok" in out

    def test_oracle_on_all_zero(self, tmp_path, capsys):
        path = write_seq(tmp_path, "z.seq", "p=7 m=1\n0 0 0 0 0 0 0 0 0 0\n")
        code = main(["--input", path, "--algorithm", "oracle", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["complexity"] == 0
        assert report["min_poly_expanded"] == [[1]]

    def test_forced_ggc_inapplicable(self, tmp_path, capsys):
        path = write_seq(tmp_path, "s.seq", N21_TEXT)
        code = main(["--input", path, "--algorithm", "ggc"])
        err = capsys.readouterr().err
        assert code == 3
        assert "not applicable" in err
        assert "power of the characteristic" in err

    def test_forced_reduction_inapplicable(self, tmp_path, capsys):
        path = write_seq(tmp_path, "s.seq", "p=7 m=1\n1 2 3 4 5 6 0 1 2 3 4 5 6\n")
        code = main(["--input", path, "--algorithm", "reduction"])
        assert code == 3
        assert "nothing to split" in capsys.readouterr().err

    def test_forced_bm_and_ggc_agree_with_oracle(self, tmp_path, capsys):
        path = write_seq(tmp_path, "s.seq", "p=7 m=1\n3 1 4 1 5 2 2 6 5 3 5 1 0 6\n")
        results = {}
        for alg in ["bm", "oracle", "auto"]:
            code = main(["--input", path, "--algorithm", alg, "--json", "--verify"])
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            assert report["verified"] is True
            results[alg] = (report["complexity"], tuple(map(tuple, report["min_poly_expanded"])))
        assert len(set(results.values())) == 1

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write_seq(tmp_path, "bad.seq", "p=7 m=1\n9\n")
        assert main(["--input", path]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["file", "stdin", "stdin-process", "bench"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, monkeypatch, source):
        raw = b"\xff\xfe p=7 m=1\n1 2 3\n"
        path = tmp_path / "bad.bin"
        path.write_bytes(raw)
        if source == "stdin-process":
            # a real interpreter stdin, decoding as it does under a C or
            # POSIX locale, where undecodable bytes become lone surrogates
            env = dict(os.environ, PYTHONIOENCODING="utf-8:surrogateescape")
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-m", "lincomp", "--input", "-"],
                input=raw, capture_output=True, env=env, timeout=60,
            )
            code, err = proc.returncode, proc.stderr.decode("utf-8", "replace")
        else:
            if source == "stdin":
                stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
                monkeypatch.setattr("sys.stdin", stream)
                argv = ["--input", "-"]
            else:
                argv = ["--bench" if source == "bench" else "--input", str(path)]
            code, err = main(argv), capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "not UTF-8" in err
        assert "Traceback" not in err

    def test_closed_stdout_exits_141(self):
        # the read end is closed before the child starts, so its report
        # cannot be written
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lincomp", "--input", "-"],
                input=N21_TEXT.encode(), stdout=write_end, stderr=subprocess.PIPE,
                env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""

    def test_missing_input_exit_code(self, capsys):
        assert main([]) == 2

    def test_unknown_algorithm_exit_code(self, tmp_path, capsys):
        path = write_seq(tmp_path, "s.seq", N21_TEXT)
        assert main(["--input", path, "--algorithm", "magic"]) == 2

    def test_field_cross_check(self, tmp_path, capsys):
        path = write_seq(tmp_path, "s.seq", N21_TEXT)
        assert main(["--input", path, "--field", "p=7 m=1"]) == 0
        capsys.readouterr()
        assert main(["--input", path, "--field", "p=13 m=1"]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_field_cross_check_normalizes_linear_modulus(self, tmp_path, capsys):
        path = write_seq(tmp_path, "s.seq", N21_TEXT.replace("m=1", "m=1 mod=1,1"))
        assert main(["--input", path, "--field", "p=7 m=1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["field"]["modulus"] == [0, 1]

    def test_verify_mismatch_injection(self, tmp_path, capsys, monkeypatch):
        def wrong_oracle(s):
            ref = oracle_lincomp(s)
            return LinCompResult(ref.complexity + 1, ref.min_poly, ref.algorithm)

        monkeypatch.setattr(lincomp.cli, "oracle_lincomp", wrong_oracle)
        path = write_seq(tmp_path, "s.seq", N21_TEXT)
        code = main(["--input", path, "--verify", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["verified"] is False

    def test_json_schema_and_phase_sum(self, tmp_path, capsys):
        path = write_seq(tmp_path, "s.seq", N21_TEXT)
        code = main(["--input", path, "--json", "--verify"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(report) == {
            "input", "field", "period", "algorithm", "complexity",
            "min_poly_expanded", "min_poly_factored", "ops", "verified",
            "wall_time_s",
        }
        ops = report["ops"]
        assert ops["reduction"] + ops["components"] + ops["compose"] == ops["total"]
        assert report["period"] == 21
        assert report["field"] == {"p": 7, "m": 1, "modulus": [0, 1]}
        assert len(report["min_poly_factored"]) == 3
        scale_bs = {tuple(f["scale_b"]) for f in report["min_poly_factored"]}
        assert scale_bs == {(1,), (2,), (4,)}

    def test_verified_key_present_iff_requested(self, tmp_path, capsys):
        path = write_seq(tmp_path, "s.seq", N21_TEXT)
        main(["--input", path, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert "verified" not in report

    def test_json_determinism(self, tmp_path, capsys):
        path = write_seq(tmp_path, "s.seq", N21_TEXT)
        outputs = []
        for _ in range(2):
            code = main(["--input", path, "--json", "--verify"])
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            report.pop("wall_time_s")
            outputs.append(json.dumps(report, sort_keys=True).encode())
        assert outputs[0] == outputs[1]

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        stream = io.TextIOWrapper(io.BytesIO(b"p=7 m=1\n1 1 1\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stream)
        code = main(["--input", "-", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["complexity"] == 1


class TestBenchCommand:
    def test_zero_trials_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "field": {"p": 7, "m": 1}, "periods": [21], "trials": 0, "seed": 1,
        }))
        assert main(["--bench", str(cfg)]) == 2
        assert "trials" in capsys.readouterr().err

    def test_missing_periods_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"field": {"p": 7, "m": 1}, "trials": 1}))
        assert main(["--bench", str(cfg)]) == 2

    def test_small_family_run(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "field": {"p": 7, "m": 1},
            "family": {"coeff": 3, "base": 7, "h_min": 1, "h_max": 2},
            "trials": 2,
            "seed": 11,
            "algorithms": ["auto", "bm"],
        }))
        code = main(["--bench", str(cfg), "--json"])
        result = json.loads(capsys.readouterr().out)
        assert code == 0
        assert result["config"]["periods"] == [21, 147]
        for row in result["rows"]:
            assert row.get("flags", []) == []
        by_alg = {(r["period"], r["algorithm"]) for r in result["summary"]}
        assert by_alg == {(21, "auto"), (21, "bm"), (147, "auto"), (147, "bm")}

    def test_forced_bm_vs_oracle_rows(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "field": {"p": 13, "m": 1},
            "periods": [13, 169],
            "trials": 1,
            "seed": 3,
            "algorithms": ["bm", "oracle", "ggc"],
        }))
        code = main(["--bench", str(cfg), "--json"])
        result = json.loads(capsys.readouterr().out)
        assert code == 0
        # bm and oracle both report ops on the same inputs; ratio is recordable
        rows = {(r["period"], r["algorithm"]): r for r in result["rows"] if "ops" in r}
        for n in [13, 169]:
            assert rows[(n, "bm")]["complexity"] == rows[(n, "oracle")]["complexity"]
            assert rows[(n, "bm")]["ops"]["total"] > 0
            assert rows[(n, "oracle")]["ops"]["total"] > 0
        # ggc applies here because 13 and 169 are powers of the characteristic
        assert rows[(13, "ggc")]["complexity"] == rows[(13, "oracle")]["complexity"]

    def test_ggc_skipped_on_non_p_power(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "field": {"p": 7, "m": 1},
            "periods": [21],
            "trials": 1,
            "seed": 5,
            "algorithms": ["ggc"],
        }))
        code = main(["--bench", str(cfg), "--json"])
        result = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["skipped"] for r in result["rows"]] == [
            "period 21 is not a power of the characteristic 7"
        ]

    @pytest.mark.parametrize(
        "change,key",
        [
            ({"field": {"p": 4}}, "field"),
            ({"trials": "x"}, "trials"),
            ({"seed": None}, "seed"),
            ({"algorithms": "auto"}, "algorithms"),
        ],
    )
    def test_bad_config_values_rejected(self, tmp_path, capsys, change, key):
        config = {"field": {"p": 7, "m": 1}, "periods": [21], "trials": 1, "seed": 1}
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({**config, **change}))
        assert main(["--bench", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert "Traceback" not in err

    def test_bench_determinism_modulo_wall_time(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "field": {"p": 7, "m": 1},
            "periods": [21],
            "trials": 2,
            "seed": 9,
            "algorithms": ["auto", "bm"],
        }))
        snapshots = []
        for _ in range(2):
            assert main(["--bench", str(cfg), "--json"]) == 0
            result = json.loads(capsys.readouterr().out)
            for row in result["rows"]:
                row.pop("wall_time_s", None)
            for row in result["summary"]:
                row.pop("mean_wall_s", None)
            snapshots.append(json.dumps(result, sort_keys=True))
        assert snapshots[0] == snapshots[1]

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "field": {"p": 7, "m": 1},
            "periods": [21],
            "trials": 1,
            "seed": 1,
            "algorithms": ["bm"],
        }))
        assert main(["--bench", str(cfg), "--json", "--seed", "2"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["config"]["seed"] == 2
