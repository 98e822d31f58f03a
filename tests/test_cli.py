import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reflexpoly

from conftest import DATA
from reflexpoly.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_reflexive_triangle(self, capsys):
        code, out, _ = run(capsys, "classify", "--in", str(DATA / "reflexive_triangle.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj["is_reflexive"] is True
        assert obj["facet_integers"] == [1, 1, 1]

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "classify", "--in", str(DATA / "reflexive_triangle.json"),
                           "--format", "text")
        assert code == 0
        assert "is_reflexive: True" in out


class TestEhrhart:
    def test_half_segment(self, capsys):
        code, out, _ = run(capsys, "ehrhart", "--in", str(DATA / "halfseg.json"),
                           "--nmax", "6")
        assert code == 0
        obj = json.loads(out)
        assert obj["period"] == 2
        assert obj["constituents"] == [["1", "1/2"], ["1/2", "1/2"]]
        assert obj["counts"] == [1, 1, 2, 2, 3, 3, 4]

    def test_inline_json(self, capsys):
        blob = (DATA / "reflexive_triangle.json").read_text()
        code, out, _ = run(capsys, "ehrhart", "--in", blob)
        assert code == 0
        assert json.loads(out)["constituents"] == [["1", "3", "3"]]

    @pytest.mark.parametrize("T", [21846, 10**6, 10**9 + 7])
    def test_dilation_cap(self, capsys, T):
        # [0, 1/T] has tiny boxes but needs 3T - 1 dilations; the cap is 2^16
        start = time.perf_counter()
        code, out, err = run(capsys, "ehrhart", "--in", json.dumps({"vrep": [[0], [f"1/{T}"]]}))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ScaleExceeded",
            "message": "reconstruction needs more dilations than the desk-scale cap",
            "context": {"period": T, "dilations": 3 * T - 1, "max_dilations": 65536},
        }


class TestDual:
    def test_reflexive_triangle(self, capsys):
        code, out, _ = run(capsys, "dual", "--in", str(DATA / "reflexive_triangle.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj["vrep"] == [["-1", "0"], ["0", "-1"], ["2", "3"]]

    def test_domain_error(self, capsys):
        square = json.dumps({"vrep": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
        code, out, err = run(capsys, "dual", "--in", square)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "OriginNotInterior",
            "message": "polar dual needs 0 in the interior; translate first",
            "context": {"offsets": ["0", "0", "1", "1"]},
        }


class TestCount:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "--in", str(DATA / "reflexive_triangle.json"), "--n", "2")
        assert code == 0
        assert json.loads(out)["count"] == 19

    def test_interior(self, capsys):
        code, out, _ = run(capsys, "count", "--in", str(DATA / "reflexive_triangle.json"),
                           "--n", "1", "--interior")
        assert json.loads(out)["count"] == 1


class TestHibi:
    def test_symmetric(self, capsys):
        code, out, _ = run(capsys, "hibi", "--in", str(DATA / "reflexive_triangle.json"))
        assert code == 0
        assert json.loads(out)["hibi_symmetric"] is True

    def test_not_symmetric(self, capsys):
        square = json.dumps({"vrep": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
        code, out, _ = run(capsys, "hibi", "--in", square)
        assert json.loads(out)["hibi_symmetric"] is False


class TestToric:
    def test_to_divisor(self, capsys):
        code, out, _ = run(capsys, "toric", "--in", str(DATA / "reflexive_triangle.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj == {"rays": [[-1, 0], [0, -1], [2, 3]],
                       "coefficients": ["1", "1", "1"]}

    def test_from_divisor_round_trip(self, capsys):
        code, out, _ = run(capsys, "toric", "--in", str(DATA / "reflexive_triangle.json"))
        divisor = out
        code, out2, _ = run(capsys, "toric", "--from-divisor", "--in", divisor)
        assert code == 0
        original = json.loads((DATA / "reflexive_triangle.json").read_text())
        assert json.loads(out2)["hrep"] == original["hrep"]


class TestFlag:
    def test_a2_full_flag(self, capsys):
        code, out, _ = run(capsys, "flag", "--type", "A", "--rank", "2",
                           "--parabolic", "1,2", "--lambda", "2,2")
        assert code == 0
        obj = json.loads(out)
        assert obj["anticanonical"] is True
        assert obj["polynomial"]["constituents"] == [["1", "6", "12", "8"]]
        assert obj["anticanonical_weight"] == [2, 2]

    def test_query_json(self, capsys, tmp_path):
        query = tmp_path / "q.json"
        query.write_text(json.dumps({"type": "A", "rank": 2,
                                     "excluded_simples": [1], "lambda": [3, 0]}))
        code, out, _ = run(capsys, "flag", "--in", str(query))
        assert code == 0
        obj = json.loads(out)
        assert obj["anticanonical"] is True
        assert obj["moved_roots"] == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "flag", "--type", "A", "--rank", "2",
                           "--parabolic", "1", "--lambda", "0,1")
        assert code == 1
        assert json.loads(err)["error"] == "NotPRegular"

    @pytest.mark.parametrize(
        "query",
        [
            {"type": "A", "rank": 3, "excluded_simples": [2], "lambda": "010"},
            {"type": "A", "rank": 1, "excluded_simples": "1", "lambda": [1]},
            {"type": "A", "rank": 3.7, "excluded_simples": [2], "lambda": [0, 1, 0]},
            {"type": "A", "rank": True, "excluded_simples": [1], "lambda": [1]},
            {"type": 5, "rank": 1, "excluded_simples": [1], "lambda": [1]},
            {"type": "A", "rank": 1, "excluded_simples": 5, "lambda": [1]},
            {"type": "A", "rank": 1, "excluded_simples": [True], "lambda": [1]},
            {"type": "A", "rank": 1, "excluded_simples": [1], "lambda": [1.5]},
        ],
        ids=[
            "lambda-string", "excluded-string", "rank-float", "rank-bool",
            "type-int", "excluded-int", "excluded-bool-entry", "lambda-float-entry",
        ],
    )
    def test_query_field_types_refused(self, capsys, query):
        # each of these used to be coerced by int() into an answer, or to
        # escape as a traceback
        code, out, err = run(capsys, "flag", "--in", json.dumps(query))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "InvalidInput"

    def test_rank_above_cap_refused(self, capsys):
        code, out, err = run(capsys, "flag", "--type", "B", "--rank", "17",
                             "--parabolic", "1", "--lambda", ",".join(["1"] + ["0"] * 16))
        assert code == 1
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "UnsupportedType"
        assert obj["context"] == {"rank": 17, "max_rank": 16}


class TestFuzz:
    def test_run_and_write(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "fuzz", "--conjecture", "dualfano", "--samples", "6",
            "--seed", "42", "--dim", "2", "--max-coordinate", "3",
            "--max-denominator", "2", "--out", str(tmp_path),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["conjecture"] == "dualfano"
        path = tmp_path / "fuzz_dualfano_seed42.json"
        assert path.exists()
        assert json.loads(path.read_text()) == obj


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--in", "x.json"])  # --n missing
        assert exc.value.code == 2


class TestInputBoundary:
    def test_zero_denominator(self, capsys):
        blob = json.dumps({"dim": 1, "hrep": [{"normal": [1], "offset": "1/0"},
                                              {"normal": [-1], "offset": "1"}]})
        code, out, err = run(capsys, "dual", "--in", blob)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_zero_length_point(self, capsys):
        code, out, err = run(capsys, "dual", "--in", '{"vrep": [[]]}')
        assert code == 1
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "InvalidInput"
        assert obj["message"] == "points need at least one coordinate"

    @pytest.mark.parametrize(
        "blob, error",
        [
            ('{"vrep": ["00", "20", "02"]}', "ValueError"),
            ('{"hrep": [{"normal": "10", "offset": "1"}, {"normal": [-1, 0], "offset": "1"},'
             ' {"normal": [0, 1], "offset": "1"}, {"normal": [0, -1], "offset": "1"}]}',
             "ValueError"),
            ('{"hrep": "abc"}', "InvalidInput"),
            ('{"hrep": [[1, 0]]}', "InvalidInput"),
            ('{"vrep": [1, 2]}', "ValueError"),
        ],
        ids=["string-points", "string-normal", "string-hrep", "list-hrep-entry", "number-points"],
    )
    def test_malformed_shapes(self, capsys, blob, error):
        # strings are not vectors: "20" is not the point (2, 0)
        code, out, err = run(capsys, "classify", "--in", blob)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize(
        "rays, error",
        [
            (["10", "01", [-1, -1]], "ValueError"),
            ([[1.9, 0], [0, 1], [-1, -1]], "ValueError"),
            ([["1/2", 0], [0, 1], [-1, -1]], "InvalidInput"),
        ],
        ids=["string-rays", "float-ray", "fraction-ray"],
    )
    def test_divisor_rays_must_be_integer_vectors(self, capsys, rays, error):
        # "10" is not the ray (1, 0), and 1.9 is not truncated to 1
        blob = json.dumps({"rays": rays, "coefficients": ["1", "1", "1"]})
        code, out, err = run(capsys, "toric", "--from-divisor", "--in", blob)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("dim", [[1], {"d": 1}, "1", 1.0, True])
    def test_dim_must_be_an_integer(self, capsys, dim):
        for shape in ({"vrep": [["0"], ["1"]]}, {"hrep": [{"normal": [1], "offset": "1"},
                                                         {"normal": [-1], "offset": "0"}]}):
            blob = json.dumps({"dim": dim, **shape})
            code, out, err = run(capsys, "dual", "--in", blob)
            assert code == 1
            assert out == ""
            obj = json.loads(err)
            assert obj["error"] == "InvalidInput"
            assert obj["message"] == "polytope JSON 'dim' must be an integer"

    def test_inline_array_is_json(self, capsys):
        code, _, err = run(capsys, "dual", "--in", "[1,2]")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidInput"

    def test_inline_array_query(self, capsys):
        for argv in (("flag", "--in", "[1]"), ("toric", "--from-divisor", "--in", "[1]")):
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert json.loads(err)["error"] == "InvalidInput"

    def test_empty_fan_refused(self, capsys):
        code, out, err = run(capsys, "toric", "--from-divisor", "--in",
                             '{"rays": [], "coefficients": []}')
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "InvalidInput",
            "message": "a divisor needs at least one ray",
            "context": {},
        }

    def test_directory_as_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "dual", "--in", str(tmp_path))
        assert code == 1
        assert out == ""
        obj = json.loads(err)
        assert obj["error"] == "IsADirectoryError"
        assert obj["context"] == {}

    def test_deeply_nested_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 5000))
        code, out, err = run(capsys, "dual", "--in", "-")
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "InvalidInput",
            "message": "JSON input is nested too deeply",
            "context": {},
        }

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(Path(reflexpoly.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "reflexpoly.cli", "dual", "--in",
             str(DATA / "reflexive_triangle.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["vrep"] == [["-1", "0"], ["0", "-1"], ["2", "3"]]


class TestRoundTrips:
    def test_polytope_json_reaccepted(self, capsys):
        code, out, _ = run(capsys, "dual", "--in", str(DATA / "reflexive_triangle.json"))
        code2, out2, _ = run(capsys, "dual", "--in", out)
        assert code2 == 0
        original = json.loads((DATA / "reflexive_triangle.json").read_text())
        assert json.loads(out2)["hrep"] == original["hrep"]

    def test_no_floats_anywhere(self, capsys):
        _, out, _ = run(capsys, "ehrhart", "--in", str(DATA / "halfseg.json"))
        assert "." not in out.replace('"text"', "")  # no decimal points
