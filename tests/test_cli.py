import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from iterqm.cli import (
    build_parser,
    canonical_from_json,
    canonical_to_json,
    format_series,
    main,
    parse_braid_word,
    series_from_json,
    series_to_json,
)
from iterqm.canonicalize import canonical_form
from iterqm.iterint import BarCombo
from iterqm.qseries import LogQSeries
from iterqm.quasimodular import E2, E4, ONE


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestPinnedOutputs:
    def test_expand_discriminant(self, capsys):
        code, out, _ = run(capsys, ["expand", "E4^3-E6^2", "-N", "2"])
        assert code == 0
        assert out == "1728*q - 41472*q^2\n"

    def test_integral_of_one(self, capsys):
        code, out, _ = run(capsys, ["integral", "I(1)", "-N", "1"])
        assert code == 0
        assert out == "-L\n"

    def test_lyndon_weight6(self, capsys):
        code, out, _ = run(capsys, ["lyndon", "--max-weight", "6", "--max-len", "2"])
        assert code == 0
        # the source table omits I(1,E2), but it satisfies the Lyndon
        # definition over the documented order (1 < E2), exactly like I(1,E4)
        assert out == (
            "I(1)\n"
            "I(E2)\n"
            "I(1,E2)\n"
            "I(E4)\n"
            "I(1,E4)\n"
            "I(E6)\n"
            "I(1,E6)\n"
            "I(E2,E4)\n"
        )


class TestJsonRoundTrip:
    def test_series_schema(self):
        s = LogQSeries(2, {0: [0, 24, 36], 1: [-1, 0, 0]})
        data = series_to_json(s)
        assert data == {
            "truncation": 2,
            "terms": [
                {"q": 0, "logq": 1, "coeff": "-1"},
                {"q": 1, "logq": 0, "coeff": "24"},
                {"q": 2, "logq": 0, "coeff": "36"},
            ],
        }
        assert series_from_json(data) == s

    def test_series_random_roundtrip(self):
        rng = random.Random(51)
        for _ in range(100):
            n = rng.randint(0, 8)
            parts = {}
            for k in range(rng.randint(0, 3)):
                coeffs = [F(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(n + 1)]
                parts[k] = coeffs
            s = LogQSeries(n, parts)
            data = json.loads(json.dumps(series_to_json(s)))
            assert series_from_json(data) == s

    def test_canonical_roundtrip(self):
        combo = BarCombo({(E4, ONE): E2, (ONE, ONE): 1})
        cf = canonical_form(combo)
        data = json.loads(json.dumps(canonical_to_json(cf)))
        back = canonical_from_json(data)
        assert back.poly == cf.poly
        assert back.basis == cf.basis
        assert back.modular == cf.modular

    def test_cli_json_mode(self, capsys):
        code, out, _ = run(capsys, ["integral", "I(E2)", "-N", "2", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["truncation"] == 2
        assert {"q": 1, "logq": 0, "coeff": "24"} in data["terms"]


class TestCommands:
    def test_derive(self, capsys):
        code, out, _ = run(capsys, ["derive", "E2"])
        assert code == 0
        assert out == "1/12*E2^2 - 1/12*E4\n"

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, ["decompose", "E2^2"])
        assert code == 0
        assert out == "e2_coefficient: 0\nmodular_part: E4\nderivative_of: 12*E2\n"

    def test_canonical(self, capsys):
        code, out, _ = run(capsys, ["canonical", "I(E4,1)"])
        assert code == 0
        assert out == "I(1)*I(E4) - I(1,E4)\n"

    def test_canonical_modular_error(self, capsys):
        code, out, err = run(capsys, ["canonical", "I(E2)", "--modular"])
        assert code == 1
        assert "E2" in err

    def test_rank_stdin(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["rank", "-N", "10"],
            stdin="E4\nE6\n1,E4\n-\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == "4\n"

    def test_env_default_truncation(self, capsys, monkeypatch):
        monkeypatch.setenv("ITERQM_DEFAULT_N", "3")
        code, out, _ = run(capsys, ["expand", "E2"])
        assert code == 0
        assert out == "1 - 24*q - 72*q^2 - 96*q^3\n"

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, ["expand", "E4 +"])
        assert code == 1
        assert "byte 4" in err

    def test_nesting_at_limit_parses(self, capsys):
        code, out, _ = run(capsys, ["expand", "(" * 200 + "E4" + ")" * 200, "-N", "1"])
        assert code == 0
        assert out == "1 + 240*q\n"

    def test_nesting_past_limit_is_an_error(self, capsys):
        code, out, err = run(capsys, ["expand", "(" * 400 + "E4" + ")" * 400, "-N", "1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "byte 201" in err

    def test_cocycle_e2_command(self, capsys):
        code, out, _ = run(capsys, ["cocycle", "e2", "s1*s2*s1^-1"])
        assert code == 0
        assert "multiple_of_2pi_i: -1" in out

    def test_cocycle_e2_long_word(self, capsys):
        code, out, _ = run(capsys, ["cocycle", "e2", "*".join(["s1*s2"] * 600), "--json"])
        assert code == 0
        assert json.loads(out)["multiple_of_2pi_i"] == -1200

    def test_integral_long_word(self, capsys):
        code, out, err = run(capsys, ["integral", "I(" + ",".join(["E4"] * 1100) + ")", "-N", "0"])
        assert code == 0
        assert "error:" not in err
        assert out == f"1/{math.factorial(1100)}*L^1100\n"

    def test_rank_full_json(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["rank", "-N", "10", "--json"],
            stdin="E4\nE6\n1,E4\nE2,E6\n-\n", monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == '{"rank":5,"count":5}\n'

    def test_rank_deficient_json(self, capsys, monkeypatch):
        # I(2*E4) = 2*I(E4): rank 2 of 3, settled by elimination over Q
        code, out, _ = run(
            capsys, ["rank", "-N", "10", "--json"],
            stdin="E4\n2*E4\nE6\n", monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == '{"rank":2,"count":3}\n'

    def test_cocycle_check_small(self, capsys):
        code, out, _ = run(capsys, ["cocycle", "check", "--pairs", "2", "--n-terms", "40"])
        assert code == 0
        assert "PASS" in out


def fresh_output(argv, env_n=None):
    """Output of the command in a new interpreter, with ITERQM_DEFAULT_N set or unset."""
    env = {k: v for k, v in os.environ.items() if k != "ITERQM_DEFAULT_N"}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if env_n is not None:
        env["ITERQM_DEFAULT_N"] = env_n
    proc = subprocess.run(
        [sys.executable, "-m", "iterqm.cli", *argv], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


class TestParserReuse:
    """The parser is built once per process; -N's default is read on every call."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_outputs_match_fresh_processes(self, capsys, monkeypatch):
        cases = [
            ("3", ["expand", "E2"]),
            (None, ["expand", "E2"]),
            ("3", ["integral", "I(E2,E4)", "--json"]),
            (None, ["integral", "I(E2,E4)"]),
            ("3", ["expand", "E4", "-N", "2", "--json"]),
        ]
        for env_n, argv in cases:
            if env_n is None:
                monkeypatch.delenv("ITERQM_DEFAULT_N", raising=False)
            else:
                monkeypatch.setenv("ITERQM_DEFAULT_N", env_n)
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert out == fresh_output(argv, env_n), (env_n, argv)

    def test_malformed_env_rejected_on_every_call(self, capsys, monkeypatch):
        assert run(capsys, ["expand", "E2", "-N", "1"])[0] == 0
        monkeypatch.setenv("ITERQM_DEFAULT_N", "fifty")
        for argv in (["expand", "E2"], ["expand", "E2", "-N", "1"]):
            with pytest.raises(SystemExit, match="ITERQM_DEFAULT_N must be an integer"):
                main(argv)


class TestBraidWordParsing:
    def test_tokens(self):
        assert parse_braid_word("s1*s2*s1^-1") == (1, 2, -1)
        assert parse_braid_word("s1, s2^-1") == (1, -2)
        assert parse_braid_word("") == ()

    def test_bad_token(self):
        from iterqm.expr import ExprError

        with pytest.raises(ExprError):
            parse_braid_word("s3")


def test_format_series_zero():
    assert format_series(LogQSeries.zero(5)) == "0"


def test_format_series_signs():
    s = LogQSeries(2, {0: [F(-1, 2), 0, 3], 2: [0, -1, 0]})
    assert format_series(s) == "-1/2 - q*L^2 + 3*q^2"
