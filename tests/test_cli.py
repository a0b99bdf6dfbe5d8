import hashlib
import json
import math
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import iterqm.cli as cli
from conftest import monomials_of_weight
from iterqm.cli import (
    build_parser,
    canonical_from_json,
    canonical_to_json,
    format_canonical,
    format_qmpoly,
    format_series,
    main,
    parse_braid_word,
    qmpoly_from_json,
    series_from_json,
    series_to_json,
)
from iterqm.canonicalize import canonical_form
from iterqm.iterint import IntegralPoly
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


def random_form_text(rng, max_weight):
    """Expression text of a sum of two nonzero homogeneous forms of weight <= max_weight."""
    parts = []
    for _ in range(2):
        weight = 2 * rng.randint(0, max_weight // 2)
        homogeneous = []
        while not homogeneous:
            for exponents in monomials_of_weight(weight):
                coeff = rng.randint(-9, 9) if rng.random() < 0.7 else 0
                if coeff:
                    gens = [g if e == 1 else f"{g}^{e}" for g, e in zip(("E2", "E4", "E6"), exponents) if e]
                    homogeneous.append("*".join([str(coeff)] + gens))
        parts.extend(homogeneous)
    return "(" + " + ".join(parts) + ")"


def pinned_expressions():
    """Criterion-09 shapes: 1-2 terms, words of 0-3 letters of weight <= 10,
    coefficients of weight <= 6; drawn from a fixed seed."""
    rng = random.Random(1209)
    exprs = []
    for _ in range(30):
        terms = []
        for _ in range(rng.randint(1, 2)):
            coeff = random_form_text(rng, 6)
            letters = [random_form_text(rng, 10) for _ in range(rng.randint(0, 3))]
            terms.append(f"{coeff}*I({','.join(letters)})" if letters else coeff)
        exprs.append(" + ".join(terms))
    return exprs


#: The sha256 of the outputs of :func:`pinned_json_digest`.  Exact commands
#: keep bit-identical JSON, so any change of this digest is a change of output.
PINNED_JSON_SHA256 = "91f21b3aa3c12f4e95d096d957117d00e2eac230d92bab738114814de4e87098"

#: The sha256 of the outputs of :func:`pinned_text_digest`: the same commands
#: in text mode, plus one each of derive, decompose, lyndon and expand.
PINNED_TEXT_SHA256 = "eb6f2e8315cf8606e490ca6f56a81182ad7399d56528c01ccec068288081b899"


def pinned_argvs():
    argvs = [
        ["canonical", "I(E4,1)"],
        ["canonical", "I(E4,E6)", "--modular"],
        ["integral", "I(1)", "-N", "1"],
        ["integral", "I(E2,E4)", "-N", "5"],
    ]
    for expr in pinned_expressions():
        argvs += [["canonical", expr], ["integral", expr, "-N", "30"]]
    return argvs


def outputs_digest(capsys, argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    return digest.hexdigest()


def pinned_json_digest(capsys):
    return outputs_digest(capsys, [argv + ["--json"] for argv in pinned_argvs()])


def pinned_text_digest(capsys):
    extra = [
        ["derive", "E2"],
        ["decompose", "E2^2"],
        ["lyndon", "--max-weight", "6", "--max-len", "2"],
        ["expand", "E4^3-E6^2", "-N", "2"],
    ]
    return outputs_digest(capsys, pinned_argvs() + extra)


class TestPinnedOutputs:
    def test_json_outputs_are_pinned(self, capsys):
        assert pinned_json_digest(capsys) == PINNED_JSON_SHA256

    def test_text_outputs_are_pinned(self, capsys):
        assert pinned_text_digest(capsys) == PINNED_TEXT_SHA256

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

    def test_lyndon_long_words_of_small_weight(self, capsys):
        # the unweighted enumeration would visit about 2^40/40 words
        code, out, _ = run(capsys, ["lyndon", "--max-weight", "2", "--max-len", "40"])
        assert code == 0
        assert out.splitlines() == ["I(1)", "I(E2)"] + [f"I({'1,' * j}E2)" for j in range(1, 40)]

    def test_lyndon_negative_length_is_an_error(self, capsys):
        argv = ["lyndon", "--max-weight", "4", "--max-len"]
        assert run(capsys, argv + ["-3"]) == (1, "", "error: --max-len must be >= 0, got -3\n")
        assert run(capsys, argv + ["0"]) == (0, "", "")  # no word, no line
        assert run(capsys, argv + ["0", "--json"]) == (0, "[]\n", "")


class TestJsonRoundTrip:
    def test_series_schema(self):
        s = LogQSeries(2, {0: [0, 24, 36], 1: [-1, 0, 0]})
        text = series_to_json(s)
        assert text == '{"truncation":2,"terms":[{"q":0,"logq":1,"coeff":"-1"},{"q":1,"logq":0,"coeff":"24"},' \
                       '{"q":2,"logq":0,"coeff":"36"}]}'
        data = json.loads(text)
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
            data = json.loads(series_to_json(s))
            assert series_from_json(data) == s

    def test_canonical_roundtrip(self):
        combo = IntegralPoly.linear({(E4, ONE): E2, (ONE, ONE): 1})
        cf = canonical_form(combo)
        data = json.loads(canonical_to_json(cf))
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

    def test_decompose_mixed_weight(self, capsys):
        code, out, _ = run(capsys, ["decompose", "E2^3*E4 - 7/3*E2*E6 + E2 + 1"])
        assert code == 0
        assert out == ("e2_coefficient: 1\nmodular_part: E4*E6 - 7/3*E4^2 + 1\n"
                       "derivative_of: 2*E2^2*E4 + 8/7*E2*E6 + 19/14*E4^2 - 14/3*E6\n")

    def test_canonical(self, capsys):
        code, out, _ = run(capsys, ["canonical", "I(E4,1)"])
        assert code == 0
        assert out == "I(1)*I(E4) - I(1,E4)\n"

    def test_canonical_modular_error(self, capsys):
        code, out, err = run(capsys, ["canonical", "I(E2)", "--modular"])
        assert code == 1
        assert "E2" in err

    def test_canonical_modular_checks_products_unexpanded(self, capsys):
        """An E2 coefficient that cancels only once the product is shuffled out is still reported."""
        text = "E2*I(E4)*I(E6) - E2*I(E4,E6) - E2*I(E6,E4)"
        assert run(capsys, ["canonical", text]) == (0, "0\n", "")
        code, out, err = run(capsys, ["canonical", text, "--modular"])
        assert (code, out) == (1, "")
        assert err.startswith("error: modular-only mode: a coefficient involves E2")

    def test_rank_stdin(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["rank", "-N", "10"],
            stdin="E4\nE6\n1,E4\n-\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == "4\n"

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

    def test_expression_after_double_dash(self, capsys):
        assert run(capsys, ["expand", "-N", "1", "--", "-E4"]) == (0, "-1 - 240*q\n", "")
        assert run(capsys, ["derive", "--", "-2*E4"]) == (0, "-2/3*E2*E4 + 2/3*E6\n", "")

    def test_error_offset_counts_utf8_bytes(self, capsys):
        # E5 follows an ideographic space, three bytes of UTF-8
        assert run(capsys, ["expand", "\u3000E5", "-N", "1"]) == (1, "", "error: unknown name 'E5' (at byte 3)\n")

    def test_integral_where_a_form_is_required(self, capsys):
        code, out, err = run(capsys, ["expand", "E2 + I(E4)"])
        assert (code, out) == (1, "")
        assert err == "error: an integral is not allowed here (at byte 5)\n"

    @pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"), MemoryError()])
    def test_interpreter_limits_are_errors(self, capsys, monkeypatch, exc):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_expand", handler)
        # a parser built now dispatches to the patched handler
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        code, out, err = run(capsys, ["expand", "E4"])
        assert code == 1
        assert out == ""
        assert err == f"error: {str(exc) or type(exc).__name__}\n"

    def test_cocycle_e2_command(self, capsys):
        code, out, _ = run(capsys, ["cocycle", "e2", "s1*s2*s1^-1"])
        assert code == 0
        assert "multiple_of_2pi_i: -1" in out

    def test_cocycle_e2_long_word(self, capsys):
        code, out, _ = run(capsys, ["cocycle", "e2", "*".join(["s1*s2"] * 600), "--json"])
        assert code == 0
        assert json.loads(out)["multiple_of_2pi_i"] == -1200

    @pytest.mark.parametrize("argv, stdin", [
        *((["expand", "-N", "-1", expr], None) for expr in ("1", "0", "E2^0", "E4")),
        *((["integral", "-N", "-1", expr], None) for expr in ("1", "I(E4)")),
        (["rank", "-N", "-1"], "E4\nE6\n"),
        (["rank", "-N", "-1"], ""),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
    def test_negative_truncation_is_an_error(self, capsys, monkeypatch, argv, stdin):
        code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_cocycle_e2_negative_terms(self, capsys):
        code, out, err = run(capsys, ["cocycle", "e2", "s1*s2", "--n-terms", "-5"])
        assert code == 1
        assert out == ""
        assert err == "error: truncation order must be >= 0\n"

    @pytest.mark.parametrize("tau", ["nan+1j", "infj", "inf+1j"])
    def test_cocycle_e2_non_finite_tau(self, capsys, tau):
        code, out, err = run(capsys, ["cocycle", "e2", "s1", "--tau", tau])
        assert (code, out) == (1, "")
        assert err == f"error: tau must be finite, got {complex(tau)}\n"

    @pytest.mark.parametrize("tau", ["", "abc", "1+", "0.3+1.2i"])
    def test_cocycle_e2_malformed_tau_is_a_usage_error(self, capsys, tau):
        # '' was ignored for the admissible point, and 'abc' gave complex()'s message without the flag
        with pytest.raises(SystemExit) as exit_:
            main(["cocycle", "e2", "s1", "--tau", tau])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --tau: invalid complex value: {tau!r}\n")

    def test_cocycle_e2_tau_zero_is_refused(self, capsys):
        # a parsed 0j is falsy, and is still below Im tau = 0.2
        code, out, err = run(capsys, ["cocycle", "e2", "s1", "--tau", "0"])
        assert (code, out, err) == (1, "", "error: tau must satisfy Im >= 0.2, got 0j\n")

    def test_cocycle_e2_tau_too_large(self, capsys):
        # tau + 1 rounds to tau at 50 digits: the value used to read 0
        code, out, err = run(capsys, ["cocycle", "e2", "s1", "--tau", "1e52+1j"])
        assert (code, out) == (1, "")
        assert err == "error: |tau| must be at most 1e30, got (1e+52+1j)\n"

    def test_cocycle_e2_far_up(self, capsys):
        code, out, _ = run(capsys, ["cocycle", "e2", "s1", "--tau", "0.5+1e20j"])
        assert code == 0
        assert "multiple_of_2pi_i: -1" in out

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

    @pytest.mark.parametrize("argv, out", [([], "0\n"), (["--json"], '{"rank":0,"count":0}\n')])
    def test_rank_empty_family(self, capsys, monkeypatch, argv, out):
        assert run(capsys, ["rank", "-N", "5", *argv], stdin="", monkeypatch=monkeypatch) == (0, out, "")

    def test_rank_deficient_json(self, capsys, monkeypatch):
        # I(2*E4) = 2*I(E4): rank 2 of 3, proved by the kernel lifted from the rows mod p
        code, out, _ = run(
            capsys, ["rank", "-N", "10", "--json"],
            stdin="E4\n2*E4\nE6\n", monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == '{"rank":2,"count":3}\n'

    @pytest.mark.parametrize("stdin, message", [
        ("E4,E6\nE4, E5\n", "line 2: unknown name 'E5' (at byte 4)"),
        ("E4\n\n  E6,,E4\n", "line 3: expected an atom (at byte 5)"),
        ("E4, I(E6)\n", "line 1: an integral is not allowed here (at byte 4)"),
        ("E4,\u3000E5\n", "line 1: unknown name 'E5' (at byte 6)"),  # the UTF-8 bytes of the line
    ])
    def test_rank_error_names_the_line(self, capsys, monkeypatch, stdin, message):
        code, out, err = run(capsys, ["rank", "-N", "5"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_cocycle_check_small(self, capsys):
        code, out, _ = run(capsys, ["cocycle", "check", "--pairs", "2", "--n-terms", "40"])
        assert code == 0
        assert "PASS" in out

    def test_cocycle_check_skips_a_refused_pair(self, capsys, monkeypatch):
        # seed 65 draws g1 = (1 1; 1 2), g2 = (3 -1; 1 0) for Delta, and g1*g2 = (4 -1; 5 -1)
        # has no admissible evaluation point: the pair is skipped and another drawn in its place
        import iterqm.cocycles as cocycles

        refused, real = [], cocycles.admissible_tau

        def spy(g):
            try:
                return real(g)
            except ValueError:
                refused.append(g)
                raise

        monkeypatch.setattr(cocycles, "admissible_tau", spy)
        code, out, _ = run(capsys, ["cocycle", "check", "--pairs", "1", "--seed", "65", "--n-terms", "40"])
        assert code == 0
        assert refused == [cocycles.SL2Mat(4, -1, 5, -1)]
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == ["E4", "E6", "Delta"]
        assert all(line.endswith(" over 1 pairs") for line in lines[:3]) and lines[3].startswith("PASS")

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_cocycle_check_needs_a_pair(self, capsys, pairs):
        # no pair checked is no pass
        code, out, err = run(capsys, ["cocycle", "check", "--pairs", pairs])
        assert (code, out) == (1, "")
        assert err == f"error: --pairs must be >= 1, got {pairs}\n"

    @pytest.mark.parametrize("precision", ["inf", "-inf", "nan", "0", "-0", "-1"])
    @pytest.mark.parametrize("command", [["check", "--pairs", "2"], ["e2", "s1*s2"]], ids=["check", "e2"])
    def test_meaningless_precision_is_refused(self, capsys, monkeypatch, command, precision):
        # refused before any residual is computed: inf passes everything, nan and 0 nothing
        import iterqm.cocycles as cocycles

        monkeypatch.setattr(cocycles, "admissible_tau", lambda *args: pytest.fail("a residual was computed"))
        code, out, err = run(capsys, ["cocycle", *command, f"--precision={precision}"])
        assert (code, out) == (1, "")
        assert err == f"error: --precision must be a positive finite number, got {float(precision):g}\n"


class TestOptionsPerCommand:
    """Each command accepts only the options it reads: -N on expand, integral
    and rank, --precision on the cocycle commands, --json/--text on every leaf."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cocycle", "e2", "s1*s2", "-N", "3"],
            ["cocycle", "--json", "e2", "s1*s2"],
            ["derive", "E4", "-N", "7"],
            ["canonical", "I(E4)", "-N", "7"],
            ["lyndon", "--max-weight", "4", "--max-len", "2", "-N", "7"],
            ["expand", "E4", "--precision", "1e-3"],
        ],
        ids=" ".join,
    )
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_read_options_are_accepted(self, capsys):
        assert run(capsys, ["cocycle", "e2", "s1*s2", "--json", "--precision", "1e-6"])[0] == 0
        assert run(capsys, ["expand", "E4", "-N", "1", "--text"]) == (0, "1 + 240*q\n", "")


class TestOnlyRequestedRendererRuns:
    """Each command renders its result in the requested format only."""

    COMMANDS = [
        ["canonical", "E2*I(E4,1) + I(E6) - 2"],
        ["integral", "I(E2,E4)", "-N", "3"],
        ["expand", "E4^3-E6^2", "-N", "2"],
        ["derive", "E2"],
        ["decompose", "E2^2"],
    ]
    TEXT_RENDERERS = ["format_canonical", "format_series", "format_qmpoly"]
    JSON_RENDERERS = ["canonical_to_json", "series_to_json", "qmpoly_to_json"]

    def check(self, capsys, monkeypatch, argv, forbidden):
        expected = run(capsys, argv)

        def refuse(*args):
            raise AssertionError("the renderer of the other format ran")

        for name in forbidden:
            monkeypatch.setattr(cli, name, refuse)
        assert run(capsys, argv) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_json_mode_renders_no_text(self, capsys, monkeypatch, argv):
        self.check(capsys, monkeypatch, argv + ["--json"], self.TEXT_RENDERERS)

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_text_mode_renders_no_json(self, capsys, monkeypatch, argv):
        self.check(capsys, monkeypatch, argv, self.JSON_RENDERERS)


README = Path(__file__).resolve().parent.parent / "README.md"

#: Commands whose trailing comment in README is their text output, with the
#: JSON decoder and text renderer that must reproduce it from ``--json``.
DOCUMENTED_OUTPUTS = {
    "expand": (series_from_json, format_series),
    "integral": (series_from_json, format_series),
    "derive": (qmpoly_from_json, format_qmpoly),
    "canonical": (canonical_from_json, format_canonical),
}


def readme_commands():
    """(argv, stdin, comment) for each line of the sh block under README's "Command line"."""
    text = README.read_text()
    start = text.index("```sh\n", text.index("## Command line")) + len("```sh\n")
    commands = []
    for line in text[start:text.index("```", start)].splitlines():
        command, _, comment = line.partition(" # ")
        stdin = None
        if "|" in command:
            producer, command = command.split("|")
            stdin = shlex.split(producer)[1].encode().decode("unicode_escape")  # printf's escapes
        argv = shlex.split(command)
        assert argv[0] == "iterqm", line
        commands.append((argv[1:], stdin, comment.strip()))
    return commands


class TestReadmeExamples:
    def test_documented_outputs_are_present(self):
        commands = readme_commands()
        documented = [argv[0] for argv, _, comment in commands if comment and argv[0] in DOCUMENTED_OUTPUTS]
        assert documented == ["expand", "derive", "integral", "canonical"]

    @pytest.mark.parametrize(
        "argv, stdin, comment", [pytest.param(*command, id=" ".join(command[0])) for command in readme_commands()]
    )
    def test_command(self, capsys, monkeypatch, argv, stdin, comment):
        code, text, err = run(capsys, argv, stdin, monkeypatch)
        assert (code, err) == (0, "")
        code, out, err = run(capsys, argv + ["--json"], stdin, monkeypatch)
        assert (code, err) == (0, "")
        data = json.loads(out)
        if comment and argv[0] in DOCUMENTED_OUTPUTS:
            assert text == comment + "\n"
            from_json, render = DOCUMENTED_OUTPUTS[argv[0]]
            assert render(from_json(data)) == comment


def fresh_output(argv, env=None):
    """Output of the command in a new interpreter, with ``env`` added to the environment."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""), **(env or {})}
    proc = subprocess.run(
        [sys.executable, "-m", "iterqm.cli", *argv], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


class TestParserReuse:
    """The parser is built once per process, and a call reads nothing but its argv."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_outputs_match_fresh_processes(self, capsys):
        for argv in (["expand", "E2"], ["integral", "I(E2,E4)", "--json"], ["expand", "E4", "-N", "2", "--json"]):
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert out == fresh_output(argv), argv

    @pytest.mark.parametrize("value", ["3", "fifty"])
    @pytest.mark.parametrize("argv", [["expand", "E2"], ["integral", "I(E2,E4)", "--json"]], ids=" ".join)
    def test_environment_leaves_output_unchanged(self, argv, value):
        # -N defaults to 50 whatever the environment holds
        assert fresh_output(argv, {"ITERQM_DEFAULT_N": value}) == fresh_output(argv)


class TestBraidWordParsing:
    def test_tokens(self):
        assert parse_braid_word("s1*s2*s1^-1") == (1, 2, -1)
        assert parse_braid_word("s1, s2^-1") == (1, -2)
        assert parse_braid_word("") == ()

    def test_bad_token(self):
        from iterqm.expr import ExprError

        with pytest.raises(ExprError):
            parse_braid_word("s3")
        with pytest.raises(ExprError, match=r"'s3' .* \(at byte 4\)"):
            parse_braid_word("s1* s3*s2")
        with pytest.raises(ExprError, match=r"'s3' .* \(at byte 6\)"):
            parse_braid_word("s1*\u3000s3")


def test_format_series_zero():
    assert format_series(LogQSeries.zero(5)) == "0"


def test_format_series_signs():
    s = LogQSeries(2, {0: [F(-1, 2), 0, 3], 2: [0, -1, 0]})
    assert format_series(s) == "-1/2 - q*L^2 + 3*q^2"


class TestNumericLayerOnFirstUse:
    """``import iterqm`` and the exact commands leave mpmath unloaded; the
    numeric names are still served from the package."""

    def test_exact_commands_do_not_load_mpmath(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import sys, iterqm, iterqm.cli\n"
            "iterqm.cli.main(['canonical', 'E2*I(E4,1)', '--json'])\n"
            "iterqm.clear_caches()\n"
            "print('mpmath' in sys.modules)\n"
            "iterqm.cli.main(['cocycle', 'e2', 's1', '--json'])\n"
            "print('mpmath' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[1::2] == ["False", "True"]

    def test_submodule_attribute_after_plain_import(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = "import sys, iterqm\nprint('mpmath' in sys.modules, iterqm.cocycles.e2_cocycle.__name__)\n"
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == "False e2_cocycle\n"

    def test_from_import(self):
        from iterqm import cocycles, e2_cocycle

        assert e2_cocycle is cocycles.e2_cocycle

    def test_attribute(self):
        import iterqm
        from iterqm import cocycles

        assert iterqm.SL2Mat is cocycles.SL2Mat
        with pytest.raises(AttributeError, match="no attribute 'sl2mat'"):
            iterqm.sl2mat

    def test_first_use_binds_every_name(self, monkeypatch):
        # after one access, each numeric name is a plain attribute of the
        # package: a second access does not reach the module __getattr__
        import iterqm
        from iterqm import cocycles

        iterqm.e2_cocycle

        def fail(name):
            raise AssertionError(f"iterqm.__getattr__ called for {name!r}")

        monkeypatch.setattr(iterqm, "__getattr__", fail)
        for name in sorted(iterqm._NUMERIC):
            assert getattr(iterqm, name) is getattr(cocycles, name)
        assert iterqm.cocycles is cocycles

    def test_star_import(self):
        import iterqm

        namespace = {}
        exec("from iterqm import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(iterqm.__all__)
        assert namespace["eichler_integral"] is iterqm.cocycles.eichler_integral
