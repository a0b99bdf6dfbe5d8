"""Run the mutation catalogue: each named mutant of ``src/`` must fail the tests that guard it.

Usage: python3 tools/mutants.py

A mutant is an exact snippet of one file under ``src/``, its replacement and
the test selection that must kill it.  Each is applied to a fresh temporary
copy of ``src/``, never in place, and ``pytest -x -q <selection>`` runs from
this checkout with ``PYTHONPATH`` set to the copy, so the tests are this
checkout's and the package is the mutant; Hypothesis does not shrink a failing
example there, as any failure kills the mutant.  The run fails (exit status 1)
if a mutant survives, that is if its tests pass, or if its snippet does not
occur exactly once in its file: a refactor that moves the code updates the
catalogue with it.  Before any mutant, every selection runs once on an
unmutated copy and must pass, so that a kill is the mutant's doing and not
that of a test already failing.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: pytest with Hypothesis's shrink and explain phases off: a failing example kills the mutant as it is found
PYTEST = """import sys, pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[p for p in Phase if p.name not in ("shrink", "explain")])
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))"""


class Mutant(NamedTuple):
    name: str
    path: str  #: the file, relative to src/
    snippet: str
    replacement: str
    selection: tuple[str, ...]  #: pytest node ids that must fail


CATALOGUE = (
    Mutant(
        "unpack-unreduced", "iterqm/qseries.py",
        '''        return [(lo + (hi << 64)) % modulus for lo, hi in zip(u, u)]
    return [int.from_bytes(data[i : i + size], "little") % modulus for i in range(0, len(data), size)]''',
        '''        return [lo + (hi << 64) for lo, hi in zip(u, u)]
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]''',
        ("tests/test_qseries.py::TestPack",),
    ),
    Mutant(
        "product-without-bias", "iterqm/qseries.py",
        '''        packed = (packed & low) + bias
        sums[k] = tuple([(packed >> s & mask) - half for s in shifts])''',
        '''        packed &= low
        sums[k] = tuple([packed >> s & mask for s in shifts])''',
        ("tests/test_qseries.py::TestIntegerProduct::test_slots_alternate_at_the_bound",),
    ),
    Mutant(
        "unpack-10-byte-slot-as-9", "iterqm/qseries.py",
        '{9: "B", 10: "H", 12: "I", 16: "Q"}', '{9: "B", 10: "B", 12: "I", 16: "Q"}',
        ("tests/test_qseries.py::TestPack", "tests/test_quasimodular.py::TestRowReduce::test_gauss_jordan_mod_p_against_fractions"),
    ),
    Mutant(
        "pivots-without-back-reduction", "iterqm/canonicalize.py",
        "    if free:  # rows found later are zero in the pivot columns of earlier ones",
        "    if False:",
        ("tests/test_quasimodular.py::TestRowReduce", "tests/test_canonicalize.py::TestModularGradedPiece"),
    ),
    Mutant(
        "floor-read-at-any-n", "iterqm/canonicalize.py",
        "    if floor and floor[0] <= trunc:", "    if floor:",
        ("tests/test_properties.py::TestWarmRanksEqualCold",),
    ),
    Mutant(
        "proof-key-without-multipliers", "iterqm/canonicalize.py",
        '''    key = frozenset(zip(multipliers, words))  # the family, whatever its row order
    n = len(key)''',
        '''    key = frozenset(words)
    n = len(frozenset(zip(multipliers, words)))''',
        ("tests/test_properties.py::TestWarmRanksEqualCold",),
    ),
    Mutant(
        # the kept kernel by row index into the first caller's rows as given, read by index into a later caller's
        "kept-kernel-by-row-index", "iterqm/canonicalize.py",
        '''        elif kept:
            rank, kernel = kept
        else:
            rank, kernel = kept = _residue_certificate(rows, t)''',
        '''        elif kept:
            rank, kernel = kept
            given = list(zip(multipliers, words))
            kernel = kernel and tuple({given[i]: c for i, c in v.items()} for v in kernel)
        else:
            rank, kernel = _residue_certificate(rows, t)
            given = list(zip(multipliers, words))
            kept = rank, kernel and tuple({given.index(r): c for r, c in v.items()} for v in kernel)''',
        ("tests/test_properties.py::TestWarmRanksEqualCold",),  # its rank stays right, its eliminations do not
    ),
    Mutant(
        "step-sign-flipped", "iterqm/qseries.py",  # the (k+1) a_(k+1) term of the solver mod p, added
        "            j = sign * (k + 1)", "            j = -sign * (k + 1)",
        ("tests/test_properties.py::test_integral_step_is_the_primitive_of_minus_the_product",),
    ),
    Mutant(
        "inverses-kept-without-modulus", "iterqm/qseries.py",  # the first modulus's table read for every other
        '''@lru_cache(maxsize=16)
def _inverses(modulus: int, sign: int, size: int) -> tuple[int, ...]:''',
        '''def _inverses(modulus: int, sign: int, size: int, kept={}) -> tuple[int, ...]:
    return kept.setdefault((sign, size), _table(modulus, sign, size))


def _table(modulus: int, sign: int, size: int) -> tuple[int, ...]:''',
        ("tests/test_properties.py::test_integral_step_is_the_primitive_of_minus_the_product",),
    ),
    Mutant(
        "step-without-q0-entry", "iterqm/qseries.py",  # D(L^(k+1)) = (k+1) L^k at q^0, solved as 0
        "            out.setdefault(k + 1, [0] * (n + 1))[0] = c[0] * inv[k + 1] % modulus",
        "            out.setdefault(k + 1, [0] * (n + 1))[0] = 0",
        ("tests/test_properties.py::test_integral_step_is_the_primitive_of_minus_the_product",),
    ),
    Mutant(
        "integral-from-lower-truncation", "iterqm/iterint.py",  # a word's integral kept at q^t answers every N > t
        '''@lru_cache(maxsize=_INTEGRAL_CACHE_SIZE)
def _iter_integral(word: BarWord, trunc: int, modulus: int) -> LogQSeries:''',
        '''def _iter_integral(word: BarWord, trunc: int, modulus: int, lower={}) -> LogQSeries:
    if (kept := lower.get((word, modulus))) is None or kept.trunc > trunc:
        kept = lower[word, modulus] = _integral_at(word, trunc, modulus)
    return kept


@lru_cache(maxsize=_INTEGRAL_CACHE_SIZE)
def _integral_at(word: BarWord, trunc: int, modulus: int) -> LogQSeries:''',
        ("tests/test_properties.py::TestWarmRanksEqualCold",),
    ),
)


def run(selection: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int, str]:
    """Run ``pytest -x -q <selection>`` on a copy of src/, with the mutant applied if one is given.

    Returns pytest's exit status and the tail of its output, or -1 and why the run could not be made.
    """
    with tempfile.TemporaryDirectory(prefix="iterqm-mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant:
            path = os.path.join(src, mutant.path)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            if (count := text.count(mutant.snippet)) != 1:
                return -1, f"its snippet occurs {count} times in src/{mutant.path}, not once"
            with open(path, "w", encoding="utf-8") as f:
                f.write(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                   PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import iterqm; print(iterqm.__file__)"], env=env, cwd=ROOT,
                               capture_output=True, text=True)
        if not where.stdout.startswith(src):
            return -1, f"the tests would import iterqm from {where.stdout.strip() or where.stderr.strip()}, not the copy"
        tests = subprocess.run([sys.executable, "-c", PYTEST, "-x", "-q", "-p", "no:cacheprovider", *selection],
                               env=env, cwd=ROOT, capture_output=True, text=True)
        return tests.returncode, tests.stdout[-2000:] + tests.stderr[-2000:]


def main() -> int:
    selection = tuple(dict.fromkeys(node for m in CATALOGUE for node in m.selection))
    status, output = run(selection)
    if status != 0:
        print(f"the tests of the catalogue do not pass on unmutated src/ (status {status}):\n{output}")
        return 1
    failures = 0
    for m in CATALOGUE:
        start = time.perf_counter()
        status, output = run(m.selection, m)
        if status == 0:
            problem = "it survives: " + " ".join(m.selection) + " passed"
        elif status != 1:  # 1: tests failed; anything else is an error of the run, not a kill
            problem = output if status == -1 else f"pytest exited {status}:\n{output}"
        took = f"{time.perf_counter() - start:.1f} s"
        print(f"{m.name}: {f'killed in {took}' if status == 1 else f'FAILED in {took}, {problem}'}", flush=True)
        failures += status != 1
    print(f"{len(CATALOGUE) - failures} of {len(CATALOGUE)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
