"""The exact-output listings of ``tools/exact_outputs.py`` against the digests
committed beside it, in ``tools/exact_outputs.sha256``.

The ``soundness``, ``certify``, ``cocycle`` and ``parse`` listings of seed 1
are recomputed here (about 5 s, 4 of them ``parse``, which covers ``^`` on
forms and on integrals and every token of the expression language); CI
recomputes all eight on every event.
"""

import hashlib
import os
import re
import subprocess
import sys

import mpmath
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")
#: The (workload, seed) listings that CI diffs against the base commit of a pull request.
LISTINGS = [("soundness", 1), ("certify", 1), ("cocycle", 1), ("parse", 1), ("decompose", 1),
            ("cocycle", 4242), ("lyndon", 1), ("certify", 4242)]


def committed_digests() -> dict[tuple[str, int], str]:
    with open(os.path.join(TOOLS, "exact_outputs.sha256")) as f:
        rows = [line.split() for line in f if line.strip() and not line.startswith("#")]
    return {(workload, int(seed)): digest for workload, seed, digest in rows}


def test_one_digest_per_listing():
    digests = committed_digests()
    assert sorted(digests) == sorted(LISTINGS)
    assert all(len(digest) == 64 and set(digest) <= set("0123456789abcdef") for digest in digests.values())


@pytest.mark.parametrize("workload", ["soundness", "certify", "cocycle", "parse"])
def test_listing_matches_its_digest(workload):
    argv = [sys.executable, os.path.join(TOOLS, "exact_outputs.py"), "--seed", "1", "--workload", workload]
    out = subprocess.run(argv, capture_output=True, check=True, timeout=120).stdout
    with open(os.path.join(TOOLS, "exact_outputs.sha256")) as f:
        assumed = re.search(r"mpmath (\S+);", f.read()).group(1)
    assert hashlib.sha256(out).hexdigest() == committed_digests()[workload, 1], (
        f"the digests assume mpmath {assumed}; this run has mpmath {mpmath.__version__}")
