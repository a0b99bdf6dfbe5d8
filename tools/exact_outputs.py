"""Print the exact outputs of the benchmark's soundness or certify operations.

Usage: python3 tools/exact_outputs.py [--src DIR] [--seed N] [--workload soundness|certify]

The operations of one seed are built by this checkout's
``bench/workloads.py`` and run in process with the iterqm package found
under DIR (default: this checkout's ``src``).  For each of the 150
``soundness`` expressions it runs ``iterqm canonical --json`` and
``iterqm integral -N 30 --json`` and prints one line: the expression's
index, the SHA-256 of each output and the expression.  For each ``certify``
operation it prints the operation's index, its truncation N and the
``independence_rank`` of its family.  Two trees give the same exact results
on these inputs exactly when the two listings are byte-identical, so a
change is checked against a base commit with

    git worktree add ../base BASE
    python3 tools/exact_outputs.py --src ../base/src > base.txt
    python3 tools/exact_outputs.py > head.txt
    cmp base.txt head.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the iterqm package")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=("soundness", "certify"), default="soundness")
    args = parser.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    from workloads import Certify, Soundness

    import iterqm

    if os.path.dirname(os.path.dirname(os.path.abspath(iterqm.__file__))) != os.path.abspath(args.src):
        sys.exit(f"iterqm was imported from {iterqm.__file__}, not from {args.src}")
    if args.workload == "certify":
        workload = Certify()
        for i, op in enumerate(workload.inputs(args.seed, 1)):
            print(i, op["n"], workload.run(op), sep="\t")
        return 0
    workload = Soundness()
    for i, op in enumerate(workload.inputs(args.seed, 1)):
        digests = (hashlib.sha256(out.encode()).hexdigest() for out in workload.run(op))
        print(i, *digests, op["text"], sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main())
