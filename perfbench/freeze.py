"""Write frozen.json: the answers the benchmark's gates compare against.

    python3 perfbench/freeze.py

Records, from the package as it stands, the structure of every
presentation the workloads can draw, and which generators of the query
presentations have class zero.  Both are facts about the groups, not about
a normal-form basis.  Run it only at a commit whose answers are trusted;
the benchmark's tests cross-check the structures against sympy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from burnside import AbelianGroup, BnGPresentation, reduce_class  # noqa: E402
from workloads import (  # noqa: E402
    FROZEN,
    QUERY_PRESENTATIONS,
    presentation_key,
    table_pairs,
)


def main():
    structures = {}
    zero_classes = {}
    for factors, n in table_pairs() + list(QUERY_PRESENTATIONS):
        P = BnGPresentation(AbelianGroup(factors), n)
        free_rank, torsion = P.structure()
        key = presentation_key(factors, n)
        structures[key] = {"free_rank": free_rank, "torsion": torsion}
        if (factors, n) in QUERY_PRESENTATIONS:
            zero_classes[key] = [
                [list(c) for c in g]
                for g in P.generators
                if reduce_class(P, {g: 1}).is_zero()
            ]
        print(key, structures[key], flush=True)
    data = {"structures": structures, "zero_class_generators": zero_classes}
    with open(FROZEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
