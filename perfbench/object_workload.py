"""Library workload: every element of W(B5 x G2) through weyl's object model.

Enumerates all 46,080 elements, takes the inversion set of each and composes
it with the longest element w0.  Prints one JSON object: the length
histogram, the total number of inversions and how many distinct elements
``w * w0`` reached.  No CLI command reaches this layer.

Run from the repository root as ``PYTHONPATH=src python3 perfbench/object_workload.py``.
"""

import json
import sys

SYSTEM = "B5xG2"


def run(ws) -> dict:
    """Drive the workload through the ``weylstat`` package ``ws``.

    Functions are looked up on ``ws`` at call time, so a tracer that rebinds
    them catches every call.
    """
    rs = ws.build(SYSTEM)
    w0 = ws.longest_element(rs)
    hist: dict[int, int] = {}
    products = set()
    for w in ws.enumerate_elements(rs):
        length = len(ws.inversion_set(w))
        hist[length] = hist.get(length, 0) + 1
        products.add(ws.compose(w, w0).parts)
    return {
        "system": SYSTEM,
        "length_hist": sorted(hist.items()),
        "total_inversions": sum(k * c for k, c in hist.items()),
        "distinct_products": len(products),
    }


def main() -> int:
    import weylstat

    sys.stdout.write(json.dumps(run(weylstat)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
