"""Recompute the stored verdicts of the pinned logic-battery draws.

    python3 bench/regen_pinned.py

Run from the root of a source checkout.  The verdicts come from the
enumerate-everything model in brute_logic.py, which walks the raw transition
tables and never calls the library's evaluator; the library is
used only to assemble each presentation from its stored tables, exactly as
the benchmark does.  The tables themselves are data: draws 49, 58 and 101
of seed 7 under the recipe of `random_presentation` in
`tests/test_automatic.py`.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import brute_logic  # noqa: E402
from logic_battery import PINNED_FILE, SENTENCES, build_presentation  # noqa: E402


def main():
    with open(PINNED_FILE, encoding="utf-8") as fh:
        data = json.load(fh)
    for d in data["draws"]:
        model = brute_logic.Model(build_presentation(d["tables"]))
        d["verdicts"] = {s: model.verdict(s) for s in SENTENCES}
        print("seed %d draw %d: %s" % (d["seed"], d["index"], d["verdicts"]))
    with open(PINNED_FILE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
