"""Digests of every benchmark output: one sha256 per workload and seed.

    python3 tests/output_digests.py            # print the digests
    python3 tests/output_digests.py --check    # compare with DIGESTS, exit 1 on a mismatch

For sep-stages and cli-windows at seeds 1-3 it builds the workload's
operations (`bench/<module>.py`, `build(seed)`), runs each once in order,
and feeds `repr((op.name, output))` of every operation into one sha256; an
operation that raises contributes `('raised', type name, str(exc))`.  A
change that alters a verdict, a certificate or a CLI report on purpose
updates DIGESTS and says why.  Run it from the root of a source checkout.
"""

import hashlib
import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "bench")]

DIGESTS = {
    "sep-stages": (
        "01c55fdcb110cb042a3e7056df3441f953a5db4dfe5e46f1e55403cd6ad450e2",
        "95d4ec1209feb155d15852c23a99de67a8e1685aec3ef2b13d8210c346269f7c",
        "c8d48646a02ec0369603704450774299d1f7dfe64edf2ccf321571bcaf836f61",
    ),
    "cli-windows": (
        "a689a854c5f98e3db6dadb54327a987292901f4fd8d1efe9da421ac459fae56e",
        "565273ce7c1c4399bb42decde35e211c87b3e4056f03f1d5f1cf1ccc1a680250",
        "08f05181594e51e76d8afda363ad001c822bb5c0b7de753c41f24d0a3e2b8e2c",
    ),
}
MODULES = {"sep-stages": "sep_stages", "cli-windows": "cli_windows"}


def digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for op in importlib.import_module(MODULES[workload]).build(seed):
        try:
            out = op.run()
        except Exception as exc:
            out = ("raised", type(exc).__name__, str(exc))
        h.update(repr((op.name, out)).encode())
    return h.hexdigest()


def main(argv) -> int:
    check = "--check" in argv
    bad = 0
    for workload, want in DIGESTS.items():
        for seed, expected in enumerate(want, start=1):
            got = digest(workload, seed)
            ok = got == expected
            bad += not ok
            print("%s seed %d %s%s" % (workload, seed, got,
                                       "" if not check or ok else "  MISMATCH, want " + expected))
    return 1 if check and bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
