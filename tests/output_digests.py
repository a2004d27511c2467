"""Digests of every benchmark output: one sha256 per workload and seed.

    python3 tests/output_digests.py            # print the digests
    python3 tests/output_digests.py --check    # compare with DIGESTS, exit 1 on a mismatch

For sep-stages and cli-windows at seeds 1-3, and logic-battery at seeds
1-2, it builds the workload's operations (`bench/<module>.py`,
`build(seed)`), runs each once in order, and feeds `repr((op.name,
output))` of every operation into one sha256; an operation that raises
contributes `('raised', type name, str(exc))`, and a Presentation is hashed
as `serialize_presentation` text, since its default repr holds object
addresses.  For logic-battery a second sha256 takes every `Dfa.minimized()`
table built during the run (TABLE_DIGESTS), so a change to how automata
are built or minimized must leave each minimal table identical; the
number of tables hashed is printed beside the digest.  It
also hashes the standard output and exit code of `sh demos/cli_tour.sh`
and of each `demos/*.py`, run with `src` on PYTHONPATH, and the `--help`
text of the CLI and of each of its commands, at 80 columns (TEXT_DIGESTS).
A change that alters a verdict, a certificate, a CLI report or a help text
on purpose updates the digests and says why.  Run it from the root of a source checkout.
"""

import contextlib
import glob
import hashlib
import importlib
import io
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "bench")]

DIGESTS = {
    "sep-stages": (
        "ebd7ba48d8ef0a923bfe511263a2eb93122aac7fb161068cbb63fa9bebd8d51e",
        "8101001e21e236ac691eab9512e2b2a0f0537c0a92d1e61c25af06f85dfcab01",
        "d5da8b581db57f249c49ae04eeef23f87ea0f5e87f7534585dfecf610fec48da",
    ),
    "cli-windows": (
        "a689a854c5f98e3db6dadb54327a987292901f4fd8d1efe9da421ac459fae56e",
        "565273ce7c1c4399bb42decde35e211c87b3e4056f03f1d5f1cf1ccc1a680250",
        "08f05181594e51e76d8afda363ad001c822bb5c0b7de753c41f24d0a3e2b8e2c",
    ),
    "logic-battery": (
        "7a438212fa637d225acda5133f346541505251fc8fa7fcfe634cc1b70e19a744",
        "ee8f6f24582778dc334fea2f911de029f28bc5e1060bfc75382c9db40a60c721",
    ),
}
TABLE_DIGESTS = {
    "logic-battery": (
        "3b43972edb39fbbeae6230fdbe1dee34dad06bf17a5c6b88b9d94d77f0bb6e8f",
        "4c88626255d0cf0bad6cbb4bdcc882ea6ce87fdf4e7363e5b81c3fc8db3b2db7",
    ),
}
TEXT_DIGESTS = {
    "cli-tour":
        "b0985c7bcd163a02ee0fad835a583e3f77af1d23ba45bf499d9f1813b6602d53",
    "--help":
        "319f4500c173130b8bfbfc6ff807f267af0c1fd1586eae51b737b0cacfefec7a",
    "ball --help":
        "9d470cb1886be73f0c670e6e09bf2f36ddf1ade44d3df3f5eb77a43d8e555cfb",
    "comp-approx --help":
        "c4d7e5652a935d6e07f573d24d665c83f4e82f897eae7e0296798ab591cd599a",
    "decide-comp --help":
        "d93b823a2c290b454cf57b8662cae19da53137260ebb6c154cc2176886a105d5",
    "boundary --help":
        "707ed38d7dbe0a47ec1fb87cdbda56205c31bf2991535c513082d2d713ebc080",
    "sep-semidecide --help":
        "946b0fcad956ebfecd36826c02b244cb80acf2bf1a64d8b5b18aa48012811efc",
    "minimal-sep --help":
        "e218461e9f76a383bb8215a8b799d6968480929f6fad5770525d977f216ca815",
    "ends-from-sepmax --help":
        "d9a1836d49ea84baa415d52a5432528161e9192bff1d43cabbd8c3193131ad39",
    "sepmax-witness --help":
        "b3db016eeb24684cd607eebfe142ffecbee576018bf60ba1ca242ee89c945097",
    "path-extend --help":
        "c3b395286448c485d6684bd49b2f94ac811086c13ddf6d8ce1372fb11710cf66",
    "greedy-path --help":
        "b5d52ca6ecc5efed2a009b20f1845014ada05690731bef8fb5832b318d2205fc",
    "euler-check --help":
        "f71f0a03b3a33fcbaeb1cc3512a4f4cfb90271427097b84291ac2c306cf4f61b",
    "gadget-list --help":
        "e2a7e84ca4e8a0fc10023dbad1de9683c88de9102e44544534848e6156280e8f",
    "automatic-eval --help":
        "e2b6d6d323fe4e25edafae5a46aaaff9430816fe9a97472a1a5db5f3927c79a0",
    "automatic-euler --help":
        "2e43b54f07d53e274307b0511e2d6bbead025e1abfbee02a674c4dcce87468cc",
    "dot-export --help":
        "ac199291b7e50a3a9ffee31cd9738cb29c18c63cd193e7a7fa24d385f28ea2a8",
    "demos/counting_logic.py":
        "dc71ac5e46e8c5adcad1250c5c317196427c8e5f27e5abd15dbebdd7b0440a24",
    "demos/ends_roundtrip.py":
        "133db3c565bd7b213c7a92b9d8e6900a2c32528181b6f9b0ed78aa0acea860e1",
    "demos/eulerian_verdicts.py":
        "cfca68753da8c380053bc36585bb35e763b166ef01bc176259fc7467614a06ef",
    "demos/gadget_zoo.py":
        "1deb39cdba3ab41f6e1d296ddfb7e9d1bc6e270ce422bc5d76de6c7b2a819a2c",
    "demos/greedy_paths.py":
        "093bf947f61b3b4f8e53d5c763f9e6fd9c29378ee29287c6a2f104083ad8f3a7",
    "demos/separation_walkthrough.py":
        "ddde7d73bc5dddfb21ddc81aeae2167510b54c2f3ab62d96925827cc070bf035",
}
MODULES = {"sep-stages": "sep_stages", "cli-windows": "cli_windows",
           "logic-battery": "logic_battery"}


def digests(workload: str, seed: int):
    """sha256 of the operations' outputs, sha256 of every minimized table,
    and the number of tables."""
    from graphends.automatic import Dfa, Presentation, serialize_presentation
    outputs, tables = hashlib.sha256(), hashlib.sha256()
    minimized = Dfa.minimized
    count = 0

    def recorded(dfa):
        nonlocal count
        m = minimized(dfa)
        count += 1
        tables.update(repr((sorted(m.alphabet), m.start, sorted(m.accepting),
                            sorted(m.transitions.items()))).encode())
        return m

    Dfa.minimized = recorded
    try:
        for op in importlib.import_module(MODULES[workload]).build(seed):
            try:
                out = op.run()
            except Exception as exc:
                out = ("raised", type(exc).__name__, str(exc))
            if isinstance(out, Presentation):
                out = serialize_presentation(out)
            outputs.update(repr((op.name, out)).encode())
    finally:
        Dfa.minimized = minimized
    return outputs.hexdigest(), tables.hexdigest(), count


def _run(argv) -> bytes:
    """Standard output and exit code of argv, run from ROOT with src on PYTHONPATH."""
    path = [os.path.join(ROOT, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    return run.stdout + b"exit %d\n" % run.returncode


def _help(cli, argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        cli.main(argv)
    return out.getvalue().encode()


def text_digests() -> dict:
    from graphends import cli
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    texts = {"cli-tour": _run(["sh", os.path.join("demos", "cli_tour.sh")]),
             "--help": _help(cli, ["--help"])}
    for name, *_row in cli.COMMANDS:
        texts[name + " --help"] = _help(cli, [name, "--help"])
    for demo in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        texts["demos/" + os.path.basename(demo)] = _run([sys.executable, demo])
    return {key: hashlib.sha256(text).hexdigest() for key, text in texts.items()}


def main(argv) -> int:
    check = "--check" in argv
    results = []
    for workload, want in DIGESTS.items():
        for seed, expected in enumerate(want, start=1):
            outputs, tables, count = digests(workload, seed)
            results.append(("%s seed %d" % (workload, seed), outputs, expected, ""))
            if workload in TABLE_DIGESTS:
                results.append(("%s minimized tables seed %d" % (workload, seed),
                                tables, TABLE_DIGESTS[workload][seed - 1],
                                "  (%d tables)" % count))
    results += [(key, got, TEXT_DIGESTS.get(key), "") for key, got in text_digests().items()]
    bad = 0
    for key, got, expected, note in results:
        ok = got == expected
        bad += not ok
        print("%s %s%s%s" % (key, got, note,
                             "" if not check or ok else "  MISMATCH, want %s" % expected))
    return 1 if check and bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
