"""Golden CLI documents: every command regenerates byte-identical JSON.

Each case is one `genvar` invocation; its document is committed under
tests/golden/<name>.json. Quiver and representation inputs are written
from the library constructors, and every document echoes them, so the
files do not depend on where the inputs were stored.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from genvar import cli
from genvar.quiver import a_n, affine_a2, kronecker

GOLDEN = pathlib.Path(__file__).with_name("golden")

QUIVERS = {"kron": kronecker(), "a3": a_n(3), "atilde": affine_a2()}
REPS = {"band11": {"dim": [1, 1], "matrices": [[[1]], [[2]]]},
        "tube212": {"dim": [2, 1, 2],
                    "matrices": [[[1, 0]], [[1], [1]], [[1, 0], [0, 1]]]}}

CASES = [
    ("generic-var-kron-2-2", ["--quiver", "kron", "generic-var", "--d", "2,2"]),
    ("generic-var-kron-3-3", ["--quiver", "kron", "generic-var", "--d", "3,3"]),
    ("generic-var-kron-m1-2", ["--quiver", "kron", "generic-var", "--d=-1,2"]),
    ("generic-var-atilde-2-2-2", ["--quiver", "atilde", "generic-var", "--d", "2,2,2"]),
    ("kronecker-bases-G", ["kronecker-bases", "--kind", "G"]),
    ("kronecker-bases-SZ", ["kronecker-bases", "--kind", "SZ"]),
    ("kronecker-bases-CZ", ["kronecker-bases", "--kind", "CZ"]),
    ("independence-G", ["independence", "--kind", "G"]),
    ("independence-SZ", ["independence", "--kind", "SZ"]),
    ("independence-CZ", ["independence", "--kind", "CZ"]),
    ("base-change-G-SZ", ["base-change", "--source", "G", "--target", "SZ", "--size", "5"]),
    ("base-change-CZ-G", ["base-change", "--source", "CZ", "--target", "G", "--size", "5"]),
    ("affine-generic-kron-2-2", ["--quiver", "kron", "affine-generic", "--d", "2,2"]),
    ("affine-generic-atilde-2-1-2", ["--quiver", "atilde", "affine-generic", "--d", "2,1,2"]),
    ("affine-generic-atilde-12-11-12", ["--quiver", "atilde", "affine-generic", "--d",
                                        "12,11,12"]),
    ("cc-map-kron-band", ["--quiver", "kron", "cc-map", "--rep", "band11"]),
    ("cc-map-atilde-shifted", ["--quiver", "atilde", "cc-map", "--rep", "tube212",
                               "--shifts", "0,1,0"]),
    ("mutate-enumerate-a3", ["--quiver", "a3", "mutate-enumerate", "--depth", "10"]),
    ("mutate-enumerate-kron", ["--quiver", "kron", "mutate-enumerate", "--depth", "4",
                               "--sweeps", "2"]),
    ("canonical-decomp-kron-5-2-auto", ["--quiver", "kron", "canonical-decomp", "--d", "5,2"]),
    ("canonical-decomp-kron-3-3-search", ["--quiver", "kron", "canonical-decomp", "--d", "3,3",
                                          "--method", "search"]),
] + [
    ("canonical-decomp-atilde-%s-%s" % (d.replace(",", "-"), method),
     ["--quiver", "atilde", "canonical-decomp", "--d", d, "--method", method])
    for d in ("2,2,2", "1,2,3", "2,3,2") for method in ("structural", "search")
]


def render(argv: list[str], workdir: pathlib.Path) -> str:
    """Run one CLI case in-process and return its document text."""
    argv = list(argv)
    for flag, table in (("--quiver", QUIVERS), ("--rep", REPS)):
        if flag in argv:
            i = argv.index(flag) + 1
            doc = table[argv[i]]
            path = workdir / (argv[i] + ".json")
            path.write_text(json.dumps(doc if flag == "--rep" else doc.to_json()),
                            encoding="utf-8")
            argv[i] = str(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_document(name, argv, tmp_path):
    expected = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
    assert render(argv, tmp_path) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES:
            (GOLDEN / (name + ".json")).write_text(render(argv, pathlib.Path(tmp)),
                                                   encoding="utf-8")
            print(name, file=sys.stderr)
