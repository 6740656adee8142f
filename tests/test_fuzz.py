"""Property-based checks of the input contract: a quiver or representation
document either parses or raises InputError, and the command line answers
any generated file or argument list with exit code 0, 2, 3 or 4 and never
prints a traceback.

Sizes stay small (at most 5 vertices, entries in [-3, 3], a work budget of
10000), examples are derandomized, and no example database is written.
"""

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from genvar import cli
from genvar.candecomp import canonical_decomposition
from genvar.errors import BudgetError, InputError
from genvar.quiver import Quiver, affine_a2, kronecker
from genvar.reps import (Representation, direct_sum, dual_rep, rep_mod, sample_integer_rep,
                         sample_representation, zero_rep)

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                database=None)

entries = st.integers(-3, 3)
junk = st.one_of(st.none(), st.booleans(), st.floats(-4, 4), st.text(max_size=2))
json_values = st.recursive(
    st.one_of(entries, junk),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=8)


@st.composite
def quiver_docs(draw):
    """Mostly valid quivers: a spanning tree with random orientations plus
    extra arrows, so cycles and repeated arrows occur; sometimes one
    arrow end is moved out of range."""
    n = draw(st.integers(1, 5))
    arrows = []
    for v in range(2, n + 1):
        u = draw(st.integers(1, v - 1))
        arrows.append([u, v] if draw(st.booleans()) else [v, u])
    pairs = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
    arrows += draw(st.lists(pairs, max_size=6 - len(arrows))) if n > 1 else []
    if arrows and draw(st.integers(0, 4)) == 0:
        arrows[0][0] = draw(st.sampled_from([0, n + 1]))
    return {"vertices": n, "arrows": arrows}


@st.composite
def rep_docs(draw, q):
    """Arrow matrices of the right shape for a drawn dimension vector,
    with one slot sometimes replaced by an arbitrary JSON value."""
    dim = draw(st.lists(st.integers(0, 2), min_size=q.vertices,
                        max_size=q.vertices))
    mats = [[[draw(entries) for _ in range(dim[s - 1])] for _ in range(dim[t - 1])]
            for s, t in q.arrows]
    doc = {"dim": dim, "matrices": mats}
    key = draw(st.sampled_from([None, "dim", "matrices"]))
    if key:
        doc[key] = draw(json_values)
    return doc


def _valid_quiver(doc):
    try:
        return Quiver.from_json(doc)
    except InputError:
        return None


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            rc = exc.code
    return rc, err.getvalue()


def assert_contract(rc, err):
    assert rc in (0, 2, 3, 4), (rc, err)
    assert "Traceback" not in err


@FUZZ
@given(st.one_of(quiver_docs(), json_values,
                 st.fixed_dictionaries({"vertices": json_values,
                                        "arrows": json_values})))
def test_quiver_documents_parse_or_raise_input_error(doc):
    q = _valid_quiver(doc)
    if q is not None:
        assert Quiver.from_json(q.to_json()) == q


@FUZZ
@given(st.sampled_from([kronecker(), affine_a2()]).flatmap(
    lambda q: st.tuples(st.just(q), rep_docs(q), st.sampled_from([0, 2, 5]))))
def test_representation_documents_parse_or_raise_input_error(case):
    q, doc, p = case
    try:
        m = Representation.from_json(q, doc, p)
    except InputError:
        return
    assert Representation.from_json(q, m.to_json(), p) == m


def _parsed(data, q):
    """A drawn representation document over Q, or the zero representation
    when the document does not parse."""
    try:
        return Representation.from_json(q, data.draw(rep_docs(q)))
    except InputError:
        return zero_rep(q)


@FUZZ
@given(st.data())
def test_derived_representations_equal_their_checked_rebuild(data):
    # they are built without Representation.__post_init__, which must
    # therefore have nothing left to normalise
    q = _valid_quiver(data.draw(quiver_docs())) or kronecker()
    m, n, k = (_parsed(data, q) for _ in range(3))
    p = data.draw(st.sampled_from([2, 3, 5]))
    seed = data.draw(st.integers(0, 2 ** 16))
    derived = [rep_mod(m, p), dual_rep(m), dual_rep(rep_mod(n, p)), direct_sum(m, n),
               direct_sum(m, n, k), direct_sum(rep_mod(m, p), rep_mod(k, p)),
               sample_representation(q, m.dim, p, seed),
               sample_integer_rep(q, m.dim, random.Random(seed))]
    for r in derived:
        assert r == Representation(r.quiver, r.p, r.dim, r.matrices)
    assert dual_rep(dual_rep(m)) == m
    try:
        dec = canonical_decomposition(q, m.dim, seed=seed)
    except BudgetError:
        return
    for wp, dim, mats in dec.witnesses:
        w = Representation(q, wp, dim, mats)
        assert (w.dim, w.matrices) == (dim, mats)


@FUZZ
@given(st.data())
def test_cli_on_generated_files_exits_with_a_documented_code(data):
    qdoc = data.draw(quiver_docs())
    q = _valid_quiver(qdoc) or kronecker()
    rdoc = data.draw(rep_docs(q))
    size = data.draw(st.sampled_from([q.vertices, q.vertices, 1, 5]))
    d = data.draw(st.lists(st.integers(-1, 2), min_size=size, max_size=size))
    with tempfile.TemporaryDirectory() as tmp:
        qpath, rpath = os.path.join(tmp, "q.json"), os.path.join(tmp, "r.json")
        with open(qpath, "w", encoding="utf-8") as fh:
            json.dump(qdoc, fh)
        with open(rpath, "w", encoding="utf-8") as fh:
            json.dump(rdoc, fh)
        common = ["--quiver", qpath, "--budget", "10000"]
        assert_contract(*run_cli(common + ["cc-map", "--rep", rpath]))
        assert_contract(*run_cli(
            common + ["canonical-decomp", "--d", ",".join(map(str, d))]))


tokens = st.one_of(st.integers(-2, 3).map(str), st.integers(-2, 3).map(str),
                   st.sampled_from(["", "x", "1.5", " 2", "1e1", "--", "-"]))
lists = st.lists(tokens, min_size=1, max_size=4).map(",".join)


@FUZZ
@given(command=st.sampled_from(["generic-var", "canonical-decomp",
                                "affine-generic", "cc-map", "nope"]),
       quiver=st.sampled_from([kronecker(), affine_a2(), None]),
       d=st.one_of(lists, st.none()), seed=st.one_of(tokens, st.none()),
       primes=st.one_of(lists, st.none()))
def test_cli_argument_parsing_exits_with_a_documented_code(command, quiver, d,
                                                          seed, primes):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["--budget", "10000"]
        if quiver is not None:
            path = os.path.join(tmp, "q.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(quiver.to_json(), fh)
            argv += ["--quiver", path]
        if seed is not None:
            argv += ["--seed", seed]
        if primes is not None:
            argv += ["--primes", primes]
        argv.append(command)
        if command == "cc-map":
            argv += ["--rep", os.path.join(tmp, "missing.json")]
        if d is not None:
            argv += ["--d", d]
        assert_contract(*run_cli(argv))
