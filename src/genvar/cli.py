"""Command-line front door: JSON in, JSON out, deterministic.

Exit codes: 0 success, 1 a selftest criterion failed, 2 invalid input,
3 budget exceeded, 4 internal consistency failure or any other
unexpected internal error (reported as one line on stderr, without a
traceback). Every document echoes the inputs (including the
seed and prime pool) so runs are reproducible and certificates can be
re-verified offline.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance, affine, candecomp, ccmap, kronecker, mutation
from .errors import (DEFAULT_BUDGET, DEFAULT_PRIMES, BudgetError, ConsistencyError, InputError,
                     _check_pool)
from .quiver import Quiver
from .reps import Representation


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="genvar",
        description="exact workbench for generic cluster-algebra variables")
    p.add_argument("--quiver", metavar="FILE",
                   help="path to a quiver JSON document")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for all sampling (default 0)")
    p.add_argument("--primes", metavar="P1,P2,...",
                   help="prime pool for point counting")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="work budget per counting, mutation enumeration or base-change check")
    p.add_argument("--out", metavar="FILE",
                   help="write the JSON document here instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mutate-enumerate",
                        help="breadth-first cluster-variable table")
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--sweeps", type=int, default=0)

    sp = sub.add_parser("cc-map", help="character of a representation file")
    sp.add_argument("--rep", required=True, metavar="FILE")
    sp.add_argument("--shifts", metavar="S1,S2,...")

    sp = sub.add_parser("generic-var", help="certified generic character")
    sp.add_argument("--d", required=True, metavar="D1,D2,...")

    sp = sub.add_parser("canonical-decomp",
                        help="generic summands of a dimension vector")
    sp.add_argument("--d", required=True, metavar="D1,D2,...")
    sp.add_argument("--method", default="auto",
                    choices=("auto", "structural", "search"))

    sp = sub.add_parser("affine-generic",
                        help="structural generic value with tag")
    sp.add_argument("--d", required=True, metavar="D1,D2,...")

    sp = sub.add_parser("kronecker-bases",
                        help="finite window of one double-arrow family")
    sp.add_argument("--kind", required=True, choices=kronecker.KINDS)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--bound", default="2,2", metavar="B1,B2")

    sp = sub.add_parser("base-change",
                        help="integer base change between family layers")
    sp.add_argument("--source", required=True, choices=kronecker.KINDS)
    sp.add_argument("--target", required=True, choices=kronecker.KINDS)
    sp.add_argument("--size", type=int, required=True)

    sp = sub.add_parser("independence",
                        help="exact rank report for a family window")
    sp.add_argument("--kind", required=True, choices=kronecker.KINDS)
    sp.add_argument("--n-max", type=int, default=5)
    sp.add_argument("--bound", default="5,5", metavar="B1,B2")

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--criteria", metavar="K1,K2,...")
    return p


def _ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("could not parse %s %r" % (what, text))


def _load_json(path: str, what: str):
    """The JSON document in the file at `path`; InputError naming `what` otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s file: %s" % (what, exc))
    except json.JSONDecodeError as exc:
        raise InputError("%s file is not JSON: %s" % (what, exc))


def _load_quiver(args) -> Quiver:
    if not args.quiver:
        raise InputError("this command needs --quiver FILE")
    return Quiver.from_json(_load_json(args.quiver, "quiver"))


def _pool(args):
    if args.primes is None:
        return DEFAULT_PRIMES
    return _check_pool(_ints(args.primes, "prime pool"))


def _nonnegative(value: int, what: str) -> int:
    if value < 0:
        raise InputError("%s must be >= 0, got %d" % (what, value))
    return value


def _run(args) -> dict:
    pool = _pool(args)
    inputs = {"seed": args.seed, "primes": list(pool),
              "budget": _nonnegative(args.budget, "--budget")}
    results: dict = {}
    certificates: dict = {}

    if args.command == "mutate-enumerate":
        q = _load_quiver(args)
        inputs.update(quiver=q.to_json(), depth=args.depth,
                      sweeps=_nonnegative(args.sweeps, "--sweeps"))
        table = mutation.enumerate_cluster_variables(q, args.depth, sweeps=args.sweeps,
                                                     budget=args.budget)
        results["variables"] = [
            {"den": list(den), "poly": table.entries[den].to_json(),
             "word": list(table.provenance[den])}
            for den in sorted(table.entries)]
        results["clusters"] = sorted(sorted(list(d) for d in c)
                                     for c in table.clusters)
        results["laurent_check"] = mutation.laurent_check(table)

    elif args.command == "cc-map":
        q = _load_quiver(args)
        m = Representation.from_json(q, _load_json(args.rep, "representation"))
        shifts = (_ints(args.shifts, "shifts") if args.shifts
                  else tuple([0] * q.vertices))
        obj = ccmap.DecoratedRep(module=m, shifts=shifts)
        inputs.update(quiver=q.to_json(), rep=m.to_json(), shifts=list(shifts))
        x = ccmap.cc_of_object(obj, pool=pool, budget=args.budget)
        results["poly"] = x.to_json()
        results["den"] = list(x.denominator_vector())

    elif args.command == "generic-var":
        q = _load_quiver(args)
        d = _ints(args.d, "dimension vector")
        inputs.update(quiver=q.to_json(), d=list(d))
        gv = ccmap.generic_variable(q, d, seed=args.seed, pool=pool,
                                    budget=args.budget)
        results["poly"] = gv.poly.to_json()
        results["den"] = list(gv.poly.denominator_vector())
        results["rigid"] = gv.rigid
        certificates["generic"] = gv.to_json()

    elif args.command == "canonical-decomp":
        q = _load_quiver(args)
        d = _ints(args.d, "dimension vector")
        inputs.update(quiver=q.to_json(), d=list(d), method=args.method)
        dec = candecomp.canonical_decomposition(q, d, method=args.method,
                                                seed=args.seed)
        results["summands"] = dec.to_json()["summands"]
        certificates["witnesses"] = dec.to_json()["witnesses"]

    elif args.command == "affine-generic":
        q = _load_quiver(args)
        d = _ints(args.d, "dimension vector")
        inputs.update(quiver=q.to_json(), d=list(d))
        gv = affine.generic_variable_affine(q, d, seed=args.seed, pool=pool,
                                            budget=args.budget)
        results.update(gv.to_json())

    elif args.command == "kronecker-bases":
        bound = _ints(args.bound, "bound")
        inputs.update(kind=args.kind, n_max=args.n_max, bound=list(bound))
        fam = kronecker.build_basis(args.kind, n_max=args.n_max,
                                    monomial_bound=bound, budget=args.budget)
        results["family"] = fam.to_json()

    elif args.command == "base-change":
        inputs.update(source=args.source, target=args.target, size=args.size)
        bc = kronecker.base_change(args.source, args.target, args.size,
                                   budget=args.budget)
        results["base_change"] = bc.to_json()
        results["positivity"] = kronecker.positivity_report(bc.matrix)

    elif args.command == "independence":
        bound = _ints(args.bound, "bound")
        inputs.update(kind=args.kind, n_max=args.n_max, bound=list(bound))
        fam = kronecker.build_basis(args.kind, n_max=args.n_max,
                                    monomial_bound=bound, budget=args.budget)
        results["independence"] = kronecker.independence_check(fam)

    else:  # selftest
        selected = None
        if args.criteria:
            selected = set(_ints(args.criteria, "criteria selection"))
        ok, reports = acceptance.run_all(
            selected, echo=lambda line: print(line, file=sys.stderr))
        results["passed"] = ok
        # timings go to stderr only, so the document stays deterministic
        results["reports"] = [{k: v for k, v in r.items() if k != "seconds"} for r in reports]

    return {"command": args.command, "inputs": inputs,
            "results": results, "certificates": certificates}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _run(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return 4
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("input error: cannot write output file: %s" % exc, file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if args.command == "selftest" and not doc["results"]["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
