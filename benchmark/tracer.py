"""Outside-in tracing of genvar's layers for the benchmark's traced run.

`Tracer.install` replaces each traced function with a wrapper in every
module that holds a reference to it (genvar imports by name, so
`ccmap`, `candecomp` and `affine` keep their own `hom_dim`, `repfq` its
own `linalg` functions), and patches three `LaurentPoly` methods on the
class. The wrapper records a span (name, start, end, parent span, query
id); spans stay in memory until `write_spans`. genvar's source is not
touched.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# (module, function) pairs traced as spans named "module.function".
FUNCTIONS = (
    ("repfq", "count_all_subreps"), ("repfq", "good_primes"),
    ("repfq", "chi_all"), ("repfq", "hom_dim"),
    ("linalg", "rank_fraction"), ("linalg", "rank_mod_p"),
    ("ccmap", "generic_variable"), ("ccmap", "cc_of_module"),
    ("candecomp", "canonical_decomposition"), ("candecomp", "is_schur_root"),
    ("candecomp", "generic_ext_vanishes"), ("candecomp", "verify_certificate"),
    ("affine", "generic_variable_affine"), ("affine", "delta_character"),
    ("mutation", "enumerate_cluster_variables"), ("mutation", "mutate"),
    ("mutation", "cluster_monomials"),
    ("kronecker", "base_change"), ("kronecker", "build_basis"),
    ("kronecker", "independence_check"),
)
# LaurentPoly methods traced as "laurent.<short name>".
METHODS = (("__mul__", "mul"), ("__pow__", "pow"), ("divide_exact", "divide_exact"))

# Every per-layer metric with its unit, in report order.
METRICS = (
    [("%s.%s.%s" % (mod, fn, m), u)
     for mod, fn in FUNCTIONS if fn != "hom_dim"
     for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("laurent.%s.%s" % (short, m), u) for _attr, short in METHODS
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("repfq.hom_dim.q_calls", "count"), ("repfq.hom_dim.q_self_s", "s"),
       ("repfq.hom_dim.fp_calls", "count"), ("repfq.hom_dim.fp_self_s", "s"),
       ("repfq.count_all_subreps.points", "count"),
       ("repfq.count_all_subreps.max_q", "elements"),
       ("repfq.count_all_subreps.repeat_ratio", "ratio"),
       ("repfq.good_primes.accept_ratio", "ratio"),
       ("ccmap.generic_variable.repeat_ratio", "ratio"),
       ("ccmap.generic_variable.samples_accepted", "count"),
       ("ccmap.generic_variable.sample_accept_ratio", "ratio"),
       ("trace.coverage", "ratio"), ("trace.overhead_ratio", "ratio")]
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent span index or -1, query id)
        self.spans: list = []
        self._stack: list[int] = []
        self.query_id = -1
        self._restore: list = []
        self._seen_counts: set = set()
        self._seen_generic: set = set()
        self.counts_repeat = 0
        self.max_q = 0
        self.primes_accepted = 0
        self.primes_examined = 0
        self.generic_repeat = 0
        self.samples_accepted = 0
        self.sample_attempts = 0

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name_of, observe=None):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            nid = self._name_id(name_of(args))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.query_id)

        return wrapper

    # -------------------------------------------------------- observers

    def _observe_counts(self, args, kwargs):
        m = args[0]
        key = m.key()
        if key in self._seen_counts:
            self.counts_repeat += 1
        else:
            self._seen_counts.add(key)
        self.max_q = max(self.max_q, m.p)

    def _good_primes(self, fn):
        def counted(m_int, pool, count, guards=()):
            pool = tuple(pool)
            try:
                good = fn(m_int, pool, count, guards)
            except Exception:
                self.primes_examined += len(pool)
                raise
            self.primes_accepted += len(good)
            self.primes_examined += pool.index(good[-1]) + 1 if good else 0
            return good
        return counted

    def _generic(self, fn):
        sig = inspect.signature(fn)

        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            q = a["q"]
            key = (q.vertices, q.arrows, tuple(int(x) for x in a["d"]),
                   int(a["seed"]), tuple(a["pool"]))
            repeat = key in self._seen_generic
            self._seen_generic.add(key)
            out = fn(*args, **kwargs)
            if repeat:
                self.generic_repeat += 1
            else:
                self.samples_accepted += len(out.samples)
            return out
        return counted

    def _sample_parts(self, fn):
        def counted(*args, **kwargs):
            self.sample_attempts += 1
            return fn(*args, **kwargs)
        return counted

    # ---------------------------------------------------------- install

    def install(self, extra_modules=()) -> None:
        """Wrap every traced function wherever genvar (or one of
        `extra_modules`) holds it by name."""
        from genvar import ccmap, laurent
        holders = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "genvar" or name.startswith("genvar."))]
        holders.extend(extra_modules)
        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(sys.modules["genvar." + mod_name], fn_name)
            name = "%s.%s" % (mod_name, fn_name)
            inner, observe = orig, None
            if fn_name == "hom_dim":
                def name_of(args):
                    return "repfq.hom_dim.fp" if args[0].p else "repfq.hom_dim.q"
            else:
                def name_of(_args, name=name):
                    return name
            if fn_name == "count_all_subreps":
                observe = self._observe_counts
            elif fn_name == "good_primes":
                inner = self._good_primes(orig)
            elif fn_name == "generic_variable":
                inner = self._generic(orig)
            self._rebind(holders, orig, self._wrap(inner, name_of, observe))
        self._rebind(holders, ccmap._sample_parts,
                     self._sample_parts(ccmap._sample_parts))
        cls = laurent.LaurentPoly
        for attr, short in METHODS:
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, lambda _a, n="laurent." + short: n))

    def _rebind(self, holders, orig, new) -> None:
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    # ---------------------------------------------------------- metrics

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics from the recorded spans. Self time is a
        span's duration minus its children's; spans nest strictly in one
        thread, so children never overlap."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        roots = 0.0
        for nid, t0, t1, parent, _qid in self.spans:
            dur = t1 - t0
            calls[nid] += 1
            total[nid] += dur
            if parent < 0:
                roots += dur
            else:
                child[parent] += dur
        self_s = [0.0] * len(self.names)
        for i, (nid, t0, t1, _p, _q) in enumerate(self.spans):
            self_s[nid] += (t1 - t0) - child[i]
        by_name = {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

        out = {}
        for name, _unit in METRICS:
            base, _, kind = name.rpartition(".")
            if kind in ("calls", "self_s"):
                c, s = by_name.get(base, (0, 0.0))
                out[name] = c if kind == "calls" else s
        for field, span in (("q", "repfq.hom_dim.q"), ("fp", "repfq.hom_dim.fp")):
            c, s = by_name.get(span, (0, 0.0))
            out["repfq.hom_dim.%s_calls" % field] = c
            out["repfq.hom_dim.%s_self_s" % field] = s
        count_calls = by_name.get("repfq.count_all_subreps", (0, 0.0))[0]
        gen_calls = by_name.get("ccmap.generic_variable", (0, 0.0))[0]
        out["repfq.count_all_subreps.points"] = len(self._seen_counts)
        out["repfq.count_all_subreps.max_q"] = self.max_q
        out["repfq.count_all_subreps.repeat_ratio"] = _ratio(self.counts_repeat, count_calls)
        out["repfq.good_primes.accept_ratio"] = _ratio(self.primes_accepted, self.primes_examined)
        out["ccmap.generic_variable.repeat_ratio"] = _ratio(self.generic_repeat, gen_calls)
        out["ccmap.generic_variable.samples_accepted"] = self.samples_accepted
        out["ccmap.generic_variable.sample_accept_ratio"] = _ratio(
            self.samples_accepted, self.sample_attempts)
        out["trace.coverage"] = _ratio(roots, wall)
        return out

    def write_spans(self, path: str) -> None:
        """Write every span once, with times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent", "query"],
                       "spans": [[nid, round(t0 - origin, 7), round(t1 - origin, 7), p, q]
                                 for nid, t0, t1, p, q in self.spans]}, fh)
