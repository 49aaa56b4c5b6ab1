"""Span tracer that wraps the program's public functions from outside.

``Tracer.install()`` replaces each function named in ``WRAPPED`` by a
wrapper in every namespace of the package that binds it (``hyper_catalan``
is bound in ``core``, ``series`` and ``cli``), so calls are seen whichever
module makes them.  It fails before patching anything when a name is
missing or when two namespaces bind the name to different objects: a
renamed function must break the trace, not silently drop a layer.

Each outermost call of a wrapped function records a span (name, start,
end, parent, task id).  Recursive calls through the wrapper record
nothing.  A span's self time is its duration minus the intervals of its
direct children, where a child's interval also covers the tracer's own
bookkeeping for it; that bookkeeping is thereby charged to no span.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

WRAPPED = {
    "cli": ("main",),
    "core": ("hyper_catalan", "central_count", "power_coeff", "raney_count"),
    "series": ("mul_truncated", "evaluate_geometric", "table_rows", "layer_slice",
               "build_beta", "enumerate_types"),
    "subdigon": ("count_subdigons", "enumerate_subdigons", "serialize", "to_json"),
    "raney": ("parse_string", "enumerate_lists", "identify_words", "list_rotations",
              "is_word_list", "is_word"),
    "catpow": ("verify_power_identity", "catalan_power"),
}

# spans kept in memory for the span file; aggregates never depend on it
MAX_SPANS = 200_000


class TracerError(RuntimeError):
    pass


class Stat:
    __slots__ = ("calls", "s", "self_s", "errors", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.active = False


def _pairs_in_level(p, q, spec, level) -> int:
    """Pairs (a, b) of terms of p and q with level(a) + level(b) <= d."""
    hp = Counter(level(m, spec.measure) for m in p.terms)
    hq = Counter(level(m, spec.measure) for m in q.terms)
    return sum(np * nq for lp, np in hp.items() for lq, nq in hq.items() if lp + lq <= spec.d)


class Tracer:
    def __init__(self, package: str = "hypercatalan"):
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.task_id = -1
        self._stack: list[list] = []  # [span id, child interval total]
        self._next_id = 0
        self._patches: list[tuple[dict, str, object]] = []
        self.level = None

    # -- installation --------------------------------------------------------

    def _namespaces(self) -> list[tuple[str, dict]]:
        prefix = self.package + "."
        return sorted(
            (name, vars(mod))
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        )

    def resolve(self) -> list[tuple[str, object, list[dict]]]:
        """(qualified name, original, namespaces binding it) for every wrapped name."""
        spaces = self._namespaces()
        plan = []
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"{self.package}.{layer}")
            if home is None:
                raise TracerError(f"module {self.package}.{layer} is not loaded")
            for name in names:
                original = vars(home).get(name)
                if not callable(original):
                    raise TracerError(f"{layer}.{name} is missing")
                bound = []
                for space_name, space in spaces:
                    if name not in space:
                        continue
                    if space[name] is not original:
                        raise TracerError(
                            f"{space_name}.{name} is bound to another object than {layer}.{name}"
                        )
                    bound.append(space)
                plan.append((f"{layer}.{name}", original, bound))
        return plan

    def install(self) -> None:
        plan = self.resolve()
        # the mul_truncated counters need the program's level function
        self.level = getattr(sys.modules[f"{self.package}.series"], "level", None)
        if not callable(self.level):
            raise TracerError("series.level is missing")
        for key, original, spaces in plan:
            self.stats[key] = Stat()
            wrapper = self._wrap(key, original, _POST.get(key))
            for space in spaces:
                self._patches.append((space, key.split(".")[1], original))
                space[key.split(".")[1]] = wrapper

    def uninstall(self) -> None:
        for space, name, original in reversed(self._patches):
            space[name] = original
        self._patches.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, key: str, fn, post):
        stat = self.stats[key]
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stat.active:
                return fn(*args, **kwargs)
            enter = perf_counter()
            stat.active = True
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                stat.active = False
                stat.calls += 1
                stat.s += end - start
                stat.self_s += end - start - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, key, start, end, parent, self.task_id))
                else:
                    self.dropped += 1
                if stack:
                    # the parent's children cover this call and its bookkeeping
                    stack[-1][1] += perf_counter() - enter
            if post is not None:
                before = perf_counter()
                post(self, args, result)
                if stack:
                    stack[-1][1] += perf_counter() - before
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, key, start, end, parent, task in self.spans:
                fh.write(json.dumps({"id": span_id, "name": key, "start": start,
                                     "end": end, "parent": parent, "task": task}) + "\n")


# bookkeeping after a call, outside every span: post(tracer, args, result)


def _post_mul(tracer, args, result):
    p, q, spec = args
    tracer.counts["series.pairs_tried"] += len(p) * len(q)
    tracer.counts["series.pairs_in_level"] += _pairs_in_level(p, q, spec, tracer.level)
    tracer.counts["series.terms_out"] += len(result)


def _post_len(counter: str):
    def post(tracer, args, result):
        tracer.counts[counter] += len(result)
    return post


def _post_identify(tracer, args, result):
    tracer.counts["raney.symbols_in"] += len(args[0])


def _post_rotations(tracer, args, result):
    tracer.counts["raney.rotations_tried"] += len(args[0])
    tracer.counts["raney.rotations_found"] += len(result)


_POST = {
    "series.mul_truncated": _post_mul,
    "series.build_beta": _post_len("series.beta_terms"),
    "series.enumerate_types": _post_len("series.types_out"),
    "subdigon.enumerate_subdigons": _post_len("subdigon.subdigons_out"),
    "raney.enumerate_lists": _post_len("raney.lists_out"),
    "raney.identify_words": _post_identify,
    "raney.list_rotations": _post_rotations,
}
