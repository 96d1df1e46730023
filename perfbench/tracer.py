"""Per-layer tracing of cohint from outside its source tree.

``Tracer.install`` replaces the public functions listed in ``TARGETS`` by
wrappers, in every ``cohint`` module that binds them: the modules import each
other's functions by name (``from .polyalg import kernel_sum``), so patching
the defining module alone would miss most calls.  A ``span`` target records
one span per call (name, start, end, parent) in memory; a ``count`` target,
used on the hottest arithmetic, only bumps counters so that its time stays in
the self time of the span that called it.  ``metrics`` derives inclusive and
self times and the work counters from the spans after the pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

SPAN, COUNT = "span", "count"


def _cosets(counts, args):
    counts["polyalg.kernel_sum.cosets"] += len(args[2])
    return args


def _divide_terms(counts, args):
    counts["polyalg.exact_divide.terms_max"] = max(
        counts["polyalg.exact_divide.terms_max"], len(args[0].terms))
    return args


def _term_pairs(counts, args):
    counts["polyalg.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
    return args


def _rref_cells(counts, args):
    rows = list(args[0])
    counts["matrices.rref.cells"] += len(rows) * args[1]
    return (rows,) + tuple(args[1:])


def _strata(counts, result):
    counts["arrangement.strata"] += len(result.strata)


# Work counters the hooks above keep besides the ``.calls`` of every target.
COUNTERS = ("polyalg.kernel_sum.cosets", "polyalg.exact_divide.terms_max",
            "polyalg.mul.term_pairs", "matrices.rref.cells", "arrangement.strata")

# (layer name, module, attribute, kind, hook on the arguments, hook on the result)
TARGETS = (
    ("cli.main", "cohint.cli", "main", SPAN, None, None),
    ("cli.run", "cohint.cli", "run", SPAN, None, None),
    ("documents.parse_input", "cohint.documents", "parse_input", SPAN, None, None),
    ("weyl.enumerate_group", "cohint.weyl", "enumerate_group", SPAN, None, None),
    ("weyl.set_stabilizer", "cohint.weyl", "set_stabilizer", SPAN, None, None),
    ("weyl.coset_representatives", "cohint.weyl", "coset_representatives", SPAN, None, None),
    ("weyl.averaged_form", "cohint.weyl", "averaged_form", SPAN, None, None),
    ("arrangement.enumerate_strata", "cohint.arrangement", "enumerate_strata", SPAN, None,
     _strata),
    ("polyalg.kernel_sum", "cohint.polyalg", "kernel_sum", SPAN, _cosets, None),
    ("polyalg.exact_divide", "cohint.polyalg", "exact_divide", COUNT, _divide_terms, None),
    ("polyalg.mul", "cohint.polyalg", "Poly.__mul__", COUNT, _term_pairs, None),
    ("polyalg.substitute", "cohint.polyalg", "substitute", SPAN, None, None),
    ("polyalg.rref_span", "cohint.polyalg", "rref_span", SPAN, None, None),
    ("polyalg.invariant_basis", "cohint.polyalg", "invariant_basis", SPAN, None, None),
    ("polyalg.orthogonal_complement", "cohint.polyalg", "orthogonal_complement", SPAN, None,
     None),
    ("matrices.rref", "cohint.matrices", "rref", SPAN, _rref_cells, None),
    ("integrality.bps_space", "cohint.integrality", "bps_space", SPAN, None, None),
    ("integrality.epsilon", "cohint.integrality", "epsilon", SPAN, None, None),
    ("integrality.induct", "cohint.integrality", "induct", SPAN, None, None),
    ("integrality.verify_hilbert", "cohint.integrality", "verify_hilbert", SPAN, None, None),
    ("integrality.verify_isomorphism", "cohint.integrality", "verify_isomorphism", SPAN, None,
     None),
    ("integrality.verify_associativity", "cohint.integrality", "verify_associativity", SPAN,
     None, None),
)

_STRATA = ["cli.main", "cli.run", "weyl.enumerate_group", "weyl.set_stabilizer",
           "arrangement.enumerate_strata"]
_VERIFY = _STRATA + [
    "weyl.coset_representatives", "weyl.averaged_form", "polyalg.kernel_sum",
    "polyalg.exact_divide", "polyalg.mul", "polyalg.substitute", "polyalg.rref_span",
    "polyalg.invariant_basis", "polyalg.orthogonal_complement", "matrices.rref",
    "integrality.bps_space", "integrality.epsilon", "integrality.induct",
    "integrality.verify_hilbert", "integrality.verify_isomorphism",
    "integrality.verify_associativity",
]
# Layers each workload must reach; a traced pass where one of them records
# no call fails, so that a renamed function cannot turn into a silent 0.
EXPECTED_CALLS = {
    "gl3-kernel": _VERIFY,
    "sweep": _VERIFY + ["documents.parse_input"],
    "type-a-strata": _STRATA + ["documents.parse_input"],
}


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _wrap(self, name, fn, kind, before, after):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        calls = name + ".calls"

        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args):
                counts[calls] += 1
                before(counts, args)
                return fn(*args)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[calls] += 1
            if before is not None:
                args = before(counts, args)
            record = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result
        return spanned

    def install(self) -> None:
        """Wrap every target in every cohint module that binds it."""
        import cohint.cli  # noqa: F401  (imports every cohint module)

        modules = [m for n, m in sys.modules.items() if n == "cohint" or n.startswith("cohint.")]
        for name, module, attr, kind, before, after in TARGETS:
            owner = sys.modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)  # a rename fails here, loudly
            wrapper = self._wrap(name, original, kind, before, after)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, alias, wrapper)

    def check_expected(self, workload: str) -> None:
        missing = [n for n in EXPECTED_CALLS[workload] if not self.counts[n + ".calls"]]
        if missing:
            raise TraceError(f"traced {workload} pass recorded no call of {', '.join(missing)}")

    def metrics(self) -> dict[str, float]:
        """Inclusive time (``.s``), self time (``.self_s``) and call count of
        every spanned layer, plus the work counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {n + ".s": 0.0 for n, *_ in TARGETS}
        out.update({n + ".self_s": 0.0 for n, *_ in TARGETS})
        out.update({n + ".calls": 0 for n, *_ in TARGETS})
        out.update({n: 0 for n in COUNTERS})
        for i, (name, start, end, parent) in enumerate(spans):
            out[name + ".self_s"] += end - start - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:  # not nested in a span of the same layer
                out[name + ".s"] += end - start
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
