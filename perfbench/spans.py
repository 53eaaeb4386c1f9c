"""Layer spans recorded from outside the engine.

``install()`` replaces each listed function with a wrapper that opens a span
on entry and closes it on exit.  Engine modules import layer functions by
name (``from .groebner import groebner_basis``), so the wrapper is written
into every ``genuslab.*`` module that binds the original, and methods are
replaced on their class.  The ring arithmetic is not wrapped: it is called
tens of millions of times and its time belongs to the layer that calls it.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  A function's inclusive time counts only its outermost
activation, so recursion is not counted twice.
"""

import functools
import sys
import time
from collections import defaultdict

# (layer, module, attribute) for every wrapped entry point.  ``invariants``
# is split into the length tables, the invariants derived from them and the
# checkers built on top.
SPANS = (
    ("groebner", "genuslab.groebner", "groebner_basis"),
    ("groebner", "genuslab.groebner", "kernel_of_map"),
    ("groebner", "genuslab.groebner", "syzygies"),
    ("groebner", "genuslab.groebner", "quotient_dimension"),
    ("groebner", "genuslab.groebner", "quotient_total_length"),
    ("groebner", "genuslab.groebner", "quotient_hilbert_function"),
    ("groebner", "genuslab.groebner", "count_standard_monomials"),
    ("modules", "genuslab.modules", "ideal_power"),
    ("modules", "genuslab.modules", "submodule_colon"),
    ("modules", "genuslab.modules", "submodule_intersect"),
    ("modules", "genuslab.modules", "present_subquotient"),
    ("modules", "genuslab.modules", "module_from_matrix"),
    ("modules", "genuslab.modules", "GradedModule.h0_submodule"),
    ("modules", "genuslab.modules", "GradedModule.annihilator"),
    ("modules", "genuslab.modules", "GradedModule.quotient_by_ideal"),
    ("modules", "genuslab.modules", "GradedModule.submodule_with"),
    ("modules", "genuslab.modules", "GradedModule.minimal_generator_count"),
    ("modules", "genuslab.modules", "ParameterSequence.__init__"),
    ("homology", "genuslab.homology", "free_resolution"),
    ("homology", "genuslab.homology", "minimal_generators"),
    ("homology", "genuslab.homology", "minimal_presentation"),
    ("homology", "genuslab.homology", "ext_module"),
    ("homology", "genuslab.homology", "dual_sections"),
    ("homology", "genuslab.homology", "depth"),
    ("homology", "genuslab.homology", "koszul_homology_lengths"),
    ("tables", "genuslab.invariants", "hilbert_samuel_table"),
    ("tables", "genuslab.invariants", "hilbert_coefficients"),
    ("tables", "genuslab.invariants", "module_coefficients"),
    ("tables", "genuslab.invariants", "LengthTable.extended"),
    ("derived", "genuslab.invariants", "invariant_report"),
    ("derived", "genuslab.invariants", "multiplicity"),
    ("derived", "genuslab.invariants", "sectional_genus"),
    ("derived", "genuslab.invariants", "euler_chi1"),
    ("derived", "genuslab.invariants", "hdeg"),
    ("derived", "genuslab.invariants", "torsion"),
    ("derived", "genuslab.invariants", "sv_invariant"),
    ("checkers", "genuslab.invariants", "inequality_suite"),
    ("checkers", "genuslab.invariants", "check_theorem34"),
    ("checkers", "genuslab.invariants", "check_prop38"),
    ("checkers", "genuslab.invariants", "is_superficial"),
    ("checkers", "genuslab.invariants", "is_d_sequence"),
    ("checkers", "genuslab.invariants", "find_d_sequence_generators"),
    ("corpus", "genuslab.corpus", "ulrich_check"),
    ("dsl", "genuslab.dsl", "parse_session"),
    ("report", "genuslab.report", "to_json"),
    ("report", "genuslab.report", "serialize_invariants"),
    ("report", "genuslab.report", "serialize_equivalence"),
    ("report", "genuslab.report", "serialize_checklist"),
    ("report", "genuslab.report", "serialize_prop38"),
    ("cli", "genuslab.cli", "run"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))

# Functions whose inclusive time is also reported as one group.
GROUPS = {
    "groebner.counting": ("quotient_total_length", "quotient_dimension",
                          "quotient_hilbert_function",
                          "count_standard_monomials"),
}

COUNTERS = ("groebner.gb_elems", "homology.betti_sum", "checkers.dseq_attempts")


class Recorder:
    """Span stack plus the totals kept per layer, function and counter."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []          # [start, time covered by children]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.active = defaultdict(int)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.keys = []
        self._tables = {}        # id(table) -> (table, pair key)
        self._rows = {}          # pair key -> (module, largest length)
        self._resolutions = {}   # id(complex) -> complex

    def wrap(self, layer: str, fn_name: str, fn):
        key = f"{layer}.{fn_name}"
        self.keys.append(key)
        groups = [g for g, members in GROUPS.items() if fn_name in members]
        observe = getattr(self, "_after_" + fn_name.replace(".", "_"), None)
        clock, stack = self.clock, self.stack
        self_s, calls, incl_s, active = (self.self_s, self.calls, self.incl_s,
                                         self.active)

        def traced(*args, **kwargs):
            calls[key] += 1
            outer = [k for k in [key] + groups if not active[k]]
            for k in outer:
                active[k] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if observe is not None:
                    observe(args, None, err)
                raise
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self_s[layer] += duration - frame[1]
                for k in outer:
                    active[k] -= 1
                    incl_s[k] += duration
            if observe is not None:
                observe(args, result, None)
            return result

        return functools.wraps(fn)(traced)

    # -- counters read off arguments and results -----------------------------

    def _after_groebner_basis(self, args, result, err):
        if result is not None:
            self.counters["groebner.gb_elems"] += len(result.gb)

    def _after_find_d_sequence_generators(self, args, result, err):
        # NotFoundWithinBudget carries the transcript of the failed search
        transcript = (result.search_transcript if err is None
                      else getattr(err, "transcript", None))
        if transcript is not None:
            self.counters["checkers.dseq_attempts"] += len(transcript)

    def _after_free_resolution(self, args, result, err):
        # the resolution is memoized on the module: count each one once
        if result is not None and id(result) not in self._resolutions:
            self._resolutions[id(result)] = result
            self.counters["homology.betti_sum"] += sum(result.betti_numbers())

    def _note_table(self, table, pair):
        self._tables[id(table)] = (table, pair)
        module, best = self._rows.get(pair, (None, 0))
        self._rows[pair] = (module, max(best, len(table.values)))

    def _after_hilbert_samuel_table(self, args, result, err):
        if result is not None:
            module, q = args[0], args[1]
            gens = q.gens if hasattr(q, "gens") else tuple(q)
            pair = (id(module), frozenset(gens))
            self._rows.setdefault(pair, (module, 0))
            self._note_table(result, pair)

    def _after_LengthTable_extended(self, args, result, err):
        if result is not None and id(args[0]) in self._tables:
            self._note_table(result, self._tables[id(args[0])][1])

    def metrics(self) -> dict:
        """Flat name -> value map of everything recorded."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for key in self.keys:
            out[f"{key}.calls"] = self.calls[key]
        for key in self.keys + list(GROUPS):
            out[f"{key}.incl_s"] = self.incl_s[key]
        out.update(self.counters)
        out["tables.rows"] = sum(best for _, best in self._rows.values())
        return out


def install(recorder: Recorder) -> None:
    """Wrap every entry point in SPANS at each binding site."""
    import genuslab.cli  # noqa: F401  (imports every engine module)
    for layer, mod_name, attr in SPANS:
        module = sys.modules[mod_name]
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[fn_name]
            setattr(owner, fn_name, recorder.wrap(layer, attr, original))
            continue
        original = getattr(module, fn_name)
        traced = recorder.wrap(layer, fn_name, original)
        for name, mod in list(sys.modules.items()):
            if name != "genuslab" and not name.startswith("genuslab."):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, traced)
