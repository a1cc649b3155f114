"""Per-layer tracing of the program, installed from outside it.

Each traced public function is replaced, in every ``t3mcg`` module namespace
that holds it, by a wrapper that records a span ``[name, start, end, parent,
op]`` in memory.  Functions called far too often for a span each (the tube
field evaluation, the candidate filters, the exact word-image fallback) are
only counted.  Self time is a span's duration minus the time its child spans
cover; spans nest because the program is single-threaded.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

PREFIX = "t3mcg."

# (module, attribute) traced as spans.  The span name drops the package prefix
# and any class name: t3mcg.mesh.homology HomologyData.curve_class becomes
# mesh.homology.curve_class.
SPANS = (
    ("t3mcg.mesh.surface", "build_surface"),
    ("t3mcg.mesh.surface", "validate_surface"),
    ("t3mcg.mesh.curves", "slice_field"),
    ("t3mcg.mesh.curves", "tube_section"),
    ("t3mcg.mesh.curves", "walk_pairing"),
    ("t3mcg.mesh.curves", "cut_along"),
    ("t3mcg.mesh.homology", "build_homology"),
    ("t3mcg.mesh.homology", "twist_matrix"),
    ("t3mcg.mesh.homology", "tube_pattern"),
    ("t3mcg.mesh.homology", "HomologyData.curve_class"),
    ("t3mcg.rep6", "derive_table"),
    ("t3mcg.rep6", "solve_shear6"),
    ("t3mcg.rep6", "resolve_handedness"),
    ("t3mcg.rep6", "derive_swap6"),
    ("t3mcg.rep6", "word_image6"),
    ("t3mcg.rep6", "kernel_screen"),
    ("t3mcg.rep3", "word_image3"),
    ("t3mcg.rep3", "decompose_sl3"),
    ("t3mcg.words", "parse_word"),
    ("t3mcg.words", "free_reduce"),
    ("t3mcg.words", "render"),
    ("t3mcg.words", "expand_macro"),
    ("t3mcg.verifier", "run_suite"),
    ("t3mcg.cli", "main"),
)

CHECK_SPAN = "verifier.check."

# The ten suite checks, in report order.
SUITE_CHECKS = (
    "shear_images",
    "kernel_generators",
    "twist_macros_downstairs",
    "rotation_words",
    "swap_involution",
    "twist_inverse_pairs",
    "handedness_arbiter",
    "projection_intertwining",
    "mesh_facts",
    "decomposition_roundtrip",
)


def _one(args, result):
    return 1


def _length(args, result):
    return len(result)


# (module, attribute, counter, amount) counted without a span.
COUNTERS = (
    ("t3mcg.mesh.curves", "TubeField.point_value", "mesh.curves.point_value.calls", _one),
    ("t3mcg.mesh.curves", "PlaneField.candidate_triangles", "mesh.curves.candidate_triangles", _length),
    ("t3mcg.mesh.curves", "TubeField.candidate_triangles", "mesh.curves.candidate_triangles", _length),
    ("t3mcg.rep6", "_word_image6_exact", "rep6.word_image6.exact_fallbacks", _one),
)


def _surface_counts(counts, args, mesh):
    counts["mesh.surface.vertices"] += len(mesh.vertices)
    counts["mesh.surface.triangles"] += len(mesh.triangles)
    counts["mesh.surface.active_cells"] += len(set(mesh.tri_cells))


def _slice_counts(counts, args, curves):
    counts["mesh.curves.sliced_triangles"] += len(curves.tri_segments)
    counts["mesh.curves.loops"] += len(curves.loops)
    counts["mesh.curves.loop_steps"] += sum(len(loop.steps) for loop in curves.loops)


def _shear_counts(counts, args, solution):
    counts["rep6.solve_shear6.candidates"] += solution.candidate_count


def _decompose_counts(counts, args, word):
    counts["rep3.decompose_sl3.letters"] += len(word)
    entry = max(abs(x) for row in args[0] for x in row)
    counts["rep3.decompose_sl3.max_entry"] = max(counts["rep3.decompose_sl3.max_entry"], entry)


# Counts read off a traced call's arguments and result, after its span ends.
RESULT_COUNTS = {
    "mesh.surface.build_surface": _surface_counts,
    "mesh.curves.slice_field": _slice_counts,
    "rep6.solve_shear6": _shear_counts,
    "rep3.decompose_sl3": _decompose_counts,
}


def span_name(module: str, attr: str) -> str:
    return module[len(PREFIX):] + "." + attr.rsplit(".", 1)[-1]


# Per-layer metrics: (name, unit).  ".self_s" and ".calls" are means per op.
PER_LAYER = (
    [(span_name(m, a) + ".self_s", "s") for m, a in SPANS]
    + [(span_name(m, a) + ".calls", "count") for m, a in SPANS]
    + [(CHECK_SPAN + name + ".s", "s") for name in SUITE_CHECKS]
    + [(c, "count") for c in dict.fromkeys(c for _, _, c, _ in COUNTERS)]
    + [
        ("mesh.surface.vertices", "count"),
        ("mesh.surface.triangles", "count"),
        ("mesh.surface.active_cells", "count"),
        ("mesh.curves.sliced_triangles", "count"),
        ("mesh.curves.slice_hit_ratio", "ratio"),
        ("mesh.curves.loops", "count"),
        ("mesh.curves.loop_steps", "count"),
        ("rep6.solve_shear6.candidates", "count"),
        ("rep3.decompose_sl3.letters", "count"),
        ("trace_overhead_ratio", "ratio"),
        ("trace_coverage_ratio", "ratio"),
        ("fail_ratio", "ratio"),
    ]
)


def _owner(module, attr: str):
    """The object holding ``attr`` ("Class.method" names a class attribute)."""
    if "." in attr:
        cls, attr = attr.split(".")
        return getattr(module, cls), attr
    return module, attr


def _replace_everywhere(original, wrapper):
    for name, module in list(sys.modules.items()):
        if name.startswith(PREFIX) or name == PREFIX[:-1]:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class Tracer:
    """Spans and counts of the traced calls made inside ops."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.op = None  # id of the op in progress; None outside ops
        self.op_times: list = []

    def install(self):
        """Wrap every traced function; the program must already be imported."""
        for module_name, attr in SPANS:
            owner, key = _owner(sys.modules[module_name], attr)
            name = span_name(module_name, attr)
            self._wrap(owner, key, self._span(name, getattr(owner, key), RESULT_COUNTS.get(name)))
        for module_name, attr, counter, amount in COUNTERS:
            owner, key = _owner(sys.modules[module_name], attr)
            self._wrap(owner, key, self._counter(counter, getattr(owner, key), amount))
        report = sys.modules["t3mcg.verifier"].RelationReport
        report.run = self._span(lambda args: CHECK_SPAN + args[1], report.run, None)

    @staticmethod
    def _wrap(owner, key, wrapper):
        original = getattr(owner, key)
        if isinstance(owner, type):
            setattr(owner, key, wrapper)
        else:
            _replace_everywhere(original, wrapper)

    def _span(self, name, fn, result_counts):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                   stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            nested = stack and spans[stack[-1]][0] == rec[0]  # e.g. a retried build
            if result_counts is not None and not nested:
                result_counts(counts, args, result)
            return result

        return traced

    def _counter(self, counter, fn, amount):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.op is not None:
                counts[counter] += amount(args, result)
            return result

        return counted

    # -- analysis -----------------------------------------------------------

    def _self_times(self):
        durations = [end - start for _, start, end, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for i, rec in enumerate(self.spans):
            if rec[3] >= 0:
                covered[rec[3]] += durations[i]
        return durations, [d - c for d, c in zip(durations, covered)]

    def _ancestors(self, i):
        parent = self.spans[i][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def _root_shares(self, durations):
        """Per op: the share of its wall time covered by top-level spans."""
        root_time = [0.0] * len(self.op_times)
        for i, rec in enumerate(self.spans):
            if rec[3] < 0:
                root_time[rec[4]] += durations[i]
        return [r / t for r, t in zip(root_time, self.op_times)]

    def layer_metrics(self, untraced_p50_s: float, failed: int, attempted: int) -> dict:
        """Every per-layer metric, as means per traced op."""
        n_ops = len(self.op_times)
        durations, self_times = self._self_times()
        totals: Counter = Counter(self.counts)
        for i, rec in enumerate(self.spans):
            totals[rec[0] + ".calls"] += 1
            totals[rec[0] + ".self_s"] += self_times[i]
            totals[rec[0] + ".s"] += durations[i]
        values = {metric: totals[metric] / n_ops for metric, _ in PER_LAYER}
        candidates = self.counts["mesh.curves.candidate_triangles"]
        values["mesh.curves.slice_hit_ratio"] = (
            self.counts["mesh.curves.sliced_triangles"] / candidates if candidates else 0.0
        )
        values["trace_overhead_ratio"] = statistics.median(self.op_times) / untraced_p50_s
        values["trace_coverage_ratio"] = statistics.median(self._root_shares(durations))
        values["fail_ratio"] = failed / attempted
        return values

    def coverage_problems(self, workload: str) -> list:
        """Reasons the traced run did not exercise what its workload is for."""
        problems = []
        n_ops = len(self.op_times)
        names = Counter(rec[0] for rec in self.spans)
        if workload.startswith("pipeline"):
            homology_slices = Counter()
            handedness_tubes = Counter()
            for i, rec in enumerate(self.spans):
                above = list(self._ancestors(i))
                if rec[0] == "mesh.curves.slice_field" and above[:1] == ["mesh.curves.tube_section"] \
                        and "mesh.homology.build_homology" in above:
                    homology_slices[rec[4]] += 1
                if rec[0] == "mesh.curves.tube_section":
                    for owner in ("rep6.resolve_handedness", CHECK_SPAN + "handedness_arbiter"):
                        if owner in above:
                            handedness_tubes[rec[4], owner] += 1
            for op in range(n_ops):
                if homology_slices[op] != 9:
                    problems.append(f"op {op}: {homology_slices[op]} build_homology tube slices, expected 9")
                for owner in ("rep6.resolve_handedness", CHECK_SPAN + "handedness_arbiter"):
                    if handedness_tubes[op, owner] < 1:
                        problems.append(f"op {op}: no handedness tube section under {owner}")
            shares = self._root_shares(self._self_times()[0])
            if min(shares) < 0.9:
                problems.append(f"top-level spans cover only {min(shares):.3f} of an op")
        elif workload.startswith("mesh"):
            if names["mesh.curves.tube_section"] or self.counts["mesh.curves.point_value.calls"]:
                problems.append("the mesh workload built a tube section")
        elif workload.startswith("algebra"):
            if self.counts["rep6.word_image6.exact_fallbacks"] == 0:
                problems.append("no word image took the exact fallback")
            if self.counts["rep3.decompose_sl3.max_entry"] < 10**5:
                problems.append("no decomposed matrix had an entry of at least 10^5")
        return problems
