"""Spans around the public functions of each layer, for the traced run.

`Tracer.install` replaces each traced function wherever a module of the
package holds a reference to it (``hadamard`` keeps its own reference to
``count_sign_solutions_columns``, for example), and methods on their class.
A span records a name, a start, an end and its parent span; spans stay in
memory and are written out when the run ends.  Work counts are recorded at
the same boundaries.  The untraced run never imports this module.

The per-layer metrics do not depend on how fast the program runs: the
set-up counts once, and the spans and work counts of the rounds are divided
by the number of rounds, so each metric is "set-up plus one round".
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

PACKAGE = "acbounds"

# (module, attribute) of every traced function; "Class.method" names a method
# and "Class.__init__" the constructor, which is reported under the class name.
TRACED = [
    ("oracle", "atom_distribution"),
    ("oracle", "count_sign_solutions_columns"),
    ("oracle", "count_sign_solutions"),
    ("distributions", "LatticeDistribution.__init__"),
    ("distributions", "convolve"),
    ("distributions", "self_convolve"),
    ("distributions", "symmetrize"),
    ("distributions", "LatticeDistribution.ball_mass"),
    ("distributions", "replication_atom_check"),
    ("distributions", "replication_sbp_check"),
    ("bounds", "enumerate_reciprocal_tuples"),
    ("bounds", "atom_bound_dominates"),
    ("bounds", "halasz_atom_bound"),
    ("bounds", "stable_rank"),
    ("hadamard", "enumerate_partial_hadamard"),
    ("hadamard", "iter_partial_hadamard"),
    ("hadamard", "pipeline_bound_check"),
    ("hadamard", "greedy_rank_partition"),
    ("exactmat", "rank"),
    ("system", "VectorSystem.block_ranks"),
    ("sweeps", "random_vector_system"),
    ("sweeps", "random_lattice_distribution"),
    ("normal", "solve_case_constants"),
    ("normal", "improved_case_constants"),
    ("normal", "partial_census"),
]
GENERATORS = {"hadamard.iter_partial_hadamard"}  # time inside the generator counts

WORK_COUNTS = [  # (name, unit)
    ("oracle.atom_distribution.support", "count"),
    ("oracle.atom_distribution.sign_vectors", "count"),
    ("distributions.convolve.terms", "count"),
    ("hadamard.enumerate_partial_hadamard.nodes", "count"),
    ("hadamard.enumerate_partial_hadamard.nodes_per_matrix", "ratio"),
    ("hadamard.pipeline_bound_check.matrices", "count"),
    ("hadamard.pipeline_bound_check.solution_calls_per_matrix", "ratio"),
    ("normal.partial_census.matrices", "count"),
]

CALL, RESUME = 0, 1


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


def layer_metric_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, attr in TRACED:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    return out + WORK_COUNTS


class Tracer:
    def __init__(self):
        self.names = []
        # One entry per span in each array; parent -1 marks a root span.
        self.span_name = array("i")
        self.span_kind = array("b")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.stack = []
        self.open_by_name = []
        self.counts = {name: 0 for name, _ in WORK_COUNTS}
        self.matrices_found = 0
        self.pipeline_solution_calls = 0
        self.setup_spans = None  # spans and counts at the end of set-up
        self.setup_counts = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name_idx, kind):
        idx = len(self.span_name)
        self.span_name.append(name_idx)
        self.span_kind.append(kind)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append(idx)
        self.open_by_name[name_idx] += 1
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter_ns()
        self.stack.pop()
        self.open_by_name[self.span_name[idx]] -= 1

    def _register(self, name):
        self.names.append(name)
        self.open_by_name.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name):
        idx = self._register(name)
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(idx, CALL)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(args, kwargs, result)
            if name in GENERATORS:
                return tracer._resumes(result, idx)
            return result

        return traced

    def _resumes(self, gen, idx):
        while True:
            span = self._open(idx, RESUME)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(span)
            yield item

    def install(self):
        """Wrap every traced function of the imported package, in place."""
        modules = [mod for key, mod in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, attr in TRACED:
            name = span_name(module_name, attr)
            if name == "hadamard.pipeline_bound_check":
                self.pipeline_idx = len(self.names)
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(cls.__dict__[method], name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def end_setup(self):
        """Mark the end of set-up: what follows is the rounds."""
        self.setup_spans = len(self.span_name)
        self.setup_counts = self._totals()

    # -- work counts ----------------------------------------------------------

    def _count_oracle_atom_distribution(self, args, kwargs, table):
        system = args[0] if args else kwargs["system"]
        self.counts["oracle.atom_distribution.support"] += len(table.probs)
        self.counts["oracle.atom_distribution.sign_vectors"] += 1 << system.n

    def _count_oracle_count_sign_solutions_columns(self, args, kwargs, result):
        if self.open_by_name[self.pipeline_idx]:
            self.pipeline_solution_calls += 1

    def _count_distributions_convolve(self, args, kwargs, result):
        p, q = args[:2]
        self.counts["distributions.convolve.terms"] += len(p.atoms) * len(q.atoms)

    def _count_hadamard_enumerate_partial_hadamard(self, args, kwargs, result):
        self.counts["hadamard.enumerate_partial_hadamard.nodes"] += result.nodes_visited
        self.matrices_found += result.normalized_count

    def _count_hadamard_pipeline_bound_check(self, args, kwargs, report):
        self.counts["hadamard.pipeline_bound_check.matrices"] += report.matrices_checked

    def _count_normal_partial_census(self, args, kwargs, result):
        n = args[0] if args else kwargs["n"]
        self.counts["normal.partial_census.matrices"] += 1 << (n * n)

    # -- results --------------------------------------------------------------

    def _totals(self) -> dict:
        return dict(self.counts, matrices_found=self.matrices_found,
                    pipeline_solution_calls=self.pipeline_solution_calls)

    def layer_metrics(self, rounds: int) -> dict:
        """calls, busy time and self time per traced function, plus the work
        counts: set-up once plus the mean over `rounds` rounds.

        Busy time sums the spans of a name that have no ancestor of the same
        name; self time is a span's duration minus that of its direct children.
        """
        k = len(self.names)
        # Totals per phase, in integers: [set-up, all rounds].
        calls, busy, own = ([[0] * k, [0] * k] for _ in range(3))
        names, parents = self.span_name, self.span_parent
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child_ns = [0] * len(durations)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += durations[i]
        for i, name_idx in enumerate(names):
            phase = int(i >= self.setup_spans)
            if self.span_kind[i] == CALL:
                calls[phase][name_idx] += 1
            own[phase][name_idx] += durations[i] - child_ns[i]
            ancestor = parents[i]
            while ancestor >= 0 and names[ancestor] != name_idx:
                ancestor = parents[ancestor]
            if ancestor < 0:
                busy[phase][name_idx] += durations[i]

        def per_round(setup, rounds_total):
            return setup + rounds_total / rounds

        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = per_round(calls[0][i], calls[1][i])
            out[f"{name}.busy_s"] = per_round(busy[0][i], busy[1][i]) / 1e9
            out[f"{name}.self_s"] = per_round(own[0][i], own[1][i]) / 1e9
        end = self._totals()
        work = {key: per_round(value, end[key] - value) for key, value in self.setup_counts.items()}
        out.update((name, work[name]) for name in self.counts)
        nodes = work["hadamard.enumerate_partial_hadamard.nodes"]
        found = work["matrices_found"]
        out["hadamard.enumerate_partial_hadamard.nodes_per_matrix"] = nodes / found if found else 0.0
        matrices = work["hadamard.pipeline_bound_check.matrices"]
        out["hadamard.pipeline_bound_check.solution_calls_per_matrix"] = (
            work["pipeline_solution_calls"] / matrices if matrices else 0.0
        )
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "kinds": ["call", "resume"],
                    "name": self.span_name.tolist(),
                    "kind": self.span_kind.tolist(),
                    "start_ns": self.span_start.tolist(),
                    "end_ns": self.span_end.tolist(),
                    "parent": self.span_parent.tolist(),
                    "setup_spans": self.setup_spans,  # spans before this index are set-up
                },
                fh,
                separators=(",", ":"),
            )
