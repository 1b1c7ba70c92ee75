"""Spans around the public functions of each layer, installed from outside.

Nothing under src/ knows about tracing: a Tracer rebinds each target at the
name its callers look it up by (a module attribute or a class attribute),
records one span per call, and puts every original back on uninstall.
A span holds its name, start, end, parent span and case id; spans stay in
memory until write_spans. Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter

from evidential import cli, combine, evaluate, formats, lattice, pipeline
from evidential.belief import MassFunction

DIAGNOSE = "evaluate.diagnose_case"


def _lattice_ops(counts, args, result):
    n = args[1]
    ops = n << (n - 1)  # one add per (axis, lower half) pair
    counts["lattice.ops"] += ops
    counts["lattice.bytes_computed"] += 24 * ops  # two float64 reads, one write


def _pair_products(counts, args, result):
    counts["combine.pair_products"] += len(args[0]) * len(args[1])


def _commonality_operands(counts, args, result):
    counts["combine.commonality_operands"] += len(args[0])


def _extracted(counts, args, result):
    counts["extract.entries"] += len(result.entries)
    counts["extract.focal_elements"] += sum(len(m) for m in result.entries.values())


def _replaced(counts, args, result):
    generated = args[0].entries
    counts["expert.replaced_entries"] += sum(
        1 for item, m in result.entries.items() if m is not generated.get(item)
    )


def _removed(counts, args, result):
    counts["correlate.removed_params"] += len(result.removed)


def _file_bytes(key):
    def hook(counts, args, result):
        counts[key] += os.path.getsize(args[1])
    return hook


# (owner, attribute, span name, counting hook): each attribute is the one the
# program's callers resolve, named after the layer that defines it.
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "run_pipeline", "pipeline.run_pipeline", None),
    (cli, "generate_cases", "synth.generate_cases", None),
    (pipeline, "build_frequency_table", "extract.build_frequency_table", None),
    (pipeline, "extract_bpas", "extract.extract_bpas", _extracted),
    (pipeline, "evaluate_set", "evaluate.evaluate_set", None),
    (pipeline, "part_modify", "expert.part_modify", _replaced),
    (pipeline, "pearson_matrix", "correlate.pearson_matrix", None),
    (pipeline, "prune_components", "correlate.prune_components", _removed),
    (evaluate, "diagnose_case", DIAGNOSE, None),
    (evaluate, "combine_all", "combine.combine_all", None),
    (evaluate, "observed_set", "evaluate.observed_set", None),
    (combine, "dempster_combine", "combine.dempster_combine", _pair_products),
    (combine, "fast_combine_via_commonality", "combine.commonality", _commonality_operands),
    (MassFunction, "__init__", "belief.mass_function_init", None),
    (MassFunction, "interval", "belief.interval", None),
    (MassFunction, "to_dict", "belief.to_dict", None),
    (MassFunction, "from_dict", "belief.from_dict", None),
]
TARGETS += [
    (lattice, name, f"lattice.{name}", _lattice_ops)
    for name in ("subset_sum", "superset_sum", "superset_diff")
]
_FORMAT_HOOKS = {
    "write_bpa_set": _file_bytes("formats.bpa_json_bytes"),
    "write_report": _file_bytes("formats.report_json_bytes"),
}
TARGETS += [
    (formats, name, f"formats.{name}", _FORMAT_HOOKS.get(name))
    for name, obj in sorted(vars(formats).items())
    if callable(obj) and not name.startswith("_")
    and getattr(obj, "__module__", None) == formats.__name__ and not isinstance(obj, type)
]

# Bindings as the program defines them, taken before any tracer exists.
ORIGINALS = {(owner, attr): vars(owner).get(attr) for owner, attr, _, _ in TARGETS}


def installed_wrappers() -> list[str]:
    """Targets currently bound to something other than the program's own object."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), original in ORIGINALS.items()
        if vars(owner).get(attr) is not original
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.cases: list[str] = []
        self.errors: list[str] = []
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # [span index, child time in ns]

    def __enter__(self) -> "Tracer":
        for owner, attr, name, hook in TARGETS:
            original = ORIGINALS[(owner, attr)]
            if original is None:
                self.missing.append(name)
                continue
            setattr(owner, attr, self._wrap(original, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for (owner, attr), original in ORIGINALS.items():
            if original is not None:
                setattr(owner, attr, original)

    def _wrap(self, original, name, hook):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, name, hook))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(original, name, hook, args, kwargs)

        return wrapper

    def _call(self, fn, name, hook, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        if name == DIAGNOSE:
            case = args[0].case_id
        else:
            case = self.cases[parent] if parent >= 0 else ""
        index = len(self.names)
        self.names.append(name)
        self.cases.append(case)
        self.errors.append("")
        self.parents.append(parent)
        frame = [index, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        self.starts.append(start)
        self.ends.append(start)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.errors[index] = type(exc).__name__
            self.raised[(name, type(exc).__name__)] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.ends[index] = end
            duration = end - start
            self.calls[name] += 1
            self.self_ns[name] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
        if hook is not None:
            hook(self.counts, args, result)
        return result

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, name, start and end in ns
        from the first span, parent index (-1 at the root), case id, and the
        exception type when the call raised."""
        origin = self.starts[0] if self.starts else 0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tcase_id\traised\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{name}\t{self.starts[i] - origin}\t{self.ends[i] - origin}\t"
                    f"{self.parents[i]}\t{self.cases[i]}\t{self.errors[i]}\n"
                )
