"""Spans and call counters for the traced benchmark runs.

A span wraps one public function, method or class constructor of a
fusionkit module. The wrapper is installed at every module binding of the
function, not only where it is defined, so a call through
``fusionkit.classify.p_core`` or ``fusionkit.constructions.all_subgroups``
is seen as well. Spans nest on a stack; each records the op it belongs to,
its parent span, and its start and end. A span's self time is its duration
minus the time its child spans cover.

The counting run is separate: it wraps the permutation kernels in
``fusionkit.perms`` with bare counters and no clock, so the counts are
exact and repeat for the same seed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref

PACKAGE = "fusionkit"

# (span name, defining module, attribute path). A class as the path wraps
# its constructor.
SPANS = [
    ("groups.all_subgroups", "groups", "all_subgroups"),
    ("groups.normalizer", "groups", "normalizer"),
    ("groups.centralizer", "groups", "centralizer"),
    ("groups.FiniteGroup", "groups", "FiniteGroup"),
    ("groups.sylow_p", "groups", "sylow_p"),
    ("groups.Subgroup.generator_ids", "groups", "Subgroup.generator_ids"),
    ("groups.isomorphisms", "groups", "isomorphisms"),
    ("groups.hom_from_images", "groups", "hom_from_images"),
    ("groups.quotient_group", "groups", "quotient_group"),
    ("named.direct_product", "named", "direct_product"),
    ("named.semidirect_product", "named", "semidirect_product"),
    ("fusion.hom_to_S_tables", "fusion", "FusionSystem.hom_to_S_tables"),
    ("fusion.GeneratedFusion", "fusion", "GeneratedFusion"),
    ("fusion.f_conjugates", "fusion", "FusionSystem.f_conjugates"),
    ("fusion.extension_index", "fusion", "FusionSystem.extension_index"),
    ("fusion.hom_table_digest", "fusion", "hom_table_digest"),
    ("classify.is_saturated", "classify", "is_saturated"),
    ("classify.is_receptive", "classify", "is_receptive"),
    ("classify.is_fully_automised", "classify", "is_fully_automised"),
    ("classify.out_F", "classify", "out_F"),
    ("classify.is_radical", "classify", "is_radical"),
    ("classify.fcr_objects", "classify", "fcr_objects"),
    ("classify.classifier_rows", "classify", "classifier_rows"),
    ("classify.is_strongly_closed", "classify", "is_strongly_closed"),
    ("alperin.alperin_decompose", "alperin", "alperin_decompose"),
    ("alperin.verify_decomposition", "alperin", "verify_decomposition"),
    ("constructions.product_fusion", "constructions", "product_fusion"),
    ("constructions.quotient_fusion", "constructions", "quotient_fusion"),
    ("constructions.normalizer_subsystem", "constructions",
     "normalizer_subsystem"),
    ("constructions.fusion_isomorphic", "constructions", "fusion_isomorphic"),
    ("constructions.main_theorem_witness", "constructions",
     "main_theorem_witness"),
    ("rv.build_rv", "rv", "build_rv"),
    ("descriptors.parse_group_spec", "descriptors", "parse_group_spec"),
    ("cli.run_job", "cli", "run_job"),
    ("report.Report.write", "report", "Report.write"),
]

COUNTED = ("mul", "conjugate", "power", "inverse")

KEEP_SPANS = 200_000  # spans written to the trace file; the rest are counted

# Work counts taken from return values at span boundaries.
WORK_COUNTS = ("fusion.morphisms_built", "alperin.chain_steps",
               "groups.hom_from_images.rejected")


class Tracer:
    """In-memory span recorder.

    ``stats`` holds [calls, self seconds] per span name, updated as each
    span ends. ``records`` keeps the first KEEP_SPANS spans as
    (op, span id, parent id, name, start, end) for the trace file.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = None
        self.stats: dict[str, list] = {}
        self.counts = dict.fromkeys(WORK_COUNTS, 0)
        self.records: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._tables_seen = weakref.WeakKeyDictionary()

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def exit(self, new_call: bool = True) -> None:
        """End the innermost span. A generator resumed several times is
        one call made of several spans, so only its first counts."""
        span_id, name, start, covered = self._stack.pop()
        end = self.clock()
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0]
        stat[0] += new_call
        stat[1] += (end - start) - covered
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[3] += end - start
            parent = top[0]
        if len(self.records) < KEEP_SPANS:
            self.records.append((self.op, span_id, parent, name, start, end))
        else:
            self.dropped += 1

    def note_tables(self, system, subgroup, tables) -> None:
        """Count a hom table the first time a system hands it out."""
        seen = self._tables_seen.get(system)
        if seen is None:
            seen = self._tables_seen[system] = set()
        if subgroup.ids not in seen:
            seen.add(subgroup.ids)
            self.counts["fusion.morphisms_built"] += len(tables)


def self_times(records) -> dict[str, float]:
    """Self time per span name from finished span records: each span's
    duration minus the durations of its direct children."""
    covered: dict = {}
    for _op, _sid, parent, _name, start, end in records:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for _op, sid, _parent, name, start, end in records:
        out[name] = out.get(name, 0.0) + (end - start) - covered.get(sid, 0.0)
    return out


def _after(tracer: Tracer, name: str, args, result) -> None:
    if name == "fusion.hom_to_S_tables":
        tracer.note_tables(args[0], args[1], result)
    elif name == "groups.hom_from_images" and result is None:
        tracer.counts["groups.hom_from_images.rejected"] += 1
    elif name == "alperin.alperin_decompose":
        tracer.counts["alperin.chain_steps"] += len(result.chain)


def _span_wrapper(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit(first)
                    first = False
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        _after(tracer, name, args, result)
        return result
    return wrapper


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _rebind(original, replacement, patches: list) -> None:
    """Point every fusionkit module binding of `original` at `replacement`."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, attr, value))
                setattr(mod, attr, replacement)


def install_spans(tracer: Tracer) -> list:
    """Wrap every function in SPANS; returns the patches for `uninstall`."""
    patches: list = []
    for name, module, path in SPANS:
        owner = sys.modules[f"{PACKAGE}.{module}"]
        head, _, attr = path.rpartition(".")
        if head:
            owner = getattr(owner, head)
        target = getattr(owner, attr)
        if inspect.isclass(target):
            init = target.__dict__["__init__"]
            patches.append((target, "__init__", init))
            target.__init__ = _span_wrapper(tracer, name, init)
        elif head:
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, _span_wrapper(tracer, name, original))
        else:
            _rebind(target, _span_wrapper(tracer, name, target), patches)
    return patches


def install_counters(counts: dict) -> list:
    """Count calls of the kernels in COUNTED into counts['perms.<f>.calls']."""
    perms = sys.modules[f"{PACKAGE}.perms"]
    patches: list = []
    for fname in COUNTED:
        key = f"perms.{fname}.calls"
        counts[key] = 0
        original = getattr(perms, fname)

        def counter(*args, _fn=original, _key=key):
            counts[_key] += 1
            return _fn(*args)

        _rebind(original, counter, patches)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
