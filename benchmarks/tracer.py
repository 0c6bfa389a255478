"""Span recorder that instruments stabmatch from outside the package.

The package's modules import each other's functions by name
(``from .protocol import enabled_rule``), so ``run`` calls
``scheduler.enabled_rule`` and never looks at ``protocol.enabled_rule``.
Patching only the defining module would leave every such caller untraced and
the layer would silently count zero. ``Tracer.install`` therefore rebinds a
wrapped function under every name that refers to it in every loaded
``stabmatch`` module, and ``unbound_originals`` lists any reference it missed.

Spans live in memory, in flat arrays (name, start, end, parent), and are
folded into per-name totals when each CLI command ends. A span therefore
belongs to the command during which it was recorded, and memory is bounded
by the largest single command rather than by the whole run.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter


def _hook_moves(counters, result):
    counters["scheduler.moves_applied"] += len(result[1])


def _hook_trace_bytes(counters, result):
    counters["scheduler.trace_bytes"] += len(result.encode())


def _hook_explored(counters, result):
    counters["verifier.explored_states"] += result.explored


# (module, attribute path, result hook). Every public function the per-layer
# metrics need, plus the callees whose time would otherwise be charged to
# their caller's self time.
TARGETS = (
    ("graph", "generate", None),
    ("graph", "read_graph", None),
    ("graph", "write_graph", None),
    ("graph", "Graph.m", None),
    ("graph", "Graph.edges", None),
    ("graph", "Graph.digest", None),
    ("graph", "Graph.is_connected", None),
    ("protocol", "enabled_rule", None),
    ("protocol", "enabled_rules", None),
    ("protocol", "enabled_nodes", None),
    ("protocol", "command_target", None),
    ("protocol", "marriage_suitors", None),
    ("protocol", "seduction_candidates", None),
    ("protocol", "pr_married", None),
    ("protocol", "classify", None),
    ("protocol", "parse_configuration", None),
    ("protocol", "random_configuration", None),
    ("protocol", "Configuration.with_writes", None),
    ("protocol", "Configuration.to_text", None),
    ("scheduler", "run", None),
    ("scheduler", "select", None),
    ("scheduler", "apply_step", _hook_moves),
    ("scheduler", "realize_moves", None),
    ("scheduler", "apply_realized", None),
    ("scheduler", "replay_step", None),
    ("scheduler", "trace_counters", None),
    ("scheduler", "trace_from_schedule", None),
    ("scheduler", "write_trace", _hook_trace_bytes),
    ("scheduler", "parse_trace", None),
    ("verifier", "audit_trace", None),
    ("verifier", "check_maximal", None),
    ("verifier", "extract_matching", None),
    ("verifier", "exhaustive_search", _hook_explored),
    ("verifier", "witness_trace", None),
    ("cli", "main", None),
)


class Tracer:
    """Records one span per call of every target while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # a span's start and end
        self.span_names: list[str] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._child_s = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, hook):
        if name not in self.span_names:  # a name keeps its id across installs
            self.span_names.append(name)
        nid = self.span_names.index(name)
        names, starts, ends = self._name, self._start, self._end
        parents, child_s, stack = self._parent, self._child_s, self._stack
        counters = self.counters
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            child_s.append(0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                if stack:
                    child_s[stack[-1]] += end - start
            if hook is not None:
                hook(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_index_entries(self, post_init):
        counters = self.counters

        def counted(config):
            counters["protocol.index_entries_built"] += len(config.nodes)
            post_init(config)

        return counted

    # -- installation ------------------------------------------------------

    def install(self, package: str = "stabmatch") -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for mod_name, path, hook in TARGETS:
            owner = sys.modules[f"{package}.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{mod_name}.{path}"
            current = owner.__dict__[attr]
            if isinstance(current, property):
                self._originals[id(current.fget)] = name
                self._patch(owner, attr, property(self._wrap(current.fget, name, hook)))
                continue
            self._originals[id(current)] = name
            wrapped = self._wrap(current, name, hook)
            if outer:  # a method: the class is the only place it is bound
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is current:
                        self._patch(mod, key, wrapped)
        config = sys.modules[f"{package}.protocol"].Configuration
        self._patch(config, "__post_init__",
                    self._count_index_entries(config.__post_init__))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def unbound_originals(self, package: str = "stabmatch") -> list[str]:
        """Module attributes that still hold an unwrapped target; each one is
        a call path the trace would miss."""
        missed = []
        for name, mod in sorted(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for key, value in vars(mod).items():
                if id(value) in self._originals and not hasattr(value, "__wrapped__"):
                    missed.append(f"{name}.{key} ({self._originals[id(value)]})")
        return missed

    # -- aggregation -------------------------------------------------------

    def end_command(self) -> None:
        """Fold the finished command's spans into the per-name totals."""
        names, starts, ends, child_s = self._name, self._start, self._end, self._child_s
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        span_names = self.span_names
        for idx in range(len(names)):
            name = span_names[names[idx]]
            duration = ends[idx] - starts[idx]
            calls[name] += 1
            total_s[name] += duration
            self_s[name] += duration - child_s[idx]
        self._count_search_successors()
        for arr in (names, starts, ends, self._parent, child_s):
            del arr[:]

    def _count_search_successors(self) -> None:
        """apply_step calls made inside exhaustive_search."""
        try:
            search = self.span_names.index("verifier.exhaustive_search")
            step = self.span_names.index("scheduler.apply_step")
        except ValueError:
            return
        names, parents = self._name, self._parent
        for idx in range(len(names)):
            if names[idx] != step:
                continue
            up = parents[idx]
            while up >= 0 and names[up] != search:
                up = parents[up]
            if up >= 0:
                self.counters["verifier.successors_generated"] += 1

    def clear_totals(self) -> None:
        for totals in (self.calls, self.total_s, self.self_s, self.counters):
            totals.clear()

