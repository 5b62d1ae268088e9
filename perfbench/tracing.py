"""Timing wrappers around the library's public functions, for the traced run.

A wrapped function records one span per call. Spans nest by call stack:
a span's self time is its duration minus the time covered by the spans
of wrapped functions it called. The wrapper replaces every binding of the
function inside the package, so calls between modules (``witness`` calling
``schmidt``, ``search`` calling ``check_witness``) are traced too. Names
that no longer exist are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "locc_witness"

# Module-relative names; a dotted tail names a method on a class.
LAYER_FUNCTIONS = (
    "io.parse_problem",
    "io.ParsedProblem.witness_problem",
    "io.witness_report_to_dict",
    "witness.check_witness",
    "witness.build_joint_state",
    "witness.full_basis_problem",
    "witness.classify_full_basis",
    "states.schmidt",
    "states.validate_state_set",
    "states.permute_parts",
    "states.tensor",
    "majorization.check_ensemble_conversion",
    "search.search",
)


class Stat:
    __slots__ = ("durations", "self_time")

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.self_time = 0.0


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    It can be entered many times; the statistics accumulate.
    """

    def __init__(self) -> None:
        self.names = LAYER_FUNCTIONS
        self.stats = {name: Stat() for name in self.names}
        self.absent: list[str] = []
        self.by_kind: dict[str, Counter] = defaultdict(Counter)
        self.ops_by_kind: Counter = Counter()
        self._pending: Counter = Counter()
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self._targets = []
        for name in self.names:
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                self._targets.append((name, owner, path[-1], getattr(owner, path[-1])))
            except (ImportError, AttributeError):
                self.absent.append(name)
        self._wrappers = {name: self._wrap(name, fn) for name, _, _, fn in self._targets}

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        pending = self._pending

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pending[name] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stat.self_time += duration - stack.pop()
                stat.durations.append(duration)
                if stack:
                    stack[-1] += duration

        return wrapper

    def end_operation(self, kind: str) -> None:
        """Attribute the calls made since the last operation to ``kind``."""
        self.by_kind[kind].update(self._pending)
        self.ops_by_kind[kind] += 1
        self._pending.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, owner, attr, fn in self._targets:
            wrapper = self._wrappers[name]
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, binding, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
