"""Span-recording wrappers installed around the library from outside.

``Tracer.install`` replaces every module-global binding of each public
function in ``actionness.*`` (and the functions held in module-level dicts,
such as ``verify.SUITES``) with a wrapper that records calls, total time and
self time (total minus the time of nested spans). The click command callbacks
become ``cli.<command>`` spans and scope the statistics to that command.
``evaluation.tiou`` stays unwrapped: it is called tens of millions of times,
so its cost is left in its callers' self time. ``uninstall`` restores every
binding, so untraced and traced passes can alternate in one process.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

UNWRAPPED = {("actionness.evaluation", "tiou")}


def _span_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


class Tracer:
    def __init__(self, sample_video: str | None = None):
        # (command, span) -> [calls, total seconds, self seconds]
        self.stats: dict[tuple[str | None, str], list] = {}
        self.counts: Counter = Counter()
        self.command: str | None = None
        self.sample_video = sample_video
        self.nms_sample = None  # (pool, threshold, kept) of sample_video
        self._stack: list[list[float]] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._observers = {
            "decoder.nms": self._observe_nms,
            "adm.generate_pseudo_labels": self._observe_labels,
            "optim.minimize_bounded": self._observe_minimize,
        }

    # --- recording -----------------------------------------------------------

    def _wrap(self, name: str, func, command: str | None = None):
        observe = self._observers.get(name)
        counts_objective = name == "optim.minimize_bounded"
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counts_objective:
                args, kwargs = self._count_objective(args, kwargs)
            outer_command = self.command
            if command is not None:
                self.command = command
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                entry = self.stats.setdefault((self.command, name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                self.command = outer_command
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe_start = perf_counter()
                observe(args, result)
                # observer time is tracer overhead: keep it out of the parent's self time
                if stack:
                    stack[-1][0] += perf_counter() - observe_start
            return result

        return wrapper

    def _count_objective(self, args, kwargs):
        objective = args[0]
        counts = self.counts

        def counted(x):
            counts["optim.objective_evals"] += 1
            return objective(x)

        return (counted, *args[1:]), kwargs

    def _observe_nms(self, args, kept):
        if self.command != "decode":
            return
        pool, threshold = args[0], args[1]
        self.counts["decoder.nms.in"] += len(pool)
        self.counts["decoder.nms.out"] += len(kept)
        self.counts["decoder.pool_distinct"] += len({(p.start, p.end, p.class_id) for p in pool})
        if pool and pool[0].video_id == self.sample_video and self.nms_sample is None:
            self.nms_sample = (list(pool), threshold, list(kept))

    def _observe_labels(self, args, labels):
        if self.command != "adm":
            return
        self.counts["adm.labels"] += len(labels)
        self.counts["adm.degenerate_labels"] += sum(1 for label in labels if label.degenerate)

    def _observe_minimize(self, args, result):
        self.counts["optim.iterations"] += result.iterations
        self.counts["optim.unconverged"] += 0 if result.converged else 1

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public library function at every module-global binding."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "actionness" or name.startswith("actionness."))
        ]
        wrappers: dict[int, object] = {}

        def wrapped(value):
            if not (
                inspect.isfunction(value)
                and value.__module__.startswith("actionness")
                and not value.__name__.startswith("_")
                and (value.__module__, value.__name__) not in UNWRAPPED
            ):
                return None
            if id(value) not in wrappers:
                wrappers[id(value)] = self._wrap(_span_name(value), value)
            return wrappers[id(value)]

        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                replacement = wrapped(value)
                if replacement is not None:
                    self._bind(namespace, key, replacement)
                elif isinstance(value, dict):
                    for item_key, item in list(value.items()):
                        replacement = wrapped(item)
                        if replacement is not None:
                            self._bind(value, item_key, replacement)

        cli = sys.modules["actionness.cli"]
        for command_name, command in cli.main.commands.items():
            wrapper = self._wrap(f"cli.{command_name}", command.callback, command=command_name)
            self._bindings.append((command, "callback", command.callback))
            command.callback = wrapper

    def _bind(self, namespace: dict, key, replacement) -> None:
        self._bindings.append((namespace, key, namespace[key]))
        namespace[key] = replacement

    def uninstall(self) -> None:
        for target, key, original in reversed(self._bindings):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._bindings.clear()

    # --- summaries -----------------------------------------------------------

    def span(self, name: str, command: str | None = None) -> tuple[int, float, float]:
        """(calls, total, self) of a span, over all commands or within one."""
        calls, total, self_time = 0, 0.0, 0.0
        for (span_command, span_name), entry in self.stats.items():
            if span_name == name and (command is None or span_command == command):
                calls += entry[0]
                total += entry[1]
                self_time += entry[2]
        return calls, total, self_time

    def table(self) -> list[dict]:
        return [
            {"command": command, "span": name, "calls": e[0], "total_s": e[1], "self_s": e[2]}
            for (command, name), e in sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        ]
