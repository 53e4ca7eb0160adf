"""Run one grassperm command in this process with per-module timers.

    python3 perfbench/traced.py TRACE.json enum grassmannian --n 19

Wraps the public functions listed in LAYERS in every ``grassperm.*``
namespace that binds them (``cli`` and ``patterns`` import names
directly), then calls ``grassperm.cli.main(argv)``.  A function that
returns a generator is timed across its ``next()`` calls.  A span's
self time is its duration minus the wrapped spans nested inside it.
Nothing under ``src/grassperm`` is changed; the wrappers live only in
this process.  The counters are written to TRACE.json on exit.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions; "items" marks functions returning generators
LAYERS: dict[str, dict[str, str]] = {
    "perms": {"format_permutation": "calls", "inverse": "calls",
              "inversion_count": "calls"},
    "grassmann": {"enumerate_grassmannian": "items"},
    "patterns": {"contains_pattern": "calls", "finite_class_count": "calls"},
    "kernels": {"count_grassmannian_avoiding_increasing": "calls",
                "count_grassmannian_avoiders": "calls",
                "count_sn_avoiding_321_2143": "calls"},
    "dyck": {"enumerate_dyck_paths": "items",
             "enumerate_grassmannian_paths": "items",
             "path_to_permutation": "calls"},
    "schroder": {"enumerate_uudd_avoiding": "items", "word_to_code": "calls"},
    "parity": {"extend_to_odd_size": "calls", "extend_to_even_size": "calls"},
}


def metric_names() -> list[str]:
    """Every counter a trace reports, in a fixed order."""
    names = ["cli.parse_s", "cli.write_s", "cli.write_bytes", "cli.checks"]
    for module, functions in LAYERS.items():
        for function, kind in functions.items():
            names += [f"{module}.{function}.self_s",
                      f"{module}.{function}.{kind}"]
    names += ["patterns.finite_class_count.cache_hits",
              "patterns.finite_class_count.cache_misses"]
    return names


class Tracer:
    """Self-time accounting over nested spans, kept in memory."""

    def __init__(self) -> None:
        self.children = [0.0]  # time covered by child spans, per open span
        self.values: dict[str, float] = defaultdict(int)

    def call(self, name: str, fn, *args, **kwargs):
        self.children.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            self.values[name] += took - self.children.pop()
            self.children[-1] += took


class TimedIterator:
    """Forward an iterator, timing each next() as one span."""

    def __init__(self, tracer: Tracer, name: str, items) -> None:
        self.children, self.values = tracer.children, tracer.values
        self.self_key, self.items_key = name + ".self_s", name + ".items"
        self.items = items

    def __iter__(self):
        return self

    def __next__(self):
        # Tracer.call inlined here and below: these run up to a million
        # times a command, and every extra call lands in the parent span
        children = self.children
        children.append(0.0)
        start = perf_counter()
        try:
            item = next(self.items)
        finally:
            took = perf_counter() - start
            self.values[self.self_key] += took - children.pop()
            children[-1] += took
        self.values[self.items_key] += 1
        return item


class TimedStdout:
    """The stdout sink: time every write and flush, count bytes."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self.tracer = tracer
        self.inner = inner

    def write(self, text: str) -> int:
        children, values = self.tracer.children, self.tracer.values
        start = perf_counter()
        written = self.inner.write(text)
        took = perf_counter() - start
        values["cli.write_s"] += took
        values["cli.write_bytes"] += len(text)  # the output is ASCII
        children[-1] += took
        return written

    def flush(self) -> None:
        self.tracer.call("cli.write_s", self.inner.flush)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def _wrap(tracer: Tracer, name: str, kind: str, fn):
    if kind == "items":
        def wrapper(*args, **kwargs):
            items = tracer.call(name + ".self_s", fn, *args, **kwargs)
            return TimedIterator(tracer, name, items)
    else:
        children, values = tracer.children, tracer.values
        self_key, calls_key = name + ".self_s", name + ".calls"

        def wrapper(*args, **kwargs):
            values[calls_key] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                values[self_key] += took - children.pop()
                children[-1] += took
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Wrap every traced function wherever a grassperm module binds it.
    Returns the cli module, ready to run."""
    import grassperm.cli as cli

    modules = [m for key, m in sorted(sys.modules.items())
               if key == "grassperm" or key.startswith("grassperm.")]
    for module, functions in LAYERS.items():
        home = sys.modules[f"grassperm.{module}"]
        for function, kind in functions.items():
            original = getattr(home, function)
            wrapper = _wrap(tracer, f"{module}.{function}", kind, original)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)

    check = cli.Sweep.check

    def counted_check(self, *args):
        tracer.values["cli.checks"] += 1
        return check(self, *args)
    cli.Sweep.check = counted_check

    build_parser = cli.build_parser

    def timed_build_parser():
        parser = tracer.call("cli.parse_s", build_parser)
        parse_args = parser.parse_args
        parser.parse_args = lambda *a, **kw: tracer.call(
            "cli.parse_s", parse_args, *a, **kw)
        return parser
    cli.build_parser = timed_build_parser
    return cli


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    sys.stdout = TimedStdout(tracer, sys.stdout)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stdout = sys.stdout.inner
    cached = sys.modules["grassperm.patterns"].finite_class_count.__wrapped__
    info = cached.cache_info()
    tracer.values["patterns.finite_class_count.cache_hits"] = info.hits
    tracer.values["patterns.finite_class_count.cache_misses"] = info.misses
    with open(trace_path, "w") as handle:
        json.dump({name: tracer.values.get(name, 0)
                   for name in metric_names()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
