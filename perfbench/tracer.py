"""In-memory span recorder that wraps the public functions of each layer.

The wrappers are installed from outside the program: :class:`Tracer`
replaces a class attribute or module function with a timing wrapper and
also rebinds every ``from module import name`` copy of it found in the
loaded ``repro`` modules, so no caller can reach the unwrapped function
through a stale binding.  :meth:`Tracer.uninstall` restores everything.

A span is ``(name, start_ns, end_ns, parent, execution id)``.  All wrapped
functions are synchronous, so even under asyncio a span opened by one
task closes before any other task runs and spans nest strictly; a single
stack therefore gives every span its parent.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Sequence, Tuple


class Tracer:
    """Records spans for the wrapped targets between install/uninstall.

    Each target is a mapping with the span name (``span``), where the
    function lives (``module``, and ``attr`` such as ``Class.method``),
    and two optional flags: ``outermost`` spans only the outermost call
    of a recursive function, ``size_of_result`` sums ``len()`` of every
    return value into :attr:`result_bytes`.
    """

    def __init__(self, targets: Sequence[Dict[str, Any]]):
        self.targets = list(targets)
        self.span_names: List[str] = sorted({t["span"] for t in self.targets})
        self._ids = {name: i for i, name in enumerate(self.span_names)}
        self.names = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.execs = array("l")
        self.exec_id = -1
        self.result_bytes: Dict[str, int] = {}
        self._stack: List[int] = [-1]
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, target: Dict[str, Any]) -> Callable:
        span = target["span"]
        name_id = self._ids[span]
        names, starts, ends = self.names, self.starts, self.ends
        parents, execs, stack = self.parents, self.execs, self._stack
        clock = time.perf_counter_ns
        tracer = self
        sized = target.get("size_of_result", False)
        outermost = target.get("outermost", False)
        active = [False]

        def traced(*args: Any, **kwargs: Any) -> Any:
            if outermost:
                if active[0]:
                    return fn(*args, **kwargs)
                active[0] = True
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            execs.append(tracer.exec_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if outermost:
                    active[0] = False
            if sized:
                tracer.result_bytes[span] = (
                    tracer.result_bytes.get(span, 0) + len(result)
                )
            return result

        return traced

    def install(self) -> None:
        for target in self.targets:
            owner: Any = importlib.import_module(target["module"])
            *path, attr = target["attr"].split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, target)
            self._set(owner, attr, wrapped)
            if not path:
                # Module-level function: rebind copies imported elsewhere.
                for module in list(sys.modules.values()):
                    if (module is not owner
                            and getattr(module, "__name__", "").startswith("repro")
                            and module.__dict__.get(attr) is original):
                        self._set(module, attr, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, int], int]:
        """Per span name: (calls, self ns), plus the summed root durations.

        Self time is a span's duration minus the durations of its child
        spans; children nest strictly inside their parent, so their sum
        is exactly the part of the parent's interval they cover.
        """
        count = len(self.names)
        child = [0] * count
        starts, ends, parents = self.starts, self.ends, self.parents
        root_ns = 0
        for i in range(count):
            dur = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += dur
            else:
                root_ns += dur
        calls = {name: 0 for name in self.span_names}
        self_ns = {name: 0 for name in self.span_names}
        span_names = self.span_names
        for i in range(count):
            name = span_names[self.names[i]]
            calls[name] += 1
            self_ns[name] += ends[i] - starts[i] - child[i]
        return calls, self_ns, root_ns

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV, times relative to the first."""
        zero = self.starts[0] if len(self.starts) else 0
        span_names = self.span_names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span,name,start_ns,end_ns,parent,execution\n")
            for i in range(len(self.names)):
                out.write(
                    f"{i},{span_names[self.names[i]]},{self.starts[i] - zero},"
                    f"{self.ends[i] - zero},{self.parents[i]},{self.execs[i]}\n"
                )
