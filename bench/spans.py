"""Spans around calls into advdual's modules, recorded from outside.

A traced round replaces each public function by a wrapper under the name its
caller looks it up by (a module global or the CLI's command table), so the
program itself is untouched and an untraced round runs the original code.
Spans are kept in memory: name, start, end, the span that caused it, and the
CLI operation they belong to.  Counts come from the values the calls return.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op: int
    parent: "Span | None"
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = 0
        # first primal risk and first dual value, keyed by the pipeline span
        # that made the call
        self._first: dict[int, dict] = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.op, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                span.counts = after(span, args, kwargs, out)
            return out
        return wrapper

    def _patch(self, owner, attr, name, after=None):
        orig = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        new = self._wrap(orig, name, after)
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)
        self._patched.append((owner, attr, orig))

    def install(self, adv) -> None:
        """Wrap the layer entry points of the imported package ``adv``
        (an object with the ``cli``, ``io``, ``primalsolve`` and
        ``certify`` modules as attributes)."""
        cli, io, primal, cert = adv.cli, adv.io, adv.primalsolve, adv.certify
        for cmd in ("solve", "verify", "sweep"):
            self._patch(cli._COMMANDS, cmd, f"cli.{cmd}")
        self._patch(cli, "_pipeline", "cli.pipeline")
        self._patch(cli, "solve_exp_primal", "primalsolve.solve", self._primal)
        self._patch(cli, "solve_dual", "dualsolve.solve", self._dual)
        self._patch(cli, "universality_check", "certify.universality")
        self._patch(cert, "certify", "certify.certify")
        self._patch(cert, "winf_feasible", "measures.winf_feasible")
        self._patch(io, "load_instance", "io.load_instance")
        self._patch(io, "refine_points", "io.refine_points")
        self._patch(io, "save_result", "io.save_result",
                    lambda s, a, k, out: {"bytes": os.path.getsize(a[0])})
        self._patch(io, "load_result", "io.load_result")
        edges = (lambda s, a, k, g: {"edges": int(g.indices.size)})
        for mod in (cli, io, primal):
            self._patch(mod, "build_ground", "ground.build_ground", edges)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patched.clear()

    def _primal(self, span, args, kwargs, ps):
        polish = kwargs.get("lower_bound", args[3] if len(args) > 3 else None) is not None
        state = self._first.setdefault(id(span.parent), {})
        counts = {"iterations": int(ps.iterations), "polish": int(polish)}
        if polish:
            counts["useful"] = int(ps.risk < state.get("primal", float("inf")))
        else:
            state.setdefault("primal", ps.risk)
        return counts

    def _dual(self, span, args, kwargs, ds):
        state = self._first.setdefault(id(span.parent), {})
        counts = {"iterations": int(ds.iterations)}
        if "dual" in state:
            counts["useful"] = int(ds.objective > state["dual"])
        else:
            state["dual"] = ds.objective
        return counts

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines; ``parent`` is the line index of the
        span that caused it."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = None if s.parent is None else ids[id(s.parent)]
                fh.write(json.dumps({"id": i, "name": s.name, "op": s.op,
                                     "parent": parent, "start": s.start,
                                     "end": s.end, **s.counts}) + "\n")
