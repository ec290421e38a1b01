"""Spans recorded from outside the library, around each call into a layer.

Nothing in ``holderscores`` is patched.  The benchmark wraps only objects it
builds itself: score objects (``TracedScore``) and models rebuilt with
``dataclasses.replace`` (``traced_model``).  Span names are
``<layer>.<call>``; a layer's self time is the time its spans cover minus the
time covered by their direct children.
"""

from __future__ import annotations

import collections
import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

from holderscores import HolderError

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """In-memory span log; written out once, when the run ends."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index, op id]
        self.counts = collections.Counter()
        self.op_id = -1
        self._open = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter_ns(), 0,
               self._open[-1] if self._open else -1, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[_END] = time.perf_counter_ns()
            self._open.pop()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def durations(self, name):
        """Durations in seconds of every span called ``name``."""
        return [(s[_END] - s[_START]) * 1e-9 for s in self.spans if s[_NAME] == name]

    def self_seconds(self):
        """Self time per layer: span time minus the time of direct children."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        out = collections.Counter()
        for s, c in zip(self.spans, child):
            out[s[_NAME].split(".", 1)[0]] += (s[_END] - s[_START] - c) * 1e-9
        return out

    def per_op(self, predicate):
        """Number of spans matching ``predicate`` under each op id."""
        out = collections.Counter()
        for s in self.spans:
            if predicate(s[_NAME]):
                out[s[_OP]] += 1
        return out

    def write(self, path, header):
        """A JSON header line, then one JSON array per span in ``fields`` order."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": ["name", "start_ns", "end_ns",
                                                      "parent", "op"]}) + "\n")
            fh.writelines(json.dumps(s, separators=(",", ":")) + "\n" for s in self.spans)


class TracedScore:
    """Stands in for a score object and records each evaluation.

    ``inf_evals`` counts the values the optimizer guard turns into +inf: a
    ``HolderError`` raised by the score, or a value that is not finite.
    """

    def __init__(self, score, tracer):
        self._score = score
        self._tracer = tracer

    def __getattr__(self, name):
        # anything but the two evaluations goes to the score untraced
        return getattr(self._score, name)

    def expected(self, f, g):
        return self._call("expected", f, g)

    def empirical(self, sample, g):
        return self._call("empirical", sample, g)

    def _call(self, method, *args):
        tracer = self._tracer
        try:
            with tracer.span(f"scores.{method}"):
                value = getattr(self._score, method)(*args)
        except HolderError:
            tracer.counts["inf_evals"] += 1
            raise
        if not math.isfinite(value):
            tracer.counts["inf_evals"] += 1
        return value


def traced_model(model, tracer):
    """A copy of ``model`` whose density and score callables record spans."""

    def density(theta, x):
        with tracer.span("models.density"):
            out = model.density(theta, x)
        tracer.counts["density_calls"] += 1
        tracer.counts["density_nodes"] += len(out)
        return out

    def score(theta, x):
        with tracer.span("models.score"):
            return model.score(theta, x)

    return replace(model, density=density, score=score)
