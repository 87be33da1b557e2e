"""In-memory spans around calls into the package, recorded from outside it."""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Spans:
    """Records one span per wrapped call: name, start, end, parent, case, round.

    With ``enabled`` false, :meth:`call` only calls through, so traced and
    untraced runs execute the same code.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.case: str | None = None
        self.round = 0

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Call ``fn``; when tracing, ``attrs(result)`` adds counts to the span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = {"id": len(self.records), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "case": self.case, "round": self.round}
        self.records.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            rec.update(attrs(result))
        return result

    def wrap(self, name, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def per_round(self) -> dict[int, dict[str, dict[str, float]]]:
        """round -> span name -> {"s": self time, "calls": count, <attr>: sum}.

        A span's self time is its duration minus the durations of its children.
        """
        child_time = defaultdict(float)
        for rec in self.records:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for rec in self.records:
            agg = out[rec["round"]][rec["name"]]
            agg["s"] += rec["end"] - rec["start"] - child_time[rec["id"]]
            agg["calls"] += 1
            for key, value in rec.items():
                if key not in ("id", "name", "parent", "case", "round", "start", "end"):
                    agg[key] += value
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
