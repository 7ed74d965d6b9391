"""The benchmark's own span recorder.

Spans are recorded from *outside* the program: around the calls the harness
makes into each layer's public functions.  A span has a name, a start and an
end on ``time.perf_counter``, the span that caused it (``parent``) and the id
of the operation it belongs to (``op``).  Everything stays in memory until
:meth:`Recorder.write_jsonl` runs at the end of the benchmark.

The current span lives in a ``ContextVar``: synchronous code nests through
the ``with`` blocks, and every asyncio task (one per open-loop operation)
inherits the span that was current when the task was created.
"""

from __future__ import annotations

import contextvars
import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "inferbench_current_span", default=None)


class Recorder:
    """Collects parent-linked spans; a disabled recorder records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._ops = 0

    def new_op(self) -> int:
        """A fresh operation id; every span under one op's root shares it."""
        self._ops += 1
        return self._ops

    @contextmanager
    def span(self, name: str, op: Optional[int] = None,
             **attrs: Any) -> Iterator[Optional[Dict[str, Any]]]:
        if not self.enabled:
            yield None
            return
        parent = _CURRENT.get()
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record: Dict[str, Any] = {"id": len(self.spans), "name": name,
                                  "parent": parent, "op": op, "start": 0.0,
                                  "end": 0.0}
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        token = _CURRENT.set(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _CURRENT.reset(token)

    # ------------------------------------------------------------------ #
    def durations_ms(self, name: str, **attrs: Any) -> List[float]:
        """Durations of every span called ``name`` (whose attrs match)."""
        return [(span["end"] - span["start"]) * 1e3 for span in self.spans
                if span["name"] == name
                and all(span.get("attrs", {}).get(key) == value
                        for key, value in attrs.items())]

    def self_times(self) -> Dict[int, float]:
        """Seconds each span spent outside its children (duration - children)."""
        own = {span["id"]: span["end"] - span["start"] for span in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def write_jsonl(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({**span, "self": own[span["id"]]}) + "\n")
