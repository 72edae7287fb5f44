"""The terminal frame renderer behind ``repro watch``.

Turns raw probe frames into the live per-master view ``repro watch``
prints -- bandwidth, throttle duty, budget headroom, last latency --
deriving rates from deltas between consecutive frames.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class WatchView:
    """Render probe frames as a per-master terminal table.

    Stateful: rates (bandwidth, throttle duty) are deltas between the
    current and the previous rendered frame, so feed frames in order.
    """

    def __init__(self) -> None:
        self._prev_time: Optional[int] = None
        self._prev_values: Dict[str, Any] = {}

    @staticmethod
    def _masters(values: Dict[str, Any]) -> List[str]:
        masters = set()
        for name in values:
            parts = name.split("/")
            if len(parts) == 3:
                masters.add(parts[1])
        return sorted(masters)

    def render(self, frame: Dict[str, Any]) -> str:
        """One aligned table for one frame dict."""
        from repro.analysis.sweep import format_table

        time = int(frame.get("time", 0))
        values: Dict[str, Any] = frame.get("values", {})
        prev_time = self._prev_time
        prev = self._prev_values
        span = time - prev_time if prev_time is not None else time
        rows = []
        for master in self._masters(values):
            row: Dict[str, Any] = {"master": master}
            nbytes = values.get(f"port/{master}/bytes")
            if nbytes is not None and span > 0:
                before = prev.get(f"port/{master}/bytes", 0)
                row["bandwidth_B_cyc"] = (nbytes - before) / span
            throttle = values.get(f"port/{master}/throttle_cycles")
            if throttle is not None and span > 0:
                before = prev.get(f"port/{master}/throttle_cycles", 0)
                row["throttle_duty"] = (throttle - before) / span
            tokens = values.get(f"reg/{master}/tokens")
            budget = values.get(f"reg/{master}/budget_bytes")
            if tokens is not None and budget:
                row["headroom"] = tokens / budget
            latency = values.get(f"port/{master}/last_latency")
            if latency is not None:
                row["last_latency"] = latency
            outstanding = values.get(f"port/{master}/outstanding")
            if outstanding is not None:
                row["outstanding"] = outstanding
            rows.append(row)
        self._prev_time = time
        self._prev_values = dict(values)
        if not rows:
            return f"cycle {time}: no per-master probes in frame"
        columns: List[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return format_table(rows, columns=columns, title=f"cycle {time}")
