"""Machine-readable job reports.

A report collects the command echo, result payload, classifier rows,
hom-table digests, and named verdicts.  Everything except the timing
block is reproducible byte for byte when the same job runs twice, which
is what the determinism checks compare.
"""

from __future__ import annotations

import json
import sys
import time

from .fusion import hom_table_digest


class Report:
    """Accumulates one job's results and serializes them as JSON."""

    def __init__(self, command: str, options: dict | None = None):
        self.command = command
        self.options = {
            k: v for k, v in sorted((options or {}).items()) if v is not None
        }
        self.rows: list = []
        self.digests: dict = {}
        self.verdicts: dict = {}
        self.data: dict = {}
        self.timing: dict = {}
        self._t0 = time.perf_counter()

    def add_digest(self, label: str, F) -> dict:
        d = hom_table_digest(F)
        self.digests[label] = d
        return d

    def set_verdict(self, name: str, value: bool) -> bool:
        self.verdicts[name] = bool(value)
        return bool(value)

    @property
    def verdict(self) -> bool:
        return all(self.verdicts.values())

    def finish(self) -> "Report":
        self.timing = {"seconds": round(time.perf_counter() - self._t0, 3)}
        return self

    def as_dict(self) -> dict:
        out: dict = {
            "command": self.command,
            "options": self.options,
            "verdict": self.verdict,
            "verdicts": self.verdicts,
        }
        if self.rows:
            out["rows"] = self.rows
        if self.digests:
            out["digests"] = self.digests
        if self.data:
            out["data"] = self.data
        if self.timing:
            out["timing"] = self.timing
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: str | None) -> None:
        text = self.to_json()
        if path in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)


def error_report(command: str, message: str) -> dict:
    return {"command": command, "error": message}


def strip_timing(text: str) -> str:
    """Report text with the timing block removed, for byte comparisons."""
    d = json.loads(text)
    d.pop("timing", None)
    return json.dumps(d, indent=2, sort_keys=True) + "\n"
