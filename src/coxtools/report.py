"""Machine-readable campaign reports with content-addressed canonical sections.

The canonical section (campaign, parameters, results, tool_version) is what
the content hash covers; wall-clock time and worker counts live in meta so
reports stay byte-identical across reruns and thread counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import CoxeterSystem, label_text

TOOL_VERSION = "0.1.0"


def system_payload(system: CoxeterSystem) -> dict:
    """JSON-safe encoding of a diagram: rank plus labeled edge list."""
    return {
        "rank": system.rank,
        "edges": [
            [i, j, m if isinstance(m, int) else label_text(m)]
            for i, j, m in system.edges()
        ],
    }


@dataclass
class Report:
    campaign: str
    parameters: dict
    results: dict
    tool_version: str = TOOL_VERSION
    duration_seconds: float = 0.0
    jobs: int = 1

    def canonical_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "parameters": self.parameters,
            "results": self.results,
            "tool_version": self.tool_version,
        }

    def canonical_json(self) -> str:
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )

    def content_hash(self) -> str:
        import hashlib  # here, to keep it off the start-up path

        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        out = self.canonical_dict()
        out["content_hash"] = self.content_hash()
        out["meta"] = {
            "duration_seconds": self.duration_seconds,
            "jobs": self.jobs,
        }
        return out

    def passed(self) -> bool:
        return all(c["passed"] for c in self.results.get("claims", []))

    def claim(self, name: str) -> dict:
        for c in self.results.get("claims", []):
            if c["claim"] == name:
                return c
        raise KeyError(name)
