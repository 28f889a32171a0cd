"""Structured check reports.

A report is a header record plus one record per check, serialized as
line-delimited JSON with sorted keys and no timestamps, so identical runs
(same command, same seed) are byte identical.  Every check names the
mathematical law it verifies through a stable identifier; the schema
validator refuses anonymous checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

SCHEMA_VERSION = "balmap-report/1"

PASS = "pass"
FAIL = "fail"
XFAIL = "expected-fail"

_STATUSES = {PASS, FAIL, XFAIL}


class SchemaError(ValueError):
    pass


@dataclass
class CheckRecord:
    name: str
    law: str
    status: str
    residual: Optional[float] = None
    detail: Optional[str] = None
    provenance: Optional[str] = None

    def validate(self):
        if not self.name or not isinstance(self.name, str):
            raise SchemaError("check record needs a name")
        if not self.law or not isinstance(self.law, str):
            raise SchemaError("check %r does not name the law it verifies"
                              % self.name)
        if self.status not in _STATUSES:
            raise SchemaError("check %r has invalid status %r"
                              % (self.name, self.status))

    def to_json(self) -> dict:
        out = {"type": "check", "name": self.name, "law": self.law,
               "status": self.status}
        optional = (("residual", self.residual), ("detail", self.detail),
                    ("provenance", self.provenance))
        out.update((key, v) for key, v in optional if v is not None)
        return out


@dataclass
class Report:
    command: str
    seed: Optional[int] = None
    checks: List[CheckRecord] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, name: str, law: str, ok: bool, residual=None, detail=None,
            expected_failure: bool = False, provenance=None) -> CheckRecord:
        if expected_failure:
            status = XFAIL if ok else FAIL
        else:
            status = PASS if ok else FAIL
        rec = CheckRecord(name=name, law=law, status=status,
                          residual=None if residual is None else float(residual),
                          detail=detail, provenance=provenance)
        rec.validate()
        self.checks.append(rec)
        return rec

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_lines(self, version: str) -> List[str]:
        for c in self.checks:
            c.validate()
        header = {"type": "header", "schema": SCHEMA_VERSION,
                  "command": self.command, "version": version}
        if self.seed is not None:
            header["seed"] = self.seed
        if self.extra:
            header["extra"] = self.extra
        lines = [json.dumps(header, sort_keys=True)]
        for c in self.checks:
            lines.append(json.dumps(c.to_json(), sort_keys=True))
        summary = {"type": "summary",
                   "checks": len(self.checks),
                   "failures": sum(1 for c in self.checks if c.status == FAIL),
                   "ok": self.ok}
        lines.append(json.dumps(summary, sort_keys=True))
        return lines

    def to_human(self) -> List[str]:
        lines = ["# %s" % self.command]
        for c in self.checks:
            bits = ["[%s]" % c.status.upper(), c.name, "(%s)" % c.law]
            if c.residual is not None:
                bits.append("residual=%.3e" % c.residual)
            if c.detail:
                bits.append("- " + c.detail)
            lines.append(" ".join(bits))
        lines.append("=> %d checks, %s" % (
            len(self.checks), "all passed" if self.ok else "FAILURES PRESENT"))
        return lines
