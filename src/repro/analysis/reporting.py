"""Finding reporters: text, JSON, and SARIF 2.1.0 for CI annotation."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Mapping, Sequence

from repro.analysis.engine import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")
TOOL_NAME = "reprolint"
TOOL_URI = "https://github.com/uwnslab/tinysdr"  # the reproduced platform


def render_text(findings: Sequence[Finding]) -> str:
    """Compiler-style one-line-per-finding report with a summary tail."""
    lines = [finding.render() for finding in findings]
    summary = f"{len(findings)} finding(s)"
    if findings:
        by_rule = Counter(finding.rule_id for finding in findings)
        breakdown = ", ".join(f"{rule}={count}"
                              for rule, count in sorted(by_rule.items()))
        summary += f" [{breakdown}]"
    lines.append(summary)
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """JSON document listing every finding."""
    payload = {
        "findings": [
            {
                "rule": finding.rule_id,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
                "hint": finding.hint,
            }
            for finding in findings
        ],
    }
    return json.dumps(payload, indent=2)


def _sarif_fingerprint(finding: Finding) -> str:
    """Line-insensitive stable id from :meth:`Finding.fingerprint`."""
    text = "|".join(finding.fingerprint())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_sarif(findings: Sequence[Finding],
                 rule_classes: Mapping[str, type] | None = None,
                 tool_version: str = "2.0") -> str:
    """SARIF 2.1.0 document for the findings (GitHub code scanning).

    ``partialFingerprints`` carries a line-insensitive identity, so
    annotations track findings across unrelated line drift.
    """
    rules_meta = []
    for rule_id in sorted(rule_classes or {}):
        cls = (rule_classes or {})[rule_id]
        rules_meta.append({
            "id": rule_id,
            "name": cls.name,
            "shortDescription": {"text": cls.name},
            "fullDescription": {"text": cls.description},
            "defaultConfiguration": {"level": "error"},
        })
    results = []
    for finding in findings:
        message = finding.message
        if finding.hint:
            message += f" [hint: {finding.hint}]"
        results.append({
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path,
                                         "uriBaseId": "SRCROOT"},
                    "region": {"startLine": finding.line,
                               "startColumn": finding.col + 1},
                },
            }],
            "partialFingerprints": {
                "reprolint/v1": _sarif_fingerprint(finding),
            },
        })
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": TOOL_NAME,
                    "informationUri": TOOL_URI,
                    "version": tool_version,
                    "rules": rules_meta,
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }
    return json.dumps(document, indent=2)
