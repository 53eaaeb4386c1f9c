"""Canonical report serialization.

Every report is a plain dict of JSON-safe values with a top-level
``schema`` field.  JSON output is deterministic: sorted keys, fixed
indentation, one trailing newline.  The CSV format is a flat numeric
projection of the same reports, one line per instance.
"""

import io
import json

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "instance", "kind", "verdict", "dimension", "depth", "covolume",
    "e0", "e1", "e2", "e3", "e4", "e5",
    "postulation", "sectional_genus", "chi1_koszul", "chi1_serre",
    "hdeg", "t1", "t2", "t3", "t4", "sv",
)


def jsonable(value):
    """Coerce engine values to JSON-safe ones.  Unknown objects become
    their string form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # only ever NEG_INF from a dimension; report it as null
        return None
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


def serialize_check(check) -> dict:
    out = {"name": check.name, "status": check.status}
    if check.details:
        out["details"] = jsonable(check.details)
    return out


def serialize_invariants(rep, table_values) -> dict:
    return {
        "dimension": rep.dimension,
        "depth": rep.depth,
        "covolume": rep.covolume,
        "table": list(table_values),
        "coefficients": list(rep.coefficients),
        "postulation": rep.postulation,
        "sectional_genus": rep.sectional_genus,
        "chi1": {"koszul": rep.chi1[0], "serre": rep.chi1[1]},
        "hdeg": rep.hdeg,
        "torsions": list(rep.torsions),
        "generalized_cm": rep.generalized_cm,
        "sv": rep.sv,
        "duals": jsonable(rep.duals),
    }


def serialize_equivalence(rep) -> dict:
    return {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "equality": rep.equality,
        "coefficient_rows": [list(r) for r in rep.coefficient_rows],
        "covolume_defect": rep.covolume_defect,
        "condition2": rep.condition2,
        "consequences": [serialize_check(c) for c in rep.consequences],
        "verdict": "holds" if rep.equality and rep.passed else "fails",
    }


def serialize_checklist(checks) -> dict:
    checks = tuple(checks)
    return {
        "checks": [serialize_check(c) for c in checks],
        "verdict": "holds" if all(c.ok for c in checks) else "fails",
    }


def serialize_prop38(rep) -> dict:
    out = serialize_checklist(rep.checks)
    out["coefficients"] = list(rep.coefficients)
    return out


def report_failed(report: dict) -> bool:
    """True when any verdict in the report (or its sub-reports) is a
    failure or an expectation mismatch."""
    if report.get("verdict") == "fails":
        return True
    if report.get("expected_mismatches"):
        return True
    for value in report.values():
        if isinstance(value, dict) and report_failed(value):
            return True
        if isinstance(value, list):
            for item in value:
                if isinstance(item, dict) and report_failed(item):
                    return True
    return False


def to_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _csv_cell(report: dict, column: str):
    body = report.get("invariants", {})
    if column == "instance":
        return report.get("instance", "")
    if column == "kind":
        return report.get("command") or report.get("family") or ""
    if column == "verdict":
        if report.get("error"):
            return "error"
        if "status" in report:
            return report["status"]
        for key in ("thm34", "prop38", "inequalities", "ulrich"):
            sub = report.get(key)
            if isinstance(sub, dict) and "verdict" in sub:
                return sub["verdict"]
        return report.get("verdict", "")
    if column.startswith("e") and column[1:].isdigit():
        e = body.get("coefficients", ())
        i = int(column[1:])
        return e[i] if i < len(e) else ""
    if column.startswith("t") and column[1:].isdigit():
        t = body.get("torsions", ())
        i = int(column[1:]) - 1
        return t[i] if 0 <= i < len(t) else ""
    if column == "chi1_koszul":
        return body.get("chi1", {}).get("koszul", "")
    if column == "chi1_serre":
        return body.get("chi1", {}).get("serre", "")
    value = body.get(column, "")
    return "" if value is None else value


def to_csv(reports) -> str:
    """Flat numeric projection: one line per command report, fixed columns,
    blank cells where a field does not apply."""
    import csv  # only this projection needs it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        writer.writerow([_csv_cell(report, c) for c in CSV_COLUMNS])
    return buf.getvalue()
