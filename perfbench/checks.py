"""Output checks for one pass: which command reports count as failed.

A command fails when its report carries an engine error, expected-value
mismatches, a failing inequality, Prop 3.8 or Ulrich check, a Thm 3.4 report
whose two sides disagree or whose consequences fail, or, on the families
workload, a number that differs from the family's closed form.  The exit
code is not used: Thm 3.4 legitimately reports ``fails`` (exit 1) when the
genus equality is false on both sides.
"""

import hashlib

from genuslab.corpus import (example42_descriptor, example44_descriptor,
                             idealization_descriptor)
from genuslab.report import to_json


def _check_failed(block) -> bool:
    return any(c.get("status") == "fail" for c in block.get("checks", ()))


def _thm34_failed(block) -> bool:
    return (block["equality"] != block["condition2"]
            or any(c.get("status") == "fail" for c in block["consequences"]))


def _expected_for(instance: str):
    """Closed-form values for a families command, keyed by the suffix the
    generator gives each instance (q<l><m>, c<d>, sq)."""
    target = instance.split()[0]
    tag = target[1:]
    if tag.startswith("q"):
        return example44_descriptor(int(tag[1]), int(tag[2])).expected
    if tag.startswith("c"):
        return example42_descriptor(int(tag[1:])).expected
    if tag == "sq":
        return idealization_descriptor().expected
    return {}


def _invariant_summary(inv) -> dict:
    out = {"dimension": inv["dimension"], "depth": inv["depth"],
           "covolume": inv["covolume"], "e0": inv["coefficients"][0],
           "chi1": inv["chi1"]["koszul"],
           "sectional_genus": inv["sectional_genus"], "hdeg": inv["hdeg"]}
    if len(inv["coefficients"]) > 1:
        out["e1"] = inv["coefficients"][1]
    if inv["torsions"]:
        out["torsion1"] = inv["torsions"][0]
    return out


def _ulrich_summary(block) -> dict:
    out = {"ulrich": block["verdict"] == "holds"}
    for check in block["checks"]:
        details = check.get("details", {})
        for key in ("e0", "covolume", "generators"):
            if key in details:
                out[key] = details[key]
    return out


def _mismatches(report) -> list:
    expected = _expected_for(report["instance"])
    got = {}
    if "invariants" in report:
        got = _invariant_summary(report["invariants"])
    elif "thm34" in report:
        got = {"equality": report["thm34"]["equality"]}
    elif "ulrich" in report:
        got = _ulrich_summary(report["ulrich"])
    return [k for k in got if k in expected and got[k] != expected[k]]


def command_failed(report: dict, families: bool) -> bool:
    if report.get("error") or report.get("expected_mismatches"):
        return True
    for kind in ("inequalities", "prop38", "ulrich"):
        if kind in report and _check_failed(report[kind]):
            return True
    if "thm34" in report and _thm34_failed(report["thm34"]):
        return True
    return families and bool(_mismatches(report))


def canonical_digest(aggregate: dict) -> str:
    """sha256 of the canonical output with the wall-clock fields removed."""
    stripped = dict(aggregate)
    stripped["reports"] = [{k: v for k, v in r.items() if k != "timings"}
                           for r in aggregate["reports"]]
    return hashlib.sha256(to_json(stripped).encode()).hexdigest()
