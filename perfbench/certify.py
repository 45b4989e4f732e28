"""Independent re-checks of each op's outcome through the public setflow API.

Nothing the CLI reports about itself is trusted: chains are re-verified from
the written numbers, witnesses are replayed, selection-failure slacks are
recomputed, and family members and potential values are re-evaluated.
:func:`check` returns the problems it found; an empty list certifies the op.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from setflow import (
    Chain,
    ClassReport,
    extension_slack,
    family_from_text,
    parse_problem,
    potential_value,
    replay_witness,
    verify_chain,
)

CLASSES = ("monotone", "weakly_monotone", "cyclic_monotone", "weak_cyclic_monotone",
           "support_chain")


def digest(out: Path) -> str:
    """SHA-256 over the names and bytes of every file an op wrote."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check(op, code, out: Path) -> list[str]:
    """Problems with the outcome ``code`` of ``op`` whose files are in ``out``."""
    if code not in op.expect:
        return [f"exit code {code!r}, documented outcomes are {list(op.expect)}"]
    spec = parse_problem(op.text())
    if code == 3:
        return _selection_failure(spec, out)
    if code == 4:
        return [] if not any(out.iterdir()) else ["over-budget run left output files"]
    return _CHECKS[op.command](op, spec, out)


def _rows(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _solve(op, spec, out):
    _, rows = _rows(out / "trajectory.csv")
    table = np.array([[float(c) for c in row] for row in rows])
    d = spec.map.dimension
    t, xs, vs = table[:, 0], table[:, 1:1 + d], table[:, 1 + d:]
    problems = []
    if t[0] != 0.0 or t[-1] != spec.horizon:
        problems.append(f"time range [{t[0]!r}, {t[-1]!r}] is not [0, T]")
    if not (np.array_equal(xs[0], spec.x0) and np.array_equal(vs[0], spec.v0)):
        problems.append("first node is not (x0, v0)")
    drift = np.abs(xs[1:] - xs[:-1] - np.diff(t)[:, None] * vs[:-1])
    if np.any(drift > 1e-9 * (1.0 + np.abs(xs[1:]))):
        problems.append("nodes do not follow x_{k+1} = x_k + dt_k v_k")
    ok, index = verify_chain(Chain(xs, vs), spec.tol)
    if not ok:
        problems.append(f"node chain fails at index {index}")
    for k, (x, v) in enumerate(zip(xs, vs)):
        if not spec.map.eval(x).contains(v):
            problems.append(f"velocity at node {k} is not a value of the map")
            break
    summary = json.loads((out / "summary.json").read_text())
    if summary["nodes"] != len(rows) or summary["chain_ok"] is not True:
        problems.append("summary.json disagrees with trajectory.csv")
    return problems


def _refine(op, spec, out):
    header, rows = _rows(out / "refinement.csv")
    col = {name: i for i, name in enumerate(header)}
    problems = []
    if [int(r[col["steps"]]) for r in rows] != list(spec.step_counts):
        problems.append("refinement.csv rows do not match the step counts")
    if any(r[col["chain_ok"]] != "true" for r in rows):
        problems.append("a refinement row has chain_ok false")
    if any(float(r[col["node_residual"]]) != 0.0 for r in rows):
        problems.append("a refinement row has a nonzero node residual")
    return problems


def _selection_failure(spec, out):
    failure = json.loads((out / "selection_failure.json").read_text())
    chain = Chain.from_dict(failure["chain"])
    point = np.array(failure["point"])
    problems = []
    if not verify_chain(chain, spec.tol)[0]:
        problems.append("selection failure chain does not verify")
    velocities = sorted(tuple(c["velocity"]) for c in failure["candidate_slacks"])
    if velocities != sorted(tuple(v) for v in spec.map.eval(point).points.tolist()):
        problems.append("candidates are not the map values at the failure point")
    for v in velocities:
        if not extension_slack(chain, point, np.array(v)) < -spec.tol:
            problems.append(f"candidate {list(v)} extends the chain")
    return problems


def _classify(op, spec, out):
    doc = json.loads((out / "classification.json").read_text())
    reports = {r["class"]: r for r in doc["reports"]}
    if sorted(reports) != sorted(CLASSES):
        return [f"classification.json holds classes {sorted(reports)}"]
    problems = []
    for name, r in reports.items():
        if not r["holds"]:
            report = ClassReport(name, False, r["witness"], r["tol"], r["samples"], r["details"])
            if not replay_witness(spec.map, report):
                problems.append(f"{name} witness does not replay")
    for name, want in (op.verdicts or {}).items():
        if reports[name]["holds"] != want:
            problems.append(f"{name} verdict {reports[name]['holds']}, expected {want}")
    return problems


def _potential(op, spec, out):
    text = (out / "family.json").read_text()
    raw = json.loads(text)
    problems = []
    for k, member in enumerate(raw["members"]):
        chain = Chain.from_dict(member)
        if not (np.array_equal(chain.anchor_point, spec.x0)
                and np.array_equal(chain.anchor_velocity, spec.v0)):
            problems.append(f"family member {k} has another anchor")
        if not verify_chain(chain, raw["tol"])[0]:
            problems.append(f"family member {k} does not verify")
    if problems:
        return problems
    family = family_from_text(text)
    summary = json.loads((out / "potential_summary.json").read_text())
    if summary["anchor_value"] != 0.0 or potential_value(family, spec.x0) != 0.0:
        problems.append("potential is not exactly zero at the anchor")
    _, rows = _rows(out / "potential_values.csv")
    for row in rows:
        x, value = np.array([float(c) for c in row[:-1]]), float(row[-1])
        if potential_value(family, x) != value:
            problems.append(f"potential value at {row[:-1]} does not re-evaluate")
            break
    return problems


_CHECKS = {"solve": _solve, "refine": _refine, "classify": _classify, "potential": _potential}
