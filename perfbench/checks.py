"""Output checks that do not use the package's own validator.

Each function returns a list of problems; an empty list means the output
passed. Tolerances:

- ``BALANCE_TOL_MW`` (1e-9 MW): power balance and SoC recursion per trace row.
- ``REL_TOL`` (1e-9, relative, floor 1): recomputed report fields, oracle
  invariants, and the comparison with the stored seed-commit references.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

BALANCE_TOL_MW = 1e-9
REL_TOL = 1e-9
QUALIFY = 0.75  # market qualification threshold

# Rule-side report fields compared with the references for equality. The
# oracle_* fields are left out on purpose, because a better oracle is
# expected to lower them.
REF_FIELDS = ("steps", "performance_score", "performance_score_raw", "mileage",
              "qualified", "payment_usd", "soc_final", "max_balance_residual_mw",
              "max_flex_bid_mw", "rule_objective_mw")
# Oracle fields stored with the references but not compared for equality.
ORACLE_REF_FIELDS = ("oracle_objective_mw", "oracle_lower_bound_mw", "oracle_certified")
SWEEP_COLUMNS = ("season", "hour", "statistic", "n_samples", "pv_stat_mw",
                 "capacity_mw", "score", "qualified", "payment_usd")
SWEEP_NUMERIC = ("n_samples", "pv_stat_mw", "capacity_mw", "score", "payment_usd")
TRACE_COLUMNS = ("k", "t", "r", "p_hes", "p0", "dp_req", "p_pv", "p_cl", "p_batt",
                 "p_curtailed", "soc")


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def report_values(report: dict[str, str]) -> dict:
    return {k: _value(v) for k, v in report.items()}


def check_report(rep: dict, steps: int, oracle: bool) -> list[str]:
    """Settlement arithmetic and, for ``--oracle``, the oracle invariants."""
    need = ["steps", "performance_score", "performance_score_raw", "mileage", "qualified",
            "payment_usd", "soc_final", "max_balance_residual_mw", "market.capacity_mw",
            "market.lambda_capacity", "market.lambda_mileage", "battery.soc_min",
            "battery.soc_max"]
    if oracle:
        need += ["rule_objective_mw", "oracle_objective_mw", "oracle_gap_mw",
                 "oracle_lower_bound_mw", "oracle_certified", "oracle_backend"]
    missing = [k for k in need if k not in rep]
    if missing:
        return [f"report lacks {missing}"]
    # A NaN would pass every comparison below.
    nonfinite = [k for k in need if isinstance(rep[k], float) and not math.isfinite(rep[k])]
    if nonfinite:
        return [f"report has non-finite {nonfinite}"]
    bad = []
    if rep["steps"] != steps:
        bad.append(f"steps = {rep['steps']}, expected {steps}")
    if rep["max_balance_residual_mw"] > BALANCE_TOL_MW:
        bad.append(f"balance residual {rep['max_balance_residual_mw']} MW")
    raw = rep["performance_score_raw"]
    if not close(rep["performance_score"], max(0.0, raw)):
        bad.append("performance_score is not max(0, raw score)")
    if rep["qualified"] != (raw >= QUALIFY):
        bad.append(f"qualified = {rep['qualified']} with raw score {raw}")
    cap = rep["market.capacity_mw"]
    prices = rep["market.lambda_capacity"] + rep["mileage"] * rep["market.lambda_mileage"]
    pay = raw * cap * prices
    if not close(rep["payment_usd"], pay if rep["qualified"] else 0.0):
        bad.append(f"payment {rep['payment_usd']} != recomputed {pay}")
    if not rep["battery.soc_min"] - REL_TOL <= rep["soc_final"] <= rep["battery.soc_max"] + REL_TOL:
        bad.append(f"soc_final {rep['soc_final']} outside the battery window")
    if oracle:
        rule, obj = rep["rule_objective_mw"], rep["oracle_objective_mw"]
        lb = rep["oracle_lower_bound_mw"]
        tol = REL_TOL * max(1.0, abs(rule))
        if lb > obj + tol:
            bad.append(f"lower bound {lb} above oracle objective {obj}")
        if obj > rule + tol:
            bad.append(f"oracle objective {obj} above rule objective {rule}")
        if rep["oracle_certified"] and obj - lb > tol:
            bad.append(f"certified with a gap of {obj - lb} MW to its bound")
        if abs(rep["oracle_gap_mw"] - (rule - obj)) > tol:
            bad.append("oracle_gap_mw != rule - oracle objective")
    return bad


def _read_csv_values(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)


def check_trace(trace: Path, rep: dict, signal_csv: Path, meta: dict,
                guard_band: tuple[float, float] | None) -> list[str]:
    """Recompute balance, SoC recursion and the score from the trace CSV."""
    with trace.open() as fh:
        header = tuple(c.strip() for c in fh.readline().split(","))
    missing = [c for c in TRACE_COLUMNS if c not in header]
    if missing:
        return [f"trace lacks columns {missing}"]
    data = np.loadtxt(trace, delimiter=",", skiprows=1, ndmin=2)
    col = {name: data[:, header.index(name)] for name in TRACE_COLUMNS}
    n = meta["steps"]
    if data.shape[0] != n:
        return [f"trace has {data.shape[0]} rows, expected {n}"]
    bad = []
    r_in = _read_csv_values(signal_csv)
    if not np.array_equal(col["k"], np.arange(n)):
        bad.append("trace step index is not 0..n-1")
    if np.max(np.abs(col["r"] - r_in)) > 1e-12:
        bad.append("trace signal differs from the input signal")
    cap = rep["market.capacity_mw"]
    if np.max(np.abs(col["dp_req"] - cap * col["r"])) > BALANCE_TOL_MW * max(1.0, cap):
        bad.append("dp_req != capacity * r")
    balance = col["p_hes"] - ((col["p_pv"] - col["p_curtailed"]) - col["p_cl"] + col["p_batt"])
    if np.max(np.abs(balance)) > BALANCE_TOL_MW:
        bad.append(f"power balance off by {np.max(np.abs(balance)):.3e} MW")
    p = col["p_batt"]
    soc = col["soc"]
    eta = meta["eta"]
    alpha = meta["dt_s"] / 3600.0 / meta["e_cap_mwh"]
    prev = np.concatenate(([meta["soc0"]], soc[:-1]))
    expect = prev - alpha * (eta * np.minimum(p, 0.0) + np.maximum(p, 0.0) / eta)
    if np.max(np.abs(expect - soc)) > BALANCE_TOL_MW:
        bad.append(f"SoC recursion off by {np.max(np.abs(expect - soc)):.3e}")
    if guard_band is not None:
        lo, hi = guard_band
        if soc.min() < lo - BALANCE_TOL_MW or soc.max() > hi + BALANCE_TOL_MW:
            bad.append(f"SoC left the guard band: [{soc.min()}, {soc.max()}]")
    if np.max(np.abs(col["p_curtailed"])) > 0.0:
        bad.append("curtailment in scenario S1")
    delivered = col["p_hes"] - col["p0"]
    score = 1.0 - np.sum(np.abs(cap * col["r"] - delivered)) / (cap * np.sum(np.abs(col["r"])))
    if not close(float(score), rep["performance_score_raw"]):
        bad.append(f"score from the trace {score} != reported {rep['performance_score_raw']}")
    if not close(float(np.sum(np.abs(np.diff(col["r"])))), rep["mileage"]):
        bad.append("mileage from the trace differs from the report")
    if not close(float(soc[-1]), rep["soc_final"]):
        bad.append("soc_final differs from the last trace row")
    return bad


def read_sweep(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != SWEEP_COLUMNS:
        raise ValueError(f"unexpected sweep header {rows[:1]}")
    return [dict(zip(SWEEP_COLUMNS, row)) for row in rows[1:]]


def check_sweep(rows: list[dict], days: int, p_max_mw: float, statistics) -> list[str]:
    """Bucket structure, bid rule, qualification and payment of each row."""
    bad = []
    buckets: dict[tuple[str, str], dict[str, dict]] = {}
    for row in rows:
        buckets.setdefault((row["season"], row["hour"]), {})[row["statistic"]] = row
    if len(rows) != 96 * len(statistics) or len(buckets) != 96:
        bad.append(f"{len(rows)} rows in {len(buckets)} buckets, expected 96 buckets")
    samples = 0
    for key, by_stat in buckets.items():
        if sorted(by_stat) != sorted(statistics):
            bad.append(f"bucket {key} has statistics {sorted(by_stat)}")
            continue
        counts = {row["n_samples"] for row in by_stat.values()}
        if len(counts) != 1:
            bad.append(f"bucket {key} has differing sample counts")
        samples += int(counts.pop())
        stat_mw = {s: float(row["pv_stat_mw"]) for s, row in by_stat.items()}
        p50, p75, p95 = stat_mw["p50"], stat_mw["p75"], stat_mw["p95"]
        if p50 < 0.0 or p50 > p75 + REL_TOL or p75 > p95 + REL_TOL:
            bad.append(f"bucket {key}: percentiles out of order {stat_mw}")
        for s, row in by_stat.items():
            bid, score = float(row["capacity_mw"]), float(row["score"])
            pay = float(row["payment_usd"])
            if not close(bid, p_max_mw + 0.5 * stat_mw[s]):
                bad.append(f"bucket {key} {s}: bid {bid} != p_max + pv_stat / 2")
            if (row["qualified"] == "true") != (score >= QUALIFY) or score > 1.0 + REL_TOL:
                bad.append(f"bucket {key} {s}: score {score} vs qualified {row['qualified']}")
            if (pay > 0.0) != (row["qualified"] == "true"):
                bad.append(f"bucket {key} {s}: payment {pay} vs qualified {row['qualified']}")
    if samples != days * 1440:
        bad.append(f"buckets hold {samples} samples, expected {days * 1440}")
    return bad


def sweep_digest(rows: list[dict]) -> dict:
    """Plain and index-weighted sums per numeric column, and a hash of the
    label columns: a compact stand-in for the whole sweep CSV."""
    out = {}
    w = np.arange(1, len(rows) + 1, dtype=float)
    for name in SWEEP_NUMERIC:
        x = np.array([float(row[name]) for row in rows])
        out[name] = [float(x.sum()), float(w @ x)]
    labels = "\n".join(f"{r['season']},{r['hour']},{r['statistic']},{r['qualified']}" for r in rows)
    out["labels_sha256"] = hashlib.sha256(labels.encode()).hexdigest()
    return out


def trace_digest(path: Path) -> dict:
    """Plain and index-weighted sums of every trace column."""
    with path.open() as fh:
        header = [c.strip() for c in fh.readline().split(",")]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    w = np.arange(1, data.shape[0] + 1, dtype=float)
    return {name: [float(data[:, j].sum()), float(w @ data[:, j])]
            for j, name in enumerate(header)}


def reference_entry(kind: str, path: Path) -> dict:
    """What the reference file stores for one output."""
    if kind == "sweep":
        return sweep_digest(read_sweep(path))
    if kind == "trace":
        return trace_digest(path)
    rep = report_values(parse_report(path))
    return {k: rep[k] for k in REF_FIELDS + ORACLE_REF_FIELDS if k in rep}


def compare_oracle(got: dict, ref: dict) -> list[str]:
    """The oracle objective may fall to the optimum, not below it.

    The reference objective is the value of a feasible schedule, so it caps
    both the new objective and any valid lower bound. The reference lower
    bound floors the new objective; for an instance the reference certified,
    the floor is the reference objective itself, the known optimum.
    """
    obj, lb = got["oracle_objective_mw"], got["oracle_lower_bound_mw"]
    ref_obj = ref["oracle_objective_mw"]
    floor = ref_obj if ref["oracle_certified"] else ref["oracle_lower_bound_mw"]
    tol = REL_TOL * max(1.0, abs(ref_obj))
    bad = []
    if obj > ref_obj + tol:
        bad.append(f"oracle objective {obj} above the reference {ref_obj}")
    if obj < floor - tol:
        bad.append(f"oracle objective {obj} below the reference's bound {floor}")
    if lb > ref_obj + tol:
        bad.append(f"oracle lower bound {lb} above the reference objective {ref_obj}")
    return bad


def compare_reference(kind: str, path: Path, ref: dict) -> list[str]:
    """Rule-side fields must match the reference; the oracle fields must
    stay consistent with it (see compare_oracle)."""
    got = reference_entry(kind, path)
    missing = [k for k in ref if k not in got]
    if missing:
        return [f"{k} missing" for k in missing]
    bad = compare_oracle(got, ref) if "oracle_objective_mw" in ref else []
    for key, want in ref.items():
        have = got[key]
        if key in ORACLE_REF_FIELDS:
            continue
        if isinstance(want, list):
            if not all(close(h, w) for h, w in zip(have, want)):
                bad.append(f"{key} digest {have} != reference {want}")
        elif isinstance(want, float) and not isinstance(want, bool):
            if isinstance(have, bool) or not isinstance(have, float) or not close(have, want):
                bad.append(f"{key} = {have}, reference {want}")
        elif have != want:
            bad.append(f"{key} = {have!r}, reference {want!r}")
    return bad
