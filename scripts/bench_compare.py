#!/usr/bin/env python3
"""Compare a fresh bench JSON against the recorded baseline; fail on regression.

Usage:
  scripts/bench_compare.py BASELINE_JSON FRESH_JSON [--tolerance 0.20]
                           [--min-seconds 0.05] [--micro-min-seconds 1e-6]
  scripts/bench_compare.py --service-report SERVICE_LOAD_JSONL

The second form skips the gate entirely: it reads the QO_OBS_REPORT JSONL
written by bench/service_load and prints a markdown summary (sustained qps
plus p50/p99 of the service.*_ns histograms) suitable for appending to
$GITHUB_STEP_SUMMARY. Informational only — always exits 0 on well-formed
input.

Both files use the schema written by scripts/bench_baseline.sh:
  figure_benches:   {"<name>": {"wall_seconds": float, "exit_code": int}}
  micro_benchmarks: [google-benchmark JSON entries]

When both sides have a <stem>.metrics.jsonl sibling (written by
bench_baseline.sh from each bench's QO_OBS_REPORT snapshot), a drift report
for the front-end cache and memo hit rates (derived from the registry's
hit/miss counts) and span latency quantiles is printed after
the wall-time table. Metrics drift is informational only — it never fails
the gate (latency quantiles move with machine load; hit rates exist to
explain wall-time movements, not to gate on their own).

Rules:
  * A figure bench REGRESSES when its exit code turns nonzero, or its wall
    time exceeds baseline * (1 + tolerance).
  * A microbenchmark REGRESSES when its real_time exceeds
    baseline * (1 + tolerance).
  * The service_load sustained qps (from the metrics siblings' service_load
    run-report line) REGRESSES when the fresh qps drops below
    baseline * (1 - tolerance). Its request p99 is printed alongside but is
    informational only — tail latency on shared CI runners is too noisy to
    gate.
  * Benches faster than the floor (--min-seconds / --micro-min-seconds) in
    the baseline are reported but never fail the gate — too noisy.
  * Entries present on only one side are WARNED about on stderr but do not
    fail the gate by themselves (new benchmarks land before their baseline
    refresh; removals should be followed by one). Exception: a fresh-only
    figure bench with a nonzero exit code is a regression — a brand-new
    bench that crashes must not slide through as merely "added".

Exit codes: 0 = no regression, 1 = regression, 2 = bad input.
"""

import argparse
import json
import sys

TIME_UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if "figure_benches" not in data:
        print(f"error: {path} has no figure_benches (wrong schema?)",
              file=sys.stderr)
        raise SystemExit(2)
    return data


def micro_seconds(entry):
    unit = TIME_UNIT_SECONDS.get(entry.get("time_unit", "ns"), 1e-9)
    return float(entry.get("real_time", 0.0)) * unit


def micro_by_name(data):
    out = {}
    for entry in data.get("micro_benchmarks", []) or []:
        # Skip aggregate rows (mean/median/stddev) if repetitions were used.
        if entry.get("run_type", "iteration") != "iteration":
            continue
        out[entry["name"]] = entry
    return out


def metrics_sibling(path):
    stem = path[:-5] if path.endswith(".json") else path
    return stem + ".metrics.jsonl"


def load_metrics(path):
    """Per-label metrics snapshots from a .metrics.jsonl sibling.

    Each line is one {"label", "day", "series", "quantiles"} object written
    by the obs run-report sink; the last line per label wins (the day:-1
    whole-process snapshot is emitted last).
    """
    per_label = {}
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(obj, dict) and "label" in obj:
                    per_label[obj["label"]] = obj
    except OSError:
        return None
    return per_label


# Rates worth eyeballing across runs, derived from registry counts (the
# registry exports counts only; a ratio would not sum across instances):
# name -> (hit series, miss series).
DERIVED_RATES = {
    "cache.front_end.hit_rate": (("cache.front_end.hits",),
                                 ("cache.front_end.misses",)),
    "optimizer.memo.hit_rate": (("optimizer.memo.full_hits",
                                 "optimizer.memo.norm_hits"),
                                ("optimizer.memo.misses",)),
}


def derived_rates(series):
    """{rate name: value} for every DERIVED_RATES entry with any lookups."""
    out = {}
    for name, (hit_names, miss_names) in DERIVED_RATES.items():
        if not any(n in series for n in hit_names + miss_names):
            continue
        hits = sum(float(series.get(n, 0)) for n in hit_names)
        misses = sum(float(series.get(n, 0)) for n in miss_names)
        if hits + misses > 0:
            out[name] = hits / (hits + misses)
    return out


def print_metrics_drift(base_path, fresh_path):
    """Informational hit-rate / span-quantile drift; never affects the gate."""
    base = load_metrics(metrics_sibling(base_path))
    fresh = load_metrics(metrics_sibling(fresh_path))
    if not base or not fresh:
        return
    shared = sorted(set(base) & set(fresh))
    if not shared:
        return
    print(f"\nmetrics drift (informational, {len(shared)} benches with "
          f"snapshots on both sides):")
    print(f"{'bench':36} {'metric':34} {'baseline':>12} {'fresh':>12}"
          f"  delta")
    for label in shared:
        b, f = base[label], fresh[label]
        b_rates = derived_rates(b.get("series", {}) or {})
        f_rates = derived_rates(f.get("series", {}) or {})
        for name in sorted(set(b_rates) & set(f_rates)):
            bv, fv = b_rates[name], f_rates[name]
            if bv == 0.0 and fv == 0.0:
                continue
            print(f"{label:36} {name:34} {bv:12.4f} {fv:12.4f}"
                  f"  {fv - bv:+8.4f}")
        b_quant = b.get("quantiles", {}) or {}
        f_quant = f.get("quantiles", {}) or {}
        for name in sorted(set(b_quant) & set(f_quant)):
            if not name.startswith("span."):
                continue
            bq, fq = b_quant[name], f_quant[name]
            bv, fv = float(bq.get("p50_ns", 0)), float(fq.get("p50_ns", 0))
            if bv <= 0:
                continue
            print(f"{label:36} {name + '.p50':34} {fmt_secs(bv * 1e-9):>12}"
                  f" {fmt_secs(fv * 1e-9):>12}  {fv / bv - 1.0:+7.1%}")


def service_load_summary(per_label):
    """(qps, request_p99_ns) from a metrics dict's service_load line.

    Returns None when the dict is missing or holds no service_load label;
    either tuple slot may be None when the series/histogram is absent.
    """
    if not per_label:
        return None
    report = None
    for label in sorted(per_label):
        if label.startswith("service_load"):
            report = per_label[label]
    if report is None:
        return None
    series = report.get("series", {}) or {}
    quantiles = report.get("quantiles", {}) or {}
    qps = series.get("service.load.qps")
    p99 = (quantiles.get("service.request_ns") or {}).get("p99_ns")
    return (qps, p99)


def check_service_load(base_path, fresh_path, tolerance, regressions,
                       warnings):
    """Gate on sustained service_load qps; request p99 is informational."""
    base = service_load_summary(load_metrics(metrics_sibling(base_path)))
    fresh = service_load_summary(load_metrics(metrics_sibling(fresh_path)))
    base_qps = base[0] if base else None
    fresh_qps = fresh[0] if fresh else None
    if base_qps is None and fresh_qps is None:
        return
    if fresh_qps is None:
        warnings.append("service_load qps: in baseline only (no fresh "
                        "service_load metrics line)")
        return
    if base_qps is None:
        warnings.append("service_load qps: in fresh only (refresh the "
                        "baseline to arm the qps gate)")
        return
    bq, fq = float(base_qps), float(fresh_qps)
    delta = fq / bq - 1.0 if bq > 0 else 0.0
    status = "ok"
    if delta < -tolerance:
        status = "REGRESSED"
        regressions.append(f"service_load qps: {bq:,.0f} -> {fq:,.0f} "
                           f"({delta:+.1%} < -{tolerance:.0%})")
    elif delta > tolerance:
        status = "faster"
    print(f"\nservice_load gate (qps gated at {tolerance:.0%} tolerance):")
    print(f"  sustained qps:          {bq:>12,.0f} -> {fq:>12,.0f} "
          f" {delta:+7.1%}  {status}")
    base_p99, fresh_p99 = (base[1] if base else None), (fresh[1] if fresh
                                                        else None)
    if base_p99 and fresh_p99:
        bp, fp = float(base_p99), float(fresh_p99)
        print(f"  service.request_ns p99: {fmt_secs(bp * 1e-9):>12} ->"
              f" {fmt_secs(fp * 1e-9):>12}  {fp / bp - 1.0:+7.1%}"
              f"  (informational)")


def print_service_report(path):
    """Markdown summary of a bench/service_load JSONL run report.

    The last line whose label starts with "service_load" wins (the bench
    emits one whole-process line per run). Returns 0 on success, 2 when the
    file is missing or holds no service_load line.
    """
    per_label = load_metrics(path)
    if not per_label:
        print(f"error: cannot read service report {path}", file=sys.stderr)
        return 2
    report = None
    for label in sorted(per_label):
        if label.startswith("service_load"):
            report = per_label[label]
    if report is None:
        print(f"error: no service_load line in {path} "
              f"(labels: {sorted(per_label)})", file=sys.stderr)
        return 2

    series = report.get("series", {}) or {}
    quantiles = report.get("quantiles", {}) or {}
    print(f"### service_load ({report['label']})\n")
    qps = series.get("service.load.qps")
    wall_ms = series.get("service.load.wall_ms")
    requests = series.get("service.load.requests")
    if qps is not None:
        line = f"Sustained **{qps:,.0f} qps**"
        if requests is not None:
            line += f" ({requests:,.0f} requests"
            if wall_ms is not None:
                line += f" in {wall_ms / 1e3:.3f}s"
            line += ")"
        print(line + "\n")
    print("| histogram | count | p50 | p99 | max |")
    print("|---|---:|---:|---:|---:|")
    for name in sorted(quantiles):
        if not name.startswith("service."):
            continue
        q = quantiles[name]
        print(f"| `{name}` | {int(q.get('count', 0))} "
              f"| {fmt_secs(float(q.get('p50_ns', 0)) * 1e-9).strip()} "
              f"| {fmt_secs(float(q.get('p99_ns', 0)) * 1e-9).strip()} "
              f"| {fmt_secs(float(q.get('max_ns', 0)) * 1e-9).strip()} |")
    for name in ("service.rank_requests", "service.reward_requests",
                 "service.compile_requests", "service.hint_uploads",
                 "service.snapshot_publications"):
        if name in series:
            print(f"- `{name}`: {series[name]:,.0f}")
    return 0


def fmt_secs(s):
    if s >= 1.0:
        return f"{s:8.3f}s "
    if s >= 1e-3:
        return f"{s * 1e3:8.3f}ms"
    return f"{s * 1e6:8.3f}us"


def main():
    parser = argparse.ArgumentParser(
        description="Bench regression gate against BENCH_baseline.json")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("fresh", nargs="?")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed slowdown fraction (default 0.20 = 20%%)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="figure benches under this baseline wall time "
                             "never fail the gate")
    parser.add_argument("--micro-min-seconds", type=float, default=1e-6,
                        help="microbenchmarks under this baseline time never "
                             "fail the gate")
    parser.add_argument("--service-report", metavar="JSONL",
                        help="print a markdown summary of a service_load "
                             "run report instead of running the gate")
    args = parser.parse_args()

    if args.service_report is not None:
        return print_service_report(args.service_report)
    if args.baseline is None or args.fresh is None:
        parser.error("baseline and fresh are required unless "
                     "--service-report is given")

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    regressions = []
    warnings = []
    rows = []

    def record(kind, name, base_s, fresh_s, gated, note=""):
        delta = (fresh_s / base_s - 1.0) if base_s > 0 else 0.0
        status = "ok"
        if note:
            status = note
        elif delta > args.tolerance:
            status = "REGRESSED" if gated else "slower (ungated)"
            if gated:
                regressions.append(f"{kind} {name}: "
                                   f"{base_s:.4g}s -> {fresh_s:.4g}s "
                                   f"({delta:+.1%} > {args.tolerance:.0%})")
        elif delta < -args.tolerance:
            status = "faster"
        rows.append((kind, name, base_s, fresh_s, delta, status))

    # --- Figure benches: wall time + exit code. ---
    base_figs = baseline["figure_benches"]
    fresh_figs = fresh["figure_benches"]
    for name in sorted(set(base_figs) | set(fresh_figs)):
        if name not in fresh_figs:
            warnings.append(f"figure {name}: in baseline only (removed? "
                            f"refresh the baseline)")
            rows.append(("figure", name, base_figs[name]["wall_seconds"],
                         float("nan"), 0.0, "removed"))
            continue
        if name not in base_figs:
            exit_code = fresh_figs[name].get("exit_code", 0)
            if exit_code != 0:
                regressions.append(f"figure {name}: new bench exits with "
                                   f"code {exit_code}")
                rows.append(("figure", name, float("nan"),
                             fresh_figs[name]["wall_seconds"], 0.0, "EXIT!=0"))
                continue
            warnings.append(f"figure {name}: in fresh only (new bench — "
                            f"refresh the baseline)")
            rows.append(("figure", name, float("nan"),
                         fresh_figs[name]["wall_seconds"], 0.0, "added"))
            continue
        b, f = base_figs[name], fresh_figs[name]
        if f.get("exit_code", 0) != 0:
            regressions.append(f"figure {name}: exit code "
                               f"{f['exit_code']} (was {b.get('exit_code', 0)})")
            rows.append(("figure", name, b["wall_seconds"], f["wall_seconds"],
                         0.0, "EXIT!=0"))
            continue
        gated = b["wall_seconds"] >= args.min_seconds
        record("figure", name, b["wall_seconds"], f["wall_seconds"], gated)

    # --- Microbenchmarks: real_time by name. ---
    base_micro = micro_by_name(baseline)
    fresh_micro = micro_by_name(fresh)
    for name in sorted(set(base_micro) | set(fresh_micro)):
        if name not in fresh_micro:
            warnings.append(f"micro {name}: in baseline only (removed? "
                            f"refresh the baseline)")
            rows.append(("micro", name, micro_seconds(base_micro[name]),
                         float("nan"), 0.0, "removed"))
            continue
        if name not in base_micro:
            warnings.append(f"micro {name}: in fresh only (new bench — "
                            f"refresh the baseline)")
            rows.append(("micro", name, float("nan"),
                         micro_seconds(fresh_micro[name]), 0.0, "added"))
            continue
        base_s = micro_seconds(base_micro[name])
        fresh_s = micro_seconds(fresh_micro[name])
        gated = base_s >= args.micro_min_seconds
        record("micro", name, base_s, fresh_s, gated)

    print(f"{'kind':6} {'benchmark':44} {'baseline':>10} {'fresh':>10} "
          f"{'delta':>8}  status")
    for kind, name, base_s, fresh_s, delta, status in rows:
        base_txt = fmt_secs(base_s) if base_s == base_s else "       -  "
        fresh_txt = fmt_secs(fresh_s) if fresh_s == fresh_s else "       -  "
        print(f"{kind:6} {name:44} {base_txt:>10} {fresh_txt:>10} "
              f"{delta:+7.1%}  {status}")

    check_service_load(args.baseline, args.fresh, args.tolerance,
                       regressions, warnings)
    print_metrics_drift(args.baseline, args.fresh)

    if warnings:
        print(f"\n{len(warnings)} warning(s): benches present on one side "
              f"only:", file=sys.stderr)
        for w in warnings:
            print(f"  warning: {w}", file=sys.stderr)
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.tolerance:.0%} tolerance "
          f"({len(rows)} benches compared)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
