"""lvmforge benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ingest_bulk --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around the calls into each module, plus the
tracing overhead and the scaling probes.  Human-readable lines come first;
the last line of standard output is the JSON result.  The exit code is 0
only when every operation and every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass

from tracing import LayerStats

# (name, unit): the end-to-end metrics BENCHMARK.json lists, reported in the
# JSON line of every workload.  The *_p50 timings are printed above it but
# not listed: on a shared host whose CPU speed flips between two modes about
# 1.5x apart, the median lands in either mode from run to run; over ten
# seeds it spread by up to 0.39 (IQR / median), the tails, which sit in the
# slow mode, by at most 0.13.
END_TO_END = (
    ("setup_s", "s"),
    ("import_ms_tail", "ms"),
    ("import_mb_per_s", "MB/s"),
    ("store_bytes_per_input_byte", "ratio"),
    ("export_csv_ms_tail", "ms"),
    ("export_xml_ms_tail", "ms"),
    ("analyze_ms_tail", "ms"),
    ("cli_cmd_ms_tail", "ms"),
    ("session_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better); the names BENCHMARK.json lists as per_layer
PER_LAYER = (
    ("lvm.parse_lvm.self_s", "s", "lower"),
    ("lvm.parse_lvm.calls", "count", "higher"),
    ("lvm.parse_lvm.mb_per_s", "MB/s", "higher"),
    ("lvm.serialize_lvm.self_s", "s", "lower"),
    ("model.make_typed.calls", "count", "lower"),
    ("model.make_typed.self_s", "s", "lower"),
    ("model.render_canonical.calls", "count", "lower"),
    ("model.render_canonical.self_s", "s", "lower"),
    ("ingest.map_lvm_to_record.self_s", "s", "lower"),
    ("ingest.map_lvm_to_record.points", "count", "higher"),
    ("ingest.Registry.from_store.self_s", "s", "lower"),
    ("ingest.Registry.from_store.calls", "count", "lower"),
    ("ingest.import_file.self_s", "s", "lower"),
    ("store.init_schema.self_s", "s", "lower"),
    ("store.init_schema.calls", "count", "lower"),
    ("store.put_measurement.self_s", "s", "lower"),
    ("store.put_measurement.rows_written", "count", "higher"),
    ("store.get_measurement.self_s", "s", "lower"),
    ("store.get_measurement.rows_read", "count", "higher"),
    ("store.query.self_s", "s", "lower"),
    ("store.query.rows_returned", "count", "higher"),
    ("store.update_value.self_s", "s", "lower"),
    ("store.delete_measurement.self_s", "s", "lower"),
    ("store.db_bytes", "bytes", "lower"),
    ("store.errors", "count", "lower"),
    ("export.export_csv.self_s", "s", "lower"),
    ("export.export_csv.bytes_out", "bytes", "higher"),
    ("export.export_xml.self_s", "s", "lower"),
    ("export.export_xml.bytes_out", "bytes", "higher"),
    ("analysis.step_response_from_series.self_s", "s", "lower"),
    ("analysis.estimate_time_constant.self_s", "s", "lower"),
    ("analysis.nonlinearity_error.self_s", "s", "lower"),
    ("analysis.synth_first_order.self_s", "s", "lower"),
    ("analysis.gen_lvm.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.run.calls", "count", "higher"),
    ("cli.run.nonzero_exits", "count", "lower"),
    ("lvm.parse_lvm.scale_2x", "ratio", "lower"),
    ("store.put_measurement.scale_2x", "ratio", "lower"),
    ("store.get_measurement.scale_2x", "ratio", "lower"),
    ("export.export_csv.scale_2x", "ratio", "lower"),
    ("export.export_xml.scale_2x", "ratio", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# the operation each workload's main group times, for the tracing overhead
MAIN_KIND = {"ingest_bulk": "import", "export_read": "export_csv", "lab_session": "cli"}

# Tails stop at p90: with hundreds or thousands of samples, the 11th-largest
# reads how often the shared machine stalls.  It moved by 30-40 % between
# runs, and by 30 % at p95 for the small, fsync-bound imports of lab_session.
TAIL_CAP = 0.90


@dataclass
class Metric:
    value: float
    unit: str
    detail: str = ""


def median(values: list[float]) -> float:
    """The median, or 0 when every attempt failed (the run fails anyway)."""
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile, up to p90, with at least ten samples beyond it.

    Returns (value, percentile) by nearest rank.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    k = max(min(n - 11, math.ceil(TAIL_CAP * n) - 1), 0)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(run) -> dict:
    samples = run.samples
    metrics = {"setup_s": Metric(
        median(run.setup_s), "s", f"median of {len(run.setup_s)} set-ups")}
    for prefix, kind in (("import_ms", "import"), ("export_csv_ms", "export_csv"),
                         ("export_xml_ms", "export_xml"), ("analyze_ms", "analyze"),
                         ("cli_cmd_ms", "cli")):
        values = samples[kind]
        metrics[prefix + "_p50"] = Metric(
            median(values), "ms", f"p50 of {len(values)} samples")
        value, percentile = tail(values)
        beyond = len(values) - round(percentile * len(values) / 100)
        metrics[prefix + "_tail"] = Metric(
            value, "ms", f"p{percentile:.1f} of {len(values)} samples, {beyond} beyond it")
    import_s = sum(samples["import"]) / 1e3
    metrics["import_mb_per_s"] = Metric(
        run.import_bytes / 1e6 / import_s if import_s else 0.0, "MB/s",
        f"{run.import_bytes} .lvm bytes in {import_s:.3f} s of import_file")
    db_bytes = os.path.getsize(run.store_path)
    held = sum(size for _, size in run.live.values())
    metrics["store_bytes_per_input_byte"] = Metric(
        db_bytes / held if held else 0.0, "ratio",
        f"{db_bytes} store bytes for the {held} .lvm bytes of the records it holds")
    cli_s = sum(samples["cli"]) / 1e3
    metrics["session_ops_per_s"] = Metric(
        len(samples["cli"]) / cli_s if cli_s else 0.0, "1/s",
        f"{len(samples['cli'])} commands in {cli_s:.3f} s")
    metrics["peak_rss_mb"] = Metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss")
    return metrics


def per_layer(run, workload: str, probes: dict) -> dict:
    stats = run.tracer.layers()
    metrics = {}
    for name, unit, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        entry = stats.get(layer, LayerStats())
        if field == "self_s":
            value = entry.self_ns / 1e9
        elif field == "calls":
            value = entry.calls
        elif field == "mb_per_s":
            value = entry.counts.get("bytes_in", 0) / 1e6 / max(entry.self_ns / 1e9, 1e-12)
        elif field == "scale_2x":
            value = probes[layer]
        elif name == "store.db_bytes":
            value = os.path.getsize(run.store_path)
        elif name == "store.errors":
            value = sum(s.errors for key, s in stats.items() if key.startswith("store."))
        elif layer == "trace":
            kind = MAIN_KIND[workload]
            untraced = median(run.samples[kind])
            overhead = median(run.traced_samples[kind]) - untraced
            value = overhead if field == "overhead_ms" else 100.0 * overhead / (untraced or 1.0)
        else:
            value = entry.counts.get(field, 0)
        metrics[name] = Metric(value, unit)
    return metrics


def layer_table(run) -> list[str]:
    """Per operation kind, the layers its spans went through."""
    lines = ["layer op-kind span calls self_s total_s counts"]
    for kind in ("import", "export_csv", "export_xml", "analyze", "cli"):
        for name, entry in sorted(run.tracer.layers(kind).items()):
            counts = " ".join(f"{k}={v}" for k, v in sorted(entry.counts.items()))
            lines.append(f"layer {kind} {name} {entry.calls} {entry.self_ns / 1e9:.6f}"
                         f" {entry.total_ns / 1e9:.6f} {counts}".rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest_bulk", "export_read", "lab_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    annex = os.path.join(root, "tests", "data", "annex1.lvm")
    program = os.path.join(root, "src", "lvmforge", "__init__.py")
    if not (os.path.isfile(program) and os.path.isfile(annex)):
        print("perfbench: run from the root of an lvmforge checkout"
              " (src/lvmforge and tests/data/annex1.lvm are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads  # imports lvmforge from the checkout's src/

    work = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    spans_dir = os.path.join(root, ".perfbench", "spans")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), work, annex)
    unlisted: dict[str, Metric] = {}
    lines = [f"perfbench workload={args.workload} seed={args.seed}"
             f" seconds={args.seconds:g} trace={args.trace}"]
    try:
        store = workloads.WORKLOADS[args.workload](run)
        try:
            lines += run.environment(store)
        finally:
            store.close()
        run.verify_counts()
        if args.trace:
            probes = run.scaling_probes()
            metrics = per_layer(run, args.workload, probes)
            lines += layer_table(run)
            lines += [f"not-measured {what}: {why}" for what, why in workloads.NOT_MEASURED]
            os.makedirs(spans_dir, exist_ok=True)
            spans_path = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
            run.tracer.dump(spans_path)
            lines.append(f"spans {len(run.tracer.spans)} written to"
                         f" {os.path.relpath(spans_path, root)}")
        else:
            unlisted = end_to_end(run)
            metrics = {name: unlisted.pop(name) for name, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines.append(f"inputs sha256={run.digest.hexdigest()} files={run.digest_files}"
                 f" bytes={run.digest_bytes} (set-up inputs; later files continue"
                 f" the same seeded sequence)")
    for name, metric in metrics.items():
        detail = f"  ({metric.detail})" if metric.detail else ""
        lines.append(f"metric {name} = {metric.value:.6g} {metric.unit}{detail}")
    lines += [f"metric {name} = {m.value:.6g} {m.unit}  ({m.detail}; not in BENCHMARK.json)"
              for name, m in unlisted.items()]
    error_rate = run.failed / max(run.attempted, 1)
    lines.append(f"metric error_rate = {error_rate:.6g} failed/attempted"
                 f"  ({run.failed} of {run.attempted})")
    lines += [f"failure: {note}" for note in run.notes]
    print("\n".join(lines))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
