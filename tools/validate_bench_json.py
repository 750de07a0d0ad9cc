#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts against the spheredec bench schema.

Usage:
    python3 tools/validate_bench_json.py FILE_OR_DIR [FILE_OR_DIR ...]

Directories are scanned (non-recursively) for BENCH_*.json. Every file must
parse as JSON and conform to schema version 1 (see EXPERIMENTS.md):

    {
      "schema": "spheredec.bench",
      "schema_version": 1,
      "name": "<bench name>",            # matches the BENCH_<name>.json filename
      "config": { "<key>": scalar, ... },
      "series": [ { "label": str, "rows": [ { "<col>": scalar, ... } ] } ],
      "tables": [ { "label": str, "headers": [str], "rows": [ [cell, ...] ] } ],
      "counters": { "<name>": number }   # optional
    }

The dispatch artifact (name == "dispatch") is additionally checked against
its documented shape (EXPERIMENTS.md): a "policies" series whose rows carry
"policy", "e2e_p99_s" and "deadline_miss_rate", and the calibration-scenario
counter "dispatch.prediction.mean_rel_error".

The gemm_kernels artifact (name == "gemm_kernels") is checked for a
"kernels" series whose rows carry "kernel", "m", "n", "k" and "seconds",
and — when config.soa_available is true — gated on the SoA kernel being no
slower than 1.05x scalar at the three largest shapes (by m*n*k volume).

The coherent_batch artifact (name == "coherent_batch") is checked for a
"coherent_batch" series whose rows carry "coherence", "batch",
"frames_per_s", "prep_hit_rate" and "fused_frames", and — when
config.gate_speedup is true — gated on the fused L=64/B=8 cell being at
least 1.3x the L=1/B=1 baseline with a >= 90% prep-cache hit rate. It must
also carry a "cross_lane" series ("lanes", "former", "frames_per_s", "fused_width_p50",
"offered_batch", "former_gathered"); under the same gate the 4-lane
former-on row must have gathered frames, a fused-width p50 >= 0.75x the
offered per-lane batch, and >= 1.15x the former-off pool's throughput.

The ingress artifact (name == "ingress") is checked for a "transport"
series ("transport", "m", "window", "frame_bytes", "frames_per_s",
"mbytes_per_s") covering both uds and tcp, and an "admission" series
("mode", "offered_fps", "hard_offered", "hard_misses",
"hard_deadline_miss_rate", "shed", "completed", "frames_per_s") covering
modes "none" and "shed". When config.gate_admission is true the shed-
before-miss gate applies: at 2x calibrated capacity the no-admission
baseline must actually miss hard deadlines, and admission control must
achieve a strictly lower hard-deadline miss rate.

The quant_kernels artifact (name == "quant_kernels") is checked for a
"kernels" series whose rows carry "kernel", "m", "n", "k" and "seconds",
and — when config.gate_speedup is true (AVX2 int16 and float SoA kernels
both available) — gated on the int16 AVX2 kernel beating the float SoA
kernel by >= 1.5x at the largest shape (by m*n*k volume). The int16 path
stores operands at half the width and fuses each complex MAC pair into one
madd, so losing this margin means the fixed-point kernel regressed.

The ablation_precision artifact (name == "ablation_precision") is checked
for an "int16_ber" series whose rows carry "snr_db", "ber_fp32",
"ber_int16" and "bits". When config.gate_ber is true the quantized-accuracy
gate applies: at every measured SNR above the first, the int16 BER must be
no worse than the float curve evaluated 0.2 dB back (log-linear
interpolation between neighbouring SNR points), within a 2-error
statistical allowance — the ISSUE acceptance criterion that quantization
costs < 0.2 dB across the Fig. 7 operating points.

The massive_mimo artifact (name == "massive_mimo") is checked for
"throughput" rows ("geometry", "detector", "frames_per_s", "us_per_frame",
"frames"), "ber" rows ("geometry", "detector", "snr_db", "ber", "ber_ci95",
"trials") and a "gates" series with one row per 128x8 serving point
("128x8-qpsk" and "128x8-16qam"). When config.gate_massive is true (real
trial counts) the asymmetric fast-path acceptance gates apply to every
gates row: the k=3 MMSE-Neumann tier must serve >= 3x the frames/s of the
best tree-search config, and its BER must be no worse than the exact MMSE
solve rerun 0.2 dB lower — the PR 10 acceptance criteria (DESIGN.md §17).

Exit status is 0 iff every file validates. Stdlib only — no dependencies.
"""

import json
import math
import os
import sys

SCHEMA = "spheredec.bench"
SCHEMA_VERSION = 1
SCALAR = (str, int, float, bool, type(None))


class Problems:
    def __init__(self):
        self.count = 0

    def report(self, path, message):
        self.count += 1
        print(f"{path}: {message}", file=sys.stderr)


def check_scalar(problems, path, where, value):
    if not isinstance(value, SCALAR):
        problems.report(path, f"{where}: expected a scalar, got {type(value).__name__}")


def check_labeled_list(problems, path, key, value, check_entry):
    """Common shape of `series` and `tables`: a list of {label, ...} objects."""
    if not isinstance(value, list):
        problems.report(path, f"'{key}' must be a list, got {type(value).__name__}")
        return
    seen = set()
    for i, entry in enumerate(value):
        where = f"{key}[{i}]"
        if not isinstance(entry, dict):
            problems.report(path, f"{where} must be an object")
            continue
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            problems.report(path, f"{where}: missing or empty 'label'")
        elif label in seen:
            problems.report(path, f"{where}: duplicate label '{label}'")
        else:
            seen.add(label)
        check_entry(problems, path, where, entry)


def check_series_entry(problems, path, where, entry):
    rows = entry.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.report(path, f"{where}: 'rows' must be a non-empty list")
        return
    # Rows need not share one column set (e.g. google-benchmark user counters
    # vary per benchmark), but every cell must be a scalar.
    for j, row in enumerate(rows):
        if not isinstance(row, dict) or not row:
            problems.report(path, f"{where}.rows[{j}] must be a non-empty object")
            continue
        for col, cell in row.items():
            check_scalar(problems, path, f"{where}.rows[{j}].{col}", cell)


def check_table_entry(problems, path, where, entry):
    headers = entry.get("headers")
    if (not isinstance(headers, list) or not headers
            or not all(isinstance(h, str) for h in headers)):
        problems.report(path, f"{where}: 'headers' must be a non-empty string list")
        return
    rows = entry.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.report(path, f"{where}: 'rows' must be a non-empty list")
        return
    for j, row in enumerate(rows):
        if not isinstance(row, list):
            problems.report(path, f"{where}.rows[{j}] must be a list")
            continue
        if len(row) != len(headers):
            problems.report(
                path, f"{where}.rows[{j}]: {len(row)} cells vs {len(headers)} headers")
        for k, cell in enumerate(row):
            check_scalar(problems, path, f"{where}.rows[{j}][{k}]", cell)


def validate_file(problems, path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        problems.report(path, f"unreadable or invalid JSON: {err}")
        return

    if not isinstance(doc, dict):
        problems.report(path, "top level must be an object")
        return
    if doc.get("schema") != SCHEMA:
        problems.report(path, f"'schema' must be \"{SCHEMA}\", got {doc.get('schema')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        problems.report(path, f"'schema_version' must be {SCHEMA_VERSION}, "
                        f"got {doc.get('schema_version')!r}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        problems.report(path, "'name' must be a non-empty string")
    else:
        expected = f"BENCH_{name}.json"
        if os.path.basename(path) != expected:
            problems.report(path, f"filename should be {expected} for name '{name}'")

    config = doc.get("config")
    if not isinstance(config, dict):
        problems.report(path, "'config' must be an object")
    else:
        for key, value in config.items():
            check_scalar(problems, path, f"config.{key}", value)

    check_labeled_list(problems, path, "series", doc.get("series", []), check_series_entry)
    check_labeled_list(problems, path, "tables", doc.get("tables", []), check_table_entry)

    if not doc.get("series") and not doc.get("tables"):
        problems.report(path, "document has neither series nor tables")

    counters = doc.get("counters")
    if counters is not None:
        if not isinstance(counters, dict):
            problems.report(path, "'counters' must be an object")
        else:
            for key, value in counters.items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.report(path, f"counters.{key}: expected a number")

    for key in doc:
        if key not in ("schema", "schema_version", "name", "config", "series",
                       "tables", "counters"):
            problems.report(path, f"unknown top-level key '{key}'")

    if name == "dispatch":
        check_dispatch(problems, path, doc)
    if name == "gemm_kernels":
        check_gemm_kernels(problems, path, doc)
    if name == "coherent_batch":
        check_coherent_batch(problems, path, doc)
    if name == "ingress":
        check_ingress(problems, path, doc)
    if name == "quant_kernels":
        check_quant_kernels(problems, path, doc)
    if name == "ablation_precision":
        check_ablation_precision(problems, path, doc)
    if name == "massive_mimo":
        check_massive_mimo(problems, path, doc)


def check_dispatch(problems, path, doc):
    """Extra shape requirements for BENCH_dispatch.json (EXPERIMENTS.md)."""
    series = doc.get("series")
    policies = None
    if isinstance(series, list):
        for entry in series:
            if isinstance(entry, dict) and entry.get("label") == "policies":
                policies = entry
    if policies is None:
        problems.report(path, "dispatch: missing 'policies' series")
    else:
        rows = policies.get("rows")
        rows = rows if isinstance(rows, list) else []
        for j, row in enumerate(rows):
            if not isinstance(row, dict):
                continue
            for col in ("policy", "e2e_p99_s", "deadline_miss_rate"):
                if col not in row:
                    problems.report(
                        path, f"dispatch: policies.rows[{j}] missing '{col}'")

    counters = doc.get("counters")
    counters = counters if isinstance(counters, dict) else {}
    if "dispatch.prediction.mean_rel_error" not in counters:
        problems.report(
            path, "dispatch: missing counter 'dispatch.prediction.mean_rel_error'")


def check_gemm_kernels(problems, path, doc):
    """Extra shape + perf-gate requirements for BENCH_gemm_kernels.json."""
    series = doc.get("series")
    kernels = None
    if isinstance(series, list):
        for entry in series:
            if isinstance(entry, dict) and entry.get("label") == "kernels":
                kernels = entry
    if kernels is None:
        problems.report(path, "gemm_kernels: missing 'kernels' series")
        return

    rows = kernels.get("rows")
    rows = rows if isinstance(rows, list) else []
    by_shape = {}  # (m, n, k) -> {kernel: seconds}
    for j, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        missing = [c for c in ("kernel", "m", "n", "k", "seconds")
                   if c not in row]
        if missing:
            problems.report(
                path, f"gemm_kernels: kernels.rows[{j}] missing {missing}")
            continue
        shape = (row["m"], row["n"], row["k"])
        by_shape.setdefault(shape, {})[row["kernel"]] = row["seconds"]

    config = doc.get("config")
    config = config if isinstance(config, dict) else {}
    if not config.get("soa_available"):
        return  # scalar-only host: nothing to gate

    # Perf gate: at the three largest full-product shapes, the SoA kernel
    # must not be slower than 1.05x scalar — catches vectorization
    # regressions where the SIMD kernel silently loses to the baseline.
    full = [(m * n * k, (m, n, k), secs)
            for (m, n, k), secs in by_shape.items()
            if "scalar" in secs and "soa" in secs]
    if not full:
        problems.report(
            path, "gemm_kernels: soa_available but no scalar/soa row pairs")
        return
    for _, shape, secs in sorted(full, reverse=True)[:3]:
        if secs["soa"] > secs["scalar"] * 1.05:
            problems.report(
                path,
                f"gemm_kernels: SoA slower than scalar at shape {shape} "
                f"({secs['soa']:.3e}s vs {secs['scalar']:.3e}s)")


def check_coherent_batch(problems, path, doc):
    """Extra shape + perf-gate requirements for BENCH_coherent_batch.json."""
    series = doc.get("series")
    sweep = None
    if isinstance(series, list):
        for entry in series:
            if isinstance(entry, dict) and entry.get("label") == "coherent_batch":
                sweep = entry
    if sweep is None:
        problems.report(path, "coherent_batch: missing 'coherent_batch' series")
        return

    rows = sweep.get("rows")
    rows = rows if isinstance(rows, list) else []
    cells = {}  # (coherence, batch) -> row
    for j, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        missing = [c for c in ("coherence", "batch", "frames_per_s",
                               "prep_hit_rate", "fused_frames")
                   if c not in row]
        if missing:
            problems.report(
                path, f"coherent_batch: rows[{j}] missing {missing}")
            continue
        cells[(row["coherence"], row["batch"])] = row

    config = doc.get("config")
    config = config if isinstance(config, dict) else {}
    if not config.get("gate_speedup"):
        return  # smoke run: nothing was measured

    # Perf gate: at L=64/B=8 the fused coherent path must beat the i.i.d.
    # per-frame baseline by >= 1.3x, with the prep cache actually doing the
    # work (>= 90% hit rate) — catches both a broken cache (misses every
    # frame) and a fused path that lost its speed advantage.
    base = cells.get((1, 1))
    fused = cells.get((64, 8))
    if base is None or fused is None:
        problems.report(
            path, "coherent_batch: gate_speedup set but L=1/B=1 or "
            "L=64/B=8 cell missing")
        return
    if base["frames_per_s"] <= 0:
        problems.report(path, "coherent_batch: non-positive baseline throughput")
        return
    speedup = fused["frames_per_s"] / base["frames_per_s"]
    if speedup < 1.3:
        problems.report(
            path,
            f"coherent_batch: fused L=64/B=8 speedup {speedup:.2f}x < 1.3x "
            f"({fused['frames_per_s']:.0f} vs {base['frames_per_s']:.0f} frames/s)")
    if fused["prep_hit_rate"] < 0.90:
        problems.report(
            path,
            f"coherent_batch: fused L=64/B=8 prep hit rate "
            f"{fused['prep_hit_rate']:.2%} < 90%")
    if fused["fused_frames"] <= 0:
        problems.report(
            path, "coherent_batch: fused L=64/B=8 cell decoded no fused frames")

    # Cross-lane former gate: interleaved multi-cell traffic at B=1 means
    # every lane's own pop is a single frame, so wide runs only exist if the
    # former gathered them. At 4 lanes the former must (a) form runs whose
    # median width covers >= 75% of the offered per-lane share (window /
    # lanes), and (b) beat the former-off pool by >= 1.15x — catching both a
    # former that stopped gathering and one that gathers without a payoff.
    lane = None
    if isinstance(series, list):
        for entry in series:
            if isinstance(entry, dict) and entry.get("label") == "cross_lane":
                lane = entry
    if lane is None:
        problems.report(path, "coherent_batch: missing 'cross_lane' series")
        return
    by_cell = {}
    for j, row in enumerate(lane.get("rows") or []):
        if not isinstance(row, dict):
            continue
        missing = [c for c in ("lanes", "former", "frames_per_s",
                               "fused_width_p50", "offered_batch",
                               "former_gathered")
                   if c not in row]
        if missing:
            problems.report(
                path, f"coherent_batch: cross_lane.rows[{j}] missing {missing}")
            continue
        by_cell[(row["lanes"], bool(row["former"]))] = row
    on = by_cell.get((4, True))
    off = by_cell.get((4, False))
    if on is None or off is None:
        problems.report(
            path, "coherent_batch: gate_speedup set but cross_lane has no "
            "4-lane former on/off pair")
        return
    if on["former_gathered"] <= 0:
        problems.report(
            path, "coherent_batch: cross_lane former-on 4-lane run gathered "
            "no frames (former never engaged)")
    if on["fused_width_p50"] < 0.75 * on["offered_batch"]:
        problems.report(
            path,
            f"coherent_batch: cross_lane former-on 4-lane fused width p50 "
            f"{on['fused_width_p50']} < 0.75x offered batch "
            f"{on['offered_batch']}")
    if off["frames_per_s"] <= 0:
        problems.report(
            path, "coherent_batch: cross_lane former-off 4-lane throughput "
            "non-positive")
        return
    ratio = on["frames_per_s"] / off["frames_per_s"]
    if ratio < 1.15:
        problems.report(
            path,
            f"coherent_batch: cross_lane former on/off throughput ratio "
            f"{ratio:.2f}x < 1.15x at 4 lanes "
            f"({on['frames_per_s']:.0f} vs {off['frames_per_s']:.0f} "
            f"frames/s)")


def check_ingress(problems, path, doc):
    """Extra shape + shed-before-miss gate for BENCH_ingress.json."""
    series = doc.get("series")
    series = series if isinstance(series, list) else []
    entries = {e.get("label"): e for e in series if isinstance(e, dict)}

    transport = entries.get("transport")
    if transport is None:
        problems.report(path, "ingress: missing 'transport' series")
    else:
        rows = transport.get("rows")
        rows = rows if isinstance(rows, list) else []
        transports = set()
        for j, row in enumerate(rows):
            if not isinstance(row, dict):
                continue
            missing = [c for c in ("transport", "m", "window", "frame_bytes",
                                   "frames_per_s", "mbytes_per_s")
                       if c not in row]
            if missing:
                problems.report(
                    path, f"ingress: transport.rows[{j}] missing {missing}")
                continue
            transports.add(row["transport"])
            if row["frames_per_s"] <= 0:
                problems.report(
                    path, f"ingress: transport.rows[{j}] non-positive throughput")
        for want in ("uds", "tcp"):
            if want not in transports:
                problems.report(path, f"ingress: no '{want}' transport rows")

    admission = entries.get("admission")
    if admission is None:
        problems.report(path, "ingress: missing 'admission' series")
        return
    rows = admission.get("rows")
    rows = rows if isinstance(rows, list) else []
    by_mode = {}
    for j, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        missing = [c for c in ("mode", "offered_fps", "hard_offered",
                               "hard_misses", "hard_deadline_miss_rate",
                               "shed", "completed", "frames_per_s")
                   if c not in row]
        if missing:
            problems.report(
                path, f"ingress: admission.rows[{j}] missing {missing}")
            continue
        by_mode[row["mode"]] = row

    for want in ("none", "shed"):
        if want not in by_mode:
            problems.report(path, f"ingress: no admission mode '{want}' row")

    config = doc.get("config")
    config = config if isinstance(config, dict) else {}
    if not config.get("gate_admission"):
        return  # smoke run: offered load too small to overload the pool

    # Shed-before-miss gate: at 2x calibrated capacity the uncontrolled
    # baseline must be missing hard deadlines (otherwise the experiment did
    # not overload anything), and admission control must yield a strictly
    # lower hard-deadline miss rate — the acceptance criterion of the
    # admission subsystem.
    none = by_mode.get("none")
    shed = by_mode.get("shed")
    if none is None or shed is None:
        return  # already reported above
    if none["hard_misses"] <= 0:
        problems.report(
            path, "ingress: gate_admission set but the no-admission baseline "
            "missed no hard deadlines (not overloaded)")
        return
    if shed["hard_deadline_miss_rate"] >= none["hard_deadline_miss_rate"]:
        problems.report(
            path,
            f"ingress: admission control did not reduce the hard-deadline "
            f"miss rate ({shed['hard_deadline_miss_rate']:.2%} with shed vs "
            f"{none['hard_deadline_miss_rate']:.2%} without)")


def check_quant_kernels(problems, path, doc):
    """Extra shape + perf-gate requirements for BENCH_quant_kernels.json."""
    series = doc.get("series")
    kernels = None
    if isinstance(series, list):
        for entry in series:
            if isinstance(entry, dict) and entry.get("label") == "kernels":
                kernels = entry
    if kernels is None:
        problems.report(path, "quant_kernels: missing 'kernels' series")
        return

    rows = kernels.get("rows")
    rows = rows if isinstance(rows, list) else []
    by_shape = {}  # (m, n, k) -> {kernel: seconds}
    for j, row in enumerate(rows):
        if not isinstance(row, dict):
            continue
        missing = [c for c in ("kernel", "m", "n", "k", "seconds")
                   if c not in row]
        if missing:
            problems.report(
                path, f"quant_kernels: kernels.rows[{j}] missing {missing}")
            continue
        shape = (row["m"], row["n"], row["k"])
        by_shape.setdefault(shape, {})[row["kernel"]] = row["seconds"]

    config = doc.get("config")
    config = config if isinstance(config, dict) else {}
    if not config.get("gate_speedup"):
        return  # AVX2 int16 or float SoA kernel unavailable: nothing to gate

    # Perf gate: at the largest row-0 level shape the int16 AVX2 kernel must
    # beat the float SoA kernel by >= 1.5x. Half-width operands plus one madd
    # per complex MAC pair make this the expected margin; losing it means the
    # fixed-point kernel (or its packing layout) regressed.
    paired = [(m * n * k, (m, n, k), secs)
              for (m, n, k), secs in by_shape.items()
              if "int16-avx2" in secs and "fp32-soa" in secs]
    if not paired:
        problems.report(
            path, "quant_kernels: gate_speedup set but no int16-avx2/fp32-soa "
            "row pairs")
        return
    _, shape, secs = max(paired)
    if secs["int16-avx2"] <= 0:
        problems.report(
            path, f"quant_kernels: non-positive int16-avx2 time at {shape}")
        return
    speedup = secs["fp32-soa"] / secs["int16-avx2"]
    if speedup < 1.5:
        problems.report(
            path,
            f"quant_kernels: int16 AVX2 speedup {speedup:.2f}x < 1.5x over "
            f"fp32 SoA at shape {shape} ({secs['int16-avx2']:.3e}s vs "
            f"{secs['fp32-soa']:.3e}s)")


def check_ablation_precision(problems, path, doc):
    """Extra shape + BER-gate requirements for BENCH_ablation_precision.json."""
    series = doc.get("series")
    ber = None
    if isinstance(series, list):
        for entry in series:
            if isinstance(entry, dict) and entry.get("label") == "int16_ber":
                ber = entry
    if ber is None:
        problems.report(path, "ablation_precision: missing 'int16_ber' series")
        return

    points = []
    for j, row in enumerate(ber.get("rows") or []):
        if not isinstance(row, dict):
            continue
        missing = [c for c in ("snr_db", "ber_fp32", "ber_int16", "bits")
                   if c not in row]
        if missing:
            problems.report(
                path, f"ablation_precision: int16_ber.rows[{j}] missing "
                f"{missing}")
            continue
        points.append(row)
    points.sort(key=lambda r: r["snr_db"])
    if len(points) < 2:
        problems.report(
            path, "ablation_precision: int16_ber needs >= 2 SNR points")
        return

    config = doc.get("config")
    config = config if isinstance(config, dict) else {}
    if not config.get("gate_ber"):
        return  # smoke run: too few trials for a meaningful BER comparison

    # Accuracy gate: quantization must cost < 0.2 dB. Operationally: at each
    # SNR s (above the first), the int16 BER may be at most the float curve's
    # BER at s - 0.2 dB — i.e. the int16 curve is the float curve shifted
    # right by no more than 0.2 dB. The float curve between grid points is
    # interpolated log-linearly (BER curves are ~exponential in SNR), and a
    # 2-error statistical allowance absorbs binomial noise at high SNR where
    # the measured error counts are small.
    def fp32_at(snr):
        lo = hi = None
        for p in points:
            if p["snr_db"] <= snr:
                lo = p
            if p["snr_db"] >= snr and hi is None:
                hi = p
        if lo is None or hi is None:
            return None
        if lo is hi or hi["snr_db"] == lo["snr_db"]:
            return lo["ber_fp32"]
        t = (snr - lo["snr_db"]) / (hi["snr_db"] - lo["snr_db"])
        floor_ber = 0.5 / max(lo["bits"], 1)  # half an error: log-safe zero
        a = max(lo["ber_fp32"], floor_ber)
        b = max(hi["ber_fp32"], floor_ber)
        return math.exp((1 - t) * math.log(a) + t * math.log(b))

    for p in points[1:]:
        budget = fp32_at(p["snr_db"] - 0.2)
        if budget is None:
            continue
        allowance = 2.0 / max(p["bits"], 1)
        if p["ber_int16"] > budget + allowance:
            problems.report(
                path,
                f"ablation_precision: int16 BER {p['ber_int16']:.3e} at "
                f"{p['snr_db']:g} dB exceeds the float curve 0.2 dB back "
                f"({budget:.3e} + {allowance:.3e} allowance) — quantization "
                f"is costing >= 0.2 dB")


def check_massive_mimo(problems, path, doc):
    """Extra shape + fast-path acceptance gates for BENCH_massive_mimo.json."""
    series = doc.get("series")
    series = series if isinstance(series, list) else []
    entries = {e.get("label"): e for e in series if isinstance(e, dict)}

    for label, cols in (("throughput", ("geometry", "detector", "frames_per_s",
                                        "us_per_frame", "frames")),
                        ("ber", ("geometry", "detector", "snr_db", "ber",
                                 "ber_ci95", "trials"))):
        entry = entries.get(label)
        if entry is None:
            problems.report(path, f"massive_mimo: missing '{label}' series")
            continue
        for j, row in enumerate(entry.get("rows") or []):
            if not isinstance(row, dict):
                continue
            missing = [c for c in cols if c not in row]
            if missing:
                problems.report(
                    path, f"massive_mimo: {label}.rows[{j}] missing {missing}")

    gates = entries.get("gates")
    if gates is None:
        problems.report(path, "massive_mimo: missing 'gates' series")
        return
    by_geometry = {}
    for j, row in enumerate(gates.get("rows") or []):
        if not isinstance(row, dict):
            continue
        missing = [c for c in ("geometry", "mmse_fps", "best_tree_fps",
                               "speedup", "ber_neumann_k3", "ber_exact",
                               "ber_exact_shifted", "throughput_ok", "ber_ok")
                   if c not in row]
        if missing:
            problems.report(
                path, f"massive_mimo: gates.rows[{j}] missing {missing}")
            continue
        by_geometry[row["geometry"]] = row
    for want in ("128x8-qpsk", "128x8-16qam"):
        if want not in by_geometry:
            problems.report(path, f"massive_mimo: no gates row for '{want}'")

    config = doc.get("config")
    config = config if isinstance(config, dict) else {}
    if not config.get("gate_massive"):
        return  # smoke run: trial counts too small for the gates to bind

    # Acceptance gates (ISSUE 10 / DESIGN.md §17): at both 128x8 serving
    # points the k=3 Neumann tier must serve >= 3x the best tree-search
    # config's frames/s, and its BER may be at most the exact MMSE solve's
    # BER rerun 0.2 dB lower (paired trials) — i.e. the series costs < 0.2 dB.
    for geometry, row in sorted(by_geometry.items()):
        if row["speedup"] < 3.0 or not row["throughput_ok"]:
            problems.report(
                path,
                f"massive_mimo: {geometry} MMSE tier speedup "
                f"{row['speedup']:.2f}x < 3.0x over the best tree search "
                f"({row['mmse_fps']:.0f} vs {row['best_tree_fps']:.0f} "
                f"frames/s)")
        if row["ber_neumann_k3"] > row["ber_exact_shifted"] or not row["ber_ok"]:
            problems.report(
                path,
                f"massive_mimo: {geometry} k=3 Neumann BER "
                f"{row['ber_neumann_k3']:.3e} exceeds the exact MMSE curve "
                f"0.2 dB back ({row['ber_exact_shifted']:.3e}) — the series "
                f"is costing >= 0.2 dB")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = []
    for arg in argv[1:]:
        if os.path.isdir(arg):
            found = sorted(
                os.path.join(arg, f) for f in os.listdir(arg)
                if f.startswith("BENCH_") and f.endswith(".json"))
            if not found:
                print(f"{arg}: no BENCH_*.json files found", file=sys.stderr)
                return 1
            files.extend(found)
        else:
            files.append(arg)

    problems = Problems()
    for path in files:
        validate_file(problems, path)
    if problems.count:
        print(f"FAIL: {problems.count} problem(s) across {len(files)} file(s)",
              file=sys.stderr)
        return 1
    print(f"OK: {len(files)} file(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
