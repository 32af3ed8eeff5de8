"""Statistics, name checks and correctness gates of the benchmark.

run.py feeds the driver's raw JSON through `evaluate`; the functions here
hold no I/O so test_benchlib.py can exercise each of them directly.
"""

import math
import re
import statistics
from fractions import Fraction

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Percentiles considered when picking the highest one with enough samples.
PERCENTILE_LADDER = ("50", "90", "95", "99", "99.9", "99.99", "99.999")
MIN_BEYOND = 10

# A simulator repetition of less CPU time than this is refused: too short
# to time.
MIN_CAMPAIGN_S = 1.0
# CPU seconds of one call of the driver's host-speed reference
# (referenceWorkSeconds) at the speed the simulator figures are scaled to:
# its median on the 4-vCPU Intel Xeon host the benchmark was tuned on.
REFERENCE_NOMINAL_S = 0.012
# Live latencies are summarized per slice of this many seconds of due time.
INTERVAL_S = 1.0
# Simulator reconciliation: the layers' busy estimates may exceed the traced
# campaign's wall time by at most this share of it.
SIM_OVERSHOOT = 0.15
# Live reconciliation: tolerance of the stage sum against the mean latency,
# and the share of span chains that may run out of order. The daemons stamp
# spans with the clock read once per loop turn, so a turn preempted on the
# shared CPU can stamp an event before the one that caused it; a few chains
# out of order are expected, a broken breakdown puts most of them out.
LIVE_STAGE_TOLERANCE = 0.01
LIVE_UNORDERED_SHARE = 0.01


class GateFailure(Exception):
    """A correctness check failed: the run must report no numbers."""


def check_name(name):
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(f"invalid metric or workload name {name!r}")
    return name


def check_unit(unit):
    if not isinstance(unit, str) or not UNIT_RE.match(unit):
        raise ValueError(f"invalid unit {unit!r}")
    return unit


def validate_benchmark(bench):
    """Checks BENCHMARK.json's names and units; returns the metric names."""
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in bench[section]:
            name = check_name(entry["name"])
            if name in seen:
                raise ValueError(f"name {name!r} used twice")
            seen.add(name)
            if "unit" in entry:
                check_unit(entry["unit"])
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]])


def _rank(n, pct):
    """1-based nearest rank of percentile `pct` (a decimal string) of n."""
    return max(1, math.ceil(Fraction(pct) * n / 100))


def percentile(values, pct):
    """Nearest-rank percentile; `pct` is a number or a decimal string."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), str(pct)) - 1]


def samples_beyond(n, pct):
    return n - _rank(n, str(pct))


def summarize(values, min_beyond=MIN_BEYOND):
    """Median, p99 (None unless `min_beyond` samples lie beyond it) and the
    highest ladder percentile that has at least `min_beyond` samples beyond
    it, with the sample count."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    top = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(n, pct) >= min_beyond:
            top = pct
    return {
        "n": n,
        "p50": percentile(values, "50"),
        "p99": percentile(values, "99") if samples_beyond(n, "99") >= min_beyond else None,
        "top_pct": top,
        "top": percentile(values, top) if top is not None else None,
    }


# ------------------------------------------------------------------ gates ---

def gate_sim(raw):
    """Simulator workload: every task accounted for, none lost, the repeated
    campaigns identical, each long enough to time."""
    campaigns = raw["campaigns"]
    if len(campaigns) < 2:
        raise GateFailure("fewer than two campaigns: nothing to compare")
    for i, c in enumerate(campaigns):
        if c["completed"] + c["lost"] != c["attempted"]:
            raise GateFailure(f"campaign {i}: completed + lost != attempted")
        if c["lost"] != 0:
            raise GateFailure(f"campaign {i}: {c['lost']} tasks lost")
        if c["sum_flow_s"] != campaigns[0]["sum_flow_s"]:
            raise GateFailure(f"campaign {i}: sum-flow differs from campaign 0 "
                              "(non-deterministic scheduling)")
        if not c["reference_s"]:
            raise GateFailure(f"campaign {i}: no host-speed reference samples")
        if c["cpu_s"] < MIN_CAMPAIGN_S:
            raise GateFailure(f"campaign {i} ran {c['cpu_s']:.3f} CPU s, under the "
                              f"{MIN_CAMPAIGN_S} s minimum: tasks_per_s refused")


def gate_window(window, decode_errors):
    """Live workload: one terminal per request id, every one a completion,
    no foreign ids, no frame the decoder rejected."""
    if window["failed"]:
        raise GateFailure(f"{window['failed']} requests failed or were denied")
    if window["missing_terminals"]:
        raise GateFailure(f"{window['missing_terminals']} requests got no terminal")
    if window["duplicate_terminals"]:
        raise GateFailure(f"{window['duplicate_terminals']} requests got several terminals")
    if window["unknown_ids"]:
        raise GateFailure(f"{window['unknown_ids']} terminals carried unknown ids")
    if decode_errors:
        raise GateFailure(f"wire.decode_errors = {decode_errors}")


def _check_sum(reconcile):
    if not math.isclose(sum(reconcile["parts"].values()), reconcile["total"],
                        rel_tol=1e-9, abs_tol=1e-12):
        raise GateFailure("per-layer parts do not add up to their parent")


def gate_sim_reconcile(reconcile):
    """Simulator breakdown. unaccounted_s is the campaign's remainder after
    the layers' busy estimates, so the parts add up by definition; what can
    fail is an estimate larger than the campaign it is part of."""
    _check_sum(reconcile)
    total = reconcile["total"]
    unaccounted = reconcile["parts"]["unaccounted_s"]
    if unaccounted < -SIM_OVERSHOOT * total:
        raise GateFailure(f"layer estimates exceed {reconcile['parent']} = {total:.3g} s "
                          f"by {-unaccounted:.3g} s, over {SIM_OVERSHOOT:.0%} of it")


def gate_live_reconcile(reconcile):
    """Live breakdown. The stages of one request telescope from its due time
    to its receipt, so their means add up to the mean latency by definition;
    what can fail is coverage (a completed request without a full span
    chain), order (over LIVE_UNORDERED_SHARE of the chains with a stage
    ending before it starts) and the decision's carve-out (a probed decision
    longer than the to-server stage holding it)."""
    _check_sum(reconcile)
    if reconcile["chains"] != reconcile["samples"]:
        raise GateFailure(f"spans cover {reconcile['chains']} of "
                          f"{reconcile['samples']} completed requests")
    if reconcile["unordered_chains"] > LIVE_UNORDERED_SHARE * reconcile["chains"]:
        raise GateFailure(f"{reconcile['unordered_chains']} of {reconcile['chains']} "
                          "span chains out of order")
    negative = [k for k, v in reconcile["parts"].items() if k != "unaccounted_s" and v < 0]
    if negative:
        raise GateFailure(f"negative stage means: {negative}")
    if abs(reconcile["parts"]["unaccounted_s"]) > LIVE_STAGE_TOLERANCE * reconcile["total"]:
        raise GateFailure("stage means do not add up to the mean latency")


# ---------------------------------------------------------------- metrics ---

def interval_summaries(due_s, latencies):
    """Splits a window's samples by due time into INTERVAL_S slices (a
    trailing part shorter than half a slice joins the last one) and
    summarizes each, with its mean."""
    count = max(1, round(max(due_s) / INTERVAL_S))
    slices = [[] for _ in range(count)]
    for due, latency in zip(due_s, latencies):
        slices[min(int(due // INTERVAL_S), count - 1)].append(latency)
    summaries = []
    for values in slices:
        summary = summarize(values)
        summary["mean"] = statistics.fmean(values)
        summaries.append(summary)
    return summaries


def latency_figures(raw):
    """(p50, p99, mean, notes) of a run's latencies in ms.

    Simulator latencies are the simulated flows, identical on every
    repetition, so they are summarized whole. Live latencies are summarized
    per INTERVAL_S slice of the untraced window, and the medians of the
    slices' percentiles and means are reported, so a host stall in a few
    slices moves the figures little."""
    if raw["kind"] == "sim":
        summary = summarize(raw["latencies_ms"])
        p50, p99 = summary["p50"], summary["p99"]
        mean = statistics.fmean(raw["latencies_ms"])
        notes = []
        if p99 is None:
            raise GateFailure(f"only {summary['n']} flow samples: p99 needs "
                              f"{MIN_BEYOND} beyond it")
    else:
        window = raw["window"]
        latencies = window["latencies_ms"]
        slices = interval_summaries(window["due_s"], latencies)
        if any(s["p99"] is None for s in slices):
            raise GateFailure(f"a {INTERVAL_S} s slice has too few samples "
                              f"for a p99 with {MIN_BEYOND} beyond it")
        p50 = statistics.median(s["p50"] for s in slices)
        p99 = statistics.median(s["p99"] for s in slices)
        mean = statistics.median(s["mean"] for s in slices)
        summary = summarize(latencies)
        notes = [f"{len(slices)} slices of {INTERVAL_S} s, slice p99s "
                 + " ".join(f"{s['p99']:.3g}" for s in slices)]
    notes.append(f"latency: n={summary['n']} p50={p50:.6g} ms p99={p99:.6g} ms; "
                 f"all samples p50={summary['p50']:.6g} ms p99={summary['p99']} ms "
                 f"p{summary['top_pct']}={summary['top']:.6g} ms")
    return p50, p99, mean, notes


def host_slowness(campaign):
    """How much slower than nominal the host ran during a simulator
    repetition: its median reference time over REFERENCE_NOMINAL_S."""
    return statistics.median(campaign["reference_s"]) / REFERENCE_NOMINAL_S


def end_to_end(raw):
    """Gates the untraced run and returns (metrics, attempted, failed, notes)."""
    if raw["kind"] == "sim":
        gate_sim(raw)
        campaigns = raw["campaigns"]
        # CPU seconds, so a CPU shared with other processes does not count,
        # scaled by the repetition's host-speed reference, so the host's slow
        # and fast phases do not either: both are the host's, not the
        # program's.
        slowness = [host_slowness(c) for c in campaigns]
        tasks_per_s = statistics.median(c["attempted"] / c["cpu_s"] * f
                                        for c, f in zip(campaigns, slowness))
        setup_s = statistics.median(s / f for c, f in zip(campaigns, slowness)
                                    for s in c["setup_s"])
        first = campaigns[0]
        mean_flow_s = first["sum_flow_s"] / first["completed"]
        attempted = sum(c["attempted"] for c in campaigns)
        failed = sum(c["lost"] for c in campaigns)
        notes = [f"operating point: peak reported load {raw['peak_reported_load']:.1f} "
                 f"tasks per server ({raw['servers']} servers)",
                 "host slowness per repetition (reference / nominal): "
                 + " ".join(f"{f:.3f}" for f in slowness)]
    else:
        setup_s = statistics.median(raw["setup_s"])
        window = raw["window"]
        gate_window(window, raw["decode_errors"])
        tasks_per_s = len(window["latencies_ms"]) / window["span_s"]
        attempted = window["requests"]
        failed = window["failed"] + window["missing_terminals"]
        notes = [f"offered rate {raw['rate']:g} req/s over {raw['servers']} servers"]
    p50, _, mean, latency_notes = latency_figures(raw)
    if raw["kind"] == "live":
        mean_flow_s = mean / 1000.0
    metrics = {
        "setup_s": setup_s,
        "tasks_per_s": tasks_per_s,
        "latency_p50_ms": p50,
        "mean_flow_s": mean_flow_s,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    return metrics, attempted, failed, notes + latency_notes


def per_layer(raw, layer_names):
    """Gates the traced run and returns (layers, attempted, failed, notes).
    Layers a workload does not exercise read 0. `latency_p99_ms` is the
    end-to-end tail of the run's untraced part, reported here without a
    bound."""
    notes = []
    if raw["kind"] == "sim":
        if raw["trace_equivalence_mismatches"]:
            raise GateFailure("traced suite-driver campaign differs from the "
                              "benchmark's campaign loop")
        gate_sim_reconcile(raw["reconcile"])
        attempted = raw["traced_attempted"]
        failed = raw["traced_lost"]
        if failed:
            raise GateFailure(f"{failed} tasks lost in the traced campaign")
    else:
        for key in ("window", "traced_window"):
            gate_window(raw[key], raw["decode_errors"])
        gate_live_reconcile(raw["reconcile"])
        attempted = raw["window"]["requests"] + raw["traced_window"]["requests"]
        failed = raw["window"]["failed"] + raw["traced_window"]["failed"]
    layers = dict(raw["layers"])
    unknown = set(layers) - set(layer_names)
    if unknown:
        raise ValueError(f"driver reported layers missing from BENCHMARK.json: {sorted(unknown)}")
    _, layers["latency_p99_ms"], _, latency_notes = latency_figures(raw)
    parts = raw["reconcile"]["parts"]
    if raw["kind"] == "live":
        notes.append(f"span chains: {raw['reconcile']['chains']} cover "
                     f"{raw['reconcile']['samples']} completions, "
                     f"{raw['reconcile']['unordered_chains']} out of order by up to "
                     f"{1000 * raw['reconcile']['max_disorder_s']:.3g} ms")
    notes.append(f"reconcile {raw['reconcile']['parent']} = {raw['reconcile']['total']:.6g}: "
                 + ", ".join(f"{k} {v:.6g}" for k, v in parts.items()))
    values = {name: layers.get(name, 0.0) for name in layer_names}
    return values, attempted, failed, notes + latency_notes
