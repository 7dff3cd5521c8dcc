"""Metric math and correctness gate of the wall-clock campaign benchmark.

Pure functions over the JSON document the `wallclock` runner writes, one per
run (layout in README.md). run.py prints what they compute;
test_metrics.py checks them.
"""

import statistics

# Phases of the telemetry profiler reported per layer; together they split
# fuzz.host_ns_per_exec and targets.step_ns_per_exec.
PHASES = ("mutate", "snapshot-restore", "dirty-reset", "netemu", "guest-run", "coverage-merge")

# A cell finishes its fixed work by exhausting its exec budget (proto
# workloads, the audited pass) or by solving its level (mario-solve). "cap"
# (unsolved within the exec cap) and "wall" (wall safety cap) are failures.
FINISHED = ("budget", "goal")

# Time (ns) of the runner's speed probe on the reference machine, a quiet
# 4-vCPU Xeon VM. End-to-end timings are scaled to that machine's speed.
PROBE_REF_NS = 500_000

E2E_UNITS = {
    "execs_per_s": "execs/s",
    "solve_s": "s",
    "branches": "sites",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def quartiles(values):
    """(q1, median, q3) of `values`, as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def reportable(samples, pct):
    """True when at least ten of `samples` lie beyond the pct-th percentile."""
    return samples * (100.0 - pct) / 100.0 >= 10


def bucket_percentile(counts, pct):
    """The pct-th percentile of a telemetry log2 histogram, or None when
    fewer than ten samples lie beyond it.

    Bucket 0 holds zeros and bucket b holds [2^(b-1), 2^b), as in
    telemetry::Histogram; the value is interpolated linearly inside the
    covering bucket, as Histogram::Snapshot::Percentile does.
    """
    total = sum(counts)
    if not reportable(total, pct):
        return None
    rank = pct / 100.0 * total
    seen = 0
    for b, count in enumerate(counts):
        if count == 0:
            continue
        seen += count
        if seen >= rank:
            low = 0 if b == 0 else 2 ** (b - 1)
            high = 1 if b == 0 else 2**b
            into = 1.0 - (seen - rank) / count
            return low + (high - low) * min(max(into, 0.0), 1.0)
    raise AssertionError("rank beyond the histogram")


def per_exec(total, execs):
    """`total` normalised by the number of execs that produced it."""
    if execs <= 0:
        raise ValueError("no execs to normalise by")
    return total / execs


def cell_spans(t):
    """Span durations (ns) of one campaign from the runner's clock readings.

    setup     construction begins .. the first exec begins
    construct construction begins .. Target::Init (spec, seeds, NyxFuzzer,
              AddSeed and the entry into Run)
    boot      Target::Init .. the first exec begins (Init, the boot Step,
              the root snapshot)
    loop      the first exec begins .. Run returns

    Boot() runs inside Run(), so the loop window opens at the first exec's
    first Step, never at the Run() call. Raises ValueError when the
    readings are missing or out of order.
    """
    order = ("begin", "run_call", "init", "loop_begin", "end")
    for earlier, later in zip(order, order[1:]):
        if t[earlier] > t[later]:
            raise ValueError(f"clock reading '{earlier}' after '{later}'")
    return {
        "setup": t["loop_begin"] - t["begin"],
        "construct": t["init"] - t["begin"],
        "boot": t["loop_begin"] - t["init"],
        "loop": t["end"] - t["loop_begin"],
    }


def loop_windows(cell):
    """Durations (ns) of one campaign's loop windows: the loop span cut at
    the clock readings the runner takes every few hundred Steps. Raises
    ValueError when the readings are out of order."""
    t = cell["t"]
    edges = [t["loop_begin"], *cell["marks"], t["end"]]
    durations = [later - earlier for earlier, later in zip(edges, edges[1:])]
    if min(durations) < 0:
        raise ValueError("loop window readings out of order")
    return durations


def best_loop_ns(runs):
    """Loop time of one campaign from several runs of it: the fastest run
    of each loop window, summed over the windows.

    A campaign is deterministic per seed, so a window holds the same work
    in every run. Other load on the machine only adds time, and it comes
    and goes over seconds, so each window's fastest run is the closest
    reading of the program's own cost.
    """
    windows = [loop_windows(cell) for cell in runs]
    if len({len(w) for w in windows}) != 1:
        raise ValueError("runs of one campaign cut into different windows")
    return sum(min(column) for column in zip(*windows))


def self_time(span_ns, children_ns):
    """A span's self time: its duration minus what its child spans cover."""
    if children_ns > span_ns:
        raise ValueError("child spans outlast their parent")
    return span_ns - children_ns


def nondeterministic_cells(reps):
    """Names of cells whose deterministic outputs differ between runs."""
    first = {}
    differing = set()
    for rep in reps:
        for cell in rep["cells"]:
            if first.setdefault(cell["name"], cell["out"]) != cell["out"]:
                differing.add(cell["name"])
    return differing


def cell_failures(doc):
    """{cell name: [reasons]} for every cell that failed a check."""
    failures = {}

    def fail(name, reason):
        reasons = failures.setdefault(name, [])
        if reason not in reasons:
            reasons.append(reason)

    for rep in doc["reps"]:
        for cell in rep["cells"]:
            name = cell["name"]
            if cell["stop"] not in FINISHED:
                fail(name, f"stopped at the {cell['stop']} limit")
            if cell["soft_failures"]:
                fail(name, "contract soft failures")
            try:
                spans = cell_spans(cell["t"])
                loop_windows(cell)
                if rep["traced"]:
                    self_time(spans["loop"], cell["step_spans"]["exec_ns"])
            except ValueError as err:
                fail(name, str(err))
            if rep["traced"] and not cell["layer"]["codec_ok"]:
                fail(name, "netemu state did not survive Serialize + Deserialize")
    for name in nondeterministic_cells(doc["reps"]):
        fail(name, "outputs differ between runs of the same seed")

    audit = doc["audit"]
    layer = audit["layer"]
    if audit["stop"] not in FINISHED or audit["soft_failures"]:
        fail(audit["name"], "audited pass did not finish cleanly")
    if layer["pages_audited"] == 0 or layer["divergences"] != 0:
        fail(audit["name"], f"audited pass: {layer['divergences']} divergences")
    return failures


def rep_end_to_end(rep):
    """End-to-end values of one repetition, summed over its cells."""
    cells = rep["cells"]
    spans = [cell_spans(cell["t"]) for cell in cells]
    loop_s = sum(s["loop"] for s in spans) / 1e9
    return {
        "execs_per_s": sum(cell["out"]["execs"] for cell in cells) / loop_s,
        "solve_s": loop_s,
        "branches": sum(cell["out"]["branches"] for cell in cells),
        "setup_s": sum(s["setup"] for s in spans) / 1e9,
    }


def cell_runs(reps):
    """{cell name: [the cell's record in each repetition]}, in cell order."""
    runs = {}
    for rep in reps:
        for cell in rep["cells"]:
            runs.setdefault(cell["name"], []).append(cell)
    return runs


def speed_scale(doc):
    """PROBE_REF_NS ÷ the 10th percentile of the run's speed probe times:
    the factor that scales the run's timings to a machine where the probe
    takes PROBE_REF_NS.

    Like the fastest-window loop time, a low percentile reads the machine
    at its fastest during the run; the median would also count the slow
    stretches that best_loop_ns leaves out.
    """
    probes = sorted(ns for rep in doc["reps"] for ns in rep["probe_ns"])
    if not probes:
        raise ValueError("no speed probes")
    return PROBE_REF_NS / probes[(len(probes) - 1) // 10]


def end_to_end(doc):
    """{metric: value} over the untraced repetitions, summed over cells.
    Each cell's loop time is best_loop_ns over its runs, and its set-up
    time the fastest of its runs; both are scaled by speed_scale."""
    runs = cell_runs(rep for rep in doc["reps"] if not rep["traced"]).values()
    scale = speed_scale(doc)
    loop_s = sum(best_loop_ns(cells) for cells in runs) * scale / 1e9
    setup_ns = sum(min(cell_spans(cell["t"])["setup"] for cell in cells) for cells in runs)
    return {
        "execs_per_s": sum(cells[0]["out"]["execs"] for cells in runs) / loop_s,
        "solve_s": loop_s,
        "branches": sum(cells[0]["out"]["branches"] for cells in runs),
        "setup_s": setup_ns * scale / 1e9,
        "peak_rss_mb": doc["peak_rss_kib"] / 1024,
    }


def per_rep_quartiles(doc):
    """{metric: (median, q1, q3, repetitions)} of the plain per-repetition
    values (rep_end_to_end), which the summary prints beside end_to_end.
    Only whole repetitions count: the last one may stop early."""
    untraced = [rep for rep in doc["reps"] if not rep["traced"]]
    whole = len(untraced[0]["cells"])
    reps = [rep_end_to_end(rep) for rep in untraced if len(rep["cells"]) == whole]
    out = {}
    for name in ("execs_per_s", "solve_s", "branches", "setup_s"):
        q1, median, q3 = quartiles(r[name] for r in reps)
        out[name] = (median, q1, q3, len(reps))
    return out


def rep_layers(rep):
    """Per-layer values of one traced repetition."""
    cells = rep["cells"]
    execs = sum(cell["out"]["execs"] for cell in cells)

    def total(section, key):
        return sum(cell[section][key] for cell in cells)

    spans = [cell_spans(cell["t"]) for cell in cells]
    step_ns = total("step_spans", "exec_ns")
    loop_ns = sum(s["loop"] for s in spans)
    creates = total("out", "incremental_creates")
    layers = {
        "targets.step_ns_per_exec": per_exec(step_ns, execs),
        # The boot Step is not an exec's.
        "targets.steps_per_exec": per_exec(total("out", "steps") - len(cells), execs),
        "targets.boot_ms": statistics.mean(s["boot"] for s in spans) / 1e6,
        "fuzz.setup_ms": statistics.mean(s["construct"] for s in spans) / 1e6,
        "fuzz.host_ns_per_exec": per_exec(self_time(loop_ns, step_ns), execs),
        "fuzz.execs_to_goal": execs,
        "fuzz.corpus_size": total("out", "corpus"),
        "vm.root_restores_per_exec": per_exec(total("out", "root_restores"), execs),
        "vm.inc_restores_per_exec": per_exec(total("out", "incremental_restores"), execs),
        "vm.creates_per_exec": per_exec(creates, execs),
        "vm.snapshot_reuse": total("out", "incremental_restores") / creates if creates else 0.0,
        "vm.pages_captured_per_exec": per_exec(total("out", "pages_captured"), execs),
        "vm.pages_restored_per_exec": per_exec(total("out", "pages_restored"), execs),
        "vm.dirty_faults_per_exec": per_exec(total("layer", "dirty_marks"), execs),
        "vm.protect_calls_per_exec": per_exec(total("layer", "protect_calls"), execs),
        "netemu.calls_per_exec": per_exec(total("layer", "netemu_calls"), execs),
        "netemu.packets_per_exec": per_exec(total("layer", "packets"), execs),
        "netemu.faults_per_exec": per_exec(total("layer", "faults"), execs),
        "netemu.aux_bytes": statistics.mean(cell["layer"]["aux_bytes"] for cell in cells),
        "netemu.codec_ns": statistics.mean(cell["layer"]["codec_ns"] for cell in cells),
        "spec.ops_per_input": total("layer", "corpus_ops") / total("out", "corpus"),
        "spec.ops_hash_ns_per_op": total("layer", "ops_hash_ns") / total("layer", "ops_hashed"),
    }
    for phase in PHASES:
        counts = rep["phases"][phase]
        layers[f"phase.{phase}.samples"] = sum(counts)
        for pct in (50, 99):
            value = bucket_percentile(counts, pct)
            if value is not None:
                layers[f"phase.{phase}.p{pct}_ns"] = value
    return layers


LAYER_UNITS = {
    "targets.step_ns_per_exec": "ns",
    "targets.steps_per_exec": "count",
    "targets.boot_ms": "ms",
    "fuzz.setup_ms": "ms",
    "fuzz.host_ns_per_exec": "ns",
    "fuzz.execs_to_goal": "count",
    "fuzz.corpus_size": "count",
    "vm.root_restores_per_exec": "count",
    "vm.inc_restores_per_exec": "count",
    "vm.creates_per_exec": "count",
    "vm.snapshot_reuse": "ratio",
    "vm.pages_captured_per_exec": "pages",
    "vm.pages_restored_per_exec": "pages",
    "vm.dirty_faults_per_exec": "count",
    "vm.protect_calls_per_exec": "count",
    "netemu.calls_per_exec": "count",
    "netemu.packets_per_exec": "count",
    "netemu.faults_per_exec": "count",
    "netemu.aux_bytes": "bytes",
    "netemu.codec_ns": "ns",
    "spec.ops_per_input": "count",
    "spec.ops_hash_ns_per_op": "ns",
    "trace.overhead_pct": "%",
}
for _phase in PHASES:
    LAYER_UNITS[f"phase.{_phase}.samples"] = "count"
    LAYER_UNITS[f"phase.{_phase}.p50_ns"] = "ns"
    LAYER_UNITS[f"phase.{_phase}.p99_ns"] = "ns"


def per_layer(doc):
    """{metric: median over traced repetitions}, plus trace.overhead_pct:
    how much longer the traced loop ran than its untraced twin."""
    reps = doc["reps"]
    layers = [rep_layers(rep) for rep in reps if rep["traced"]]
    out = {}
    for name in LAYER_UNITS:
        values = [layer[name] for layer in layers if name in layer]
        if values:
            out[name] = statistics.median(values)

    def loop_ns(rep):
        return sum(cell_spans(cell["t"])["loop"] for cell in rep["cells"])

    # The runner emits each untraced repetition directly before its twin.
    overheads = [
        (loop_ns(traced) / loop_ns(untraced) - 1.0) * 100.0
        for untraced, traced in zip(reps[::2], reps[1::2])
    ]
    out["trace.overhead_pct"] = statistics.median(overheads)
    return out
