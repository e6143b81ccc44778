"""The traced run: per-layer metrics of one workload.

It runs four passes of one round each.  The first is the same round
``--trace 0`` times, out of process, and gives the CPU seconds of the
commands.  The other three run the round in this process through the
click entry point: untraced, then with ``calltrace.Tracer`` wrapped around
the public functions at each module boundary, then with
``calltrace.OpCounter`` counting ``Interval`` arithmetic.  The tracing
overhead is the traced pass's wall time minus the untraced pass's.
"""

import json

import rounds
import calltrace


def _mode(args, kwargs):
    return kwargs.get("mode", args[1] if len(args) > 1 else "?")


class Observed:
    """What the tracer's observers collect besides calls and times."""

    def __init__(self):
        self.billiard_steps = 0
        self.rung_M = []

    def billiard(self, args, result, caller):
        self.billiard_steps += result.steps

    def m_k(self, args, result, caller):
        if caller == "separation.run_separation":
            self.rung_M.append(args[0])

    def min_step(self):
        """Smallest M_j - M_{j+1} between successive rungs; the jumps
        between separate commands are larger, or upward and ignored."""
        steps = [a - b for a, b in zip(self.rung_M, self.rung_M[1:])
                 if a > b]
        return min(steps, default=0.0)


def install(tracer, wb, seen):
    """Wrap the public functions of each layer, under every module name
    that refers to them."""
    b, s, v = wb.bounds, wb.separation, wb.verifiers
    users = (b, s, v, wb.cli)
    for name in ("L", "dL_dm", "A", "sigma_enclosure"):
        tracer.wrap(users, getattr(b, name), f"bounds.{name}")
    tracer.wrap(users, b.d_enclosure, "bounds.d_enclosure", key=_mode)
    tracer.wrap((b,), b.verified_real_roots, "bounds.quartic")
    tracer.wrap(users, s.m_k, "separation.m_k", observe=seen.m_k)
    for name in ("theta_n", "run_separation", "emit_curves"):
        tracer.wrap(users, getattr(s, name), f"separation.{name}")
    tracer.wrap((wb.billiard,), wb.billiard.run, "billiard.run",
                observe=seen.billiard)
    # verify_all itself is left out: it only waits on its thread pool,
    # and that wait would count as its self time.
    for lemma, fn in list(v.VERIFIERS.items()):
        tracer.wrap((v, v.VERIFIERS), fn, f"verifiers.{lemma}")


def traced_run(run, commands):
    """Per-layer metrics (name -> (value, unit)) of one traced run."""
    wb = rounds.import_wrightbound()
    proc = rounds.process_round(commands, run.fresh_dir())
    run.tally(proc["codes"])

    plain = rounds.inprocess_round(wb, commands, run.fresh_dir())
    run.tally(plain["codes"])

    tracer, seen = calltrace.Tracer(), Observed()
    install(tracer, wb, seen)
    try:
        traced = rounds.inprocess_round(wb, commands, run.fresh_dir())
    finally:
        tracer.undo()
    outcome = run.tally(traced["codes"])
    stats = tracer.stats()

    counter = calltrace.OpCounter(wb.interval.Interval)
    counter.install()
    try:
        counted = rounds.inprocess_round(wb, commands, run.fresh_dir())
    finally:
        counter.undo()
    run.tally(counted["codes"])
    ops = counter.counts()

    (run.outdir.parent / f"{run.outdir.name}-trace.json").write_text(
        json.dumps({"wall_s": traced["wall_s"], "calls": stats,
                    "interval_ops": ops}, indent=1, sort_keys=True))
    counts = outcome.counts if outcome else {}
    run.problems += cross_checks(stats, counts)
    return layer_metrics(stats, ops, counts, seen, proc, plain, traced)


def cross_checks(stats, counts):
    """Totals reached by two independent paths must agree: the tracer's
    counts and the program's own manifests."""
    problems = []
    m_k = stats.get("separation.m_k", {}).get("calls", 0)
    if "separation.rungs" in counts and m_k != counts["separation.rungs"]:
        problems.append(f"traced m_k calls {m_k} != manifest iterations "
                        f"{counts['separation.rungs']}")
    evals = counts.get("verifiers.2.15b.evaluations")
    returned = stats.get("bounds.dL_dm", {}).get("returned", 0)
    # verify_2_15b makes one dL_dm call beyond its mesh: the
    # finite-difference cross-check of an interior point.
    if evals is not None and returned != evals + 1:
        problems.append(f"traced dL_dm returns {returned} != manifest "
                        f"evaluations {evals} + 1")
    return problems


def layer_metrics(stats, ops, counts, seen, proc, plain, traced):
    def calls(name, field="calls"):
        return stats.get(name, {}).get(field, 0)

    def self_pct(prefix):
        busy = sum(st["self_s"] for name, st in stats.items()
                   if name.startswith(prefix + "."))
        return 100.0 * busy / traced["wall_s"]

    evals = counts.get("verifiers.2.15b.evaluations", 0)
    boxes = counts.get("verifiers.2.15b.boxes", 0)
    out = {
        "interval.ops": (sum(ops.values()), "count"),
        "bounds.L.calls": (calls("bounds.L"), "count"),
        "bounds.dL_dm.calls": (calls("bounds.dL_dm"), "count"),
        "bounds.A.calls": (calls("bounds.A"), "count"),
        "bounds.d_enclosure.upper.calls":
            (calls("bounds.d_enclosure.upper"), "count"),
        "bounds.d_enclosure.lower.calls":
            (calls("bounds.d_enclosure.lower"), "count"),
        "bounds.sigma_enclosure.calls":
            (calls("bounds.sigma_enclosure"), "count"),
        "bounds.quartic.calls": (calls("bounds.quartic"), "count"),
        "bounds.quartic.certified":
            (calls("bounds.quartic", "returned"), "count"),
        "separation.rungs": (counts.get("separation.rungs", 0), "count"),
        "separation.m_k.calls": (calls("separation.m_k"), "count"),
        "separation.theta_n.calls": (calls("separation.theta_n"), "count"),
        "separation.min_step": (seen.min_step(), "amplitude"),
        "billiard.runs": (calls("billiard.run"), "count"),
        "billiard.steps": (seen.billiard_steps, "count"),
        "verifiers.2.15b.evaluations": (evals, "count"),
        "verifiers.2.15b.evals_per_box":
            (evals / boxes if boxes else 0.0, "evals/box"),
        "verifiers.2.15b.extended_uncertified":
            (counts.get("verifiers.2.15b.extended_uncertified", 0),
             "count"),
        "cli.cpu_s": (proc["cpu_s"], "s"),
        "cli.cores_used": (proc["cpu_s"] / proc["raw_wall_s"], "cores"),
        "trace.overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
    }
    for layer in ("bounds", "separation", "billiard", "verifiers"):
        out[f"{layer}.self_pct"] = (self_pct(layer), "%")
    return out


def cost_metrics(costs):
    """The per-call costs of micro.py as metrics."""
    def unit(name):
        for suffix in ("_us", ".us", "_ms", ".ms"):
            if name.endswith(suffix):
                return suffix[1:]
        return "s"
    return {name: (value, unit(name)) for name, value in costs.items()}
