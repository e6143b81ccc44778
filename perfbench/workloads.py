"""The workloads: the commands of one round and the checks on their output.

A round is a fixed list of ``wrightbound`` commands.  Every check here
reads only what the commands wrote (manifests and curve data files) and
compares it with properties that must hold, or with ``oracle``'s
mpmath values; none compares against a figure the program printed
before, so a change that truly tightens an enclosure still passes.

``outcome`` runs after every round and is cheap.  ``deep_check`` holds
the quadrature-based checks and runs once per run, on the last round.
"""

import json
import math
import pathlib
from dataclasses import dataclass, field

import mpmath

import oracle

EXIT_BAND = -0.0093
SUP_LIMIT = 0.91
# Volatile manifest fields, left out when rounds are compared.
TIMING_KEYS = {"elapsed_seconds", "runtime_ms", "timestamp"}


@dataclass(frozen=True)
class Command:
    tag: str
    argv: tuple
    mesh_slice: bool = False


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    fingerprint: str = ""


def read_manifest(outdir, tag, command):
    path = pathlib.Path(outdir) / tag / f"{command}-manifest.json"
    return json.loads(path.read_text())


def without_timing(obj):
    if isinstance(obj, dict):
        return {k: without_timing(v) for k, v in obj.items()
                if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [without_timing(v) for v in obj]
    return obj


# -- staircase -----------------------------------------------------------

# (from, to, rungs today).  The full proof, --from 0.377 --to 0.00940007,
# takes about 24.3k rungs and minutes, so a round replays three pieces
# of it: its start, where rungs are widest; the dense middle, where most
# rungs sit (92% of them are below M = 0.02); and its end, which leaves
# through the exit band m > -0.0093.
SEGMENTS = (
    ("0.377", "0.1", 64),
    ("0.0121", "0.012", 232),
    ("0.00942", "0.00940007", 253),
)


def rung_band(rungs_today):
    """The acceptance suite holds the full run's ~24.3k rungs to
    [12000, 73000], about half to three times; each piece gets the same
    proportions, so a sound change that shortens the proof passes."""
    return rungs_today // 2, rungs_today * 3


def check_separation(report, M_start, M_stop, rungs_today, exits):
    """Problems with one ``separate`` report."""
    problems = []
    where = f"separate --from {M_start} --to {M_stop}"
    if not report["separated"]:
        problems.append(f"{where}: not separated "
                        f"({report['failure_reason']})")
    traj = report["trajectory_sample"]
    if not traj or traj[0] != float(M_start):
        problems.append(f"{where}: trajectory does not start at {M_start}")
    rising = [i for i in range(len(traj) - 1) if traj[i + 1] >= traj[i]]
    if rising:
        problems.append(f"{where}: trajectory does not fall at sample "
                        f"{rising[0]}: {traj[rising[0]]!r} -> "
                        f"{traj[rising[0] + 1]!r}")
    lo, hi = rung_band(rungs_today)
    if not lo <= report["iterations"] <= hi:
        problems.append(f"{where}: {report['iterations']} rungs outside "
                        f"[{lo}, {hi}]")
    if exits and not report["final_m"] > EXIT_BAND:
        problems.append(f"{where}: final m={report['final_m']!r} not in "
                        f"the exit band m > {EXIT_BAND}")
    if not exits and not report["final_M"] < float(M_stop):
        problems.append(f"{where}: final M={report['final_M']!r} not "
                        f"below {M_stop}")
    return problems


def check_rung(M, m_certified):
    """A certified m_k(M) must not exceed the exact five-step recursion."""
    exact = oracle.m_k(M)
    if mpmath.mpf(m_certified) > exact:
        return [f"m_k({M!r}) = {m_certified!r} above the mpmath "
                f"recursion {mpmath.nstr(exact, 20)}"]
    return []


class Staircase:
    name = "staircase"
    commands = tuple(
        Command(f"seg{i}", ("separate", "--from", hi, "--to", lo))
        for i, (hi, lo, _) in enumerate(SEGMENTS))

    def reports(self, outdir):
        return [read_manifest(outdir, c.tag, "separate")["reports"][0]
                for c in self.commands]

    def outcome(self, outdir):
        out = Outcome()
        reports = self.reports(outdir)
        for (hi, lo, rungs), report in zip(SEGMENTS, reports):
            out.attempted += 1
            out.failed += not report["separated"]
            out.problems += check_separation(
                report, hi, lo, rungs, exits=lo == SEGMENTS[-1][1])
        out.counts["separation.rungs"] = sum(r["iterations"]
                                             for r in reports)
        out.fingerprint = json.dumps(without_timing(reports))
        return out

    def deep_check(self, outdir, rng, m_k):
        """Each piece's last rung, as the program reported it, and two
        seeded rungs of its trajectory, recomputed with ``m_k``."""
        problems = []
        for report in self.reports(outdir):
            problems += check_rung(report["final_M"], report["final_m"])
            for M in rng.sample(report["trajectory_sample"], 2):
                problems += check_rung(M, m_k(M))
        return problems


# -- verify-all ----------------------------------------------------------

LEMMAS = ("2.15a", "2.15b", "2.15c", "2.15d", "4.8", "4.18",
          "remark-2.18", "appendix-1")
# Where a 200 x 60 point grid of mpmath dL/dm peaks (about 0.093),
# just inside the region M <= A(m) = 0.0094874 at m = -0.009.
CORNER = (0.00948, -0.009)


def check_verdicts(manifest):
    """(failed verdicts, problems) of a ``verify all`` manifest."""
    problems = []
    verdicts = {v["lemma_id"]: v for v in manifest["verdicts"]}
    if tuple(verdicts) != LEMMAS:
        problems.append(f"verdicts {tuple(verdicts)} != {LEMMAS}")
    failed = [k for k, v in verdicts.items() if not v["holds"]]
    problems += [f"verdict {k} does not hold" for k in failed]
    ev = verdicts.get("2.15b", {}).get("evidence", {})
    if not ev.get("sup", math.inf) < SUP_LIMIT:
        problems.append(f"2.15b sup={ev.get('sup')!r} not below "
                        f"{SUP_LIMIT}")
    if ev.get("nonneg_certified_core") is not True:
        problems.append("2.15b core nonnegativity not certified")
    roots = verdicts.get("appendix-1", {}).get("evidence", {}) \
        .get("cubic_roots", [])
    with mpmath.workdps(oracle.DPS):
        for want in (mpmath.mpf(-1), (-1 - mpmath.sqrt(97)) / 48):
            if not any(lo <= want <= hi for lo, hi in roots):
                problems.append(f"appendix-1 roots {roots} miss "
                                f"{mpmath.nstr(want, 20)}")
    return len(failed), problems


def mesh_points(sup_at):
    """Corners and centre of the 2.15b box [M0, M1] x [m0, m1] that holds
    the supremum, and the corner point, kept where -m <= M <= A(m)."""
    M0, M1, m0, m1 = sup_at
    points = [(M, m) for M in (M0, 0.5 * (M0 + M1), M1)
              for m in (m0, 0.5 * (m0 + m1), m1)] + [CORNER]
    return [(M, m) for M, m in points if -m <= M <= oracle.A(m)]


def check_sup(sup, points):
    """The certified sup must bound the true dL/dm at every point."""
    problems = []
    for M, m in points:
        d = oracle.dL_dm(M, m)
        if d > sup:
            problems.append(f"2.15b sup={sup!r} below mpmath "
                            f"dL/dm({M!r}, {m!r}) = {mpmath.nstr(d, 12)}")
    return problems


def check_core_nonneg(points):
    return [f"mpmath dL/dm({M!r}, {m!r}) = {mpmath.nstr(d, 12)} < 0"
            for M, m in points
            for d in [oracle.dL_dm(M, m)] if d < 0]


def core_points(rng, n=3):
    """Seeded points of the core region m in [-0.25, -0.13],
    -m <= M <= A(m)."""
    out = []
    for _ in range(n):
        m = rng.uniform(-0.25, -0.13)
        out.append((rng.uniform(-m, float(oracle.A(m))), m))
    return out


class VerifyAll:
    name = "verify-all"
    commands = (Command("all", ("verify", "all"), mesh_slice=True),)

    def outcome(self, outdir):
        manifest = read_manifest(outdir, "all", "verify")
        failed, problems = check_verdicts(manifest)
        ev = {v["lemma_id"]: v["evidence"]
              for v in manifest["verdicts"]}.get("2.15b", {})
        counts = {
            "verifiers.2.15b.evaluations": ev.get("evaluations", 0),
            "verifiers.2.15b.boxes": ev.get("boxes", 0),
            "verifiers.2.15b.extended_uncertified":
                ev.get("extended_uncertified_boxes", 0),
        }
        return Outcome(len(LEMMAS), failed, problems, counts,
                       json.dumps(without_timing(manifest["verdicts"])))

    def deep_check(self, outdir, rng, m_k):
        manifest = read_manifest(outdir, "all", "verify")
        ev = next(v["evidence"] for v in manifest["verdicts"]
                  if v["lemma_id"] == "2.15b")
        return (check_sup(ev["sup"], mesh_points(ev["sup_at"]))
                + check_core_nonneg(core_points(rng)))


# -- curves --------------------------------------------------------------

M_WINDOW = ("-0.25", "-0.0093")
AMPLITUDES = ("0.0094", "0.377")
# 100 points over M_WINDOW put the last theta_n abscissa at
# -0.009299999999999975, past the window's edge (the grid is built as
# start + i*step), so that row fails on every run.  The other counts
# keep their last abscissa inside the window.
CURVES = (
    ("theta_n", M_WINDOW, 100),
    ("Lhat_lower", M_WINDOW, 80),
    ("m_k", AMPLITUDES, 400),
)


def read_curve(path):
    """Rows (x, lower, upper, error) of a curve data file."""
    rows = []
    for line in pathlib.Path(path).read_text().splitlines()[1:]:
        if line.startswith("# x="):
            x, err = line[4:].split(" error: ", 1)
            rows.append((float(x), math.nan, math.nan, err))
        else:
            x, lo, hi = map(float, line.split())
            rows.append((x, lo, hi, None))
    return rows


def check_curve(which, rows, start, stop, points):
    """(failed rows, problems) of one sampled curve.  The one failure
    allowed is a theta_n abscissa past the window's edge."""
    problems = []
    if len(rows) != points:
        problems.append(f"{which}: {len(rows)} rows, expected {points}")
    failed = 0
    for x, lo, hi, err in rows:
        if err is not None:
            failed += 1
            if not (which == "theta_n" and x > float(stop)):
                problems.append(f"{which}({x!r}) failed: {err}")
            continue
        if which == "theta_n":
            ok = -x < hi <= oracle.A(x)
            want = "-m < theta_n(m) <= A(m)"
        elif which == "m_k":
            ok = -x <= lo < 0
            want = "-M <= m_k(M) < 0"
        else:
            ok = -x <= lo <= float(AMPLITUDES[1])
            want = f"-m <= Lhat_lower(m) <= {AMPLITUDES[1]}"
        if not ok:
            problems.append(f"{which}({x!r}) = {(lo, hi)!r} breaks {want}")
    return failed, problems


class Curves:
    name = "curves"
    commands = tuple(
        Command(which, ("curves", which, "--grid-start", start,
                        "--grid-stop", stop, "--points", str(points)))
        for which, (start, stop), points in CURVES)

    def outcome(self, outdir):
        out = Outcome()
        texts = []
        for which, (start, stop), points in CURVES:
            path = pathlib.Path(outdir) / which / f"curve-{which}.dat"
            rows = read_curve(path)
            failed, problems = check_curve(which, rows, start, stop, points)
            out.attempted += len(rows)
            out.failed += failed
            out.problems += problems
            texts.append(path.read_text())
        out.fingerprint = "".join(texts)
        return out

    def deep_check(self, outdir, rng, m_k):
        """Two seeded m_k rows against the mpmath recursion."""
        path = pathlib.Path(outdir) / "m_k" / "curve-m_k.dat"
        rows = [r for r in read_curve(path) if r[3] is None]
        return [p for x, lo, _, _ in rng.sample(rows, 2)
                for p in check_rung(x, lo)]


WORKLOADS = {w.name: w for w in (Staircase(), VerifyAll(), Curves())}
