"""Running a round of a workload's commands, out of process or in it."""

import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import threading
import time
import types

import mesh
import probe

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"


def import_wrightbound():
    """The package's modules, imported from the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from wrightbound import (billiard, bounds, cli, interval, separation,
                             verifiers)
    return types.SimpleNamespace(
        interval=interval, bounds=bounds, separation=separation,
        billiard=billiard, verifiers=verifiers, cli=cli)


def time_setup():
    """Interpreter start plus the imports of wrightbound, numpy and
    click: the wall time of one cold ``wrightbound --help``, rescaled by
    probe.py's reference process start, timed just before and after."""
    before, _ = _wall_s(probe.START)
    help_s, code = _wall_s([sys.executable, str(LAUNCH), "--help"])
    after, _ = _wall_s(probe.START)
    if code != 0:
        sys.exit(f"wrightbound --help exited {code}")
    return help_s * probe.START_REFERENCE_S / (0.5 * (before + after))


def _wall_s(argv):
    """Wall seconds and exit code of a command run to its exit."""
    start = time.perf_counter()
    code = subprocess.run(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, cwd=ROOT).returncode
    return time.perf_counter() - start, code


class TreeRss:
    """Peak of the summed resident memory of a process and all its
    descendants, sampled every 20 ms from /proc."""

    PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self, pid):
        self.pid = pid
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _tree(self):
        children = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    stat = fh.read()
            except OSError:
                continue
            # The field after the command name and state is the ppid.
            ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
            children.setdefault(ppid, []).append(int(entry))
        tree, todo = [], [self.pid]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo += children.get(pid, [])
        return tree

    def _rss(self, pid):
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                return int(fh.read().split()[1]) * self.PAGE
        except (OSError, IndexError, ValueError):
            return 0

    def _poll(self):
        while not self._stop.wait(0.02):
            self.peak = max(self.peak, sum(map(self._rss, self._tree())))

    def stop(self):
        self._stop.set()
        self._thread.join()


def timed_command(args, probe_file, log=subprocess.DEVNULL):
    """Run ``launch.py --probe probe_file <args>`` to its exit.  Returns
    its exit code; its wall time less the probe's, rescaled by the
    probe's reference time over its mean sample (wall_s), and as
    measured (raw_wall_s); the CPU seconds of the process and the
    descendants it waited for; and the peak resident bytes of its
    process tree."""
    argv = [sys.executable, str(LAUNCH), "--probe", str(probe_file), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                            cwd=ROOT)
    rss = TreeRss(proc.pid)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        rss.stop()
    raw = time.perf_counter() - start
    # Reaped by wait4 above; tell Popen so that it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = raw
    if probe_file.exists():  # a command that dies early writes none
        wall = probe.rescale(raw, json.loads(probe_file.read_text()))
    return {"code": proc.returncode, "wall_s": wall, "raw_wall_s": raw,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss": max(rss.peak, usage.ru_maxrss * 1024)}


def process_round(commands, outdir):
    """One round, each command a fresh ``wrightbound`` process; its
    wall time is the sum of the commands' rescaled ones."""
    done = {}
    for cmd in commands:
        args = (["--mesh-slice"] if cmd.mesh_slice else []) + [
            *cmd.argv, "--out", str(outdir / cmd.tag)]
        with open(outdir / f"{cmd.tag}.log", "wb") as log:
            done[cmd.tag] = timed_command(
                args, outdir / f"{cmd.tag}.probe", log)
    return {
        "wall_s": sum(d["wall_s"] for d in done.values()),
        "raw_wall_s": sum(d["raw_wall_s"] for d in done.values()),
        "cpu_s": sum(d["cpu_s"] for d in done.values()),
        "peak_rss_mb": max(d["peak_rss"] for d in done.values()) / 2 ** 20,
        "codes": {tag: d["code"] for tag, d in done.items()},
    }


def inprocess_round(wb, commands, outdir):
    """One round through the click entry point in this process, so that
    wrappers installed here see every call."""
    codes = {}
    start = time.perf_counter()
    for cmd in commands:
        argv = [*cmd.argv, "--out", str(outdir / cmd.tag)]
        with contextlib.ExitStack() as stack:
            if cmd.mesh_slice:
                stack.enter_context(mesh.sliced(wb.verifiers))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            try:
                wb.cli.main(args=argv, prog_name="wrightbound",
                            standalone_mode=False)
                codes[cmd.tag] = 0
            except SystemExit as exc:
                codes[cmd.tag] = exc.code or 0
    return {"wall_s": time.perf_counter() - start, "codes": codes}


class Run:
    """The rounds of one run: their checks, counts and totals."""

    def __init__(self, workload, outdir):
        self.workload = workload
        self.outdir = outdir
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._first = None

    def fresh_dir(self):
        if self.outdir.exists():
            shutil.rmtree(self.outdir)
        self.outdir.mkdir(parents=True)
        return self.outdir

    def tally(self, codes):
        """Check the outputs of the round just run; returns its Outcome,
        or None when a command exited with an error."""
        label = f"round {self.rounds}"
        self.rounds += 1
        bad = {tag: code for tag, code in codes.items() if code}
        if bad:
            # Its operations are unknown; the command counts as one.
            self.attempted += len(bad)
            self.failed += len(bad)
            self.problems += [f"{label}: command {tag} exited {code}"
                              for tag, code in bad.items()]
            return None
        out = self.workload.outcome(self.outdir)
        self.attempted += out.attempted
        self.failed += out.failed
        self.problems += [f"{label}: {p}" for p in out.problems]
        if self._first is None:
            self._first = out.fingerprint
        elif out.fingerprint != self._first:
            self.problems.append(f"{label}: outputs differ from round 0")
        return out
