"""Run the wrightbound command line from the source tree.

The package is not installed, so this puts the checkout's ``src`` first
on the path and hands the rest of the arguments to the click entry
point, as ``wrightbound <args>`` would.

    python3 perfbench/launch.py [--mesh-slice] [--probe FILE] <arguments>

``--mesh-slice`` first narrows the 2.15b mesh to the benchmark's rows
(mesh.py).  ``--probe FILE`` samples probe.py's kernel before, during
and after the command and writes the samples, and the seconds they
took, to FILE as JSON.
"""

import json
import pathlib
import sys

import probe

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv):
    probe_file = None
    while argv[:1] in (["--mesh-slice"], ["--probe"]):
        if argv[0] == "--probe":
            probe_file, argv = argv[1], argv[2:]
        else:
            import mesh
            mesh.install()
            argv = argv[1:]
    sampler = probe.Sampler()
    if probe_file is not None:
        sampler.start()
    try:
        from wrightbound.cli import main as cli
        cli(args=argv, prog_name="wrightbound")
    finally:
        if probe_file is not None:
            pathlib.Path(probe_file).write_text(json.dumps(sampler.stop()))


if __name__ == "__main__":
    main(sys.argv[1:])
