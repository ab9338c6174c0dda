"""Start ``repro-sat serve`` with the interpreter already warm.

Usage: ``python daemon_launcher.py OUT_JSON TRACE(0|1) -- <serve arguments>``

The launcher imports the whole command-line program, prints ``ready`` and
reads commands from standard input:

- ``probe`` takes three host-speed probes (:mod:`hostspeed`) and prints
  their mean time.  The benchmark asks just before ``go`` and again once
  the daemon answers ``ping``, so that the daemon's start-up is corrected
  for the speed of the host around it;
- ``go`` runs ``repro.cli.main(["serve", ...])``, the code path of the
  ``repro-sat serve`` console script, so the benchmark's daemon set-up time
  excludes interpreter start-up and bytecode compilation;
- ``sample``, once the daemon runs, makes a thread in the daemon take a
  host-speed probe every 50 ms.

With TRACE=1 the layer wrappers of :mod:`spans` are installed first.  When
the daemon stops, the launcher writes its peak resident set size, the
probes and any spans to OUT_JSON.  If standard input closes before ``go``,
it exits without starting a daemon.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# The serve command imports the service modules lazily; importing them here
# keeps their bytecode compilation out of the measured start-up.
import repro.cli  # noqa: E402  (also fills every registry before the daemon starts)
import repro.sat.cdcl.image  # noqa: E402,F401
import repro.service  # noqa: E402,F401

import hostspeed  # noqa: E402
import spans  # noqa: E402


def answer_probes(reply, until: str) -> bool:
    """Answer ``probe`` lines until ``until`` arrives; false if standard input closes first."""
    for line in sys.stdin:
        if line.strip() == until:
            return True
        if line.strip() == "probe":
            print(statistics.fmean(hostspeed.probe_seconds() for _ in range(3)),
                  file=reply, flush=True)
    return False


def main(argv: list[str]) -> int:
    out_path, traced = argv[0], argv[1] == "1"
    serve_args = argv[argv.index("--") + 1:]
    print("ready", flush=True)
    if not answer_probes(sys.stdout, until="go"):
        return 0
    reply = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)  # the serve command's banner is not benchmark output
    sampler = hostspeed.Sampler(lambda: answer_probes(reply, until="sample"))
    sampler.start()
    recorder = spans.Recorder()
    uninstall = spans.install(recorder) if traced else None
    try:
        code = repro.cli.main(["serve", *serve_args])
    finally:
        sampler.stop()
        if uninstall is not None:
            uninstall()
        report = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "probes": list(sampler.samples),
            "spans": recorder.to_list(),
        }
        Path(out_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
