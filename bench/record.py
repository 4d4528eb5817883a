"""Record the expected outputs that ``run.py`` checks against.

Run once, on the code whose outputs are the reference, from the root of a
checkout::

    python3 bench/record.py mc        # Monte Carlo gftp means (slow)
    python3 bench/record.py exact     # exact expectations
    python3 bench/record.py replay    # replay output hashes and fields

Each part replaces its own section of ``bench/reference.json`` and keeps
the others.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import inputs
import run

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Trial counts of the reference means: many more than one benchmark run
# makes, so the reference adds little to the 4-standard-error gate.
MC_TRIALS = {"mc-hubspoke": 100_000, "mc-random": 10_000}
# A seed stream that no benchmark run uses.
MC_REFERENCE_SEED = 2**62 + 12345


def record_mc(wmst) -> dict:
    out = {}
    for workload in ("mc-hubspoke", "mc-random"):
        for key, instance in inputs.mc_instances(wmst, workload, 0):
            trials = MC_TRIALS[workload]
            start = time.perf_counter()
            est = wmst.mc_estimate(wmst.gftp, instance, trials, MC_REFERENCE_SEED,
                                   workers=1)
            elapsed = time.perf_counter() - start
            out[key] = {"mean": est.mean_cost, "std_error": est.std_error, "trials": trials}
            print(f"{key}: m={instance.m} mean={est.mean_cost} se={est.std_error} "
                  f"{trials / elapsed:.1f} trials/s", flush=True)
    return out


def record_exact(wmst) -> dict:
    out = {}
    for key, instance in inputs.exact_instances(wmst) + inputs.exact_instances(wmst, True):
        out[key] = {
            name: wmst.format_fraction(wmst.exact_expectation(factory, instance))
            for name, factory in (("gftp", wmst.gftp), ("ftp", wmst.ftp))
        }
        print(f"{key}: m={instance.m} {out[key]}", flush=True)
    return out


def record_replay(wmst) -> dict:
    out = {}
    for c in range(inputs.REPLAY_CLASSES):
        with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as work:
            results = run.replay_cycle(wmst, Path(work), inputs.replay_commands(c))
        out[str(c)] = [
            {"exit": r.exit_code, "fields": r.fields, "files": r.files} for r in results
        ]
        print(f"class {c}: {len(results)} commands", flush=True)
    return out


def main(argv: list[str]) -> int:
    parts = {"mc": record_mc, "exact": record_exact, "replay": record_replay}
    if len(argv) != 1 or argv[0] not in parts:
        print(f"usage: record.py {{{'|'.join(parts)}}}", file=sys.stderr)
        return 2
    wmst = run.import_wmst()
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[argv[0]] = parts[argv[0]](wmst)
    data["recorded_with"] = {"wmst": wmst.__version__, "python": sys.version.split()[0]}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
