#!/usr/bin/env python
"""CI smoke for the PBBS deterministic-reservation family.

Four gates, all on small seeded inputs (stdlib + repro only):

1. **Variant parity** — every app (spanning, contract, refine) runs under
   every variant (flat, swarm, fractal, specfor) on the simulator and
   under the serial reference executor; all five must produce
   byte-identical canonical result arrays and pass the app's own check.
2. **Pinned stats digests** — each simulator run's ``RunStats`` is
   content-hashed and compared against ``benchmarks/pbbs_baseline.json``.
   Runs are seeded and the simulator is deterministic, so any drift is a
   determinism bug (or an intentional change: regenerate with
   ``python benchmarks/pbbs_smoke.py --pin``).
3. **Sweep parity** — a ``sweep_cores`` over the specfor matrix executed
   inline and again on a ``Farm(jobs=4)`` worker pool must return
   byte-identical stats in the same order.
4. **Round telemetry** — the specfor runs must fold ``specfor_rounds``
   counters, and refine must show reservation failures (its cavities
   overlap by construction).

Exit code 0 if every gate holds, 1 otherwise.
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps.pbbs import contract, refine, spanning        # noqa: E402
from repro.bench.harness import run_app, run_serial, sweep_cores  # noqa: E402
from repro.farm.farm import Farm                             # noqa: E402
from repro.farm.job import stable_digest                     # noqa: E402

BASELINE = pathlib.Path(__file__).resolve().parent / "pbbs_baseline.json"

VARIANTS = ("flat", "swarm", "fractal", "specfor")

SUITE = [
    ("spanning", spanning, dict(scale=5, edge_factor=3, seed=5)),
    ("contract", contract, dict(n=32, seed=9)),
    ("refine", refine, dict(width=8, n_ops=32, seed=11)),
]

SMOKE_CORES = 8


def fail(msg):
    print(f"pbbs-smoke: FAIL: {msg}", file=sys.stderr)
    return 1


def run_matrix():
    """All (app, variant) simulator runs plus serial references."""
    digests = {}
    failures = []
    for name, app, params in SUITE:
        inp = app.make_input(**params)
        reference = None
        for variant in VARIANTS:
            run = run_app(app, inp, variant=variant, n_cores=SMOKE_CORES,
                          audit=True, check=True)
            result = app.result_arrays(run.handles)
            if reference is None:
                reference = result
            elif result != reference:
                failures.append(f"{name}/{variant} result diverges from "
                                f"{name}/{VARIANTS[0]}")
            digests[f"{name}/{variant}@{SMOKE_CORES}c"] = stable_digest(
                run.stats.to_dict())
            if variant == "specfor":
                m = run.metrics
                if m.total("specfor_rounds", engine=name) < 1:
                    failures.append(f"{name}/specfor folded no round "
                                    f"counters")
        serial = run_serial(app, inp, variant="specfor", check=True)
        if app.result_arrays(serial.handles) != reference:
            failures.append(f"{name} serial reference diverges")
    refine_run = run_app(refine, refine.make_input(), variant="specfor",
                         n_cores=SMOKE_CORES)
    if refine_run.metrics.total("specfor_reserve_failures",
                                engine="refine") < 1:
        failures.append("refine/specfor shows no reservation failures")
    return digests, failures


def check_digests(digests):
    if not BASELINE.exists():
        return [f"baseline {BASELINE} missing; run with --pin"]
    pinned = json.loads(BASELINE.read_text())["runs"]
    failures = []
    for label in sorted(set(pinned) | set(digests)):
        want, got = pinned.get(label), digests.get(label)
        status = "ok" if want == got else "DRIFT"
        print(f"{label:28s} {str(got)[:12]} (pinned {str(want)[:12]}) "
              f"{status}")
        if want != got:
            failures.append(f"{label}: stats digest {got} != pinned {want}")
    return failures


def check_sweep_parity():
    """Inline sweep vs 4-worker farm sweep: identical stats, same order."""
    name, app, params = SUITE[0]
    inp = app.make_input(**params)
    serial = sweep_cores(app, inp, ["specfor"], [2, 4])
    farmed = sweep_cores(app, inp, ["specfor"], [2, 4], farm=Farm(jobs=4))
    failures = []
    if len(serial) != len(farmed):
        return [f"sweep lengths differ: {len(serial)} vs {len(farmed)}"]
    for a, b in zip(serial, farmed):
        if a.stats.to_dict() != b.stats.to_dict():
            failures.append(f"sweep stats diverge at {a.variant}@"
                            f"{a.n_cores}c (inline vs 4 workers)")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned digest baseline")
    args = parser.parse_args(argv)

    digests, failures = run_matrix()
    if args.pin:
        BASELINE.write_text(json.dumps(
            {"schema": "repro.pbbs-smoke-baseline/1",
             "comment": "RunStats digests of the seeded smoke matrix; "
                        "regenerate with pbbs_smoke.py --pin",
             "runs": digests}, indent=2, sort_keys=True) + "\n")
        print(f"pinned {len(digests)} digests to {BASELINE}")
        return 1 if failures else 0

    failures += check_digests(digests)
    failures += check_sweep_parity()
    if failures:
        for f in failures:
            fail(f)
        print(f"\npbbs-smoke: {len(failures)} gate(s) FAILED",
              file=sys.stderr)
        return 1
    print(f"\npbbs-smoke: all gates passed "
          f"({len(digests)} pinned runs, sweep parity ok)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
