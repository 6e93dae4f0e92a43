"""Record the expected outputs that ``run.py`` checks against.

    python3 perfbench/record.py [--only WORKLOAD] [SEED ...]

Writes ``perfbench/expected.json``: for each seed, the zoo makespans
from the reference scheduler (``repro.sim.reference_scheduler``, the
independent timing oracle) and the input and output digests of one
cold ``autotune_search`` and ``fleet_serve`` repetition, which pin the
candidate trajectory and the fleet report per seed.  Seeds already in
the file are kept; the default set is 0-23 plus the held-out seed.
Run it once when the benchmark changes, never to make a check pass.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=run.WORKLOADS)
    parser.add_argument("seeds", nargs="*", type=int)
    args = parser.parse_args(argv)
    seeds = args.seeds or list(range(24)) + [run.HELD_OUT_SEED]
    workloads = [args.only] if args.only else list(run.WORKLOADS)
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.is_file() else {}
    for seed in seeds:
        key = str(seed)
        if "zoo_cold" in workloads:
            expected.setdefault("zoo_cold", {})[key] = run._rep(
                ["--zoo-reference", "--seed", key]
            )["makespans"]
        for workload in [w for w in workloads if w != "zoo_cold"]:
            rep = run._rep(["--workload", workload, "--seed", key])
            if rep["problems"]:
                raise SystemExit(f"{workload} seed {seed}: {rep['problems']}")
            expected.setdefault(workload, {})[key] = {
                "input_digest": rep["input_digest"],
                "output_digest": rep["output_digest"],
            }
        print(f"seed {seed} recorded", flush=True)
    for section in expected.values():
        section_sorted = dict(sorted(section.items(), key=lambda kv: int(kv[0])))
        section.clear()
        section.update(section_sorted)
    path.write_text(json.dumps(expected, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
