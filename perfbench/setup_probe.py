"""One set-up, timed from outside: import cdotto, expand configs, build solvers.

Usage: python3 perfbench/setup_probe.py SPEC.json

SPEC.json is a list of config texts.  The process builds one AgpSolver per
distinct (endpoint parameters, effective p >= 1) among the expanded grid
points, which is the work a `cdotto run` does before its first
integrator step, and exits.
"""

import json
import sys

from cdotto.agp import AgpSolver, build_basis
from cdotto.config import parse_config_text, resolve_blocks


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        texts = json.load(fh)
    configs = resolve_blocks([parse_config_text(text) for text in texts])
    built = []
    for cfg in configs:
        p = cfg.effective_p
        if p >= 1 and not any(p == q and cfg.params == params for params, q in built):
            AgpSolver(cfg.params, build_basis(cfg.n_sites, p))
            built.append((cfg.params, p))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
