"""Workload definitions: each workload turns a seed into one CLI config.

The program under test only ever sees the generated config.  The seed
never changes the number of specs, rows or trials: in the verify
workloads it is the verification seed, from which every sampled point and
unitary derives, so runs with different seeds do the same work on
different inputs.
"""

import random

KINDS = ("type1", "type2")


def _ranges(n_list, m_list, p_min, p_max, q_min, q_max, r_min, r_max):
    return {"n_list": list(n_list), "m_list": list(m_list),
            "p_min": p_min, "p_max": p_max, "q_min": q_min, "q_max": q_max,
            "r_min": r_min, "r_max": r_max}


def make(name: str, seed: int, scale: str = "full") -> dict:
    """The job for one workload: CLI argv, config and its input size.

    ``scale="smoke"`` shrinks every dimension to a few specs so that the
    whole pipeline can be exercised in seconds.
    """
    rng = random.Random(f"{name}:{seed}")
    smoke = scale == "smoke"
    if name == "enumerate_wide":
        # The parameter grid is fixed: shifting its windows changes the
        # exact layer's work by up to 12%.  The seed orders the lists the
        # CLI must sort, and picks the rows the gate re-derives.
        n_list, m_list = ([2, 3], [1, 2]) if smoke else (list(range(2, 7)), list(range(1, 9)))
        rng.shuffle(n_list)
        rng.shuffle(m_list)
        r_max = 3 if smoke else 20
        config = {"ranges": _ranges(n_list, m_list, -2, 2, -2, 2, -r_max, r_max)}
        argv = ["enumerate", "--spec", "-", "--format", "csv"]
    elif name == "verify_range":
        r_max = 2 if smoke else 6
        ranges = _ranges([2, 3], [3] if smoke else [3, 6], 0, 1, 0, 0, -r_max, r_max)
        config = {"d": [0.5, 0.0], "trials": 2 if smoke else 10,
                  "seed": rng.randrange(1_000_000), "ranges": ranges}
        argv = ["verify", "--spec", "-"]
    elif name == "verify_deep":
        ranges = _ranges([2, 4], [3], 1, 1, 0, 0, 2, 2)
        config = {"d": [1.0, 2.0], "trials": 8 if smoke else 300,
                  "seed": rng.randrange(1_000_000), "ranges": ranges}
        argv = ["verify", "--spec", "-"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"workload": name, "seed": seed, "scale": scale, "argv": argv,
            "config": config, "input_size": input_size(config)}


def grid(ranges: dict):
    """Every (n, m, kind, p, q, r) tuple of a ranges object, in CLI sort order."""
    rs = [r for r in range(ranges["r_min"], ranges["r_max"] + 1) if r != 0]
    return [(n, m, kind, p, q, r)
            for n in sorted(ranges["n_list"]) for m in sorted(ranges["m_list"])
            for kind in KINDS
            for p in range(ranges["p_min"], ranges["p_max"] + 1)
            for q in range(ranges["q_min"], ranges["q_max"] + 1)
            for r in rs]


def input_size(config: dict) -> dict:
    specs = grid(config["ranges"])
    if "trials" not in config:
        return {"rows": len(specs)}
    return {"specs": len(specs), "trials": config["trials"],
            "scan_cells": sum(abs(r) * m * n for n, m, _, _, _, r in specs)}
