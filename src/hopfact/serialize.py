"""JSON interchange schemas.

Complex numbers travel as [re, im] pairs, vectors as arrays of pairs, and
matrices as row-major nested arrays of pairs.  Action specs use the
fields n, m, d, kind, p, q, r and an optional C (default identity).
"""

import numpy as np

from .action import ActionSpec
from .effectiveness import ActionKind, require_int
from .hopf import HopfParams, OrbitPoint


def complex_to_pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair) -> complex:
    """An [re, im] pair of JSON numbers; bools and strings are rejected."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2 \
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair):
        try:
            return complex(float(pair[0]), float(pair[1]))
        except OverflowError:
            pass
    raise ValueError(f"expected an [re, im] pair of numbers, got {pair!r}")


def vector_to_json(v) -> list:
    return [complex_to_pair(x) for x in np.asarray(v, dtype=np.complex128)]


def vector_from_json(data, name: str = "vector") -> np.ndarray:
    if not isinstance(data, list):
        raise ValueError(f"{name} must be a list of [re, im] pairs, got {data!r}")
    return np.array([pair_to_complex(p) for p in data], dtype=np.complex128)


def matrix_to_json(m) -> list:
    return [vector_to_json(row) for row in np.asarray(m, dtype=np.complex128)]


def matrix_from_json(data, name: str = "matrix") -> np.ndarray:
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise ValueError(f"{name} must be a list of rows of [re, im] pairs, got {data!r}")
    lengths = [len(row) for row in data]
    if len(set(lengths)) > 1:
        raise ValueError(f"{name} must have rows of equal length, got rows of "
                         f"{', '.join(map(str, lengths))} entries")
    return np.array([[pair_to_complex(p) for p in row] for row in data],
                    dtype=np.complex128)


def params_from_config(config: dict) -> HopfParams:
    for key in ("n", "m", "d"):
        if key not in config:
            raise ValueError(f"config is missing required field {key!r}")
    return HopfParams(d=pair_to_complex(config["d"]), n=require_int(config["n"], "n"),
                      m=require_int(config["m"], "m"))


def spec_from_config(config: dict) -> ActionSpec:
    params = params_from_config(config)
    for key in ("kind", "p", "q", "r"):
        if key not in config:
            raise ValueError(f"config is missing required field {key!r}")
    try:
        kind = ActionKind(config["kind"])
    except ValueError:
        raise ValueError(f"kind must be 'type1' or 'type2', got {config['kind']!r}")
    if "C" in config and config["C"] is not None:
        C = matrix_from_json(config["C"], "C")
    else:
        C = np.eye(params.n, dtype=np.complex128)
    p, q, r = (require_int(config[key], key) for key in ("p", "q", "r"))
    return ActionSpec(kind=kind, p=p, q=q, r=r, C=C, params=params)


def point_from_json(params: HopfParams, data) -> OrbitPoint:
    return OrbitPoint(params, vector_from_json(data, "point"))
