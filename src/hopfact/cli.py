"""Command-line surface.

Subcommands:
  check      decide effectiveness of one action spec
  enumerate  effectiveness table over parameter ranges
  act        apply a unitary to a point, print raw + canonical form
  verify     run the full numerical verification suite

Configuration is a single JSON document (path or ``-`` for stdin); flags
override config fields.  Exit codes: 0 success / effective, 1 not
effective (check only), 2 invalid input, 3 verification failure, 4 internal
error (an exception that is not an input error).
"""

import argparse
import itertools
import json
import math
import os
import sys
from typing import Iterator, Tuple

# The exact layer only: check, act and verify import the float layer when
# they run, so that enumerate never loads numpy.
from .effectiveness import (ActionKind, find_witnesses, is_effective, line_class,
                            require_int)

EXIT_OK = 0
EXIT_NOT_EFFECTIVE = 1
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3
EXIT_INTERNAL = 4

# The first format of each subcommand is its default.
CHECK_FORMATS = ("json", "text")
ENUMERATE_FORMATS = ("csv", "json", "text")
FIELDS = ("n", "m", "kind", "p", "q", "r", "effective", "witness_ell", "witness_K")
SPEC_FIELDS = FIELDS[:6] + ("d", "C")
# The config fields of each subcommand; any other key is a mistake.  A ranges
# config's spec fields and a format where none is offered are listed, so
# that the subcommand can reject them with a message of its own.
COMMAND_FIELDS = {
    "check": SPEC_FIELDS + ("format",),
    "enumerate": FIELDS[:6] + ("ranges", "format"),
    "act": SPEC_FIELDS + ("format",),
    "verify": SPEC_FIELDS + ("ranges", "trials", "seed", "tol", "format"),
}
CONFIG_FIELDS = COMMAND_FIELDS["verify"]
# The most rows of a ranges grid.  enumerate makes and formats its rows one
# grid line at a time, but holds the text of every line and then its output
# before writing it: a traced peak of about 57 B a row for csv, 107 B for text
# and 320 B for json, twice the output.
MAX_GRID_ROWS = 1_000_000
# The largest m of act and verify: beyond 2**53 the m-th roots of unity cannot
# be told apart in floats.  check and enumerate are exact and take any m.
MAX_NUMERIC_M = 2**53
# A value of these flags may start with "-" (``--tol -1e-8``).
NUMERIC_FLAGS = ("--seed", "--tol", "--trials")


def _load_config(args) -> dict:
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    config = json.loads(text)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    for key in config:
        if key not in CONFIG_FIELDS:
            raise ValueError(f"unknown config field {key!r}; "
                             f"the fields are {', '.join(CONFIG_FIELDS)}")
        if key not in COMMAND_FIELDS[args.command]:
            raise ValueError(f"{args.command} does not read the config field {key!r}; "
                             f"remove it")
    return config


def _apply_overrides(config: dict, args) -> dict:
    for name in ("seed", "tol", "trials", "format"):
        value = getattr(args, name, None)
        if value is not None:
            config[name] = value
    return config


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json_or_path(value: str):
    """Accept inline JSON or a path to a JSON file."""
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        if os.path.exists(value):
            with open(value, "r", encoding="utf-8") as fh:
                return json.load(fh)
        raise ValueError(f"{value!r} is neither inline JSON nor an existing file")


def _format(config: dict, command: str, choices: tuple) -> str:
    """The config's output format, one of ``choices``; the first is the default."""
    fmt = config.get("format", choices[0])
    if fmt not in choices:
        raise ValueError(f"{command} format must be one of "
                         f"{', '.join(choices)}, got {fmt!r}")
    return fmt


def _no_format(config: dict, command: str) -> None:
    if "format" in config:
        raise ValueError(f"{command} has no output format; "
                         f"remove the config field 'format'")


def cmd_check(args) -> int:
    from . import serialize
    config = _apply_overrides(_load_config(args), args)
    fmt = _format(config, "check", CHECK_FORMATS)
    spec = serialize.spec_from_config(config)
    verdict = is_effective(spec)
    if fmt == "text":
        lines = [f"effective: {verdict.effective}"]
        if verdict.witness is not None:
            lines.append(f"witness: ell={verdict.witness.ell} K={verdict.witness.K}")
            lines.append(f"kernel element: t={verdict.kernel_element.t!r} "
                         f"k={verdict.kernel_element.k}")
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit(json.dumps(verdict.to_dict(), indent=2) + "\n", args)
    return EXIT_OK if verdict.effective else EXIT_NOT_EFFECTIVE


def _grid(config: dict) -> Tuple[Iterator, list]:
    """The grid of the config's ``ranges`` as its lines (n, m, kind, p, q),
    each once and sorted by n, m, kind ("type1" < "type2"), p, q, and the
    sorted list of its r, r = 0 left out: the grid is every line with every
    r.  The ranges are checked at the call; the lines are made as they are
    read."""
    ranges = config.get("ranges")
    if not isinstance(ranges, dict):
        raise ValueError("enumerate requires a 'ranges' object in the config")
    for name in FIELDS[:6]:
        if name in config:
            raise ValueError(f"the grid of 'ranges' sets {name}; "
                             f"remove the config field {name!r}")

    def integer(key):
        return require_int(ranges[key], key)

    def integer_list(key):
        if not isinstance(ranges[key], list):
            raise ValueError(f"{key} must be a list of integers")
        return [require_int(x, f"{key} entry") for x in ranges[key]]

    try:
        n_list = sorted(set(integer_list("n_list")))
        m_list = sorted(set(integer_list("m_list")))
        p_vals, q_vals, r_vals = (range(integer(f"{x}_min"), integer(f"{x}_max") + 1)
                                  for x in "pqr")
    except KeyError as exc:
        raise ValueError(f"ranges is missing field {exc.args[0]!r}")
    if any(n < 2 for n in n_list) or any(m < 1 for m in m_list):
        raise ValueError("n_list entries must be >= 2 and m_list entries >= 1")
    # counted from the bounds: len() of a range fails beyond sys.maxsize
    rows = math.prod([len(n_list), len(m_list), len(ActionKind),
                      *(max(0, v.stop - v.start) for v in (p_vals, q_vals)),
                      max(0, r_vals.stop - r_vals.start) - (0 in r_vals)])
    if not rows:
        raise ValueError("empty enumeration ranges")
    if rows > MAX_GRID_ROWS:
        raise ValueError(f"ranges give {rows} rows; a grid may have at most {MAX_GRID_ROWS}")
    return (itertools.product(n_list, m_list, ActionKind, p_vals, q_vals),
            [r for r in r_vals if r])


def _table(fmt: str, lines: Iterator, rs: list) -> str:
    """The enumerate output of the grid lines (n, m, kind, p, q) with every
    r of ``rs``.  A row is its line's prefix (n, m, kind, p, q and the name
    of r), then a tail: r and the verdict.  The tails of effective rows and
    the start of the others are formatted once for the grid.  The lines come
    in (n, m) blocks; in each block the witnesses and tails are made once
    per line class (``effectiveness.line_class``) and dropped with the
    block.  A line's prefix is formatted once and its rows are joined at
    once into one string, so no row outlives its line."""
    if fmt == "csv":
        # no field is ever quoted: each is an int or a fixed word
        head, sep, foot = ",".join(FIELDS) + "\r\n", "", ""
        prefix = "{},{},{},{},{},".format
        tails = [(f"{r},true,,\r\n", f"{r},false,") for r in rs]
        mid, end = ",", "\r\n"
    elif fmt == "json":
        # json.dumps(rows, indent=2) of the FIELDS of each row
        head, sep, foot = "[\n", ",\n", "\n]\n"
        prefix = ('  {{\n    "n": {},\n    "m": {},\n    "kind": "{}",\n'
                  '    "p": {},\n    "q": {},\n    "r": ').format
        tails = [(f'{r},\n    "effective": true,\n    "witness_ell": null,\n'
                  f'    "witness_K": null\n  }}',
                  f'{r},\n    "effective": false,\n    "witness_ell": ') for r in rs]
        mid, end = ',\n    "witness_K": ', "\n  }"
    else:
        head, sep, foot = "", "", ""
        prefix = "{} {} {} p={} q={} r=".format
        tails = [(f"{r} effective=True witness=(,)\n", f"{r} effective=False witness=(")
                 for r in rs]
        mid, end = ",", ")\n"
    # one join of every piece, whose list is freed before the text is
    # written: joining the lines and then adding head and foot would hold
    # the text three times over.  A grid has a line, so the last piece is
    # a separator, which the foot replaces.
    texts = [head]
    for (n, m), block in itertools.groupby(lines, key=lambda line: line[:2]):
        bodies = {}
        for _, _, kind, p, q in block:
            key = line_class(kind, n, m, p, q)
            body = bodies.get(key)
            if body is None:
                body = bodies[key] = [
                    effective if w is None else f"{witness}{w[0]}{mid}{w[1]}{end}"
                    for (effective, witness), w in
                    zip(tails, find_witnesses(kind, n, m, p, q, rs))]
            pre = prefix(n, m, kind.value, p, q)
            texts += (pre + (sep + pre).join(body), sep)
    texts[-1] = foot
    return "".join(texts)


def cmd_enumerate(args) -> int:
    config = _apply_overrides(_load_config(args), args)
    fmt = _format(config, "enumerate", ENUMERATE_FORMATS)
    _emit(_table(fmt, *_grid(config)), args)
    return EXIT_OK


def _numeric_m(m: int, command: str) -> None:
    if m > MAX_NUMERIC_M:
        raise ValueError(f"{command} needs m <= MAX_NUMERIC_M = 2**53, beyond which the "
                         f"m-th roots of unity are not distinct floats; got m = {m}")


def _numeric_spec(config: dict, command: str):
    """The config's spec, with m no more than ``MAX_NUMERIC_M``."""
    from . import serialize
    spec = serialize.spec_from_config(config)
    _numeric_m(spec.params.m, command)
    return spec


def cmd_act(args) -> int:
    from . import serialize
    from .action import act
    from .cmatrix import unitarity_residual
    from .hopf import canonicalize
    config = _apply_overrides(_load_config(args), args)
    _no_format(config, "act")
    spec = _numeric_spec(config, "act")
    matrix = serialize.matrix_from_json(_load_json_or_path(args.matrix), "--matrix")
    point = serialize.point_from_json(spec.params, _load_json_or_path(args.point))
    if matrix.shape[0] != spec.params.n:
        raise ValueError("matrix dimension does not match the manifold")
    # written so that a NaN residual (a NaN or infinite entry) is rejected too
    if not unitarity_residual(matrix) <= 1e-8:
        raise ValueError("matrix is not unitary to 1e-8")
    result = act(spec, matrix, point)
    canonical = canonicalize(result)
    payload = {
        "raw": serialize.vector_to_json(result.rep),
        "canonical": serialize.vector_to_json(canonical.rep),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args)
    return EXIT_OK


def _verify_settings(config: dict):
    """``trials`` >= 1 and ``seed`` >= 0 as JSON integers, ``tol`` a finite
    positive number; nothing is rounded or converted."""
    trials = require_int(config.get("trials", 200), "trials")
    seed = require_int(config.get("seed", 0), "seed")
    tol = config.get("tol", 1e-8)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # the chained comparison is False for NaN and exact for large integers
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
            or not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    return trials, seed, tol


def cmd_verify(args) -> int:
    from .report import verify_text
    config = _apply_overrides(_load_config(args), args)
    _no_format(config, "verify")
    trials, seed, tol = _verify_settings(config)
    if "ranges" in config:
        lines, rs = _grid(config)
        # the grid has checked p, q, r and m and left out r = 0, so one spec
        # checks d and C for each n, and each m is checked on its own, in
        # grid order; the stacks read the other fields from the grid
        blocks = []
        for n, block in itertools.groupby(lines, key=lambda line: line[0]):
            block = list(block)
            spec = _numeric_spec({**config, "n": n, "m": block[0][1], "kind": "type1", "p": 0,
                                  "q": 0, "r": rs[0]}, "verify")
            for m in dict.fromkeys(line[1] for line in block):
                _numeric_m(m, "verify")
            blocks.append((spec, block))
    else:
        spec = _numeric_spec(config, "verify")
        p = spec.params
        blocks, rs = [(spec, [(p.n, p.m, spec.kind, spec.p, spec.q)])], [spec.r]
    text, passed = verify_text(blocks, rs, trials, seed, tol, "ranges" in config)
    _emit(text, args)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfact",
        description="Effective transitive unitary actions on quotients of "
                    "Hopf manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True,
                       help="JSON config path, or - for stdin")
        p.add_argument("--out", help="output file (default: stdout)")

    p_check = sub.add_parser("check", help="decide effectiveness of one spec")
    common(p_check)
    p_check.add_argument("--format", choices=CHECK_FORMATS)

    p_enum = sub.add_parser("enumerate", help="effectiveness table over ranges")
    common(p_enum)
    p_enum.add_argument("--format", choices=ENUMERATE_FORMATS)

    p_act = sub.add_parser("act", help="apply a unitary to a point")
    common(p_act)
    p_act.add_argument("--matrix", required=True,
                       help="unitary matrix, inline JSON or file path")
    p_act.add_argument("--point", required=True,
                       help="point vector, inline JSON or file path")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    common(p_verify)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--trials", type=int)

    return parser


def _attach_values(argv: list) -> list:
    """Write ``--tol -1e-8`` as ``--tol=-1e-8``.  argparse reads a token
    that starts with "-" and is not a plain decimal as a flag, so it would
    report the value as missing instead of checking it."""
    out = []
    for token in argv:
        if out and out[-1] in NUMERIC_FLAGS and token[:1] == "-" and token[:2] != "--":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


_parser = None     # built by the first call of main, and kept for the process


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        # by name at each call, so that a function rebound on the module runs
        return globals()["cmd_" + args.command](args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        # a fault of the program, not of the input; never exit 1, which
        # means "not effective"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        import traceback            # only this path needs it
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
