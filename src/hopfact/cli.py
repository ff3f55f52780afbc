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
# The most rows of a ranges grid.  enumerate holds the text of every grid line
# and then its output before writing it, and one (n, m) block's class tails
# while it makes the block.  Its traced peak, in times the output for csv,
# text and json, depends on the grid's shape: about 2 (57 B a row for csv,
# 107 B for text, 320 B for json) on many lines of 12 r each; 4.95, 3.10 and
# 2.35 on many lines of one r each (n = 3, m = 4, p and q from -100 to 100,
# r = 1), where each short line is a string of its own; and 5.8, 4.3 and 3.0
# when a few lines hold many r each (n = 3, m = 4, p = q = 0, r from -5000
# to 5000).
MAX_GRID_ROWS = 1_000_000
# The largest m of act: beyond 2**53 the m-th roots of unity cannot be told
# apart in floats.  verify is bounded by the kernel probe's n*|r|*m <=
# oracle.MAX_PROBE_ORDER, which already keeps m at most 314,159,265; check
# and enumerate are exact and take any m.
MAX_NUMERIC_M = 2**53
# The largest n of act and verify, checked before the n x n C is built.
# verify's well-definedness check holds about n**3 values a trial: one spec
# at 4 trials peaks at 105 MiB at n = 128 and 197 MiB at n = 160.  check
# and enumerate are exact, for any n.
MAX_NUMERIC_N = 128
# The most trials*n of verify.  No sample points are drawn up front: each
# check draws its points chunk by chunk, beside its unitaries, so this caps
# the draws a check makes (the transitivity check's z and w are 2*trials
# points of n coordinates), not an allocation.
MAX_TRIAL_POINTS = 2**22
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
    of r), then a tail: r and the verdict, ending with the rows' separator.
    The effective tail of each r is formatted once for the grid.  The lines
    come in (n, m) blocks, and ``find_witnesses`` decides each block's line
    classes (``effectiveness.line_class``) in one call.  A class's tails
    start as a copy of the effective ones, and only its witness rows are
    written in.  Each line's prefix is then joined to its class's tails
    into one string, which takes the line's place in the block."""
    if fmt == "csv":
        # no field is ever quoted: each is an int or a fixed word
        head, sep, foot = ",".join(FIELDS) + "\r\n", "", ""
        prefix = "%d,%d,%s,%d,%d,"
        effective, witness = "%d,true,,\r\n", "%d,false,%d,%d\r\n"
    elif fmt == "json":
        # json.dumps(rows, indent=2) of the FIELDS of each row
        head, sep, foot = "[\n", ",\n", "\n]\n"
        prefix = ('  {\n    "n": %d,\n    "m": %d,\n    "kind": "%s",\n'
                  '    "p": %d,\n    "q": %d,\n    "r": ')
        effective = ('%d,\n    "effective": true,\n    "witness_ell": null,\n'
                     '    "witness_K": null\n  },\n')
        witness = ('%d,\n    "effective": false,\n    "witness_ell": %d,\n'
                   '    "witness_K": %d\n  },\n')
    else:
        head, sep, foot = "", "", ""
        prefix = "%d %d %s p=%d q=%d r="
        effective = "%d effective=True witness=(,)\n"
        witness = "%d effective=False witness=(%d,%d)\n"
    # a leading "" puts the prefix before the first tail of a line too
    tails = [""] + [effective % r for r in rs]
    texts = [head]
    for (n, m), block in itertools.groupby(lines, key=lambda line: line[:2]):
        block = list(block)
        keys = [line_class(kind, n, m, p, q) for _, _, kind, p, q in block]
        bodies = dict.fromkeys(keys)
        for key, found in zip(bodies, find_witnesses(n, m, list(bodies), rs)):
            body = bodies[key] = tails.copy()
            for i, ell, K in found:
                body[i + 1] = witness % (rs[i], ell, K)
        # _value_ is the member's plain attribute; .value is a slower property
        for j, (_, _, kind, p, q) in enumerate(block):
            block[j] = (prefix % (n, m, kind._value_, p, q)).join(bodies[keys[j]])
        texts += block
    # the last block is freed before the output is made, and the foot
    # replaces the last row's separator; one join of every piece, since adding
    # head and foot to the joined lines would hold the text three times over
    del block, keys, bodies
    texts[-1] = texts[-1].removesuffix(sep)
    texts.append(foot)
    return "".join(texts)


def cmd_enumerate(args) -> int:
    config = _apply_overrides(_load_config(args), args)
    fmt = _format(config, "enumerate", ENUMERATE_FORMATS)
    _emit(_table(fmt, *_grid(config)), args)
    return EXIT_OK


def _numeric_n(n: int, command: str) -> None:
    if n > MAX_NUMERIC_N:
        raise ValueError(f"{command} needs n <= MAX_NUMERIC_N = {MAX_NUMERIC_N}, the float "
                         f"layer's bound on memory; got n = {n}")


def cmd_act(args) -> int:
    from . import serialize
    from .action import act
    from .cmatrix import unitarity_residual
    from .hopf import canonicalize
    config = _apply_overrides(_load_config(args), args)
    _no_format(config, "act")
    _numeric_n(serialize.params_from_config(config).n, "act")
    spec = serialize.spec_from_config(config)
    if spec.params.m > MAX_NUMERIC_M:
        raise ValueError(f"act needs m <= MAX_NUMERIC_M = 2**53, beyond which the m-th "
                         f"roots of unity are not distinct floats; got m = {spec.params.m}")
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


def _verify_settings(config: dict, n: int):
    """``trials`` >= 1 and ``seed`` >= 0 as JSON integers, ``tol`` a finite
    positive number; nothing is rounded or converted.  ``n`` is the largest
    n of the specs, and trials*n is at most ``MAX_TRIAL_POINTS``."""
    trials = require_int(config.get("trials", 200), "trials")
    seed = require_int(config.get("seed", 0), "seed")
    tol = config.get("tol", 1e-8)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials * n > MAX_TRIAL_POINTS:
        raise ValueError(f"trials*n = {trials * n} exceeds MAX_TRIAL_POINTS = "
                         f"{MAX_TRIAL_POINTS}, the cap on the sample points a verify "
                         f"check draws, chunk by chunk")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # the chained comparison is False for NaN and exact for large integers
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
            or not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    return trials, seed, tol


def cmd_verify(args) -> int:
    from . import oracle, serialize
    from .report import verify_text
    config = _apply_overrides(_load_config(args), args)
    _no_format(config, "verify")
    if "ranges" in config:
        lines, rs = _grid(config)
        # the grid has checked p, q, r and m and left out r = 0, so one spec
        # checks d and C for each n, and each m is checked on its own, in
        # grid order; the stacks read the other fields from the grid
        blocks = []
        for n, block in itertools.groupby(lines, key=lambda line: line[0]):
            _numeric_n(n, "verify")
            block = list(block)
            spec = serialize.spec_from_config({**config, "n": n, "m": block[0][1],
                                               "kind": "type1", "p": 0, "q": 0, "r": rs[0]})
            for m in dict.fromkeys(line[1] for line in block):
                for r in rs:
                    oracle._scan_order(n, r, m)
            blocks.append((spec, block))
    else:
        _numeric_n(serialize.params_from_config(config).n, "verify")
        spec = serialize.spec_from_config(config)
        p = spec.params
        oracle._scan_order(p.n, spec.r, p.m)
        blocks, rs = [(spec, [(p.n, p.m, spec.kind, spec.p, spec.q)])], [spec.r]
    # after the specs, so that trials*n is bounded; before anything is drawn
    trials, seed, tol = _verify_settings(config, max(spec.params.n for spec, _ in blocks))
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
