"""The text of ``hopfact verify``: json.dumps(payload, indent=2) of its
reports, written from each stack's integer columns and its checks' arrays.

The payload is one report object for a single spec and a list of them for
a grid.  A report's text is fixed words and numbers: json writes an int
with ``int.__repr__`` and a finite float with ``float.__repr__`` (d, tol
and every residual are finite or null), so each check's piece is a
template with its name and trial count filled in once, and each spec adds
only its own fields, residuals and verdicts.  This is the one writer of
reports, and only ``verify`` imports it.  One spec's report is
``report_texts`` of ``oracle.run_suite`` on ``SpecStack.of([spec])``.
"""

import numpy as np

from . import oracle
from .action import SpecStack


def _templates(indent: str, n: int, d: complex, seed: int, tol) -> tuple:
    """The head of a report (to be filled with kind, p, q, r and m), the
    separator of its check pieces, and its two tails, each line indented
    by ``indent``."""
    # the reprs hold no braces, so only the spec's fields are left to format
    head = ('{{\n  "spec": {{\n    "kind": "{}",\n    "p": {},\n    "q": {},\n    "r": {},\n'
            '    "n": ' + repr(n) + ',\n    "m": {},\n    "d": [\n      ' + repr(d.real)
            + ',\n      ' + repr(d.imag) + '\n    ]\n  }},\n  "seed": ' + repr(seed)
            + ',\n  "tol": ' + repr(tol) + ',\n  "checks": [\n')
    return (head.replace("\n", "\n" + indent).format, ",\n" + indent,
            *("\n  ],\n  \"all_passed\": {}\n}}".format(word).replace("\n", "\n" + indent)
              for word in ("false", "true")))


def _pieces(checked, indent: str, lead: str) -> list:
    """The text of the check for each spec it covers, after ``lead``."""
    start = lead + (f'    {{\n      "name": "{checked.name}",\n      "trials": {checked.trials!r},'
                    '\n      "max_residual": ').replace("\n", "\n" + indent)
    verdicts = [(',\n      "pass": ' + word + "\n    }").replace("\n", "\n" + indent)
                for word in ("false", "true")]
    return [start + ("null" if w != w else repr(w)) + verdicts[ok]
            for w, ok in zip(checked.residual.tolist(), checked.passed.tolist())]


def report_texts(stack: SpecStack, seed: int, tol, checks: list, indent: str = "") -> list:
    """The report of each spec of the stack as json.dumps(report, indent=2)
    writes it, each line after the first indented by ``indent``.  A report
    is an object with the spec's fields, the seed, the tol, one object a
    check it covers (name, trials, max_residual and pass) and all_passed.
    ``checks`` are ``oracle.run_suite``'s (Checked, positions) pairs."""
    head, sep, *tails = _templates(indent, stack.params.n, stack.params.d, seed, tol)
    columns = [[head(kind.value, p, q, r, m) for kind, p, q, r, m in
                zip(stack.kind, stack.p, stack.q, stack.r, stack.m)]]
    passed = np.ones(len(stack), dtype=bool)
    for index, (checked, at) in enumerate(checks):
        pieces = _pieces(checked, indent, sep if index else "")
        if at is None:
            passed &= checked.passed
        else:
            column = [""] * len(stack)
            for i, piece in zip(at.tolist(), pieces):
                column[i] = piece
            pieces = column
            passed[at] &= checked.passed
        columns.append(pieces)
    columns.append([tails[ok] for ok in passed.tolist()])
    return list(map("".join, zip(*columns)))


def verify_text(blocks: list, rs: list, trials: int, seed: int, tol, grid: bool) -> tuple:
    """The output of ``verify`` and whether every check passed.  ``blocks``
    are (spec, lines): a validated spec of one n and the grid lines
    (n, m, kind, p, q) on that n, each taken with every r of ``rs``, every
    n*|r|*m within the kernel probe's bound.  Each block is one stack, with
    its spec's d and C."""
    texts, passed = [], True
    for base, lines in blocks:
        kind, p, q, r, m = zip(*[(kind, p, q, r, m) for _, m, kind, p, q in lines for r in rs])
        stack = SpecStack.of_columns(base.params, kind, p, q, r, m, [base.C] * len(m))
        checks = oracle.run_suite(stack, trials, seed, tol)
        texts += report_texts(stack, seed, tol, checks, "  " if grid else "")
        passed = passed and all(checked.passed.all() for checked, _ in checks)
    if grid:
        return "[\n  " + ",\n  ".join(texts) + "\n]\n", passed
    return texts[0] + "\n", passed
