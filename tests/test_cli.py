import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _witness_reference as reference
import hopfact.action
import hopfact.oracle
from hopfact import cli, serialize
from hopfact.cli import ENUMERATE_FORMATS
from hopfact.action import ActionKind, ActionSpec, SpecStack, d_pow
from hopfact.effectiveness import KernelWitness, find_witness, line_class
from hopfact.cmatrix import random_unitary
from hopfact.hopf import HopfParams
from hopfact.oracle import Checked, run_suite
from hopfact.report import report_texts

HERE = os.path.dirname(__file__)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


DEMO = {"n": 2, "m": 1, "d": [4, 0], "kind": "type1", "p": 0, "q": 0, "r": 1}
NOT_EFFECTIVE = {"n": 2, "m": 1, "d": [4, 0], "kind": "type1", "p": 1, "q": 0, "r": 3}


def run(args):
    return cli.main(args)


class TestCheck:
    def test_effective_exit_zero(self, tmp_path, capsys):
        code = run(["check", "--spec", write_config(tmp_path, DEMO)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"effective": True, "witness": None, "kernel_element": None,
                       "kernel_order": 1}

    def test_not_effective_exit_one(self, tmp_path, capsys):
        code = run(["check", "--spec", write_config(tmp_path, NOT_EFFECTIVE)])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["witness"] == {"ell": 1, "K": 0}
        # A = 3 and N = n*|r| = 6: the scalars e^{2*pi*i*j/6}, j = 0, 2, 4
        assert out["kernel_order"] == 3

    def test_unit_modulus_d_exit_two(self, tmp_path, capsys):
        bad = dict(DEMO, d=[1, 0])
        assert run(["check", "--spec", write_config(tmp_path, bad)]) == 2

    @pytest.mark.parametrize("d0", [float("nan"), float("inf")])
    def test_non_finite_d_exit_two(self, tmp_path, capsys, d0):
        bad = dict(NOT_EFFECTIVE, d=[d0, 0])
        assert run(["check", "--spec", write_config(tmp_path, bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "d must be finite" in captured.err

    @pytest.mark.parametrize("field,value", [
        ("n", 2.9), ("n", 2.0), ("m", True), ("p", 1.5), ("q", 0.0), ("r", 3.0),
        ("p", "1"),
    ])
    def test_non_integer_field_exit_two(self, tmp_path, capsys, field, value):
        bad = dict(NOT_EFFECTIVE, **{field: value})
        assert run(["check", "--spec", write_config(tmp_path, bad)]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["check", "--spec", str(path)]) == 2

    def test_missing_field_exit_two(self, tmp_path):
        bad = {k: v for k, v in DEMO.items() if k != "r"}
        assert run(["check", "--spec", write_config(tmp_path, bad)]) == 2

    def test_non_list_C_exit_two(self, tmp_path, capsys):
        assert run(["check", "--spec", write_config(tmp_path, dict(DEMO, C=5))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "C must be a list of rows of [re, im] pairs, got 5" in captured.err

    @pytest.mark.parametrize("field,value", [
        ("d", ["4", "0"]),
        ("d", [True, True]),
        ("C", [[[1, 0], [0, 0]], [[0, 0], ["1", 0]]]),
        ("C", [[[1, False], [0, 0]], [[0, 0], [1, 0]]]),
    ])
    def test_non_number_pair_part_exit_two(self, tmp_path, capsys, field, value):
        # a pair part must be a JSON number, as an integer field must be an integer
        assert run(["check", "--spec", write_config(tmp_path, dict(DEMO, **{field: value}))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected an [re, im] pair of numbers" in captured.err

    def test_text_format(self, tmp_path, capsys):
        code = run(["check", "--spec", write_config(tmp_path, NOT_EFFECTIVE),
                    "--format", "text"])
        assert code == 1
        assert "witness: ell=1 K=0" in capsys.readouterr().out

    @pytest.mark.parametrize("r", [10**12, 10**400])
    def test_large_r_answers_at_once(self, tmp_path, capsys, r):
        # m = 7, A = n*(p*m + q) + m: q = 0 gives A = 7, coprime to r = 10^k;
        # q = 4 gives A = 15 and h = gcd(r, 15) = 5, so the witness is
        # (r/5, (ell*A/r) * 2^{-1} mod 7) = (r/5, 5)
        spec = {"n": 2, "m": 7, "d": [4, 0], "kind": "type1", "p": 0, "r": r}
        start = time.perf_counter()
        effective = run(["check", "--spec",
                         write_config(tmp_path, dict(spec, q=0), "coprime.json")])
        first = json.loads(capsys.readouterr().out)
        not_effective = run(["check", "--spec",
                             write_config(tmp_path, dict(spec, q=4), "shared.json")])
        second = json.loads(capsys.readouterr().out)
        elapsed = time.perf_counter() - start
        assert (effective, first["effective"]) == (0, True)
        assert (not_effective, second["effective"]) == (1, False)
        assert second["witness"] == {"ell": r // 5, "K": 5}
        assert second["kernel_element"]["t"] == pytest.approx(2 * np.pi / 10)
        assert elapsed < 1.0

    def test_huge_m_answers(self, tmp_path, capsys):
        # exact arithmetic takes any m: g = gcd(2, 10^400) = 2 gives the
        # witness (0, m/2)
        assert run(["check", "--spec", write_config(tmp_path, dict(DEMO, m=10**400))]) == 1
        assert json.loads(capsys.readouterr().out)["witness"] == {"ell": 0, "K": 10**400 // 2}


class TestEnumerate:
    CONFIG = {"ranges": {"n_list": [2], "m_list": [1], "p_min": 0, "p_max": 1,
                         "q_min": 0, "q_max": 0, "r_min": 1, "r_max": 3}}

    def test_csv_table(self, tmp_path, capsys):
        code = run(["enumerate", "--spec", write_config(tmp_path, self.CONFIG)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,m,kind,p,q,r,effective,witness_ell,witness_K"
        assert len(lines) == 1 + 12  # both kinds, 2 p-values, 3 r-values
        assert "2,1,type1,1,0,3,false,1,0" in lines
        assert "2,1,type2,1,0,3,true,," in lines

    # n = 2, m = 2 has the witness (0, 1), whose ell is 0; n = 3, m = 2 is effective
    PINNED = {"ranges": {"n_list": [3, 2], "m_list": [2], "p_min": 0, "p_max": 0,
                         "q_min": 0, "q_max": 0, "r_min": 1, "r_max": 1}}

    def test_csv_bytes_pinned(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["enumerate", "--spec", write_config(tmp_path, self.PINNED),
                    "--out", str(out)]) == 0
        assert out.read_bytes() == (b"n,m,kind,p,q,r,effective,witness_ell,witness_K\r\n"
                                    b"2,2,type1,0,0,1,false,0,1\r\n"
                                    b"2,2,type2,0,0,1,false,0,1\r\n"
                                    b"3,2,type1,0,0,1,true,,\r\n"
                                    b"3,2,type2,0,0,1,true,,\r\n")

    @pytest.mark.parametrize("from_config", [False, True])
    def test_json_pinned(self, tmp_path, capsys, from_config):
        cfg = dict(self.PINNED, format="json") if from_config else self.PINNED
        flags = [] if from_config else ["--format", "json"]
        assert run(["enumerate", "--spec", write_config(tmp_path, cfg)] + flags) == 0
        keys = ["n", "m", "kind", "p", "q", "r", "effective", "witness_ell", "witness_K"]
        rows = [(2, 2, "type1", 0, 0, 1, False, 0, 1), (2, 2, "type2", 0, 0, 1, False, 0, 1),
                (3, 2, "type1", 0, 0, 1, True, None, None),
                (3, 2, "type2", 0, 0, 1, True, None, None)]
        out = capsys.readouterr().out
        assert out == json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
        assert out.count('"witness_ell": 0,') == 2

    @pytest.mark.parametrize("from_config", [False, True])
    def test_text_pinned(self, tmp_path, capsys, from_config):
        cfg = dict(self.PINNED, format="text") if from_config else self.PINNED
        flags = [] if from_config else ["--format", "text"]
        assert run(["enumerate", "--spec", write_config(tmp_path, cfg)] + flags) == 0
        assert capsys.readouterr().out == (
            "2 2 type1 p=0 q=0 r=1 effective=False witness=(0,1)\n"
            "2 2 type2 p=0 q=0 r=1 effective=False witness=(0,1)\n"
            "3 2 type1 p=0 q=0 r=1 effective=True witness=(,)\n"
            "3 2 type2 p=0 q=0 r=1 effective=True witness=(,)\n")

    # negative p, q and r, and pairs (n, m) with g = gcd(n, m) > 1, whose
    # witness is (0, m/g)
    MIXED = {"ranges": {"n_list": [4, 2, 3], "m_list": [6, 1, 2], "p_min": -2, "p_max": 1,
                        "q_min": -1, "q_max": 1, "r_min": -3, "r_max": 3}}

    def test_csv_equals_csv_writer(self, tmp_path):
        # the CLI builds its CSV by hand; csv.writer over the search
        # reference's witnesses must write the same bytes
        out = tmp_path / "table.csv"
        assert run(["enumerate", "--spec", write_config(tmp_path, self.MIXED),
                    "--out", str(out)]) == 0
        ranges = self.MIXED["ranges"]
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(cli.FIELDS)
        for n, m, kind, p, q, r in itertools.product(
                sorted(ranges["n_list"]), sorted(ranges["m_list"]), ActionKind,
                range(ranges["p_min"], ranges["p_max"] + 1),
                range(ranges["q_min"], ranges["q_max"] + 1),
                [r for r in range(ranges["r_min"], ranges["r_max"] + 1) if r]):
            w = reference.find_witness(kind, n, m, p, q, r)
            writer.writerow((n, m, kind.value, p, q, r, "true", "", "") if w is None else
                            (n, m, kind.value, p, q, r, "false", w.ell, w.K))
        text = buf.getvalue()
        assert text.count("\r\n") == 1 + 3 * 3 * 2 * 4 * 3 * 6
        assert ",false,0,3\r\n" in text and ",-2,-1,-3,true,," in text
        assert out.read_bytes() == text.encode("ascii")

    # the enumerate_wide benchmark grid, 80,000 rows, with shuffled lists
    WIDE = {"ranges": {"n_list": [4, 2, 6, 3, 5], "m_list": [3, 8, 1, 5, 2, 7, 4, 6],
                       "p_min": -2, "p_max": 2, "q_min": -2, "q_max": 2,
                       "r_min": -20, "r_max": 20}}
    # 10,800 rows: json takes about 4x as long a row as csv
    NARROW = {"ranges": {"n_list": [4, 2, 3], "m_list": [6, 1, 4, 2, 5, 3],
                         "p_min": -2, "p_max": 2, "q_min": -2, "q_max": 2,
                         "r_min": -6, "r_max": 6}}

    @pytest.mark.parametrize("grid,fmt,size,digest", [
        ("WIDE", "csv", 2199712,
         "96d91d473b36c7d54c94d080275189bf4cf27bc7c24310d7d59a6f48ad3eb0bc"),
        ("WIDE", "text", 4199664,
         "a0c816402d0f348478a38091d9afa23990b2f3606bc65851d004256c2bfd5389"),
        ("NARROW", "json", 1712123,
         "75fb0a87bf884ea7cb5880334be679bff885ca475d20eb3811f0e88a3534973f"),
    ])
    def test_whole_table_pinned(self, tmp_path, grid, fmt, size, digest):
        # digests of the output when the rows were held in a list and the
        # CSV went through csv.writer; streaming must not change a byte
        out = tmp_path / "table"
        assert run(["enumerate", "--spec", write_config(tmp_path, getattr(self, grid)),
                    "--format", fmt, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)

    # 14,400 rows.  Lines of one (n, m) with equal A share their witnesses
    # (n = 2, m = 1: type1 with s = p*m + q and type2 with s + 1), and so do
    # all lines of the five (n, m) with gcd(n, m) > 1
    SHARED = {"ranges": {"n_list": [2, 3, 4], "m_list": [1, 2, 3, 4], "p_min": -2, "p_max": 2,
                         "q_min": -2, "q_max": 2, "r_min": -12, "r_max": 12}}

    @staticmethod
    def table(fmt, rows):
        """The output of ``rows`` (the FIELDS of each, the witness fields
        None where effective) in ``fmt``, built independently of the CLI."""
        if fmt == "csv":
            return "\r\n".join([",".join(cli.FIELDS)] + [
                f"{n},{m},{kind},{p},{q},{r}," + ("true,," if effective else f"false,{ell},{K}")
                for n, m, kind, p, q, r, effective, ell, K in rows]) + "\r\n"
        if fmt == "json":
            return json.dumps([dict(zip(cli.FIELDS, row)) for row in rows], indent=2) + "\n"
        return "".join(
            f"{n} {m} {kind} p={p} q={q} r={r} effective={effective} witness=("
            + ("," if effective else f"{ell},{K}") + ")\n"
            for n, m, kind, p, q, r, effective, ell, K in rows)

    @staticmethod
    def rows(ranges, find):
        """The rows of a ranges grid, in CLI order, with the witnesses of
        ``find(kind, n, m, p, q, r)``."""
        rows = []
        for n, m, kind, p, q, r in itertools.product(
                sorted(set(ranges["n_list"])), sorted(set(ranges["m_list"])), ActionKind,
                range(ranges["p_min"], ranges["p_max"] + 1),
                range(ranges["q_min"], ranges["q_max"] + 1),
                [r for r in range(ranges["r_min"], ranges["r_max"] + 1) if r]):
            w = find(kind, n, m, p, q, r)
            rows.append((n, m, kind.value, p, q, r, w is None,
                         None if w is None else w.ell, None if w is None else w.K))
        return rows

    @pytest.mark.parametrize("fmt", ENUMERATE_FORMATS)
    def test_lines_of_one_class_keep_their_own_rows(self, tmp_path, fmt):
        # enumerate decides each line class once per (n, m); every row must
        # still be its own tuple and that tuple's find_witness
        ranges = self.SHARED["ranges"]
        lines = list(itertools.product(
            ranges["n_list"], ranges["m_list"], ActionKind,
            range(ranges["p_min"], ranges["p_max"] + 1),
            range(ranges["q_min"], ranges["q_max"] + 1)))
        kinds = {}
        for n, m, kind, p, q in lines:
            kinds.setdefault((n, m, line_class(kind, n, m, p, q)), set()).add(kind)
        # fewer classes than lines, some holding both kinds, and g > 1 blocks
        assert len(kinds) < len(lines) // 2
        assert any(len(v) == 2 for (n, m, key), v in kinds.items() if key is not None)
        assert sum(key is None for _, _, key in kinds) == 5
        out = tmp_path / "table"
        assert run(["enumerate", "--spec", write_config(tmp_path, self.SHARED),
                    "--format", fmt, "--out", str(out)]) == 0
        expected = self.table(fmt, self.rows(ranges, find_witness))
        assert out.read_bytes() == expected.encode("ascii")

    # the two extremes of a class's rows: every row a witness (each block
    # has gcd(n, m) > 1), and none (A = +-1 on every line)
    EXTREMES = {
        "every": {"n_list": [2, 4], "m_list": [2, 4], "p_min": -1, "p_max": 1,
                  "q_min": -1, "q_max": 1, "r_min": -3, "r_max": 3},
        "none": {"n_list": [2], "m_list": [1], "p_min": 0, "p_max": 0,
                 "q_min": 0, "q_max": 0, "r_min": -6, "r_max": 6},
    }

    @pytest.mark.parametrize("fmt", ENUMERATE_FORMATS)
    @pytest.mark.parametrize("extreme", ["every", "none"])
    def test_all_or_no_witness_rows(self, tmp_path, fmt, extreme):
        ranges = self.EXTREMES[extreme]
        rows = self.rows(ranges, reference.find_witness)
        assert {effective for *_, effective, _, _ in rows} == {extreme == "none"}
        out = tmp_path / "table"
        assert run(["enumerate", "--spec", write_config(tmp_path, {"ranges": ranges}),
                    "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == self.table(fmt, rows).encode("ascii")

    def test_enumerate_makes_no_witness_record(self, tmp_path, monkeypatch):
        # enumerate reads the (i, ell, K) witnesses of find_witnesses as
        # they are; a KernelWitness is made only where one r is answered
        made = []
        init = KernelWitness.__init__

        def counted(self, ell, K):
            made.append((ell, K))
            init(self, ell, K)

        monkeypatch.setattr(KernelWitness, "__init__", counted)
        config = write_config(tmp_path, self.SHARED)
        for fmt in ENUMERATE_FORMATS:
            assert run(["enumerate", "--spec", config, "--format", fmt,
                        "--out", str(tmp_path / fmt)]) == 0
        assert made == []
        # the count sees the records that are made
        assert find_witness(ActionKind.TYPE1, 2, 2, 0, 0, 1) == KernelWitness(0, 1)
        assert made == [(0, 1), (0, 1)]

    # 7,200 rows
    TRACED = {"ranges": {"n_list": [2, 3, 4], "m_list": [1, 2, 3, 4], "p_min": -2, "p_max": 2,
                         "q_min": -2, "q_max": 2, "r_min": -6, "r_max": 6}}
    # 20,000 rows on two lines, each its own class
    LONG_R = {"ranges": {"n_list": [3], "m_list": [4], "p_min": 0, "p_max": 0,
                         "q_min": 0, "q_max": 0, "r_min": -5000, "r_max": 5000}}
    # 80,802 rows on as many lines, one r each
    ONE_R = {"ranges": {"n_list": [3], "m_list": [4], "p_min": -100, "p_max": 100,
                        "q_min": -100, "q_max": 100, "r_min": 1, "r_max": 1}}

    @pytest.mark.parametrize("grid,fmt,most", [
        pytest.param("TRACED", fmt, most, id=f"{fmt}-{most}")
        for fmt, most in [("csv", 3.0), ("text", 2.8), ("json", 3.0)]] + [
        pytest.param("LONG_R", fmt, most, id=f"LONG_R-{fmt}-{most}")
        for fmt, most in [("csv", 6.39), ("text", 4.77), ("json", 3.31)]] + [
        pytest.param("ONE_R", fmt, most, id=f"ONE_R-{fmt}-{most}")
        for fmt, most in [("csv", 5.445), ("text", 3.41), ("json", 2.585)]])
    def test_rows_are_not_held(self, tmp_path, grid, fmt, most):
        # traced peak bytes per output character (Python 3.11) on TRACED:
        # 2.2 (csv), 2.1 (text) and 2.0 (json) when each grid line's rows
        # are joined into one string and the lines then into the output;
        # 4.3, 3.2 and 2.4 when each row was formatted and joined on its
        # own; 6.0 and 3.6 when the grid tuples are held in a list, 12.7 and
        # 7.2 when the rows and their witnesses are held too, and 11.2 for
        # json when each row is held as a dict for json.dumps.  On LONG_R,
        # whose few lines hold many rows each, every class's 10,000 tails
        # add to the held text: 5.81, 4.34 and 3.01 when the last block is
        # freed before the output is joined (the bounds are 1.1 times
        # these), and 7.2, 5.35 and 3.46 when it was not.  On ONE_R, whose
        # many lines hold one row each, each line's string adds its own
        # object header to a short row: 4.95, 3.10 and 2.35 (bounds 1.1
        # times these)
        out = tmp_path / "table"
        argv = ["enumerate", "--spec", write_config(tmp_path, getattr(self, grid)),
                "--format", fmt, "--out", str(out)]
        assert run(argv) == 0
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / out.stat().st_size < most

    def test_huge_m_answers(self, tmp_path, capsys):
        # exact arithmetic takes any m; g = gcd(2, 10^400) = 2
        cfg = {"ranges": dict(self.CONFIG["ranges"], m_list=[10**400], p_max=0, r_max=1)}
        assert run(["enumerate", "--spec", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"2,{10**400},{kind},0,0,1,false,0,{10**400 // 2}" for kind in ("type1", "type2")]

    def test_sorted_and_deterministic(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        run(["enumerate", "--spec", path])
        first = capsys.readouterr().out
        run(["enumerate", "--spec", path])
        second = capsys.readouterr().out
        assert first == second
        body = first.splitlines()[1:]
        assert body == sorted(body, key=self.row_key)

    @staticmethod
    def row_key(row):
        n, m, kind, p, q, r = row.split(",")[:6]
        return int(n), int(m), kind, int(p), int(q), int(r)

    def test_shuffled_lists_with_duplicates_come_out_sorted(self, tmp_path, capsys):
        ranges = {"p_min": -1, "p_max": 1, "q_min": -1, "q_max": 0,
                  "r_min": -2, "r_max": 2}
        shuffled = {"ranges": dict(ranges, n_list=[3, 2, 3], m_list=[4, 1, 2, 1])}
        ordered = {"ranges": dict(ranges, n_list=[2, 3], m_list=[1, 2, 4])}
        assert run(["enumerate", "--spec",
                    write_config(tmp_path, shuffled, "shuffled.json")]) == 0
        body = capsys.readouterr().out.splitlines()[1:]
        assert run(["enumerate", "--spec",
                    write_config(tmp_path, ordered, "ordered.json")]) == 0
        assert body == capsys.readouterr().out.splitlines()[1:]
        # a duplicated list entry counts once: 2 n x 3 m x 2 kinds x 3 p x
        # 2 q x 4 r rows, strictly increasing in CLI order
        assert len(body) == 2 * 3 * 2 * 3 * 2 * 4
        keys = [self.row_key(row) for row in body]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_empty_ranges_exit_two(self, tmp_path):
        cfg = {"ranges": {"n_list": [], "m_list": [1], "p_min": 0, "p_max": 0,
                          "q_min": 0, "q_max": 0, "r_min": 1, "r_max": 1}}
        assert run(["enumerate", "--spec", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize("field,value", [
        ("n_list", [2.5]), ("m_list", [True]), ("n_list", 2), ("p_min", 0.5),
        ("q_max", 1.0), ("r_min", False), ("r_max", 3.7),
    ])
    def test_non_integer_range_exit_two(self, tmp_path, capsys, field, value):
        cfg = {"ranges": dict(self.CONFIG["ranges"], **{field: value})}
        assert run(["enumerate", "--spec", write_config(tmp_path, cfg)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("n", 7), ("m", 1), ("kind", "bogus"), ("p", 0), ("q", 0), ("r", 1),
    ])
    def test_spec_field_next_to_ranges_exit_two(self, tmp_path, capsys, field, value):
        cfg = dict(self.CONFIG, **{field: value})
        assert run(["enumerate", "--spec", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"the grid of 'ranges' sets {field}; remove the config field {field!r}"
                in captured.err)

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    def test_huge_grid_exit_two_at_once(self, tmp_path, capsys, command):
        # 2 kinds x 2*10^7 values of r: rejected from the counts, before any
        # row is built
        cfg = {"ranges": dict(self.CONFIG["ranges"], r_min=-10**7, r_max=10**7, p_max=0)}
        start = time.perf_counter()
        assert run([command, "--spec", write_config(tmp_path, cfg)]) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ranges give 40000000 rows; a grid may have at most 1000000" in captured.err

    @pytest.mark.parametrize("most,code", [(12, 0), (11, 2)])
    def test_grid_row_limit_is_inclusive(self, tmp_path, monkeypatch, most, code):
        # r_min = 0 leaves CONFIG's 12 rows: r = 0 is not counted
        monkeypatch.setattr(cli, "MAX_GRID_ROWS", most)
        cfg = {"ranges": dict(self.CONFIG["ranges"], r_min=0)}
        assert run(["enumerate", "--spec", write_config(tmp_path, cfg)]) == code

    def test_r_zero_excluded(self, tmp_path, capsys):
        cfg = {"ranges": {"n_list": [2], "m_list": [1], "p_min": 0, "p_max": 0,
                          "q_min": 0, "q_max": 0, "r_min": -1, "r_max": 1}}
        assert run(["enumerate", "--spec", write_config(tmp_path, cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert all(row.split(",")[5] != "0" for row in rows)

    def test_out_file(self, tmp_path):
        out = tmp_path / "table.csv"
        run(["enumerate", "--spec", write_config(tmp_path, self.CONFIG),
             "--out", str(out)])
        assert out.read_text().startswith("n,m,kind,")


class TestAct:
    def test_hand_example(self, tmp_path, capsys):
        code = run(["act", "--spec", write_config(tmp_path, DEMO),
                    "--matrix", json.dumps([[[0, 1], [0, 0]], [[0, 0], [0, 1]]]),
                    "--point", json.dumps([[1, 0], [0, 0]])])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["raw"] == [[0.0, 2.0], [0.0, 0.0]]
        # canonical form keeps the modulus exponent in [0, 1)
        v = serialize.vector_from_json(out["canonical"])
        s = np.log(np.linalg.norm(v)) / np.log(4)
        assert 0 <= s < 1

    def test_identity_matrix(self, tmp_path, capsys):
        code = run(["act", "--spec", write_config(tmp_path, DEMO),
                    "--matrix", json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
                    "--point", json.dumps([[1, 0], [2, 0]])])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["raw"] == [[1.0, 0.0], [2.0, 0.0]]

    def test_huge_m_answers_at_once(self, tmp_path, capsys):
        # canonicalize picks its rotation without a loop over the m rotations
        start = time.perf_counter()
        code = run(["act", "--spec", write_config(tmp_path, dict(DEMO, m=10**12)),
                    "--matrix", json.dumps([[[0, 1], [0, 0]], [[0, 0], [0, 1]]]),
                    "--point", json.dumps([[1, 0], [0, 0]])])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(capsys.readouterr().out)["raw"] == [[0.0, 2.0], [0.0, 0.0]]

    @pytest.mark.parametrize("m", [2**53 + 1, 10**400])
    def test_m_beyond_the_floats_exit_two(self, tmp_path, monkeypatch, capsys, m):
        # rejected before the action runs: act would exit 4 if it were called
        monkeypatch.setattr(hopfact.action, "act", None)
        code = run(["act", "--spec", write_config(tmp_path, dict(DEMO, m=m)),
                    "--matrix", json.dumps([[[0, 1], [0, 0]], [[0, 0], [0, 1]]]),
                    "--point", json.dumps([[1, 0], [0, 0]])])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "act needs m <= MAX_NUMERIC_M = 2**53" in captured.err
        assert f"got m = {m}" in captured.err

    def test_n_beyond_the_float_layer_exit_two_at_once(self, tmp_path, monkeypatch, capsys):
        # rejected before the n x n identity C is built, 160 GB at n = 10^5
        monkeypatch.setattr(serialize, "spec_from_config", None)
        start = time.perf_counter()
        code = run(["act", "--spec", write_config(tmp_path, dict(DEMO, n=10**5)),
                    "--matrix", json.dumps([[[1, 0]]]), "--point", json.dumps([[1, 0]])])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: act needs n <= MAX_NUMERIC_N = "
                                       f"{cli.MAX_NUMERIC_N}")
        assert "got n = 100000" in captured.err

    @pytest.mark.parametrize("field", ["p", "q", "r"])
    def test_sigma_or_nr_beyond_the_floats_exit_two(self, tmp_path, capsys, field):
        code = run(["act", "--spec", write_config(tmp_path, dict(DEMO, **{field: 10**400})),
                    "--matrix", json.dumps([[[0, 1], [0, 0]], [[0, 0], [0, 1]]]),
                    "--point", json.dumps([[1, 0], [0, 0]])])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = "n*r" if field == "r" else "sigma = A/m"
        assert captured.err == (f"error: {name} is past the floats: its modulus must be "
                                "below 2**1024, about 1.8e308\n")

    @pytest.mark.parametrize("scale", [2.0**600, 1e-300, 1e-320])
    def test_scale_of_C_does_not_matter(self, tmp_path, capsys, scale):
        # C and scale * C define one action, and the formula holds C at unit
        # scale, so C^{-1} z stays within the floats; a power of two is exact
        outputs = []
        for s in (1.0, scale):
            C = [[[s * (i == j), 0.0] for j in range(2)] for i in range(2)]
            assert run(["act", "--spec", write_config(tmp_path, dict(DEMO, C=C)),
                        "--matrix", json.dumps([[[0.6, 0], [0, 0.8]], [[0, 0.8], [0.6, 0]]]),
                        "--point", json.dumps([[1, 0.5], [-0.3, 2]])]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        if scale == 2.0**600:
            assert outputs[1] == outputs[0]
        for key in ("raw", "canonical"):
            assert np.allclose(outputs[1][key], outputs[0][key], rtol=1e-15, atol=0)

    def test_non_unitary_exit_two(self, tmp_path):
        code = run(["act", "--spec", write_config(tmp_path, DEMO),
                    "--matrix", json.dumps([[[2, 0], [0, 0]], [[0, 0], [2, 0]]]),
                    "--point", json.dumps([[1, 0], [0, 0]])])
        assert code == 2

    def test_nan_matrix_exit_two(self, tmp_path, capsys):
        # a NaN entry gives a NaN unitarity residual, which must not pass
        code = run(["act", "--spec", write_config(tmp_path, DEMO),
                    "--matrix", "[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]",
                    "--point", json.dumps([[1, 0], [0, 0]])])
        assert code == 2
        assert "matrix is not unitary" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,point", [
        # diag(i, i) has t = pi/2, so the power is (1e12)^30, beyond a float
        (dict(DEMO, d=[1e12, 0], r=60), [[1, 0], [0, 0]]),
        (DEMO, [["NaN", 0], [0, 0]]),
    ])
    def test_non_finite_point_exit_two(self, tmp_path, capsys, cfg, point):
        code = run(["act", "--spec", write_config(tmp_path, cfg),
                    "--matrix", json.dumps([[[0, 1], [0, 0]], [[0, 0], [0, 1]]]),
                    "--point", json.dumps(point).replace('"NaN"', "NaN")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "orbit representative must be finite" in captured.err

    def test_config_format_exit_two(self, tmp_path, capsys):
        code = run(["act", "--spec", write_config(tmp_path, dict(DEMO, format="csv")),
                    "--matrix", json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
                    "--point", json.dumps([[1, 0], [0, 0]])])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "act has no output format; remove the config field 'format'" in captured.err

    @pytest.mark.parametrize("matrix,point,message", [
        ("7", "[[1, 0], [0, 0]]", "--matrix must be a list of rows of [re, im] pairs, got 7"),
        ("[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]", "5",
         "point must be a list of [re, im] pairs, got 5"),
    ])
    def test_non_list_matrix_or_point_exit_two(self, tmp_path, capsys, matrix, point,
                                               message):
        code = run(["act", "--spec", write_config(tmp_path, DEMO),
                    "--matrix", matrix, "--point", point])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("matrix,point", [
        ('[[[1, 0], [0, 0]], [[0, 0], ["1", 0]]]', "[[1, 0], [0, 0]]"),
        ("[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]", '[["1", "0"], [true, 0]]'),
    ])
    def test_non_number_pair_part_exit_two(self, tmp_path, capsys, matrix, point):
        code = run(["act", "--spec", write_config(tmp_path, DEMO),
                    "--matrix", matrix, "--point", point])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected an [re, im] pair of numbers" in captured.err

    def test_matrix_from_file(self, tmp_path, capsys):
        mpath = tmp_path / "matrix.json"
        mpath.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]))
        code = run(["act", "--spec", write_config(tmp_path, DEMO),
                    "--matrix", str(mpath), "--point", json.dumps([[0, 1], [0, 0]])])
        assert code == 0


class TestVerify:
    def test_demo_passes(self, tmp_path, capsys):
        code = run(["verify", "--spec", write_config(tmp_path, DEMO),
                    "--trials", "20"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True

    def test_corrupted_d_pow_exit_three(self, tmp_path, monkeypatch, capsys):
        def wrong_branch(d, mu, branch=0):
            return d_pow(d, mu, branch=0)

        monkeypatch.setattr(hopfact.action, "d_pow", wrong_branch)
        cfg = dict(DEMO, d=[1, 2], p=1, r=2)
        code = run(["verify", "--spec", write_config(tmp_path, cfg),
                    "--trials", "10"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert "power_branch" in failed

    @pytest.mark.parametrize("cfg,flags", [
        ({"n": 6, "m": 1, "p": 0, "q": 0, "r": 48, "d": [0.5, 0]}, ["--trials", "8"]),
        ({"n": 3, "m": 2, "p": 1, "q": 0, "r": 5, "d": [1e12, 0]}, []),
    ])
    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_unrepresentable_power_fails_the_check(self, tmp_path, capsys, cfg, flags, kind):
        # the 2*pi*ell re-splittings of well_definedness need |d|^(n*r*ell)
        # beyond a float; that check fails with no residual, the rest run
        def reject(token):
            raise ValueError(f"non-finite JSON number {token}")

        code = run(["verify", "--spec", write_config(tmp_path, dict(cfg, kind=kind))]
                   + flags)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        report = json.loads(captured.out, parse_constant=reject)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["well_definedness"]["max_residual"] is None
        assert checks["well_definedness"]["pass"] is False
        assert [name for name, c in checks.items() if not c["pass"]] == ["well_definedness"]

    def test_settings_reach_the_report_unchanged(self, tmp_path, capsys):
        cfg = dict(DEMO, trials=3, seed=5, tol=1e-7)
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["seed"], report["tol"]) == (5, 1e-7)
        group_law = next(c for c in report["checks"] if c["name"] == "group_law")
        assert group_law["trials"] == 3

    @pytest.mark.parametrize("field,value,message", [
        ("trials", 0, "trials must be >= 1"),
        ("trials", -2, "trials must be >= 1"),
        ("trials", 2.9, "trials must be an integer"),
        ("trials", 2.0, "trials must be an integer"),
        ("trials", True, "trials must be an integer"),
        ("trials", "5", "trials must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", False, "seed must be an integer"),
        ("seed", -1, "seed must be >= 0"),
        ("tol", "nan", "tol must be a finite positive number"),
        ("tol", "1e-8", "tol must be a finite positive number"),
        ("tol", float("nan"), "tol must be a finite positive number"),
        ("tol", float("inf"), "tol must be a finite positive number"),
        ("tol", -1, "tol must be a finite positive number"),
        ("tol", 0, "tol must be a finite positive number"),
        ("tol", True, "tol must be a finite positive number"),
        ("tol", None, "tol must be a finite positive number"),
    ])
    def test_bad_setting_exit_two(self, tmp_path, capsys, field, value, message):
        cfg = dict(DEMO, **{field: value})
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--seed", "-1"),
                                            ("--tol", "nan"), ("--tol", "-1e-8")])
    def test_bad_setting_flag_exit_two(self, tmp_path, capsys, flag, value):
        assert run(["verify", "--spec", write_config(tmp_path, DEMO),
                    f"{flag}={value}"]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_tol_as_a_separate_token(self, tmp_path, capsys):
        # argparse alone reads "-1e-8" as a flag and reports a missing value
        spec = write_config(tmp_path, DEMO)
        assert run(["verify", "--spec", spec, "--tol=-1e-8"]) == 2
        joined = capsys.readouterr()
        assert run(["verify", "--spec", spec, "--tol", "-1e-8"]) == 2
        assert capsys.readouterr() == joined
        assert "tol must be a finite positive number, got -1e-08" in joined.err

    def test_config_format_exit_two(self, tmp_path, capsys):
        assert run(["verify", "--spec", write_config(tmp_path, dict(DEMO, format="csv"))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verify has no output format; remove the config field 'format'" in captured.err

    def test_internal_error_exit_four(self, tmp_path, monkeypatch, capsys):
        # exit 1 means "not effective", so an unexpected exception must not use it
        def broken(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(hopfact.oracle, "verify_transitivity", broken)
        assert run(["verify", "--spec", write_config(tmp_path, DEMO)]) == cli.EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        first, rest = captured.err.split("\n", 1)
        assert first == "internal error: RuntimeError: injected fault"
        assert rest.startswith("Traceback (most recent call last):")

    @pytest.mark.parametrize("fault", [False, True])
    def test_no_draw_outlives_the_command(self, tmp_path, monkeypatch, capsys, fault):
        # the oracle keeps no state: after a run of two n with two m each, or
        # a fault in the second stack's transitivity check, its globals are
        # as before
        calls = []
        real = hopfact.oracle.verify_transitivity

        def transitivity(*args, **kwargs):
            calls.append(len(args[0]))
            if fault and len(calls) == 2:
                raise RuntimeError("injected fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(hopfact.oracle, "verify_transitivity", transitivity)
        before = dict(vars(hopfact.oracle))
        cfg = {"d": [4, 0], "ranges": dict(self.GRID["ranges"], n_list=[2, 3], m_list=[1, 2])}
        code = run(["verify", "--spec", write_config(tmp_path, cfg), "--trials", "5"])
        assert code == (4 if fault else 0)
        assert calls == [8, 8]              # one stack of eight specs per (d, n)
        assert vars(hopfact.oracle) == before
        assert not [name for name, value in before.items() if hasattr(value, "cache_info")]

    # verify configs, each with a piece of text its output must hold
    WRITTEN = {
        "null residual": (dict(DEMO, n=3, m=2, p=1, r=5, d=[1e12, 0], trials=4),
                          '"max_residual": null'),
        "integer tol": (dict(DEMO, tol=1, trials=3), '\n  "tol": 1,\n'),
        "negative zero in d": (dict(DEMO, d=[-0.0, -3.0], trials=3), "      -0.0,\n"),
        "seed near 2**63": (dict(DEMO, seed=2**63 - 1, trials=3), f'"seed": {2**63 - 1},'),
        "dimtwo": (dict(DEMO, kind="type2", m=3, p=1, d=[1, 2], trials=5),
                   '"name": "dimtwo"'),
        "grid": ({"d": [0.5, -0.0], "trials": 3, "seed": 2**63 + 3, "tol": 2,
                  "ranges": {"n_list": [3, 2], "m_list": [1, 2, 3], "p_min": 0, "p_max": 1,
                             "q_min": 0, "q_max": 0, "r_min": -1, "r_max": 1}},
                 '[\n  {\n    "spec": {\n      "kind": "type1",'),
    }

    @staticmethod
    def report_dicts(stack, seed, tol, checks):
        """The report of each spec of the stack as a dict, built from
        run_suite's (Checked, positions) pairs."""
        d = stack.params.d
        reports = [{"spec": {"kind": kind.value, "p": p, "q": q, "r": r, "n": stack.params.n,
                             "m": m, "d": [d.real, d.imag]},
                    "seed": seed, "tol": tol, "checks": []}
                   for kind, p, q, r, m in zip(stack.kind, stack.p, stack.q, stack.r, stack.m)]
        for checked, at in checks:
            for i, w, ok in zip(range(len(stack)) if at is None else at.tolist(),
                                checked.residual.tolist(), checked.passed.tolist()):
                reports[i]["checks"].append({"name": checked.name, "trials": checked.trials,
                                             "max_residual": None if w != w else w, "pass": ok})
        for report in reports:
            report["all_passed"] = all(check["pass"] for check in report["checks"])
        return reports

    @classmethod
    def library_reports(cls, cfg):
        """The reports of a verify config as dicts, from run_suite on one
        stack per n, in the CLI's order."""
        if "ranges" in cfg:
            g = cfg["ranges"]
            specs = [serialize.spec_from_config({"d": cfg["d"], "n": n, "m": m, "kind": kind,
                                                 "p": p, "q": q, "r": r})
                     for n in sorted(g["n_list"]) for m in sorted(g["m_list"])
                     for kind in ("type1", "type2")
                     for p in range(g["p_min"], g["p_max"] + 1)
                     for q in range(g["q_min"], g["q_max"] + 1)
                     for r in range(g["r_min"], g["r_max"] + 1) if r]
        else:
            specs = [serialize.spec_from_config(cfg)]
        trials, seed, tol = cfg.get("trials", 200), cfg.get("seed", 0), cfg.get("tol", 1e-8)
        reports = []
        for _, run in itertools.groupby(specs, key=lambda spec: spec.params.n):
            stack = SpecStack.of(run)
            reports += cls.report_dicts(stack, seed, tol, run_suite(stack, trials, seed, tol))
        return reports

    @pytest.mark.parametrize("case", WRITTEN)
    def test_reports_written_as_json_dumps(self, tmp_path, capsys, case):
        # the reports' templates give the bytes of json.dumps(payload, indent=2)
        # of the reports built as dicts from the checks' arrays on the same
        # specs: one spec as an object, a grid as a list
        cfg, piece = self.WRITTEN[case]
        code = run(["verify", "--spec", write_config(tmp_path, cfg)])
        assert code == (3 if case == "null residual" else 0)
        payload = self.library_reports(cfg)
        out = capsys.readouterr().out
        assert out == json.dumps(payload if "ranges" in cfg else payload[0], indent=2) + "\n"
        assert piece in out
        assert out.startswith("[" if "ranges" in cfg else '{\n  "spec"')
        if "ranges" not in cfg:
            # the library's one-spec report is the CLI's: run_suite on the
            # spec's one-row stack, written by report_texts
            trials, seed, tol = cfg.get("trials", 200), cfg.get("seed", 0), cfg.get("tol", 1e-8)
            stack = SpecStack.of([serialize.spec_from_config(cfg)])
            texts = report_texts(stack, seed, tol, run_suite(stack, trials, seed, tol))
            assert texts == [out.removesuffix("\n")]

    def test_report_template_takes_any_float(self):
        # float.__repr__ is json's float text: subnormal, huge and signed values
        checks = [("group_law", 2**70, 5e-324, True),
                  ("transitivity", 1, 1.7976931348623157e308, False),
                  ("power_branch", 7, -0.0, True),
                  ("dimtwo", 3, math.nan, False),
                  ("kernel_scan_agreement", 10, 1e16, False)]
        stack = SpecStack.of([ActionSpec(ActionKind.TYPE2, -10**30, 0, -7, np.eye(2),
                                         HopfParams(d=complex(1e-300, -2.5e300), n=2, m=2**53))])
        columns = [(Checked(name, trials, np.array([w]), np.array([ok])), None)
                   for name, trials, w, ok in checks]
        for tol in (1e-8, 3, 0.1 + 0.2):
            report, = self.report_dicts(stack, 0, tol, columns)
            assert report["spec"] == {"kind": "type2", "p": -10**30, "q": 0, "r": -7, "n": 2,
                                      "m": 2**53, "d": [1e-300, -2.5e300]}
            assert report["checks"][3]["max_residual"] is None
            text = json.dumps(report, indent=2)
            assert report_texts(stack, 0, tol, columns) == [text]
            assert report_texts(stack, 0, tol, columns, "  ") == [text.replace("\n", "\n  ")]

    def test_a_grid_evaluates_each_formula_row_once(self, tmp_path, monkeypatch, capsys):
        # the verify_range grid of the benchmark: q = 0, so sigma = eps + n*p
        # does not read m, and the 96 specs of each n (m = 3 and 6) are 48
        # formula rows.  Each check evaluates the formula and _transport on
        # each row once a trial chunk: the group law three times, well-
        # definedness twice, transitivity's transport once, the power branch
        # five times (once a branch, in one call, the branch L = 0 being the
        # standard evaluation), and dimtwo twice on the 24 Type2 rows of
        # n = 2; the kernel probe acts each row once, with its probes on one
        # axis
        calls = []

        def check(func):
            def run(stack, *args, **kwargs):
                calls.append((func.__name__, stack.params.n, len(stack), []))
                return func(stack, *args, **kwargs)
            return run

        def sized(func):
            def run(rows, *args, **kwargs):
                calls[-1][3].append(len(rows))
                return func(rows, *args, **kwargs)
            return run

        for name in ("verify_group_law", "verify_well_definedness", "verify_transitivity",
                     "verify_power_branch", "verify_dimtwo", "kernel_scan_agrees"):
            monkeypatch.setattr(hopfact.oracle, name, check(getattr(hopfact.oracle, name)))
        for name in ("evaluate_formula", "_transport"):
            monkeypatch.setattr(hopfact.oracle, name, sized(getattr(hopfact.oracle, name)))
        cfg = {"d": [0.5, 0.0], "trials": 10, "seed": 205502,
               "ranges": {"n_list": [2, 3], "m_list": [3, 6], "p_min": 0, "p_max": 1,
                          "q_min": 0, "q_max": 0, "r_min": -6, "r_max": 6}}
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 0
        rows = {(name, n, specs): sum(sizes) for name, n, specs, sizes in calls}
        assert rows == {(name, n, specs): per_row * count
                        for n in (2, 3)
                        for name, specs, per_row, count in [
                            ("verify_group_law", 96, 3, 48),
                            ("verify_well_definedness", 96, 2, 48),
                            ("verify_transitivity", 96, 1, 48),
                            ("verify_power_branch", 96, 5, 48),
                            ("verify_dimtwo", 48, 2, 24),
                            ("kernel_scan_agrees", 96, 1, 48)]
                        if name != "verify_dimtwo" or n == 2}

    def test_ranges_output_pinned(self, tmp_path, capsys):
        # stdout of the CLI once each check drew its unitaries and its
        # sample points from two counter-addressed streams, by trial index,
        # and the transport became the SU(2) turn of the plane of x and y
        # (numpy 2.4, OpenBLAS): later changes to how the draws are chunked
        # or shared must not move a residual bit
        cfg = {"d": [0.5, 0.3], "trials": 10, "seed": 7,
               "ranges": {"n_list": [2, 3], "m_list": [3], "p_min": 0, "p_max": 0,
                          "q_min": 0, "q_max": 0, "r_min": -2, "r_max": 2}}
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 0
        with open(os.path.join(HERE, "verify_ranges_pinned.json"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()
        # every spec above has a row of its own.  Here q = 0, so the specs
        # of m = 3 and 6 share their formula rows: 256 specs on 128 rows,
        # with 2 to 5 kernel probes a row.  The sha256 of stdout while each
        # row's probes were acted per (row, probe) pair and each check
        # re-gathered its per-row residuals at the end, re-taken with the
        # plane-rotation transport and again with the points drawn by index
        cfg = {"d": [0.5, 0.3], "trials": 4, "seed": 7,
               "ranges": {"n_list": [2, 3], "m_list": [3, 6], "p_min": 0, "p_max": 1,
                          "q_min": 0, "q_max": 0, "r_min": -8, "r_max": 8}}
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)) == 256
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "52dc25b616c3fa6da3d5ab7dc0f88773b11f470fd8b636b28343019a26e44dd1"

    def test_scan_beyond_the_float_range_is_quiet(self, tmp_path, capsys):
        # d^(n*r*t/2pi) overflows in the kernel scan; the exit code is not
        # asserted, since well_definedness still fails on this valid spec
        cfg = dict(DEMO, d=[1e12, 0], r=48)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(["verify", "--spec", write_config(tmp_path, cfg), "--trials", "4"])
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def _no_check_runs(self, monkeypatch):
        # a check or the probe that ran would exit 4
        for name in ("verify_group_law", "verify_well_definedness", "verify_transitivity",
                     "verify_power_branch", "verify_dimtwo", "kernel_scan_agrees"):
            monkeypatch.setattr(hopfact.oracle, name, None)

    @pytest.mark.parametrize("r", [hopfact.oracle.MAX_PROBE_ORDER // 2 + 1, 10**12, 10**400])
    def test_order_beyond_the_scan_exit_two_at_once(self, tmp_path, monkeypatch, capsys, r):
        # n*|r|*m = 2r is more than the kernel probe tells apart; the bound
        # is checked first, so r = 10^400 is rejected before a check can
        # overflow on it
        self._no_check_runs(monkeypatch)
        start = time.perf_counter()
        code = run(["verify", "--spec", write_config(tmp_path, dict(DEMO, r=r))])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"n*|r|*m = {2 * r} exceeds MAX_PROBE_ORDER = 628318530" in captured.err

    LARGE_M = {"n": 3, "d": [4, 0], "kind": "type1", "p": 0, "q": 0, "r": 3, "trials": 20}

    def test_large_m_costs_no_more(self, tmp_path, capsys):
        # each orbit distance compares 3 deck candidates whatever m is, so
        # m = 10^6 takes the time and memory of a small m: a few chunks
        path = write_config(tmp_path, dict(self.LARGE_M, m=10**6))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = run(["verify", "--spec", path])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert elapsed < 2.0
        assert peak < 4 * hopfact.oracle._CHUNK_BYTES

    def test_m_beyond_the_probe_exit_two_at_once(self, tmp_path, monkeypatch, capsys):
        # m = 2^53 is a float-exact m, but n*|r|*m is past the probe's bound
        self._no_check_runs(monkeypatch)
        start = time.perf_counter()
        code = run(["verify", "--spec", write_config(tmp_path, dict(self.LARGE_M, m=2**53))])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"n*|r|*m = {9 * 2**53} exceeds MAX_PROBE_ORDER = 628318530" in captured.err

    GRID = {"d": [4, 0],
            "ranges": {"n_list": [2], "m_list": [1], "p_min": 0, "p_max": 0,
                       "q_min": 0, "q_max": 0, "r_min": 1, "r_max": 2}}

    @pytest.mark.parametrize("size,message", [
        (2, f"n*|r|*m = {2 * 2**54} exceeds MAX_PROBE_ORDER = 628318530"),
        (3, "C has dimension 3, manifold has n = 2"),
    ])
    def test_grid_errors_keep_their_order(self, tmp_path, monkeypatch, capsys, size, message):
        # one spec checks d and C for each n, and each m is checked on its
        # own, in the grid's order (n, then m): with a 2 x 2 C the m beyond
        # the kernel probe on n = 2 comes before the C that n = 3 rejects,
        # and a 3 x 3 C is rejected on n = 2 before any m
        monkeypatch.setattr(hopfact.oracle, "run_suite", None)
        identity = [[[float(i == j), 0.0] for j in range(size)] for i in range(size)]
        cfg = {"d": [4, 0], "C": identity,
               "ranges": dict(self.GRID["ranges"], n_list=[3, 2], m_list=[2**54, 1])}
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)

    @pytest.mark.parametrize("m", [2**53 + 1, 10**400])
    @pytest.mark.parametrize("grid", [False, True])
    def test_m_beyond_the_floats_exit_two(self, tmp_path, monkeypatch, capsys, m, grid):
        # every spec is checked before any is verified: the verification
        # would exit 4 if it were called.  The kernel probe's bound on
        # n*|r|*m is the one bound on m; with n = 2 and r = 1 it is reached
        # long before 2**53
        monkeypatch.setattr(hopfact.oracle, "run_suite", None)
        cfg = ({"d": [4, 0], "ranges": dict(self.GRID["ranges"], m_list=[1, m])} if grid
               else dict(DEMO, m=m))
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"n*|r|*m = {2 * m} exceeds MAX_PROBE_ORDER = 628318530" in captured.err

    @pytest.mark.parametrize("grid", [False, True])
    def test_n_beyond_the_float_layer_exit_two_at_once(self, tmp_path, monkeypatch, capsys,
                                                         grid):
        # rejected before the n x n identity C is built, 160 GB at n = 10^5;
        # in a grid, after the smaller n's spec, which is built as before
        monkeypatch.setattr(hopfact.oracle, "run_suite", None)
        cfg = ({"d": [4, 0], "ranges": dict(self.GRID["ranges"], n_list=[10**5, 2])} if grid
               else dict(DEMO, n=10**5))
        start = time.perf_counter()
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: verify needs n <= MAX_NUMERIC_N = "
                                       f"{cli.MAX_NUMERIC_N}")
        assert "got n = 100000" in captured.err

    def test_n_at_the_float_layer_bound_passes_the_settings(self, tmp_path, monkeypatch,
                                                           capsys):
        # n = MAX_NUMERIC_N is admitted: the checks, taken away here, would
        # then run and fail with exit 4
        monkeypatch.setattr(hopfact.oracle, "run_suite", None)
        cfg = dict(DEMO, n=cli.MAX_NUMERIC_N)
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 4
        assert "internal error: TypeError" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,points", [
        (dict(DEMO, trials=10**12), 2 * 10**12),
        (dict(DEMO, trials=cli.MAX_TRIAL_POINTS // 2 + 1), cli.MAX_TRIAL_POINTS + 2),
        ({"d": [4, 0], "trials": cli.MAX_TRIAL_POINTS // 3 + 1,
          "ranges": dict(GRID["ranges"], n_list=[3, 2])}, 3 * (cli.MAX_TRIAL_POINTS // 3 + 1)),
    ])
    def test_trials_beyond_the_points_exit_two(self, tmp_path, monkeypatch, capsys, cfg,
                                               points):
        # trials*n, with the largest n of a grid, caps the sample points a
        # check draws, chunk by chunk; it is bounded before any is drawn
        self._no_check_runs(monkeypatch)
        monkeypatch.setattr(hopfact.oracle, "sample_points", None)
        start = time.perf_counter()
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: trials*n = {points} exceeds MAX_TRIAL_POINTS = "
                                f"{cli.MAX_TRIAL_POINTS}, the cap on the sample points a "
                                f"verify check draws, chunk by chunk\n")

    def test_trials_at_the_points_bound_pass_the_settings(self, tmp_path, monkeypatch, capsys):
        # trials*n = MAX_TRIAL_POINTS is admitted: the checks, taken away
        # here, would then run and fail with exit 4
        self._no_check_runs(monkeypatch)
        cfg = dict(DEMO, trials=cli.MAX_TRIAL_POINTS // 2)
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 4
        assert "internal error: TypeError" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("n", 7), ("m", 1), ("kind", "bogus"), ("p", 0), ("q", 0), ("r", 1),
    ])
    def test_spec_field_next_to_ranges_exit_two(self, tmp_path, capsys, field, value):
        cfg = dict(self.GRID, **{field: value})
        assert run(["verify", "--spec", write_config(tmp_path, cfg), "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"the grid of 'ranges' sets {field}; remove the config field {field!r}"
                in captured.err)

    @pytest.mark.parametrize("cfg", [
        dict(DEMO, p=10**400), dict(DEMO, q=10**400),
        dict(GRID, ranges=dict(GRID["ranges"], p_min=10**400, p_max=10**400)),
    ])
    def test_sigma_beyond_the_floats_exit_two(self, tmp_path, capsys, cfg):
        assert run(["verify", "--spec", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: sigma = A/m is past the floats: its modulus must be "
                                "below 2**1024, about 1.8e308\n")

    SCALED = {"n": 3, "m": 2, "d": [2, 0], "kind": "type2", "p": 1, "q": 0, "r": 1, "trials": 5}

    @pytest.mark.parametrize("scale", [2.0**600, 1e-300, 1e-320])
    def test_scale_of_C_does_not_matter(self, tmp_path, capsys, scale):
        # C and scale * C define one action: every check passes, and a power
        # of two gives the bytes of the identity
        outputs = []
        for s in (1.0, scale):
            C = [[[s * (i == j), 0.0] for j in range(3)] for i in range(3)]
            assert run(["verify", "--spec", write_config(tmp_path, dict(self.SCALED, C=C))]) == 0
            outputs.append(capsys.readouterr().out)
        if scale == 2.0**600:
            assert outputs[1] == outputs[0]

    def test_grid_config(self, tmp_path, capsys):
        cfg = self.GRID
        code = run(["verify", "--spec", write_config(tmp_path, cfg),
                    "--trials", "5"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 4

    def test_smallest_grid_prints_a_list(self, tmp_path, capsys):
        # one value per field still gives one spec of each kind
        cfg = {"d": [4, 0],
               "ranges": {"n_list": [2], "m_list": [1], "p_min": 0, "p_max": 0,
                          "q_min": 0, "q_max": 0, "r_min": 1, "r_max": 1}}
        assert run(["verify", "--spec", write_config(tmp_path, cfg), "--trials", "3"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["spec"]["kind"] for r in reports] == ["type1", "type2"]


class TestFlags:
    @pytest.mark.parametrize("command,flags", [
        ("check", ["--format", "csv"]),
        ("check", ["--trials", "5"]),
        ("check", ["--seed", "1"]),
        ("check", ["--tol", "1e-6"]),
        ("enumerate", ["--format", "xml"]),
        ("enumerate", ["--trials", "5"]),
        ("enumerate", ["--seed", "1"]),
        ("enumerate", ["--tol", "1e-6"]),
        ("act", ["--format", "json"]),
        ("act", ["--trials", "5"]),
        ("verify", ["--format", "json"]),
    ])
    def test_flag_a_subcommand_does_not_honour_exit_two(self, tmp_path, capsys,
                                                        command, flags):
        extra = ["--matrix", json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
                 "--point", json.dumps([[1, 0], [0, 0]])] if command == "act" else []
        with pytest.raises(SystemExit) as exc:
            run([command, "--spec", write_config(tmp_path, DEMO)] + extra + flags)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err or "invalid choice" in captured.err

    @pytest.mark.parametrize("command,cfg,message", [
        ("check", dict(DEMO, format="csv"),
         "check format must be one of json, text, got 'csv'"),
        ("check", dict(DEMO, format=None),
         "check format must be one of json, text, got None"),
        ("enumerate", dict(TestEnumerate.CONFIG, format="xml"),
         "enumerate format must be one of csv, json, text, got 'xml'"),
        ("enumerate", dict(TestEnumerate.CONFIG, format=["csv"]),
         "enumerate format must be one of csv, json, text, got ['csv']"),
    ])
    def test_config_format_outside_the_set_exit_two(self, tmp_path, capsys,
                                                    command, cfg, message):
        assert run([command, "--spec", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_parser_kept_across_calls(self, tmp_path, capsys, monkeypatch):
        # main builds its parser once a process: consecutive calls in one
        # process (check, a bad flag that exits 2, enumerate) give the
        # output and exit code of fresh calls
        argvs = [["check", "--spec", write_config(tmp_path, DEMO)],
                 ["verify", "--spec", write_config(tmp_path, DEMO), "--trails", "3"],
                 ["enumerate", "--spec", write_config(tmp_path, TestEnumerate.PINNED, "g.json")]]
        here = []
        for argv in argvs:
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            here.append([code, captured.out, captured.err])
        assert [outcome[0] for outcome in here] == [0, 2, 0]
        parser = cli._parser
        for argv, outcome in zip(argvs, here):
            fresh = run_fresh(
                "import contextlib, io, json\nfrom hopfact import cli\n"
                "out, err = io.StringIO(), io.StringIO()\n"
                "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
                f"    try:\n        code = cli.main({argv!r})\n"
                "    except SystemExit as exc:\n        code = exc.code\n"
                "print(json.dumps([code, out.getvalue(), err.getvalue()]))")
            assert json.loads(fresh) == outcome, argv
        # the kept parser names the subcommand, and the function that the
        # module binds to its name at the call runs it
        monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
        assert run(argvs[0]) == 7
        assert cli._parser is parser


class TestUnknownField:
    @pytest.mark.parametrize("command,cfg", [
        ("check", DEMO), ("enumerate", TestEnumerate.CONFIG), ("act", DEMO),
        ("verify", DEMO), ("verify", TestVerify.GRID),
    ])
    def test_misspelt_key_exit_two(self, tmp_path, capsys, command, cfg):
        extra = ["--matrix", "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]",
                 "--point", "[[1, 0], [0, 0]]"] if command == "act" else []
        code = run([command, "--spec", write_config(tmp_path, dict(cfg, trails=3))] + extra)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown config field 'trails'" in captured.err


    ACT_FLAGS = ["--matrix", "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]",
                 "--point", "[[1, 0], [0, 0]]"]
    CHECK_ONLY = [("ranges", TestEnumerate.CONFIG["ranges"]), ("trials", 3), ("seed", 4),
                  ("tol", 1e-6)]

    @pytest.mark.parametrize("key,value", CHECK_ONLY)
    def test_check_rejects_fields_it_does_not_read(self, tmp_path, capsys, key, value):
        code = run(["check", "--spec", write_config(tmp_path, dict(DEMO, **{key: value}))])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"check does not read the config field {key!r}" in captured.err

    @pytest.mark.parametrize("key,value", CHECK_ONLY)
    def test_act_rejects_fields_it_does_not_read(self, tmp_path, capsys, key, value):
        code = run(["act", "--spec", write_config(tmp_path, dict(DEMO, **{key: value}))]
                   + self.ACT_FLAGS)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"act does not read the config field {key!r}" in captured.err

    @pytest.mark.parametrize("key,value", [
        ("d", [4, 0]), ("C", [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]), ("trials", 3),
        ("seed", 4), ("tol", 1e-6),
    ])
    def test_enumerate_rejects_fields_it_does_not_read(self, tmp_path, capsys, key, value):
        cfg = dict(TestEnumerate.CONFIG, **{key: value})
        assert run(["enumerate", "--spec", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"enumerate does not read the config field {key!r}" in captured.err


class TestRaggedMatrix:
    RAGGED = [[[1, 0], [0, 0]], [[0, 0]]]

    def test_ragged_C_exit_two(self, tmp_path, capsys):
        assert run(["check", "--spec", write_config(tmp_path, dict(DEMO, C=self.RAGGED))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "C must have rows of equal length, got rows of 2, 1 entries" in captured.err

    def test_ragged_matrix_exit_two(self, tmp_path, capsys):
        code = run(["act", "--spec", write_config(tmp_path, DEMO),
                    "--matrix", json.dumps(self.RAGGED), "--point", "[[1, 0], [0, 0]]"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--matrix must have rows of equal length" in captured.err

    @pytest.mark.parametrize("name", ["C", "--matrix"])
    def test_matrix_from_json_names_the_field(self, name):
        with pytest.raises(ValueError, match=f"^{name} must have rows of equal length"):
            serialize.matrix_from_json([[[1, 0]], [], [[0, 0], [1, 0]]], name)


def json_values(integers):
    """Any JSON value, to put where a config field should be."""
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=10)


JSON_VALUES = json_values(st.integers())
# Integers that keep an enumeration grid small whichever field they land in.
WINDOW = st.integers(-50, 50)
FINITE = st.floats(-8, 8)


def mutate(draw, doc, keys, values=JSON_VALUES, most=3):
    """Up to ``most`` of the ``keys`` of ``doc`` dropped, replaced by any JSON
    value, wrapped in a list or cut short."""
    for key in draw(st.lists(st.sampled_from(keys), max_size=most, unique=True)):
        how = draw(st.sampled_from(["drop", "any", "wrap", "cut"]))
        if how == "drop":
            doc.pop(key, None)
        elif how == "any":
            doc[key] = draw(values)
        elif how == "wrap":
            doc[key] = [doc.get(key)]
        elif isinstance(doc.get(key), list):
            doc[key] = doc[key][:-1]


def spec_config(draw):
    n = draw(st.integers(2, 4))
    config = {"n": n, "m": draw(st.integers(1, 6)),
              "kind": draw(st.sampled_from(["type1", "type2"])),
              "p": draw(st.integers(-3, 3)), "q": draw(st.integers(-3, 3)),
              "r": draw(st.integers(-10**6, 10**6).filter(bool)),
              "d": [draw(FINITE), draw(FINITE)]}
    if draw(st.booleans()):
        config["C"] = [[[draw(FINITE), draw(FINITE)] for _ in range(n)] for _ in range(n)]
    return config


@st.composite
def check_configs(draw):
    """A well-formed `check` config, then up to three of its fields mutated."""
    config = spec_config(draw)
    mutate(draw, config, ["n", "m", "kind", "p", "q", "r", "d", "C", "format", "trails",
                          "trials"])
    return config


@st.composite
def act_inputs(draw):
    """A well-formed `act` config, unitary and point, then up to three of the
    config's fields and up to two of the matrix and point mutated."""
    config = spec_config(draw)
    n = config["n"]
    flags = {"matrix": serialize.matrix_to_json(random_unitary(n, draw(st.integers(0, 99)))),
             "point": [[draw(FINITE), draw(FINITE)] for _ in range(n)]}
    mutate(draw, config, ["n", "m", "kind", "p", "q", "r", "d", "C", "format", "ranges",
                          "seed"])
    mutate(draw, flags, ["matrix", "point"])
    return config, flags


@st.composite
def enumerate_configs(draw):
    """A well-formed `enumerate` config with every integer in -50..50 and
    spans of at most 4, then up to two of its fields and one field of its
    ranges mutated, to integers in -50..50 as well."""
    ranges = {"n_list": draw(st.lists(WINDOW, min_size=1, max_size=3)),
              "m_list": draw(st.lists(WINDOW, min_size=1, max_size=3))}
    for name in "pqr":
        low = draw(WINDOW)
        ranges[f"{name}_min"], ranges[f"{name}_max"] = low, low + draw(st.integers(-1, 3))
    config = {"ranges": ranges}
    if draw(st.booleans()):
        config["format"] = draw(st.sampled_from(ENUMERATE_FORMATS))
    values = json_values(WINDOW)
    mutate(draw, ranges, list(ranges), values, most=1)
    mutate(draw, config, ["ranges", "format", "n", "d", "trials", "trails"], values, most=2)
    return config


@st.composite
def wide_enumerate_configs(draw):
    """A well-formed `enumerate` config whose p, q and r windows start
    anywhere in -10^30..10^30 and hold at most 4 values each."""
    ranges = {"n_list": draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)),
              "m_list": draw(st.lists(st.integers(1, 12) | st.integers(1, 10**30),
                                      min_size=1, max_size=3))}
    for name in "pqr":
        # the scale first, evenly: a plain draw from -10^30..10^30 is mostly small
        scale = 10 ** draw(st.sampled_from(range(31)))
        low = draw(st.sampled_from([-1, 1])) * draw(st.integers(scale // 10, scale))
        ranges[f"{name}_min"], ranges[f"{name}_max"] = low, low + draw(st.integers(0, 3))
    return {"ranges": ranges, "format": "csv"}


@st.composite
def verify_configs(draw):
    """A well-formed `verify` config of one to three trials, then up to three
    of its fields, the settings included, mutated."""
    config = spec_config(draw)
    config.update(trials=draw(st.integers(1, 3)), seed=draw(st.integers(0, 10**6)),
                  tol=draw(st.floats(1e-12, 1e-4)))
    mutate(draw, config, ["n", "m", "kind", "p", "q", "r", "d", "C", "trials", "seed", "tol",
                          "format", "ranges", "trails"])
    return config


def run_quietly(argv, config):
    """``cli.main`` on a config file; returns its exit code, its stderr and the
    warnings raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([argv[0], "--spec", path] + argv[1:])
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(check_configs())
def test_check_never_fails_internally(config):
    # every config is answered (0, 1) or rejected (2); exit 4 is a fault
    code, err, caught = run_quietly(["check"], config)
    assert code in (0, 1, 2), err
    if code != 2:
        assert (err, caught) == ("", [])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(act_inputs())
def test_act_never_fails_internally(inputs):
    config, flags = inputs
    argv = ["act"] + [x for name in ("matrix", "point")
                      for x in (f"--{name}", json.dumps(flags[name]) if name in flags
                                else "no-such-file")]
    code, err, caught = run_quietly(argv, config)
    assert code in (0, 2), err
    if code == 0:
        assert (err, caught) == ("", [])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(enumerate_configs())
def test_enumerate_never_fails_internally(config):
    code, err, caught = run_quietly(["enumerate"], config)
    assert code in (0, 2), err
    if code == 0:
        assert (err, caught) == ("", [])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wide_enumerate_configs())
def test_enumerate_rows_equal_find_witness_on_wide_integers(config):
    # every row is its tuple and that tuple's find_witness, in grid order;
    # a window holding only r = 0 leaves no row and exits 2
    ranges = config["ranges"]
    keys = list(itertools.product(
        sorted(set(ranges["n_list"])), sorted(set(ranges["m_list"])), ActionKind,
        *(range(ranges[f"{x}_min"], ranges[f"{x}_max"] + 1) for x in "pq"),
        [r for r in range(ranges["r_min"], ranges["r_max"] + 1) if r]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["enumerate", "--spec", path])
    assert code == (0 if keys else 2)
    rows = out.getvalue().split("\r\n")
    assert rows[0] == ",".join(cli.FIELDS) if keys else rows == [""]
    want = []
    for n, m, kind, p, q, r in keys:
        w = find_witness(kind, n, m, p, q, r)
        want.append(f"{n},{m},{kind.value},{p},{q},{r},"
                    + ("true,," if w is None else f"false,{w.ell},{w.K}"))
    assert rows[1:-1] == want and rows[-1] == ""


@settings(derandomize=True, max_examples=300, deadline=None)
@given(verify_configs())
def test_verify_never_fails_internally(config):
    # every config is verified (0), rejected (2) or fails a check (3)
    code, err, caught = run_quietly(["verify"], config)
    assert code in (0, 2, 3), err
    if code != 2:
        assert (err, caught) == ("", [])


class TestSchemas:
    def test_vector_round_trip(self):
        v = np.array([1 + 2j, -0.5j])
        assert np.array_equal(serialize.vector_from_json(serialize.vector_to_json(v)), v)

    def test_matrix_round_trip(self):
        m = np.array([[1 + 2j, 0], [3, -1j]])
        assert np.array_equal(serialize.matrix_from_json(serialize.matrix_to_json(m)), m)

    def test_spec_round_trip_with_custom_C(self):
        cfg = dict(DEMO, C=[[[0, 1], [0, 0]], [[0, 0], [0, 1]]])
        spec = serialize.spec_from_config(cfg)
        assert np.array_equal(spec.C, np.diag([1j, 1j]))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            serialize.spec_from_config(dict(DEMO, kind="type3"))

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            serialize.pair_to_complex([1, 2, 3])


# The float layer: numpy and every hopfact module that imports it.
FLOAT_MODULES = ("numpy", "hopfact.oracle", "hopfact.action", "hopfact.hopf",
                 "hopfact.cmatrix", "hopfact.serialize")


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this hopfact; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLayering:
    """The exact layer and the CLI's start load no numpy; the float
    subcommands import it when they run."""

    def test_import_loads_no_float_module(self):
        out = run_fresh("import sys\nimport hopfact.cli\n"
                        f"print([m for m in {FLOAT_MODULES!r} if m in sys.modules])")
        assert out == "[]\n"

    def test_import_loads_neither_fractions_nor_traceback(self):
        # the witness's k is integer arithmetic, only exit 4 prints a
        # traceback, and the witness records are __slots__ classes, not
        # dataclasses (which import inspect)
        modules = ("fractions", "traceback", "dataclasses", "inspect")
        out = run_fresh("import sys\nimport hopfact.cli\n"
                        f"print([m for m in {modules!r} if m in sys.modules])")
        assert out == "[]\n"

    def test_package_resolves_its_modules_on_use(self):
        out = run_fresh("import sys\nimport hopfact\nprint('numpy' in sys.modules)\n"
                        "print(hopfact.oracle.__name__, 'numpy' in sys.modules)")
        assert out == "False\nhopfact.oracle True\n"

    @pytest.mark.parametrize("fmt", ENUMERATE_FORMATS)
    def test_enumerate_loads_no_numpy(self, tmp_path, fmt):
        spec = write_config(tmp_path, TestEnumerate.PINNED)
        fresh, here = tmp_path / "fresh.out", tmp_path / "here.out"
        argv = ["enumerate", "--spec", spec, "--format", fmt, "--out"]
        out = run_fresh("import sys\nfrom hopfact import cli\n"
                        f"code = cli.main({argv + [str(fresh)]!r})\n"
                        "print(code, 'numpy' in sys.modules)")
        assert out == "0 False\n"
        assert run(argv + [str(here)]) == 0
        assert fresh.read_bytes() == here.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["check"], ["check", "--format", "text"],
        ["act", "--matrix", json.dumps([[[0, 1], [0, 0]], [[0, 0], [0, 1]]]),
         "--point", json.dumps([[1, 0], [0, 0]])],
        ["verify", "--trials", "2"],
    ])
    def test_float_commands_answer_fresh(self, tmp_path, capsys, argv):
        argv = [argv[0], "--spec", write_config(tmp_path, DEMO)] + argv[1:]
        out = run_fresh(f"from hopfact import cli\nprint(cli.main({argv!r}))")
        assert run(argv) == 0
        assert out == capsys.readouterr().out + "0\n"
