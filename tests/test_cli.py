import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import boxball
from boxball import INF, sample_stationary_block, stbgeo, uniform
from boxball import blockio
from boxball.blockio import read_block_csv, write_block_csv
from boxball.carrier import CarrierPath
from boxball.cli import main
from boxball.errors import InvalidParams, Undetermined
from boxball.evolution import duality_verify, evolve_block
from boxball.lattice import Config, Detect, IidInvariant, SeededCarrier, ZeroPad
from boxball.measures import sample_pmf

from block_rows import block_from_rows


def run(argv):
    return main(argv)


def test_evolve_writes_csvs_and_conserves(tmp_path, capsys):
    out = tmp_path / "block.csv"
    code = run(["evolve", "--J", "3", "--K", "4", "--config", "1:2,1,0",
                "--steps", "5", "--boundary", "zero", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t" and rows[0][1] == "n1"
    sums = [sum(int(v) for v in r[1:]) for r in rows[1:]]
    assert len(set(sums)) == 1 and len(sums) == 6
    assert (tmp_path / "block.carrier.csv").exists()
    assert (tmp_path / "block.currents.csv").exists()


def test_evolve_j_equals_k_right_shifts(tmp_path):
    out = tmp_path / "b.csv"
    assert run(["evolve", "--J", "2", "--K", "2", "--config", "0:2,0,1",
                "--steps", "2", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    grid = [[int(v) for v in r[1:]] for r in rows[1:]]
    for t in range(2):
        assert grid[t + 1][1:] == grid[t][:-1]


def test_evolve_detect_floor_usage_error(tmp_path):
    code = run(["evolve", "--J", "2", "--K", "3", "--config", "0:1,1",
                "--boundary", "detect", "--floor", "1",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    # the floor band [r, J - r] holds the cells and [r, K - r] the loads
    argv = ["evolve", "--J", "3", "--K", "5", "--boundary", "detect", "--floor", "1",
            "--steps", "1", "--out", str(tmp_path / "b.csv"), "--config"]
    assert run(argv + ["0:1,1,1,1,1,1"]) == 0
    assert run(argv + ["0:1,1,0,1,1,1"]) == 3   # a cell below the floor
    assert run(argv[:-1] + ["--floor", "-1", "--config", "0:1,1,1"]) == 2
    # J < K = inf: the same band and floor checks, though no load is forced
    assert run(["evolve", "--J", "3", "--K", "inf", "--boundary", "detect", "--floor", "1",
                "--config", "0:0,3,0,3,1,0,0,2", "--out", str(tmp_path / "c.csv")]) == 3
    assert run(["dual", "--J", "1", "--K", "inf", "--boundary", "detect", "--floor", "3",
                "--config", "0:1,0,1,0,1,1,0,0"]) == 2


def test_evolve_undetermined_detect_is_domain_error(tmp_path):
    code = run(["evolve", "--J", "2", "--K", "4", "--config", "0:1,1,1,1",
                "--boundary", "detect", "--steps", "1",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_running_max_detect_is_domain_error(tmp_path, capsys):
    # J < K = inf: no Detect window forces the carrier, so no block is written
    out = tmp_path / "x.csv"
    window = ["--J", "1", "--K", "inf", "--config", "0:1,0,1,0,1,0,0,1", "--steps", "1"]
    for cmd in (["evolve", *window, "--out", str(out)], ["dual", *window]):
        assert run(cmd + ["--boundary", "detect"]) == 3
        assert "--carrier-seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert run(["evolve", *window, "--out", str(out), "--boundary", "zero"]) == 0
    assert capsys.readouterr().err == ""


def test_dual_round_trip_via_csv(tmp_path, capsys):
    out = tmp_path / "block.csv"
    assert run(["evolve", "--J", "1", "--K", "inf", "--config", "0:1,1,0,1,0",
                "--steps", "4", "--out", str(out)]) == 0
    code = run(["dual", "--J", "1", "--K", "inf", "--in", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "violations=0" in captured.out


def test_dual_detects_corrupted_file(tmp_path, capsys):
    out = tmp_path / "block.csv"
    run(["evolve", "--J", "1", "--K", "2", "--config", "0:1,0,1,1",
         "--steps", "3", "--out", str(out)])
    rows = list(csv.reader(open(out, newline="")))
    rows[2][2] = "1" if rows[2][2] == "0" else "0"
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code = run(["dual", "--J", "1", "--K", "2", "--in", str(out)])
    assert code == 3
    assert "violations=0" not in capsys.readouterr().out
    # an occupancy outside [0, J] is a domain error of the block itself
    for bad in ("2", "-1"):
        rows[2][2] = bad
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(["dual", "--J", "1", "--K", "2", "--in", str(out)]) == 3
        assert f"cell value {bad} outside [0, 1]" in capsys.readouterr().err


def test_dual_non_integer_field_is_usage_error(tmp_path, capsys):
    out = tmp_path / "block.csv"
    run(["evolve", "--J", "1", "--K", "2", "--config", "0:1,0,1,1",
         "--steps", "3", "--out", str(out)])
    rows = list(csv.reader(open(out, newline="")))
    # a lone or inner sign, a space or a value past the int64 range must not
    # read as a number
    for bad in ("x", "-", "+", " ", "1.5", "1e3", "1-1", "99999999999999999999"):
        rows[2][2] = bad
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(["dual", "--J", "1", "--K", "2", "--in", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and "row t=1" in err


def test_block_rows_read_back_where_their_values_lie(tmp_path, capsys):
    # rows that stop short of row 0's right end keep their offsets
    block = block_from_rows(2, 3, tuple(
        (Config(o, cells, 2), CarrierPath(o, loads, None)) for o, cells, loads in
        [(1, (1, 2, 0, 1), (1, 3, 0, 1)), (1, (0, 1), (0, 1)), (2, (2, 1), (2, 1))]))
    path = str(tmp_path / "b.csv")
    write_block_csv(block, path)
    assert open(path).read().splitlines()[2] == "1,0,1,,"
    back = read_block_csv(path, 2, 3)
    assert [back.config(t).offset for t in range(3)] == [1, 1, 2]
    assert [back.carrier(t).offset for t in range(3)] == [1, 1, 2]
    assert back == block
    # a blank between two values is a usage error naming the file and row
    out = tmp_path / "block.csv"
    carrier = tmp_path / "block.carrier.csv"
    # one blank beside a multi-digit value, in an occupancy row and in the
    # last carrier row (whose loads duality_verify never reads)
    for path, t, fields in [(out, 2, None), (out, 1, ["12", "3", "", "4"]),
                            (carrier, 3, ["10", "", "3", ""])]:
        assert run(["evolve", "--J", "1", "--K", "2", "--config", "0:1,0,1,1",
                    "--steps", "3", "--out", str(out)]) == 0
        rows = list(csv.reader(open(path, newline="")))
        if fields is None:
            assert "" not in rows[t + 1]
            rows[t + 1][3] = ""
        else:
            rows[t + 1][1:] = fields
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert run(["dual", "--J", "1", "--K", "2", "--in", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"row t={t}" in err and "blank" in err


def test_malformed_or_missing_input_file_is_usage_error(tmp_path, capsys):
    out = tmp_path / "block.csv"
    argv = ["evolve", "--J", "1", "--K", "2", "--config", "0:1,0,1,1", "--steps", "2",
            "--out", str(out)]
    dual = ["dual", "--J", "1", "--K", "2", "--in", str(out)]
    currents = tmp_path / "block.currents.csv"
    carrier = tmp_path / "block.carrier.csv"
    # each case rewrites files of a good block; the first file is the one named
    for files in [{currents: "t,current\n0\n1,0\n2,0\n"},     # row 0 lacks its value
                  {out: "t\n0\n1\n2\n"},                    # header without sites
                  {out: "t,n0\n", carrier: "t,n0\n", currents: "t,zero\n"}]:   # no rows
        assert run(argv) == 0
        for path, text in files.items():
            path.write_text(text)
        capsys.readouterr()
        assert run(dual) == 2
        assert str(next(iter(files))) in capsys.readouterr().err
    missing = str(tmp_path / "missing.csv")
    for cmd in [["dual", "--J", "1", "--K", "2", "--in", missing],
                ["measure", "classify", "--config-file", missing]]:
        assert run(cmd) == 2
        assert missing in capsys.readouterr().err


def test_block_csv_round_trip_object_level(tmp_path):
    path = tmp_path / "b.csv"
    cases = [(1, 2, Config(0, (1, 0, 1, 1, 0), 1), 4),
             # ZeroPad rows drain to the right; the mode is in the currents header
             (3, 4, Config(1, (2, 1, 0), 3), 3),
             # Detect rows shrink from the left; their currents are blank
             (3, 5, Config(1, (0, 3, 3, 3, 2, 0, 1, 2, 3, 1), 3, Detect()), 3),
             (4, 2, Config(1, (2, 2, 2, 2, 3, 0, 4, 4, 3, 1), 4, Detect()), 3),
             # J < K = inf, exact from its currents
             (1, INF, Config(1, (1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0), 1,
                             IidInvariant((2, 0, 5, 1))), 3),
             # more currents than rows: the block keeps the ones its rows use
             (2, 3, Config(0, (1, 0, 2), 2, IidInvariant((1, 2, 0, 3))), 2)]
    for J, K, c, steps in cases:
        block = evolve_block(J, K, c, steps)
        write_block_csv(block, str(path))
        back = read_block_csv(str(path), J, K)
        assert duality_verify(back).violations == 0
        for t in range(steps + 1):
            assert back.config(t).offset == block.config(t).offset
            assert back.config(t).cells == block.config(t).cells
            assert back.carrier(t) == block.carrier(t)
        if isinstance(c.boundary, Detect):
            assert block.config(steps).offset > c.offset
        assert back == block
    # a hand-written (1, inf) block with blank currents reads back as a plain
    # Detect() block, though evolve_block cannot make one, and still verifies
    path = tmp_path / "old.csv"
    path.write_text("t,n1,n2,n3,n4,n5,n6,n7,n8,n9,n10\n0,1,0,1,0,1,0,0,1,1,0\n"
                    "1,,,,1,0,1,0,0,0,1\n2,,,,,,0,1,0,0,0\n")
    (tmp_path / "old.carrier.csv").write_text(
        "t,n3,n4,n5,n6,n7,n8,n9,n10\n0,1,0,1,0,0,1,2,1\n1,,,0,1,0,0,0,1\n2,,,,,1,0,0,0\n")
    (tmp_path / "old.currents.csv").write_text("t,current\n0,\n1,\n2,\n")
    block = read_block_csv(str(path), 1, INF)
    assert block.boundary == Detect() and block.left_currents == (None, None, None)
    assert block.carrier(0) == CarrierPath(3, (1, 0, 1, 0, 0, 1, 2, 1), None)
    assert block.config(2) == Config(6, (0, 1, 0, 0, 0), 1, Detect())
    assert run(["dual", "--J", "1", "--K", "inf", "--in", str(path)]) == 0


def reference_block_csv(block, path):
    """The three block files written cell by cell: every site of row 0,
    ``r.at(n)`` inside the row and blank outside it."""
    paths = (path, path[:-4] + ".carrier.csv", path[:-4] + ".currents.csv")
    for p, rows in zip(paths, ([cfg for cfg, _ in block.rows], [w for _, w in block.rows])):
        sites = range(rows[0].offset, rows[0].end + 1)
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"n{n}" for n in sites])
            for t, r in enumerate(rows):
                w.writerow([t] + [r.at(n) if r.offset <= n <= r.end else "" for n in sites])
    with open(paths[2], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "zero" if isinstance(block.config(0).boundary, ZeroPad)
                     else "current"])
        for t, c in enumerate(block.left_currents):
            w.writerow([t, "" if c is None else c])
    return paths


def reference_read_grid(path):
    """(first site, values) per row of a grid file, read row by row: each
    row's checks in order, then ``np.fromstring`` on its values."""
    with open(path, "rb") as fh:
        head = fh.readline().rstrip(b"\r\n").split(b",")
        try:
            offset = int(head[1][1:]) if head[0] == b"t" else None
        except (IndexError, ValueError):
            offset = None
        if offset is None:
            raise InvalidParams(f"{path}: missing or malformed block header")
        out = []
        for line in fh:
            t, _, body = line.rstrip(b"\r\n").partition(b",")
            where = f"{path}: row t={t.decode(errors='replace')}"
            core = body.lstrip(b",")
            start = len(body) - len(core)
            core = core.rstrip(b",")
            if not core:
                raise InvalidParams(f"{where} has no values")
            if core.translate(None, b"0123456789,-"):
                raise InvalidParams(f"{where} has a non-integer field")
            if b",," in core:
                raise InvalidParams(f"{where} has a blank field between values")
            bad = b"-," in core or core.endswith(b"-")
            try:
                vals = np.fromstring(core, dtype=np.int64, sep=",")
            except ValueError:
                bad = True
            if (bad or len(vals) != core.count(b",") + 1
                    or vals.max() == 2 ** 63 - 1 or vals.min() == -2 ** 63):
                raise InvalidParams(f"{where} has a non-integer field")
            out.append((offset + start, vals))
    if not out:
        raise InvalidParams(f"{path}: no time rows")
    return out


def _fuzz_grid(rng):
    """A grid file's bytes: mostly well formed, one-digit or wide, with the
    odd bad field, blank, row label, header or line ending."""
    one_digit = rng.random() < 0.5
    flaw = 0.02 if rng.random() < 0.5 else 0.0

    def field():
        r = rng.random()
        if r < flaw:
            return [b"-", b"1-2", b"--1", b"x", b" ", b"+1", b"1.0", b"", b":", b"/"][
                rng.integers(10)]
        if one_digit or r < 0.5:
            return b"%d" % rng.integers(10)
        if r < 0.6:
            return [b"%d" % (2 ** 63 - 1), b"%d" % -2 ** 63, b"%d" % 2 ** 63,
                    b"%d" % (2 ** 63 - 2), b"%d" % (2 - 2 ** 63), b"-0"][rng.integers(6)]
        digits = bytes(rng.integers(48, 58, rng.integers(1, 21)).astype(np.uint8))
        return (b"-" if rng.random() < 0.3 else b"") + digits

    width = int(rng.integers(1, 9))
    head = b"t" + b"".join(b",n%d" % (int(rng.integers(-5, 5)) + j) for j in range(width))
    if rng.random() < 0.02:
        head = [b"t", b"", b"x,n1", b"t,nx", b"t,n 7"][rng.integers(5)]
    end = b"\r\n" if rng.random() < 0.5 else b"\n"
    lines = [head]
    for t in range(int(rng.integers(0, 7))):
        n = int(rng.integers(0 if rng.random() < 0.1 else 1, width + 1))   # 0: no values
        a = int(rng.integers(0, width - n + 1))
        vals = [field() for _ in range(n)]
        label = b"%d" % t if rng.random() > flaw else b"t\xff"
        lines.append(b",".join([label] + [b""] * a + vals + [b""] * (width - n - a)))
        if rng.random() < flaw:
            lines.append(b"")
    text = end.join(lines)
    return text + [b"", end, end + end][rng.choice(3, p=[0.2, 0.78, 0.02])]


def test_grid_reader_matches_row_by_row_reference(tmp_path):
    path = str(tmp_path / "g.csv")
    rng = np.random.default_rng(17)
    outcomes = {"read": 0, "raised": 0, "one-digit": 0}
    for _ in range(3000):
        text = _fuzz_grid(rng)
        with open(path, "wb") as fh:
            fh.write(text)
        try:
            want = reference_read_grid(path)
        except InvalidParams as err:
            with pytest.raises(InvalidParams) as got:
                blockio._read_grid(path)
            assert str(got.value) == str(err), text
            outcomes["raised"] += 1
            continue
        got = blockio._read_grid(path)
        assert [s for s, _ in got] == [s for s, _ in want], text
        for (_, g), (_, w) in zip(got, want):
            assert g.dtype == np.int64 and g.tolist() == w.tolist(), text
        outcomes["read"] += 1
        outcomes["one-digit"] += all(0 <= v <= 9 for _, w in want for v in w.tolist())
    assert min(outcomes.values()) > 500, outcomes


def test_block_csv_round_trip_over_capacities(tmp_path):
    # stationary, zero-padded and Detect blocks of every capacity pair
    path = str(tmp_path / "b.csv")
    caps = (1, 2, 3, 5, 12, INF)
    rng = np.random.default_rng(5)
    wide = 0
    for J in caps:
        for K in caps:
            mu = (uniform(J) if INF not in (J, K)
                  else stbgeo(J, 0.5 if K == INF else 0.9, 1, 1))
            cells = sample_pmf(mu, rng, 40)
            blocks = [sample_stationary_block(J, K, mu, 50, 6, int(rng.integers(2 ** 31)))[0],
                      evolve_block(J, K, Config.from_array(0, cells, J), 6)]
            # a Detect window of random cells until one forces every row
            for _ in range(20):
                window = Config.from_array(1, sample_pmf(mu, rng, 300), J, Detect())
                try:
                    blocks.append(evolve_block(J, K, window, 4))
                    break
                except Undetermined:
                    pass
            assert (len(blocks) == 2) == (J < K == INF), (J, K)
            for block in blocks:
                got = write_block_csv(block, path)
                ref = reference_block_csv(block, str(tmp_path / "ref.csv"))
                for g, r in zip(got, ref):
                    assert open(g, "rb").read() == open(r, "rb").read(), (J, K, g)
                assert read_block_csv(path, J, K) == block
                for t in range(block.t_max + 1):
                    c = block.config(t)
                    assert c == Config(c.offset, c.cells, J, block.boundary)
                wide += max(int(block.occ.max()), int(block.load.max())) >= 10
    assert wide >= 10


def test_block_csv_bytes_match_cell_by_cell_writer(tmp_path):
    zero = evolve_block(3, 4, Config(1, (2, 1, 0, 3, 3), 3), 6)    # drains right
    detect = evolve_block(3, 5, Config(1, (0, 3, 3, 3, 2, 0, 1, 2, 3, 1), 3, Detect()), 3)
    stationary = sample_stationary_block(2, 4, uniform(2), 200, 8, 5)[0]
    # rows reaching left of, right of and wholly outside row 0's sites
    ragged = block_from_rows(2, 3, tuple(
        (Config(o, cells, 2), CarrierPath(o + 1, cells, None)) for o, cells in
        [(3, (1, 2, 0)), (1, (0, 1, 2, 2, 1, 0, 1)), (4, (2, 2, 2, 2)), (9, (1,)), (0, (2,))]))
    # multi-digit fields: a J = 12 window and K = inf loads, and a seeded boundary
    wide = evolve_block(12, 5, Config(-3, (12, 11, 0, 10, 9, 12, 3), 12), 6)
    heavy = evolve_block(INF, INF, Config(1, (14, 0, 3, 0, 27), INF,
                                          IidInvariant((13, 0, 41, 7))), 3)
    seeded = evolve_block(3, 2, Config(0, (3, 1, 0, 2, 3, 3), 3, SeededCarrier(2)), 4)
    # signed loads out to the int64 range
    signed = block_from_rows(2, 3, ((Config(0, (1, 0, 2, 1, 0), 2), CarrierPath(
        0, (-1, -10, 10**18, 2**63 - 1, -2**63), None)),))
    assert max(wide.config(0).cells) >= 10 and max(heavy.carrier(2).values) >= 10
    assert len(zero.config(6)) > 5 and detect.config(3).offset > 1
    for i, block in enumerate([zero, detect, stationary, ragged, wide, heavy, seeded,
                               signed]):
        got = write_block_csv(block, str(tmp_path / f"got{i}.csv"))
        ref = reference_block_csv(block, str(tmp_path / f"ref{i}.csv"))
        for g, r in zip(got, ref):
            assert open(g, "rb").read() == open(r, "rb").read(), (i, g)


def test_measure_classify_output(capsys):
    code = run(["measure", "classify", "--J", "2", "--K", "4", "--mu",
                "0.571428571,0.285714286,0.142857143"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Invariant" in out and "StbGeo" in out
    assert "alpha=0.5" in out and "m=1" in out


def test_measure_classify_uniform(capsys):
    code = run(["measure", "classify", "--J", "2", "--K", "4",
                "--mu", "uniform:2"])
    out = capsys.readouterr().out
    assert code == 0 and "Invariant" in out and "alpha=1" in out


def test_measure_classify_not_invariant_prints_oracle(capsys):
    code = run(["measure", "classify", "--J", "2", "--K", "3",
                "--mu", "0.5,0.1,0.4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "NotInvariant" in out and "oracle_deviation=" in out


def test_measure_not_in_mrev_exit_code(capsys):
    code = run(["measure", "classify", "--J", "2", "--K", "1",
                "--mu", "0,1,0"])
    assert code == 3
    assert "NotInMrev" in capsys.readouterr().out


def test_non_finite_weights_exit_3(capsys):
    # a NaN weight passes a sum check, so it must be rejected by itself
    for cmd, mu in (("classify", "nan,nan"), ("dual-measure", "0.5,nan")):
        assert run(["measure", cmd, "--J", "1", "--K", "2", "--mu", mu]) == 3
        assert "finite" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # scipy is imported on first use, by the chi-square tests alone: neither
    # a bare ``bbs`` start nor the load-chain solve behind the measure
    # commands may pay for it
    src = os.path.dirname(os.path.dirname(boxball.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    solve = ("boxball.dual_measure(3, 5, boxball.stbgeo(3, 0.5, 1, 1)); "
             "codes = [boxball.cli.main(['measure', a, '--J', '3', '--K', '5', "
             "'--mu', 'uniform:3']) for a in ('dual-measure', 'classify')]; "
             "assert codes == [0, 0], codes; ")
    for work in ("", solve):
        code = ("import sys, boxball, boxball.cli; " + work +
                "print('scipy:', *(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "scipy:", out


def test_measure_dual_and_balance(capsys):
    assert run(["measure", "dual-measure", "--J", "1", "--K", "2",
                "--mu", "bernoulli:0.333333333333333333"]) == 0
    w = [float(x) for x in capsys.readouterr().out.strip().split(",")]
    assert np.allclose(w, [4 / 7, 2 / 7, 1 / 7], atol=1e-9)
    assert run(["measure", "detailed-balance", "--J", "1", "--K", "2",
                "--mu", "bernoulli:0.25", "--nu", "uniform:2"]) == 0
    assert "residual=" in capsys.readouterr().out


def test_measure_oracle(capsys):
    assert run(["measure", "oracle", "--J", "1", "--K", "2",
                "--mu", "bernoulli:0.25", "--k", "2"]) == 0
    out = capsys.readouterr().out
    dev = float(out.split("deviation=")[1].split()[0])
    assert dev < 1e-12


def test_speed_cli_jsonl_and_strict(tmp_path, capsys):
    out = tmp_path / "speed.jsonl"
    code = run(["speed", "--J", "1", "--K", "inf", "--mu", "bernoulli:0.25",
                "--t-max", "200", "--replicas", "4", "--seed", "42",
                "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "seed=42" in text and "theoretical=" in text
    records = [json.loads(line) for line in open(out)]
    assert records[0]["record"] == "meta"
    assert records[-1]["record"] == "summary"
    assert sum(1 for r in records if r["record"] == "replica") == 4
    # strict mode with an absurd tolerance trips the statistical exit code
    code = run(["speed", "--J", "1", "--K", "inf", "--mu", "bernoulli:0.25",
                "--t-max", "50", "--replicas", "2", "--seed", "1",
                "--strict", "--tol-rel", "1e-9"])
    assert code == 4


def test_seed_echoed_when_omitted(capsys):
    code = run(["speed", "--J", "1", "--K", "2", "--mu", "bernoulli:0.25",
                "--t-max", "20", "--replicas", "2"])
    assert code == 0
    assert "seed=" in capsys.readouterr().out


def test_config_file_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("J = 1\nK = 2\nmu = bernoulli:0.25\nk = 1\n")
    code = run(["measure", "classify", "--config-file", str(cfg)])
    assert code == 0
    assert "Invariant" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["evolve", "--J", "3"])  # missing required flags
    assert exc.value.code == 2
    assert run(["measure", "classify", "--J", "0", "--K", "2",
                "--mu", "bernoulli:0.2"]) == 2
    assert run(["evolve", "--J", "1", "--K", "2", "--config", "0:1,0",
                "--boundary", "iid", "--currents", "1,x",
                "--out", str(tmp_path / "x.csv")]) == 2
    for mu in ["bernoulli:x", "uniform:x", "stbgeo:3,x,1,1"]:
        assert run(["measure", "classify", "--J", "2", "--K", "4", "--mu", mu]) == 2
    assert run(["evolve", "--J", "1", "--K", "2", "--config", "1:1,0,1", "--steps", "-1",
                "--out", str(tmp_path / "x.csv")]) == 2
    # fewer per-step currents than rows
    assert run(["evolve", "--J", "2", "--K", "3", "--boundary", "iid", "--currents", "1",
                "--steps", "3", "--config", "0:1,0", "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["dual", "--J", "2", "--K", "3", "--boundary", "iid", "--currents", "1,0",
                "--config", "0:1,0"]) == 2
    # boundary loads outside [0, K]
    for bd in (["seeded", "--carrier-seed", "9"], ["seeded", "--carrier-seed", "-1"],
               ["iid", "--currents", "1,1,1,-1", "--steps", "3"]):
        assert run(["evolve", "--J", "2", "--K", "3", "--boundary", *bd, "--config", "0:1,0",
                    "--out", str(tmp_path / "x.csv")]) == 2
