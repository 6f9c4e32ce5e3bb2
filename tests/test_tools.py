"""Repository tools run as scripts: the output comparison."""

import json
import struct
import subprocess
import sys
from pathlib import Path

COMPARE = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _compare(*args):
    done = subprocess.run([sys.executable, str(COMPARE), *map(str, args)],
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout.splitlines()


def _write(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_compare_outputs_reports_each_file(tmp_path):
    report = {"table": [{"m": 1, "gap": 0.25}, {"m": 2, "gap": 0.5}],
              "verdicts": {"contraction": {"passed": True, "value": 0.5}}}
    moved = json.loads(json.dumps(report))
    moved["table"][1]["gap"] = 0.5 * (1 + 2**-50)
    moved["verdicts"]["contraction"]["value"] = 0.4
    common = {"run.stdout": "[PASS] contraction\nexit 0\n"}
    old = _write(tmp_path / "old", {
        **common, "a/report.json": json.dumps(report),
        "a/table.csv": "m,gap,note\r\n1,0.25,x\r\n2,0.5,\r\n",
        "a/snap.csv": "x,value,w\r\n0,1e-12,1\r\n1,4.0,0.5\r\n",
        "a/plot.gp": "plot 1\n", "b/keys.json": '{"a": 1}',
        "b/nan.json": '{"a": 1.5, "b": 0.5}', "b/cut.json": '{"a": 1.5}',
        "gone.csv": "x\r\n"})
    new = _write(tmp_path / "new", {
        **common, "a/report.json": json.dumps(moved),
        "a/table.csv": "m,gap,note\r\n1,0.25,x\r\n2,0.75,\r\n",
        "a/snap.csv": "x,value,w\r\n0,2e-12,1\r\n1,4.0,NaN\r\n",
        "a/plot.gp": "plot 2\n", "b/keys.json": '{"b": 1}',
        "b/nan.json": '{"a": 1.5, "b": NaN}', "b/cut.json": '{"a": 1.',
        "c/new.json": "{}"})
    code, lines = _compare(old, new)
    assert code == 1
    assert lines == [
        "a/plot.gp: differs (not a JSON, CSV, binary field or stdout file)",
        "a/report.json: max relative difference 0.2 at "
        ".verdicts.contraction.value (2 of 5 numeric leaves differ)",
        "    .table[1].gap: 0.5 -> 0.5000000000000004 (8.9e-16)",
        "    .verdicts.contraction.value: 0.5 -> 0.4 (0.2)",
        # a leaf near zero moves by half its size, but by 2.5e-13 of its
        # column's largest value; a column turning NaN reads inf
        "a/snap.csv: max relative difference inf at row 3, w "
        "(2 of 6 numeric leaves differ)",
        "    column x: largest |a - b| / largest |a| = 0",
        "    column value: largest |a - b| / largest |a| = 2.5e-13",
        "    column w: largest |a - b| / largest |a| = inf",
        "    row 2, value: 1e-12 -> 2e-12 (0.5)",
        "    row 3, w: 0.5 -> nan (inf)",
        "a/table.csv: max relative difference 0.33 at row 3, gap "
        "(1 of 4 numeric leaves differ)",
        "    column m: largest |a - b| / largest |a| = 0",
        "    column gap: largest |a - b| / largest |a| = 0.5",
        "    row 3, gap: 0.5 -> 0.75 (0.33)",
        # a truncated file is one line, and the files after it still compare
        "b/cut.json: differs (NEW is not valid JSON: Expecting ',' delimiter: "
        "line 1 column 8 (char 7))",
        "b/keys.json: differs (keys differ at .)",
        # a number turning into NaN is the regression to catch
        "b/nan.json: max relative difference inf at .b "
        "(1 of 2 numeric leaves differ)",
        "    .b: 0.5 -> nan (inf)",
        "c/new.json: only in NEW",
        "gone.csv: only in OLD",
        "run.stdout: identical",
        "9 file(s) differ"]


def test_compare_outputs_reads_binary_fields(tmp_path):
    # an (L, N) header, then N little-endian float64 values
    def field(*values):
        return struct.pack(f"<dd{len(values)}d", 8.0, len(values), *values)

    old_bin, new_bin = field(1.0, -4.0, 1e-12), field(1.0, -4.0, 2e-12)
    for side, files in (("old", {"a.bin": old_bin, "cut.bin": old_bin}),
                        ("new", {"a.bin": new_bin, "cut.bin": old_bin[:-3]})):
        (tmp_path / side).mkdir()
        for rel, data in files.items():
            (tmp_path / side / rel).write_bytes(data)
    code, lines = _compare(tmp_path / "old", tmp_path / "new")
    assert code == 1
    assert lines == [
        "a.bin: max relative difference 0.5 at point 2 "
        "(1 of 5 numeric leaves differ)",
        "    column value: largest |a - b| / largest |a| = 2.5e-13",
        "    point 2: 1e-12 -> 2e-12 (0.5)",
        "cut.bin: differs (NEW holds 21 payload bytes, but its header names "
        "3.0 points)",
        "2 file(s) differ"]


def test_compare_outputs_reads_stdout_line_by_line(tmp_path):
    # numbers are leaves and the text between them must agree; a number
    # inside a word, as in psi2 or w0n, is text
    table = "quantity,n,value\npsi2_cos_norm,5,{}\n[PASS] w0n: value=0.5 (< 1)\n"
    old = _write(tmp_path / "old", {
        "a.stdout": table.format("0.25") + "exit 0\n",
        "b.stdout": "[PASS] ratio: value=0.5\nexit 0\n", "c.stdout": "one\n",
        "d.stdout": "value=1.0 and nan\n"})
    new = _write(tmp_path / "new", {
        "a.stdout": table.format("0.25000000000000006") + "exit 0\n",
        "b.stdout": "[FAIL] ratio: value=0.5\nexit 0\n",
        "c.stdout": "one\ntwo\n", "d.stdout": "value=1.00 and nan\n"})
    code, lines = _compare(old, new)
    assert code == 1
    assert lines == [
        "a.stdout: max relative difference 2.2e-16 at line 2, number 2 "
        "(1 of 5 numeric leaves differ)",
        "    line 2, number 2: 0.25 -> 0.25000000000000006 (2.2e-16)",
        "b.stdout: differs (text differs in line 1)",
        "c.stdout: differs (line counts differ)",
        "d.stdout: numerically equal over 2 numeric leaves",
        "4 file(s) differ"]


def test_compare_outputs_identical_trees_exit_zero(tmp_path):
    files = {"x/report.json": '{"v": 1.5}', "x.stdout": "exit 0\n"}
    old = _write(tmp_path / "old", files)
    new = _write(tmp_path / "new", files)
    assert _compare(old, new) == (0, ["x.stdout: identical",
                                      "x/report.json: identical",
                                      "0 file(s) differ"])
    assert _compare(old)[0] == 2
