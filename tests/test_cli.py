import json

import pytest

from zxna.cli import main

SIMPLE = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cp(pi/2) q[0],q[1];
ccx q[0],q[1],q[2];
t q[2];
cx q[1],q[2];
"""

BROKEN = """OPENQASM 2.0;
qreg q[1];
frobnicate q[0];
"""


@pytest.fixture
def qasm_file(tmp_path):
    f = tmp_path / "simple.qasm"
    f.write_text(SIMPLE)
    return f


def test_run_json_report(qasm_file, capsys):
    rc = main(["run", str(qasm_file), "--verify"])
    assert rc == 0
    (rep,) = json.loads(capsys.readouterr().out)
    assert rep["file"] == "simple.qasm"
    assert rep["pipeline"] == "zx-with-insert"
    assert rep["verified"] is True
    assert rep["time_ms"] > 0 and rep["runtime_s"] > 0
    counts = rep["counts"]
    assert set(counts) == {"gr_pulses", "gr_layers", "rz_layers", "ncp"}
    assert counts["gr_layers"] == counts["gr_pulses"] // 2


def test_run_all_pipelines(qasm_file, capsys):
    for p in ("zx-default", "zx-no-insert", "zx-with-insert", "no-decomp"):
        rc = main(["run", str(qasm_file), "--pipeline", p, "--verify"])
        assert rc == 0
        (rep,) = json.loads(capsys.readouterr().out)
        assert rep["verified"] is True, p


def test_run_emits_artifacts(qasm_file, tmp_path, capsys):
    out_qasm = tmp_path / "out.qasm"
    out_sched = tmp_path / "sched.json"
    rc = main([
        "run", str(qasm_file),
        "--emit-qasm", str(out_qasm),
        "--emit-schedule", str(out_sched),
    ])
    assert rc == 0
    capsys.readouterr()
    assert out_qasm.read_text().startswith("OPENQASM 2.0;")
    sched = json.loads(out_sched.read_text())
    assert "ops" in sched and "total_time" in sched


def test_run_table_and_csv_formats(qasm_file, capsys):
    rc = main(["run", str(qasm_file), "--format", "table"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gr_pulses" in out.splitlines()[0]
    rc = main(["run", str(qasm_file), "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("file,pipeline,gr_pulses")
    assert "reduction" not in lines[0]
    assert len(lines) == 2


def test_run_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.qasm"
    f.write_text(BROKEN)
    rc = main(["run", str(f)])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert "error" in rep and "frobnicate" in rep["error"]


def test_run_truncated_file(tmp_path, capsys):
    f = tmp_path / "truncated.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[1];\nrz(")
    rc = main(["run", str(f)])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert "unexpected end of input" in rep["error"]


def test_run_time_config(qasm_file, tmp_path, capsys):
    cfg = tmp_path / "times.json"
    cfg.write_text(json.dumps({"gr": 1.0}))
    main(["run", str(qasm_file)])
    base = json.loads(capsys.readouterr().out)[0]
    main(["run", str(qasm_file), "--time-config", str(cfg)])
    scaled = json.loads(capsys.readouterr().out)[0]
    assert scaled["time_ms"] > base["time_ms"]


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"gr_s": 1e-3}', "unknown time config key 'gr_s'"),
        ('{"gr": "fast"}', "'gr' must be a finite non-negative number"),
        ('{"gr": -1}', "'gr' must be a finite non-negative number"),
        ('{"ncp": NaN}', "'ncp' must be a finite non-negative number"),
        ('{"rz": true}', "'rz' must be a finite non-negative number"),
        ('[1e-3]', "must be a JSON object"),
        ('{"gr": 1e-3', "cannot read time config"),
        (None, "cannot read time config"),
    ],
    ids=["unknown-key", "string", "negative", "nan", "bool", "not-object", "not-json", "missing"],
)
@pytest.mark.parametrize("cmd", ["run", "suite"])
def test_bad_time_config(qasm_file, tmp_path, capsys, cmd, content, message):
    cfg = tmp_path / "times.json"
    if content is not None:
        cfg.write_text(content)
    target = qasm_file if cmd == "run" else qasm_file.parent
    rc = main([cmd, str(target), "--time-config", str(cfg)])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert message in rep["error"]


def test_suite_aggregate(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "a.qasm").write_text(SIMPLE)
    (d / "b.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    rc = main([
        "suite", str(d),
        "--pipeline", "zx-with-insert", "--pipeline", "no-decomp",
        "--verify", "--format", "json",
    ])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    data = [r for r in rows if "counts" in r]
    agg = [r for r in rows if "counts" not in r]
    assert len(data) == 4
    assert all(r["verified"] is True for r in data)
    assert len(agg) == 2
    assert all(r["file"] == "<mean reduction vs no-decomp>" for r in agg)
    assert all(r["reduction"].endswith("%") for r in agg)
    assert all("%" not in str(r.get("verified", "")) for r in agg)


def test_suite_writes_out_file(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "a.qasm").write_text(SIMPLE)
    out = tmp_path / "report.csv"
    rc = main(["suite", str(d), "--pipeline", "no-decomp", "--format", "csv", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    header = out.read_text().splitlines()[0]
    assert header.startswith("file,pipeline")
    assert header.endswith(",reduction")


def test_suite_error_marks_failure(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "good.qasm").write_text(SIMPLE)
    (d / "bad.qasm").write_text(BROKEN)
    rc = main(["suite", str(d), "--pipeline", "no-decomp", "--format", "json"])
    assert rc == 1
    rows = json.loads(capsys.readouterr().out)
    assert any("error" in r for r in rows)
    assert any("counts" in r for r in rows)
