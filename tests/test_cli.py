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

CCX = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
ccx q[0],q[1],q[2];
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


def test_run_unwritable_emit_qasm(qasm_file, tmp_path, capsys):
    out = tmp_path / "missing" / "out.qasm"
    rc = main(["run", str(qasm_file), "--pipeline", "no-decomp", "--emit-qasm", str(out)])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    rep = json.loads(lines[0])
    assert list(rep) == ["file", "pipeline", "error"]
    assert rep["file"] == str(qasm_file) and rep["pipeline"] == "no-decomp" and str(out) in rep["error"]


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


def test_run_rejects_max_ctrl_below_two(qasm_file, capsys):
    rc = main(["run", str(qasm_file), "--max-ctrl", "1"])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["file"] == str(qasm_file) and "max_ctrl" in rep["error"]


def test_run_no_decomp_checks_max_ctrl(tmp_path, capsys):
    # no-decomp keeps ccx as one arity-3 NCP(pi): it rejects a cap below 2 as the
    # ZX pipelines do, and names that gate under a cap of 2
    f = tmp_path / "ccx.qasm"
    f.write_text(CCX)
    for cap, error in (("0", "max_ctrl must be at least 2"), ("2", "NCP on qubits [0, 1, 2], wider than max_ctrl 2")):
        assert main(["run", str(f), "--pipeline", "no-decomp", "--max-ctrl", cap]) == 1
        assert error in json.loads(capsys.readouterr().out)["error"]
    assert main(["run", str(f), "--pipeline", "no-decomp", "--max-ctrl", "3"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["counts"]["ncp"] == {"3": 1}
    assert main(["run", str(f), "--max-ctrl", "2"]) == 0  # zx-with-insert decomposes it
    assert set(json.loads(capsys.readouterr().out)[0]["counts"]["ncp"]) == {"2"}


def test_run_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.qasm"
    rc = main(["run", str(missing)])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["file"] == str(missing) and "No such file" in rep["error"]


def test_run_truncated_file(tmp_path, capsys):
    f = tmp_path / "truncated.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[1];\nrz(")
    rc = main(["run", str(f)])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert "unexpected end of input" in rep["error"]


def test_run_non_finite_angle(tmp_path, capsys):
    f = tmp_path / "huge.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[1];\nrz(1e400) q[0];\n")
    rc = main(["run", str(f)])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1  # one JSON line, no traceback
    rep = json.loads(out)
    assert rep["error"] == "line 3, col 1: cannot express angle inf as a rational multiple of pi"


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


def test_suite_runs_missing_baseline(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "a.qasm").write_text(SIMPLE)
    rc = main(["suite", str(d), "--pipeline", "zx-with-insert", "--baseline", "no-decomp", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["pipeline"] for r in rows if "counts" in r] == ["zx-with-insert", "no-decomp"]
    agg = [r for r in rows if "counts" not in r]
    assert [(r["file"], r["pipeline"]) for r in agg] == [
        ("<mean reduction vs no-decomp>", "zx-with-insert"),
        ("<mean reduction vs no-decomp>", "no-decomp"),
    ]


def test_suite_runs_repeated_pipeline_once(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "a.qasm").write_text(SIMPLE)
    rc = main([
        "suite", str(d), "--pipeline", "no-decomp", "--pipeline", "zx-default", "--pipeline", "no-decomp",
        "--format", "json",
    ])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["pipeline"] for r in rows if "counts" in r] == ["no-decomp", "zx-default"]
    assert [r["pipeline"] for r in rows if "counts" not in r] == ["no-decomp", "zx-default"]


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


def test_suite_unwritable_out_file(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "a.qasm").write_text(SIMPLE)
    out = tmp_path / "missing" / "report.csv"
    rc = main(["suite", str(d), "--pipeline", "no-decomp", "--out", str(out)])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    rep = json.loads(lines[0])
    assert list(rep) == ["error"] and str(out) in rep["error"]


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


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_suite_columns_with_error_and_aggregate_rows(tmp_path, capsys, fmt):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "bad.qasm").write_text(BROKEN)  # sorts first, so an error row leads
    (d / "good.qasm").write_text(SIMPLE)
    rc = main(["suite", str(d), "--pipeline", "zx-default", "--format", fmt])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",") if fmt == "csv" else lines[0].split()
    assert header == [
        "file", "pipeline", "gr_pulses", "gr_layers", "rz_layers", "ncp",
        "time_ms", "runtime_s", "verified", "reduction", "error",
    ]
    assert len(lines) == 1 + 4 + 2  # two error rows, two reports, two aggregates


def test_suite_unreadable_entry_marks_failure(tmp_path, capsys):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "good.qasm").write_text(SIMPLE)
    (d / "dir.qasm").mkdir()  # matches the glob but cannot be read
    rc = main(["suite", str(d), "--pipeline", "no-decomp", "--format", "json"])
    assert rc == 1
    rows = json.loads(capsys.readouterr().out)
    assert [r["file"] for r in rows if "error" in r] == ["dir.qasm"]
    assert any("counts" in r for r in rows)


@pytest.mark.parametrize("make", ["missing", "empty"])
def test_suite_without_qasm_files(tmp_path, capsys, make):
    d = tmp_path / "bench"
    if make == "empty":
        d.mkdir()
        (d / "notes.txt").write_text(SIMPLE)
    rc = main(["suite", str(d), "--format", "table"])
    assert rc == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"error": f"no .qasm files in directory {d}"}


def test_suite_parses_and_builds_reference_once_per_file(tmp_path, capsys, monkeypatch):
    import zxna.cli as cli

    calls = {"parse": 0, "unitary": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "parse_qasm", counted("parse", cli.parse_qasm))
    monkeypatch.setattr(cli, "circuit_unitary", counted("unitary", cli.circuit_unitary))
    d = tmp_path / "bench"
    d.mkdir()
    (d / "a.qasm").write_text(SIMPLE)
    (d / "b.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    (d / "c.qasm").write_text(BROKEN)
    pipelines = ["zx-with-insert", "zx-no-insert", "no-decomp"]
    rc = main(["suite", str(d), *(a for p in pipelines for a in ("--pipeline", p)), "--verify", "--format", "json"])
    assert rc == 1
    rows = json.loads(capsys.readouterr().out)
    # one reference per good file plus one unitary per output
    assert calls == {"parse": 3, "unitary": 2 + 2 * len(pipelines)}
    assert all(r["verified"] is True for r in rows if "counts" in r)
    errors = [r for r in rows if "error" in r]
    assert [(r["file"], r["pipeline"]) for r in errors] == [("c.qasm", p) for p in pipelines]
    assert len({r["error"] for r in errors}) == 1
