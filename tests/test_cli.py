import os
import pathlib
import shutil
import sqlite3
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET

import pytest

from lvmforge import render_model_definition, builtin_sytherm, init_schema
from lvmforge.cli import build_parser, run

from conftest import ANNEX1_PATH


@pytest.fixture()
def cli(tmp_path, capsys):
    store = str(tmp_path / "store.db")

    def invoke(*argv, expect=0):
        code = run(["--store", store, *argv])
        captured = capsys.readouterr()
        assert code == expect, captured.err or captured.out
        return captured

    return invoke


@pytest.fixture()
def cli_with_sytherm(cli):
    cli("init")
    cli("model", "sytherm", "--channels", "3")
    cli("proc", "add", "LVM_PARSING")
    cli("bind", "SYTHERM", "LVM_PARSING", "lvm")
    return cli


def import_annex(cli) -> str:
    out = cli("import", str(ANNEX1_PATH), "--equipment", "SYTHERM").out
    return out.strip().splitlines()[-1]


def test_init_prints_path_and_is_idempotent(cli):
    first = cli("init").out
    assert first.strip().endswith("store.db")
    cli("init")


def test_import_prints_record_id(cli_with_sytherm):
    record_id = import_annex(cli_with_sytherm)
    assert record_id.isdigit()


def test_import_wrong_extension(cli_with_sytherm, tmp_path):
    bogus = tmp_path / "annex1.csv"
    bogus.write_text("whatever\n")
    err = cli_with_sytherm("import", str(bogus), "--equipment", "SYTHERM",
                           expect=1).err
    assert err.startswith("ERROR NoBinding")


def test_import_missing_file(cli_with_sytherm, tmp_path):
    err = cli_with_sytherm("import", str(tmp_path / "nope.lvm"),
                           "--equipment", "SYTHERM", expect=1).err
    assert err.startswith("ERROR FileNotFound")


def test_bind_prints_binding_name(cli):
    cli("init")
    cli("model", "sytherm", "--channels", "3")
    cli("proc", "add", "LVM_PARSING")
    out = cli("bind", "SYTHERM", "LVM_PARSING", "lvm").out
    assert out.strip() == "LVM_PARSING_LVM"


def test_list_and_show(cli_with_sytherm, tmp_path):
    record_id = import_annex(cli_with_sytherm)
    listing = cli_with_sytherm("list", "--operator", "Profesor").out
    line = listing.strip().splitlines()[0].split("\t")
    assert line[0] == record_id
    assert line[1] == "SYTHERM"
    assert line[3] == "annex1.lvm"
    assert line[4] == "Profesor"
    shown = cli_with_sytherm("show", record_id).out
    assert "Operator = Profesor" in shown
    assert "series Channel_2 (CelsiusDegree): 16 points" in shown
    assert "warning:" not in shown
    assert cli_with_sytherm("list", "--operator", "Nobody").out == ""
    # an import that warns: show ends with one line per warning
    warned = tmp_path / "warned.lvm"
    warned.write_bytes(ANNEX1_PATH.read_bytes().replace(
        b"Time_Pref\tAbsolute", b"Time_Pref\tAbsolute\nZeta\tz"))
    warned_id = cli_with_sytherm("import", str(warned), "--equipment", "SYTHERM").out.strip()
    shown = cli_with_sytherm("show", warned_id).out
    assert shown.splitlines()[-1] == "warning: unknown header key 'Zeta'"


def test_list_date_bounds_are_dates(cli_with_sytherm):
    record_id = import_annex(cli_with_sytherm)  # dated 2013/02/06
    for bound in ("2013-02-07", "yesterday", "2013/02/30"):
        for option in ("--from", "--to"):
            err = cli_with_sytherm("list", option, bound, expect=2).err
            assert f"not a YYYY/MM/DD date: {bound!r}" in err
    assert cli_with_sytherm("list", "--from", "2013/02/07").out == ""
    listed = cli_with_sytherm("list", "--from", "2013/02/06", "--to", "2013/02/06").out
    assert [line.split("\t")[0] for line in listed.splitlines()] == [record_id]


def test_proc_add_refuses_an_empty_name(cli):
    cli("init")
    err = cli("proc", "add", "", expect=1).err
    assert err.startswith("ERROR EmptyName: ")


def test_refused_dispatch_writes_are_one_error_line(cli, tmp_path):
    cli("init")
    cli("model", "sytherm", "--channels", "3")
    cli("proc", "add", "P")
    cli("bind", "SYTHERM", "P", "lvm")
    with init_schema(tmp_path / "store.db") as store:
        before = (store.list_procedures(), store.list_bindings())
    for argv, line in ((("proc", "add", "P"), "ERROR DuplicateProcedure: P"),
                       (("bind", "SYTHERM", "P", "lvm"), "ERROR DuplicateBinding: (SYTHERM, lvm)"),
                       (("bind", "SYTHERM", "NOPE", "lvm"), "ERROR UnknownProcedure: NOPE"),
                       (("bind", "SYTHERM", "P", "csv"),
                        "ERROR ExtensionNotDeclared: SYTHERM does not declare .csv")):
        captured = cli(*argv, expect=1)
        assert (captured.out, captured.err.splitlines()) == ("", [line]), argv
        with init_schema(tmp_path / "store.db") as store:
            assert (store.list_procedures(), store.list_bindings()) == before, argv


def test_edit_and_remove(cli_with_sytherm):
    record_id = import_annex(cli_with_sytherm)
    cli_with_sytherm("edit", record_id, "Operator", "Student1")
    assert "Operator = Student1" in cli_with_sytherm("show", record_id).out
    for value in ("abc", "2\n"):  # a value is the whole text: no trailing line break
        err = cli_with_sytherm("edit", record_id, "Channels", value, expect=1).err
        assert err.startswith("ERROR TypeMismatch")
    assert "Channels = 3" in cli_with_sytherm("show", record_id).out
    cli_with_sytherm("remove", record_id)
    err = cli_with_sytherm("show", record_id, expect=1).err
    assert err.startswith("ERROR NotFound")


def test_export_csv_matches_annex(cli_with_sytherm, tmp_path):
    record_id = import_annex(cli_with_sytherm)
    out_path = tmp_path / "annex.csv"
    cli_with_sytherm("export", record_id, "--format", "csv", "--out", str(out_path))
    lines = out_path.read_text().split("\n")
    series_start = lines.index("X_Value,Channel_0,Channel_1,Channel_2")
    assert lines[series_start + 1] == "0.000000,23.400000,23.400000,23.600000"


def test_export_xml(cli_with_sytherm, tmp_path):
    record_id = import_annex(cli_with_sytherm)
    out_path = tmp_path / "annex.xml"
    cli_with_sytherm("export", record_id, "--format", "xml", "--out", str(out_path))
    root = ET.parse(out_path).getroot()
    assert root.get("equipment") == "SYTHERM"


def test_model_add_list_show(cli, tmp_path):
    cli("init")
    definition = tmp_path / "sytherm.model"
    definition.write_text(render_model_definition(builtin_sytherm(2)))
    assert cli("model", "add", str(definition)).out.strip() == "SYTHERM"
    assert cli("model", "list").out.strip() == "SYTHERM"
    shown = cli("model", "show", "SYTHERM").out
    assert "param: Channel_1|Data|Real|CelsiusDegree|File" in shown
    err = cli("model", "show", "GHOST", expect=1).err
    assert err.startswith("ERROR UnknownEquipment")


def test_model_add_refuses_a_name_holding_a_tab(cli, tmp_path):
    # list prints the model's name in one tab-separated field
    cli("init")
    definition = tmp_path / "tab.model"
    definition.write_text(render_model_definition(builtin_sytherm(2)).replace(
        "name: SYTHERM", "name: A\tB"))
    assert cli("model", "add", str(definition), expect=1).err.startswith(
        "ERROR MalformedDefinition: ")
    assert cli("model", "list").out == ""


def _table_counts(path):
    conn = sqlite3.connect(path)
    tables = [r[0] for r in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")]
    counts = {t: conn.execute(f"SELECT count(*) FROM {t}").fetchone()[0] for t in tables}
    conn.close()
    return counts


def test_model_remove_clears_a_model_no_command_can_build(cli_with_sytherm, tmp_path):
    # text put_equipment refuses today, written by a store from before that rule
    conn = sqlite3.connect(tmp_path / "store.db")
    with conn:
        conn.execute("UPDATE t_eqp_equipments SET eqp_producer = ' MagLab '")
    conn.close()
    err = cli_with_sytherm("model", "show", "SYTHERM", expect=1).err
    assert err.startswith("ERROR MalformedDefinition")
    assert cli_with_sytherm("model", "remove", "SYTHERM").out == ""
    assert cli_with_sytherm("model", "list").out == ""
    counts = _table_counts(tmp_path / "store.db")
    assert counts["t_prm_parameters"] == counts["t_efe_equipmentfileextension"] == 0
    assert counts["t_psf_parsingfunction"] == 1
    err = cli_with_sytherm("model", "remove", "SYTHERM", expect=1).err
    assert err.splitlines() == ["ERROR UnknownEquipment: SYTHERM"]
    cli_with_sytherm("model", "sytherm")  # the name is free again


def test_model_remove_refuses_a_model_with_records(cli_with_sytherm, tmp_path):
    import_annex(cli_with_sytherm)
    before = _table_counts(tmp_path / "store.db")
    captured = cli_with_sytherm("model", "remove", "SYTHERM", expect=1)
    assert (captured.out, captured.err.splitlines()) == (
        "", ["ERROR ForeignKeyViolation: SYTHERM has measurements"])
    assert _table_counts(tmp_path / "store.db") == before


def test_adding_a_taken_model_name_is_one_error_line_naming_the_model(cli_with_sytherm,
                                                                        tmp_path):
    import_annex(cli_with_sytherm)
    before = _table_counts(tmp_path / "store.db")
    for argv in (("model", "sytherm"), ("model", "sytherm", "--channels", "1")):
        captured = cli_with_sytherm(*argv, expect=1)
        assert (captured.out, captured.err.splitlines()) == (
            "", ["ERROR DuplicateKey: model SYTHERM exists"]), argv
        assert _table_counts(tmp_path / "store.db") == before, argv


def test_edit_refuses_a_time_off_the_clock(cli_with_sytherm):
    record_id = import_annex(cli_with_sytherm)
    captured = cli_with_sytherm("edit", record_id, "Time", "24:00:00", expect=1)
    assert captured.err.splitlines() == [
        "ERROR TypeMismatch: parameter 'Time' rejects '24:00:00': expected HH:MM:SS[.fff]"]
    assert "Time = 17:49:40.8399038314819335937" in cli_with_sytherm("show", record_id).out


def test_edit_refuses_a_string_of_more_than_one_line(cli_with_sytherm, tmp_path):
    """Output is line oriented: a String value holds no line break, so
    list prints one line per record, and no tab, so each field is one."""
    import_annex(cli_with_sytherm)
    record_id = import_annex(cli_with_sytherm)
    before = _table_counts(tmp_path / "store.db")
    for text in ("a\nb", "a\rb", "a\r\n", "a\tb"):
        captured = cli_with_sytherm("edit", record_id, "Operator", text, expect=1)
        assert (captured.out, captured.err.splitlines()) == ("", [
            f"ERROR TypeMismatch: parameter 'Operator' rejects {text!r}:"
            " expected one line of UTF-8 text without a tab"]), text
        assert _table_counts(tmp_path / "store.db") == before, text
    assert "Operator = Profesor" in cli_with_sytherm("show", record_id).out
    assert len(cli_with_sytherm("list").out.splitlines()) == 2


def test_edit_refuses_a_parameter_the_record_holds_as_a_series(cli_with_sytherm, tmp_path):
    """A record holds each parameter once: a channel's series is not also a
    value, so show and both exports name the channel once."""
    record_id = import_annex(cli_with_sytherm)
    before = _table_counts(tmp_path / "store.db")
    captured = cli_with_sytherm("edit", record_id, "Channel_0", "5", expect=1)
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, captured.err
    assert lines[0].startswith("ERROR DuplicateKey: ") and "'Channel_0'" in lines[0]
    assert _table_counts(tmp_path / "store.db") == before
    assert cli_with_sytherm("show", record_id).out.count("Channel_0") == 1


def _import_annex_copy(cli, tmp_path, old, new):
    """Import a copy of Annex-1 with one header line replaced, expecting it
    to fail; returns the one error line after checking that no row changed."""
    text = ANNEX1_PATH.read_bytes().decode()
    assert text.count(old) == 1
    (tmp_path / "copy.lvm").write_bytes(text.replace(old, new).encode())
    before = _table_counts(tmp_path / "store.db")
    captured = cli("import", str(tmp_path / "copy.lvm"), "--equipment", "SYTHERM", expect=1)
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, captured.err
    assert _table_counts(tmp_path / "store.db") == before
    return lines[0]


def test_import_refuses_a_header_key_that_names_a_channel(cli_with_sytherm, tmp_path):
    # the header value and the data column would both be Channel_0
    import_annex(cli_with_sytherm)
    line = _import_annex_copy(cli_with_sytherm, tmp_path, "Channels\t3",
                              "Channels\t3\nChannel_0\t5,5")
    assert line.startswith("ERROR DuplicateKey: ") and "'Channel_0'" in line


def test_import_refuses_an_operator_holding_a_tab(cli_with_sytherm, tmp_path):
    # the tab would make the Operator two fields of a list line
    import_annex(cli_with_sytherm)
    line = _import_annex_copy(cli_with_sytherm, tmp_path, "Operator\tProfesor",
                              "Operator\tJohn\tDoe")
    assert line.startswith("ERROR TypeMismatch: parameter 'Operator' rejects 'John\\tDoe'")
    assert all(len(row.split("\t")) == 5 for row in cli_with_sytherm("list").out.splitlines())


def test_list_refuses_a_stored_operator_of_more_than_one_line(cli_with_sytherm, tmp_path):
    """A store written before String values were one line may hold a line
    break: list reads the value through the grammar and names the record
    and the column on one line, rather than print the value split."""
    import_annex(cli_with_sytherm)
    record_id = import_annex(cli_with_sytherm)
    conn = sqlite3.connect(tmp_path / "store.db")
    with conn:
        conn.execute("UPDATE t_val_values SET val_text = 'a\nb' WHERE msr_number = ?"
                     " AND prm_number = (SELECT prm_number FROM t_prm_parameters"
                     " WHERE prm_name = 'Operator')", (record_id,))
    conn.close()
    captured = cli_with_sytherm("list", expect=1)
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("ERROR StorageUnavailable: ")
    assert f"measurement {record_id}: Operator val_text 'a\\nb' does not read back" in captured.err


def test_gen_import_analyze_tau(cli_with_sytherm, tmp_path):
    gen_path = tmp_path / "synth.lvm"
    cli_with_sytherm("gen", "--tau", "15", "--y0", "100", "--yinf", "20",
                     "--dt", "1", "--n", "120", "--channels", "3",
                     "--out", str(gen_path))
    out = cli_with_sytherm("import", str(gen_path), "--equipment", "SYTHERM").out
    record_id = out.strip().splitlines()[-1]
    tau_out = cli_with_sytherm("analyze", "tau", record_id, "--channel", "1").out
    assert 14.5 <= float(tau_out.strip()) <= 15.5


def test_analyze_a_channel_the_record_lacks_is_one_error_line(cli_with_sytherm):
    record_id = import_annex(cli_with_sytherm)
    captured = cli_with_sytherm("analyze", "tau", record_id, "--channel", "9", expect=1)
    assert captured.out == ""
    assert captured.err.splitlines() == ["ERROR IndexOutOfRange: channel 9 of 3"]


def test_analyze_nonlin(cli_with_sytherm, tmp_path):
    gen_path = tmp_path / "flat.lvm"
    cli_with_sytherm("gen", "--tau", "1", "--y0", "52", "--yinf", "52",
                     "--dt", "1", "--n", "3", "--out", str(gen_path))
    out = cli_with_sytherm("import", str(gen_path), "--equipment", "SYTHERM",
                           expect=1)
    # 1-channel file against the 3-channel model
    assert out.err.startswith("ERROR ChannelCountMismatch")

    cli_with_sytherm("model", "sytherm", "--channels", "1", expect=1)  # duplicate name
    err = cli_with_sytherm("analyze", "nonlin", "999", "--refs", "50",
                           "--tref30", "300", expect=1).err
    assert err.startswith("ERROR NotFound")


def test_analyze_nonlin_values(cli, tmp_path):
    cli("init")
    cli("model", "sytherm", "--channels", "1")
    cli("proc", "add", "LVM_PARSING")
    cli("bind", "SYTHERM", "LVM_PARSING", "lvm")
    gen_path = tmp_path / "flat.lvm"
    cli("gen", "--tau", "1", "--y0", "52", "--yinf", "52", "--dt", "1", "--n", "3",
        "--out", str(gen_path))
    record_id = cli("import", str(gen_path), "--equipment", "SYTHERM").out.strip().splitlines()[-1]
    out = cli("analyze", "nonlin", record_id, "--refs", "50,50,50", "--tref30", "300").out
    assert out.splitlines() == ["0.800000", "0.800000", "0.800000"]


def test_usage_error_exit_code(cli):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def test_parser_is_built_once_and_a_usage_error_leaves_no_trace(cli_with_sytherm, tmp_path):
    cli = cli_with_sytherm
    record_id = import_annex(cli)
    assert build_parser() is build_parser()
    commands = (("show", record_id), ("list",))
    first = [(c.out, c.err) for c in (cli(*argv) for argv in commands)]
    gen = ("gen", "--tau", "1", "--y0", "52", "--yinf", "52", "--dt", "1", "--n", "3",
           "--out", str(tmp_path / "gen.lvm"))
    for argv in (("list", "--operator", "Nobody", "--bogus"), ("show", "not-a-number"),
                 ("analyze", "tau", record_id, "--channel", "x"),
                 ("analyze", "nonlin", record_id, "--refs", "50,x", "--tref30", "300"),
                 # reals follow the one real grammar: no nan, inf, '_' or overflow
                 ("analyze", "nonlin", record_id, "--refs", "nan," * 15 + "50",
                  "--tref30", "100"),
                 ("analyze", "nonlin", record_id, "--refs", "50", "--tref30", "inf"),
                 ("analyze", "nonlin", record_id, "--refs", "1_0", "--tref30", "300"),
                 ("analyze", "nonlin", record_id, "--refs", "50", "--tref30", "1e999"),
                 (*gen, "--noise", "nan"), (*gen[:2], "inf", *gen[3:]),
                 (*gen[:4], "1_0", *gen[5:]), (*gen[:2], "1\n", *gen[3:]),
                 # integers follow the one integer grammar: no '_', space or non-ASCII digit
                 ("show", "1_0"), ("show", " 1"), ("show", "١"),
                 (*gen[:10], "3\n", *gen[11:]), (*gen, "--seed", "٠"),
                 ("analyze", "tau", record_id, "--channel", "0_0"),
                 ("model", "sytherm", "--channels", "+3 "),
                 ("no-such-command",)):
        assert cli(*argv, expect=2).err.startswith("usage: lvmforge"), argv
    for _ in range(2):
        assert [(c.out, c.err) for c in (cli(*argv) for argv in commands)] == first
    assert not (tmp_path / "gen.lvm").exists()


def test_missing_store_path(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LVMFORGE_STORE", raising=False)
    assert run(["list"]) == 2
    assert "MissingStorePath" in capsys.readouterr().err


def test_store_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LVMFORGE_STORE", str(tmp_path / "env.db"))
    assert run(["init"]) == 0
    capsys.readouterr()
    assert run(["list"]) == 0


def test_storage_failure_is_one_error_line(cli_with_sytherm, tmp_path):
    record_id = import_annex(cli_with_sytherm)
    store_path = tmp_path / "store.db"
    conn = sqlite3.connect(store_path)
    conn.execute("DROP TABLE t_ser_series")
    conn.close()
    for argv in (("show", record_id), ("remove", record_id),
                 ("import", str(ANNEX1_PATH), "--equipment", "SYTHERM")):
        lines = cli_with_sytherm(*argv, expect=1).err.splitlines()
        assert len(lines) == 1, argv
        assert lines[0].startswith("ERROR StorageUnavailable:"), argv
        assert str(store_path) in lines[0], argv


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_pipe_exits_as_sigpipe_with_no_error_line(cli_with_sytherm, tmp_path,
                                                                  unbuffered):
    record_id = import_annex(cli_with_sytherm)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the command writes
    try:
        result = subprocess.run(
            [sys.executable, "-m", "lvmforge.cli", "--store", str(tmp_path / "store.db"),
             "show", record_id], stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=120)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")


_ANNEX = ("import", str(ANNEX1_PATH), "--equipment", "SYTHERM")
# every command that reads a record's samples
_READS = [("show", "1"), ("export", "1", "--format", "csv", "--out", os.devnull),
          ("export", "1", "--format", "xml", "--out", os.devnull), ("analyze", "tau", "1")]


@pytest.mark.parametrize("damage, commands, error, named", [
    ("UPDATE t_msr_measurements SET msr_aux = 'not json'", [("show", "1")],
     "StorageUnavailable", "measurement 1: msr_aux"),
    ("UPDATE t_msr_measurements SET msr_imported_at = 'yesterday'", [("show", "1"), ("list",)],
     "StorageUnavailable", "measurement 1: msr_imported_at"),
    ("UPDATE t_msr_measurements SET msr_series = '[99]'", [("show", "1")],
     "StorageUnavailable", "measurement 1: msr_series"),
    ("UPDATE t_msr_measurements SET msr_warnings = '[1]'", [("show", "1")],
     "StorageUnavailable", "measurement 1: msr_warnings"),
    ("UPDATE t_val_values SET prm_number = 99 WHERE val_number = 1", [("show", "1")],
     "StorageUnavailable", "measurement 1: prm_number 99"),
    ("UPDATE t_prm_parameters SET prm_category = 'Bogus' WHERE prm_name = 'Operator'",
     [("show", "1"), ("model", "show", "SYTHERM"), _ANNEX],
     "MalformedDefinition", "parameter 'Operator': unknown category 'Bogus'"),
    # REAL affinity keeps text that does not look numeric, and any BLOB
    ("UPDATE t_ser_series SET ser_y = 'abc' WHERE ser_index = 3", _READS,
     "StorageUnavailable", "measurement 1: series Channel_0: ser_y is not all REAL"),
    ("UPDATE t_ser_series SET ser_x = X'00' WHERE ser_index = 3", _READS,
     "StorageUnavailable", "measurement 1: series Channel_0: ser_x is not all REAL"),
    # a value the grammar refuses fails every reader alike, as list fails on it
    ("UPDATE t_val_values SET val_text = 'a\nb' WHERE prm_number ="
     " (SELECT prm_number FROM t_prm_parameters WHERE prm_name = 'Operator')",
     [*_READS, ("list",)], "StorageUnavailable", "measurement 1: Operator val_text"),
    ("UPDATE t_prm_parameters SET prm_unit = 'Parsec' WHERE prm_name = 'Channel_0'",
     [("show", "1"), ("model", "show", "SYTHERM"), _ANNEX],
     "MalformedDefinition", "parameter 'Channel_0'"),
    ("UPDATE t_msr_measurements SET msr_sourcefile = 'run\n1.lvm'", [("show", "1"), ("list",)],
     "StorageUnavailable", "measurement 1: msr_sourcefile"),
    # a tab, which a store from before the String grammar refused it may hold
    ("UPDATE t_val_values SET val_text = 'a\tb' WHERE prm_number ="
     " (SELECT prm_number FROM t_prm_parameters WHERE prm_name = 'Operator')",
     [("list",), ("show", "1")], "StorageUnavailable", "measurement 1: Operator val_text"),
    ("UPDATE t_eqp_equipments SET eqp_producer = ' MagLab '",
     [("model", "show", "SYTHERM"), _ANNEX], "MalformedDefinition", "model 'SYTHERM': producer"),
])
def test_damaged_store_row_is_one_error_line(cli_with_sytherm, tmp_path, damage, commands,
                                             error, named):
    assert import_annex(cli_with_sytherm) == "1"
    store_path = tmp_path / "store.db"
    conn = sqlite3.connect(store_path)
    with conn:
        conn.execute(damage)
    conn.close()
    for argv in commands:
        captured = cli_with_sytherm(*argv, expect=1)
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.out, argv
        assert lines[0].startswith(f"ERROR {error}: {store_path}: "), argv
        assert named in lines[0], argv


def test_import_refuses_a_file_name_of_more_than_one_line(cli_with_sytherm, tmp_path):
    """list and show print the source file on one line, and list in one
    tab-separated field, so a name holding a line break or a tab is refused
    before any row is written."""
    import_annex(cli_with_sytherm)
    for name in ("run\n1.lvm", "run\t1.lvm"):
        shutil.copy(ANNEX1_PATH, tmp_path / name)
        before = _table_counts(tmp_path / "store.db")
        captured = cli_with_sytherm("import", str(tmp_path / name), "--equipment",
                                    "SYTHERM", expect=1)
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, captured.err
        assert lines[0].startswith("ERROR InvariantViolation: ")
        assert _table_counts(tmp_path / "store.db") == before
        assert len(cli_with_sytherm("list").out.splitlines()) == 1


def test_non_utf8_argument_is_one_error_line(cli_with_sytherm, tmp_path):
    # a byte that is not UTF-8 (cp1252 "é") arrives in argv as a lone surrogate
    import_annex(cli_with_sytherm)
    lone = os.fsdecode(b"caf\xe9")
    shutil.copy(ANNEX1_PATH, tmp_path / f"{lone}.lvm")
    for argv in (("edit", "1", "Operator", lone), ("list", "--operator", lone),
                 ("proc", "add", os.fsdecode(b"P\xe9")),
                 ("model", "show", os.fsdecode(b"S\xe9")),
                 ("import", str(tmp_path / f"{lone}.lvm"), "--equipment", "SYTHERM")):
        captured = cli_with_sytherm(*argv, expect=2)
        lines = captured.err.splitlines()
        assert len(lines) == 1, argv
        assert lines[0].startswith("ERROR InvalidArgument:"), argv
        assert "Traceback" not in captured.err + captured.out, argv
    listing = cli_with_sytherm("list").out.splitlines()
    assert len(listing) == 1 and listing[0].endswith("\tProfesor")


_WITHOUT_NUMPY = textwrap.dedent("""
    import os, sys
    sys.modules["numpy"] = None  # any numpy import now raises ImportError
    from lvmforge import cli

    work = sys.argv[1]
    gen, out = os.path.join(work, "gen.lvm"), os.path.join(work, "gen.csv")
    store = ["--store", os.path.join(work, "store.db")]
    for argv in (["init"], ["model", "sytherm"], ["proc", "add", "LVM_PARSING"],
                 ["bind", "SYTHERM", "LVM_PARSING", "lvm"],
                 ["gen", "--tau", "5", "--y0", "20", "--yinf", "100", "--dt", "1",
                  "--n", "40", "--noise", "0.02", "--channels", "3", "--out", gen],
                 ["import", gen, "--equipment", "SYTHERM"],
                 ["analyze", "tau", "1"],
                 ["analyze", "nonlin", "1", "--refs", ",".join(["50"] * 40),
                  "--tref30", "300"],
                 ["export", "1", "--format", "csv", "--out", out]):
        code = cli.run(store + argv)
        assert code == 0, (argv, code)
    print(os.path.getsize(out))
""")


def test_runtime_needs_no_numpy(tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.splitlines()[-1]) > 0
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, lvmforge.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert loaded.stdout.strip() == "False", loaded.stderr
