"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is asserted, so a plain ``pytest`` run is also
authoritative.
"""

import csv
import dataclasses
import io
import math
import random
import statistics
import time
import xml.etree.ElementTree as ET
from datetime import date, datetime

import pytest

from lvmforge import (
    ChannelSeries,
    ConceptCategory,
    HighPrecisionTime,
    MeasurementRecord,
    NonLinearityInput,
    ParsingBinding,
    ParsingProcedure,
    builtin_sytherm,
    channel_series,
    detect_steady_state,
    estimate_time_constant,
    init_schema,
    nonlinearity_error,
    parse_lvm,
    serialize_lvm,
    synth_first_order,
)
from lvmforge.cli import run
from lvmforge.errors import DenominatorZero, NoBinding
from lvmforge.ingest import LVM_HANDLER_ID
from lvmforge.model import make_typed

from docgen import random_document


def report(number: int, name: str):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_annex1_fidelity(annex1_bytes):
    started = time.perf_counter()
    doc = parse_lvm(annex1_bytes)
    elapsed = time.perf_counter() - started

    header = doc.header
    assert header.operator == "Profesor"
    assert header.date == date(2013, 2, 6)
    assert header.time == HighPrecisionTime(17, 49, 40, "8399038314819335937")
    segment = doc.segments[0]
    assert segment.channels == 3
    assert segment.delta_x == [1.0, 1.0, 1.0]
    assert len(segment.x) == 16
    assert [segment.x[0], *(column[0] for column in segment.columns)] == [
        0.0, 23.4, 23.4, 23.6]
    assert [segment.x[-1], *(column[-1] for column in segment.columns)] == [
        64.53125, 24.0, 24.0, 24.200001]
    assert elapsed < 1.0
    report(1, "Annex-1 fidelity")


def test_criterion_2_roundtrip_500_documents():
    started = time.perf_counter()
    rng = random.Random(20130206)
    for i in range(500):
        doc = random_document(rng, max_rows=200,
                              decimal_separator="," if i % 2 else ".")
        assert 1 <= doc.segments[0].channels <= 4
        assert parse_lvm(serialize_lvm(doc)) == doc
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, f"round-trip of 500 random documents in {elapsed:.1f}s")


def test_criterion_3_nonlinearity_oracle_equivalence():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(1, 10)
        t_ref30 = rng.uniform(-100, 400)
        t_ref = []
        for _ in range(n):
            offset = rng.choice([-1, 1]) * rng.uniform(1.0, 300.0)
            t_ref.append(t_ref30 - offset)
        t_real = [r + rng.uniform(-20, 20) for r in t_ref]
        result = nonlinearity_error(NonLinearityInput(tuple(t_real), tuple(t_ref), t_ref30))
        for i in range(n):
            direct = abs(t_real[i] - t_ref[i]) / (t_ref30 - t_ref[i]) * 100.0
            assert math.isclose(result[i], direct, rel_tol=1e-12, abs_tol=0.0)
    with pytest.raises(DenominatorZero):
        nonlinearity_error(NonLinearityInput((52.0,), (300.0,), 300.0))
    report(3, "Eq.-oracle equivalence over 1000 triples")


def test_criterion_4_time_constant_recovery():
    for tau in (1.0, 5.0, 15.0, 60.0):
        dt = tau / 20
        response = synth_first_order(100.0, 20.0, tau=tau, dt=dt, n=120)
        assert abs(estimate_time_constant(response) - tau) <= dt / 2

    errors = []
    for tau in (1.0, 5.0, 15.0, 60.0):
        dt = tau / 20
        for seed in range(25):
            response = synth_first_order(100.0, 20.0, tau=tau, dt=dt, n=120,
                                         noise_sigma=0.05, seed=seed)
            errors.append(abs(estimate_time_constant(response) - tau) / tau)
    assert len(errors) == 100
    assert statistics.median(errors) <= 0.02
    assert max(errors) <= 0.05
    report(4, f"time-constant recovery (noisy median {statistics.median(errors):.4%},"
              f" max {max(errors):.4%})")


def test_criterion_5_steady_state_oracle():
    def brute(ys, window, epsilon):
        for i in range(len(ys) - window + 1):
            chunk = ys[i:i + window]
            if max(chunk) - min(chunk) < epsilon:
                return i
        return None

    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(3, 500)
        style = rng.random()
        if style < 0.4:
            rate = rng.uniform(0.005, 0.3)
            ys = [20 + 80 * math.exp(-k * rate) + rng.gauss(0, 0.02) for k in range(n)]
        elif style < 0.7:
            ys = [rng.uniform(0, 3) for _ in range(n)]
        else:
            ys = [rng.uniform(0, 100)] * n
        window = rng.randint(2, min(10, n))
        epsilon = rng.choice([0.05, 0.2, 1.0, 5.0])
        assert detect_steady_state(ys, window, epsilon) == brute(ys, window, epsilon)
    report(5, "steady-state detector equals brute-force scan on 1000 series")


def test_criterion_6_dispatch_law(store, sytherm3):
    store.put_equipment(sytherm3)
    store.put_procedure(ParsingProcedure("LVM_PARSING", LVM_HANDLER_ID))
    store.put_binding(ParsingBinding("SYTHERM", "LVM_PARSING", "lvm"))

    assert store.resolve("SYTHERM", "x.lvm").name == "LVM_PARSING"
    stored_name = store._conn.execute(
        "SELECT efe_number FROM t_efe_equipmentfileextension").fetchone()[0]
    assert stored_name == "LVM_PARSING_LVM"
    with pytest.raises(NoBinding):
        store.resolve("SYTHERM", "x.txt")
    report(6, "dispatch law and LVM_PARSING_LVM binding name")


def test_criterion_7_end_to_end(tmp_path, capsys):
    store_path = str(tmp_path / "e2e.db")

    def cli(*argv) -> str:
        code = run(["--store", store_path, *argv])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    cli("init")
    cli("model", "sytherm", "--channels", "1")
    cli("proc", "add", "LVM_PARSING")
    cli("bind", "SYTHERM", "LVM_PARSING", "lvm")
    gen_path = tmp_path / "synthetic.lvm"
    cli("gen", "--tau", "15", "--y0", "100", "--yinf", "20", "--dt", "1",
        "--n", "120", "--out", str(gen_path))
    record_id = cli("import", str(gen_path), "--equipment", "SYTHERM").strip().splitlines()[-1]

    tau = float(cli("analyze", "tau", record_id).strip())
    assert 14.5 <= tau <= 15.5

    csv_path = tmp_path / "out.csv"
    cli("export", record_id, "--format", "csv", "--out", str(csv_path))
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    blank = rows.index([])
    assert rows[blank + 1][0] == "X_Value"
    xs, ys = channel_series(parse_lvm(gen_path.read_bytes()), 0, 0)
    data_rows = rows[blank + 2:]
    assert len(data_rows) == len(xs) == 120
    for row, x, y in zip(data_rows, xs, ys):
        assert abs(float(row[0]) - x) <= 5e-7
        assert abs(float(row[1]) - y) <= 5e-7

    xml_path = tmp_path / "out.xml"
    cli("export", record_id, "--format", "xml", "--out", str(xml_path))
    root = ET.parse(xml_path).getroot()
    with init_schema(store_path) as handle:
        val_rows = handle._conn.execute(
            "SELECT count(*) FROM t_val_values WHERE msr_number = ?",
            (int(record_id),)).fetchone()[0]
    assert len(root.findall("category/parameter")) == val_rows
    report(7, f"end-to-end gen/import/analyze/export (tau {tau:.3f})")


def test_criterion_8_store_integrity(tmp_path):
    model = builtin_sytherm(1)
    rng = random.Random(987)

    def fresh_record(i: int) -> MeasurementRecord:
        record = MeasurementRecord(
            equipment_name="SYTHERM",
            imported_at=datetime(2024, 1, 1, 0, 0, i % 60, i),
            source_file=f"run{i}.lvm",
            warnings=[f"w{i}"] if i % 3 == 0 else [],
            aux={"Notes": f"note {i}"} if i % 4 == 0 else {},
        )
        operator = rng.choice(["Profesor", "Student1", "Student2"])
        record.set_value(ConceptCategory.MEASUREMENT_INFORMATION, "Operator",
                         make_typed(model.parameter("Operator"), operator))
        record.set_value(ConceptCategory.EXPERIMENT_CHARACTERIZATION, "Channels",
                         make_typed(model.parameter("Channels"), "1"))
        if rng.random() < 0.8:
            ys = [rng.randint(0, 10**8) / 1e6 for _ in range(rng.randint(1, 6))]
            record.series.append(ChannelSeries("Channel_0", "CelsiusDegree",
                                               map(float, range(len(ys))), ys))
        return record

    with init_schema(tmp_path / "integrity.db") as store:
        store.put_equipment(model)
        reference: dict[int, MeasurementRecord] = {}
        for i in range(200):
            op = rng.random()
            if op < 0.45 or not reference:
                record = fresh_record(i)
                msr = store.put_measurement(record)
                reference[msr] = record
            elif op < 0.65:
                msr = rng.choice(list(reference))
                store.delete_measurement(msr)
                del reference[msr]
            elif op < 0.85:
                msr = rng.choice(list(reference))
                raw = rng.choice(["Profesor", "Student9", "abc"])
                if raw == "abc":
                    with pytest.raises(Exception):
                        store.update_value(msr, "Channels", raw)
                else:
                    store.update_value(msr, "Operator", raw)
                    reference[msr].set_value(
                        ConceptCategory.MEASUREMENT_INFORMATION, "Operator",
                        make_typed(model.parameter("Operator"), raw))
            else:
                msr = rng.choice(list(reference))
                got = store.get_measurement(msr)
                assert dataclasses.replace(got, record_id=None) == reference[msr]

        for msr, expected in reference.items():
            got = store.get_measurement(msr)
            assert dataclasses.replace(got, record_id=None) == expected
        for child in ("t_val_values", "t_ser_series"):
            orphans = store._conn.execute(
                f"SELECT count(*) FROM {child} c"
                " LEFT JOIN t_msr_measurements m ON m.msr_number = c.msr_number"
                " WHERE m.msr_number IS NULL").fetchone()[0]
            assert orphans == 0
        stored = store._conn.execute(
            "SELECT count(*) FROM t_msr_measurements").fetchone()[0]
        assert stored == len(reference)
    report(8, "store integrity over 200 interleaved operations")
