"""The benchmark's three workloads: set-up, the timed mix and correctness checks.

Every workload is closed-loop with one client: one process, one thread,
and the next operation starts only after the previous one returned.  A run
sets up SETUP_REPEATS times from scratch and keeps the last store, then
repeats the workload's cycle for the requested seconds, then verifies.

A cycle runs the workload's main operation group and, at the rates in
MIXES, the other groups: an import, a read (CSV export, XML export,
analysis) and an operator's CLI command sequence.  Every end-to-end metric
is thus measured on every workload, and each metric's samples are spread
over the whole timed window rather than bunched in one short phase, which
keeps them steady on a machine whose speed drifts.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import math
import os
import random
import re
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy

from lvmforge import analysis, cli, export, ingest, lvm, model
from lvmforge import store as store_mod
from lvmforge.ingest import LVM_HANDLER_ID, ParsingProcedure, Registry

import lvmgen
from tracing import Tracer

EQUIPMENT = "SYTHERM"
PROCEDURE = "LVM_PARSING"
SETUP_REPEATS = 3
MIN_CYCLES = 20  # a tail percentile needs ten samples beyond it

# ingest_bulk: the lab's batch import of long acquisitions
BULK_ROWS, BULK_CHANNELS, BULK_DT = 5000, 8, 0.1
BULK_EMPTY_SHARE = 0.002
BULK_POOL = 4  # files written during set-up; later ones are written between imports

# export_read: record size capped by the quadratic CSV export (see README.md)
READ_ROWS, READ_CHANNELS, READ_RECORDS = 500, 8, 24

# lab_session: a few hundred small records, CLI fixed costs dominate
LAB_ROWS, LAB_CHANNELS, LAB_PRELOAD = 120, 3, 200
ANNEX_EVERY = 10  # every tenth preloaded record is the Annex-1 fixture

SIDE_RECORDS = 4  # small records that ingest_bulk's reads use
SESSION_WINDOW = 3  # session records kept before the CLI removes the oldest


@dataclass(frozen=True)
class Mix:
    """Channels of the workload's store, and every how many cycles each
    group that is not the workload's main one runs."""

    channels: int
    import_every: int
    read_every: int
    cli_every: int


MIXES = {
    "ingest_bulk": Mix(channels=BULK_CHANNELS, import_every=0, read_every=1, cli_every=3),
    "export_read": Mix(channels=READ_CHANNELS, import_every=2, read_every=0, cli_every=3),
    "lab_session": Mix(channels=LAB_CHANNELS, import_every=1, read_every=1, cli_every=1),
}

# scaling probes (traced runs only): n and 2n rows x 8 channels, each stage
# repeated at least PROBE_REPEATS times and for at least PROBE_SECONDS
PROBE_ROWS = 500
PROBE_REPEATS = 5
PROBE_SECONDS = 1.0

# tau from the 63.2% crossing lands within this of the generator's tau
TAU_REL_TOL, TAU_DT_TOL = 0.02, 0.5

_FIXED6 = re.compile(r"^-?\d+\.\d{6}$")
_MAX_NOTES = 20

# Removing a record that was imported only to time the import is clean-up,
# not a measured operation; this reference bypasses the tracer's patch.
_DELETE = store_mod.Store.delete_measurement

# what the traced run cannot see from outside the program, and why
NOT_MEASURED = (
    ("store.put_measurement commit/fsync wait",
     "the commit runs inside put_measurement's transaction block, so it is part"
     " of put_measurement's self time"),
    ("lvm.parse_lvm split vs number conversion",
     "both happen inside one parse_lvm call with no public boundary"),
    ("cli argparse, logging and connection set-up",
     "they run inside cli.run and are part of its self time"),
)


def count_data_rows(data: bytes) -> int:
    """Data rows of a one-segment .lvm file: the lines after the column names."""
    lines = [line for line in data.decode("utf-8").splitlines() if line.strip()]
    terminators = [i for i, line in enumerate(lines)
                   if line.rstrip("\t, ") == "***End_of_Header***"]
    return len(lines) - terminators[1] - 2


def _filesystem(path: str) -> str:
    try:
        result = subprocess.run(["stat", "-f", "-c", "%T", path], capture_output=True,
                                text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() or "unknown"


def _get_csv(store, record_id):
    return export.export_csv(store.get_measurement(record_id))


def _get_xml(store, record_id):
    return export.export_xml(store.get_measurement(record_id))


def _analyze(store, record_id, channel, refs):
    points = store.get_measurement(record_id).series[channel].points
    tau = analysis.estimate_time_constant(analysis.step_response_from_series(points))
    eps = analysis.nonlinearity_error(analysis.NonLinearityInput(
        t_real=tuple(y for _, y in points), t_ref=refs, t_ref30=lvmgen.TREF30))
    return points, tau, eps


def _tau_ok(estimate: float, tau: float, dt: float) -> bool:
    return abs(estimate - tau) <= TAU_REL_TOL * tau + TAU_DT_TOL * dt


def csv_problems(data: bytes, abscissae: int, channels: int) -> list[str]:
    """The series block has a header row plus one row per abscissa, '.' decimals."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if [] not in rows:
        return ["csv: no series block"]
    blank = rows.index([])
    header, body = rows[blank + 1], rows[blank + 2:]
    problems = []
    if header[:1] != ["X_Value"] or len(header) != 1 + channels:
        problems.append(f"csv: series header {header[:3]}... for {channels} channels")
    if len(body) != abscissae:
        problems.append(f"csv: {len(body)} series rows, expected {abscissae}")
    if any(value and not _FIXED6.match(value) for row in body for value in row):
        problems.append("csv: a series value is not a '.'-decimal fixed-6 number")
    return problems


def xml_problems(data: bytes, points_per_series: list[int]) -> list[str]:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"xml: does not parse: {exc}"]
    got = [len(series.findall("point")) for series in root.findall("series")]
    return [] if got == points_per_series else [
        f"xml: points per series {got}, expected {points_per_series}"]


class Run:
    """State of one benchmark run: samples, failures, the tracer and the store."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work: str, annex: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.mix = MIXES[workload]
        self.work, self.annex = work, annex
        with open(annex, "rb") as handle:
            self.annex_data = handle.read()
        self.annex_rows = count_data_rows(self.annex_data)
        self.tracer = Tracer() if trace else None
        self.rng = random.Random(f"{seed}/{workload}")
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.traced_samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.in_setup = False
        self.setup_s: list[float] = []
        self.import_bytes = 0  # .lvm bytes behind the untraced "import" samples
        self.digest = hashlib.sha256()
        self.digest_files = self.digest_bytes = 0
        self.store_path = ""
        self.live: dict[int, tuple[int, int]] = {}  # record id -> (points, .lvm bytes)
        self.window: deque = deque()  # the CLI session's records, oldest first

    # -- bookkeeping ---------------------------------------------------------

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < _MAX_NOTES:
            self.notes.append(note)

    def judge(self, problems: list[str]) -> None:
        """Count one failure for an operation whose output has problems."""
        if problems:
            self.fail(problems[0])

    def verify(self, problems: list[str]) -> None:
        """A check that is an operation of its own."""
        self.attempted += 1
        self.judge(problems)

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.installed

    def timed(self, kind: str, fn: Callable, *args):
        """Run one operation; its time goes to ``kind`` unless it raises."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:  # every failure is counted, the run goes on
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        elapsed_ms = (time.perf_counter_ns() - start) / 1e6
        (self.traced_samples if self.tracing else self.samples)[kind].append(elapsed_ms)
        return result

    @contextlib.contextmanager
    def op(self, kind: str, name: str = ""):
        """Root span of one operation when tracing: its callees share its id."""
        if self.tracing:
            with self.tracer.op("bench." + (name or kind), kind):
                yield
        else:
            yield

    @contextlib.contextmanager
    def traced(self, on: bool):
        if self.tracer is None or not on:
            yield
            return
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def write_input(self, directory: str, name: str, data: bytes) -> str:
        path = os.path.join(directory, name)
        with open(path, "wb") as handle:
            handle.write(data)
        if self.in_setup:
            self.digest.update(data)
            self.digest_files += 1
            self.digest_bytes += len(data)
        return path

    # -- set-up ------------------------------------------------------------------

    def new_store(self, directory: str):
        self.store_path = os.path.join(directory, "store.db")
        store = store_mod.init_schema(self.store_path)
        store.put_equipment(model.builtin_sytherm(self.mix.channels))
        store.put_procedure(ParsingProcedure(PROCEDURE, LVM_HANDLER_ID))
        registry = Registry.from_store(store)
        store.put_binding(registry.bind(EQUIPMENT, PROCEDURE, "lvm"))
        self.live = {}
        return store, registry

    def repeat_setup(self, setup: Callable[[str], tuple]):
        """Set up SETUP_REPEATS times from scratch; keep the last one."""
        self.in_setup = True
        state = None
        for index in range(SETUP_REPEATS):
            if state is not None:
                state[0].close()
                shutil.rmtree(os.path.join(self.work, f"setup-{index - 1}"))
            directory = os.path.join(self.work, f"setup-{index}")
            os.makedirs(directory)
            self.digest = hashlib.sha256()
            self.digest_files = self.digest_bytes = 0
            start = time.perf_counter()
            state = setup(directory)
            self.setup_s.append(time.perf_counter() - start)
        self.in_setup = False
        # A CLI user's process holds no benchmark state: keep the objects
        # set-up left behind (expected samples, preloaded inputs) out of the
        # garbage collector's passes during the timed cycles.
        gc.collect()
        gc.freeze()
        return state

    def cycles(self):
        """Cycle indices until the timed seconds are spent."""
        end = time.perf_counter() + self.seconds
        index = 0
        while time.perf_counter() < end or index < MIN_CYCLES:
            yield index
            index += 1

    # -- the operation groups ------------------------------------------------------

    def import_file(self, store, registry, path: str, points: int,
                    timed: bool = True) -> Optional[int]:
        """One ``import_file`` through the public API, timed as "import"."""
        size = os.path.getsize(path)
        if not timed:
            record_id = ingest.import_file(path, EQUIPMENT, registry, store)
        else:
            with self.op("import"):
                record_id = self.timed("import", ingest.import_file, path, EQUIPMENT,
                                       registry, store)
            if record_id is None:
                return None
            if not self.tracing:
                self.import_bytes += size
        self.live[record_id] = (points, size)
        return record_id

    def import_and_remove(self, store, registry, directory: str,
                          generated: lvmgen.LvmFile) -> None:
        """Time one import, then remove the record so the store holds steady."""
        path = self.write_input(directory, "import.lvm", generated.data)
        record_id = self.import_file(store, registry, path, generated.point_count)
        if record_id is not None:
            _DELETE(store, record_id)
            del self.live[record_id]

    def read_cycle(self, store, record_id: int, generated: lvmgen.LvmFile,
                   channel: int) -> None:
        """get+CSV, get+XML and get+tau+nonlin on one record, then check them."""
        counts = [len(points) for points in generated.points]
        abscissae = len({x for points in generated.points for x, _ in points})
        with self.op("export_csv"):
            data = self.timed("export_csv", _get_csv, store, record_id)
        if data is not None:
            self.judge(csv_problems(data, abscissae, len(counts)))
        with self.op("export_xml"):
            data = self.timed("export_xml", _get_xml, store, record_id)
        if data is not None:
            self.judge(xml_problems(data, counts))
        curve = generated.curves[channel]
        refs = tuple(curve.at(x) for x, _ in generated.points[channel])
        with self.op("analyze"):
            result = self.timed("analyze", _analyze, store, record_id, channel, refs)
        if result is None:
            return
        points, tau, eps = result
        problems = []
        if not _tau_ok(tau, curve.tau, generated.dt):
            problems.append(f"tau {tau:.4f} for generator tau {curve.tau:.4f}")
        expected = [abs(y - r) / (lvmgen.TREF30 - r) * 100.0
                    for (_, y), r in zip(points, refs)]
        if len(eps) != len(expected) or not all(
                math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                for a, b in zip(eps, expected)):
            problems.append(f"nonlinearity error of record {record_id} differs")
        self.judge(problems)

    def cli(self, *argv: str) -> Optional[str]:
        """One timed ``lvmforge.cli.run`` command; its stdout, None on failure."""
        out, err = io.StringIO(), io.StringIO()
        with self.op("cli", "cli." + argv[0]), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = self.timed("cli", cli.run, ["--store", self.store_path, *argv])
        if code is None:
            return None
        if code != 0:
            self.fail(f"cli {' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")
            return None
        return out.getvalue()

    def cli_cycle(self, index: int, directory: str) -> None:
        """The operator's fixed command sequence against the store."""
        channels = self.mix.channels
        rng = random.Random(f"{self.seed}/{self.workload}/cli/{index}")
        tau = round(rng.uniform(5.0, 15.0), 3)
        operator = rng.choice(lvmgen.OPERATORS)
        gen_path = os.path.join(directory, "gen.lvm")
        self.cli("gen", "--tau", str(tau), "--y0", "20", "--yinf", "100", "--dt", "1",
                 "--n", str(LAB_ROWS), "--noise", "0.02", "--seed", str(index),
                 "--channels", str(channels), "--operator", operator, "--out", gen_path)
        # the Annex-1 fixture has 3 channels, so only a 3-channel store takes it
        use_annex = channels == LAB_CHANNELS and index % 2 == 1
        source = self.annex if use_annex else gen_path
        out = self.cli("import", source, "--equipment", EQUIPMENT)
        if out is None:
            return
        record_id = int(out.split()[-1])
        rows = self.annex_rows if use_annex else LAB_ROWS
        self.live[record_id] = (rows * channels, os.path.getsize(source))
        self.window.append(record_id)
        rid = str(record_id)
        self.cli("list", "--operator", operator)
        self.cli("show", rid)
        self.cli("edit", rid, "Operator", rng.choice(lvmgen.OPERATORS))
        for fmt in ("csv", "xml"):
            self.cli("export", rid, "--format", fmt,
                     "--out", os.path.join(directory, f"export.{fmt}"))
        channel = str(rng.randrange(channels))
        out = self.cli("analyze", "tau", rid, "--channel", channel)
        if out is not None and not use_annex and not _tau_ok(float(out), tau, 1.0):
            self.fail(f"cli analyze tau {out.strip()} for gen tau {tau}")
        curve = lvmgen.Curve(20.0, 100.0, tau)
        refs = ",".join("%.6f" % (23.5 if use_annex else curve.at(float(k)))
                        for k in range(rows))
        out = self.cli("analyze", "nonlin", rid, "--refs", refs,
                       "--tref30", str(lvmgen.TREF30), "--channel", channel)
        if out is not None and len(out.split()) != rows:
            self.fail(f"cli analyze nonlin printed {len(out.split())} values, expected {rows}")
        if len(self.window) > SESSION_WINDOW:
            oldest = self.window.popleft()
            if self.cli("remove", str(oldest)) is not None:
                del self.live[oldest]

    def other_groups(self, index: int, store, directory: str, reads=None,
                     imports=None, registry=None) -> None:
        """The groups a workload runs besides its main one, at the mix's rates."""
        mix = self.mix
        if mix.read_every and index % mix.read_every == 0:
            record_id, generated = reads[index % len(reads)]
            self.read_cycle(store, record_id, generated,
                            self.rng.randrange(len(generated.curves)))
        if mix.import_every and index % mix.import_every == 0:
            self.import_and_remove(store, registry, directory, imports(index))
        if mix.cli_every and index % mix.cli_every == 0:
            self.cli_cycle(index // mix.cli_every, directory)

    # -- verification ------------------------------------------------------------

    def verify_records(self, store, records: list[tuple[int, str, Callable]]) -> None:
        """get_measurement equals the mapped record for a seeded sample of ids."""
        equipment = model.builtin_sytherm(self.mix.channels)
        for record_id, source_file, regenerate in self.rng.sample(records, min(3, len(records))):
            generated = regenerate()
            try:
                stored = store.get_measurement(record_id)
                mapped = ingest.map_lvm_to_record(lvm.parse_lvm(generated.data), equipment,
                                                  source_file=source_file)
            except Exception as exc:  # a failing check is counted, not raised
                self.verify([f"verify record {record_id}: {type(exc).__name__}: {exc}"])
                continue
            problems = [
                f"record {record_id}: {name} differs from the mapped record"
                for name in ("equipment_name", "source_file", "values", "series",
                             "warnings", "aux")
                if getattr(stored, name) != getattr(mapped, name)]
            if tuple(series.points for series in stored.series) != generated.points:
                problems.append(f"record {record_id}: series differ from the generated samples")
            self.verify(problems)

    def verify_counts(self) -> None:
        """Stored measurements and series rows match imports minus removals."""
        conn = sqlite3.connect(self.store_path)
        try:
            measurements = conn.execute("SELECT count(*) FROM t_msr_measurements").fetchone()[0]
            rows = conn.execute("SELECT count(*) FROM t_ser_series").fetchone()[0]
        finally:
            conn.close()
        expected = (len(self.live), sum(points for points, _ in self.live.values()))
        self.verify([] if (measurements, rows) == expected else [
            f"store holds {measurements} measurements / {rows} series rows,"
            f" expected {expected[0]} / {expected[1]}"])

    # -- scaling probes ------------------------------------------------------------

    def scaling_probes(self) -> dict[str, float]:
        """Per stage, median time at 2n rows over median time at n rows.

        The two sizes alternate within each repetition, so a drift in the
        machine's speed affects both alike.
        """
        directory = os.path.join(self.work, "probes")
        os.makedirs(directory)
        equipment = model.builtin_sytherm(READ_CHANNELS)
        store = store_mod.init_schema(os.path.join(directory, "probe.db"))
        try:
            store.put_equipment(equipment)
            sizes = (PROBE_ROWS, 2 * PROBE_ROWS)
            data = {n: lvmgen.make_lvm(self.seed, "probe", n, n, READ_CHANNELS, layout=0,
                                       with_points=False).data for n in sizes}
            records = {n: ingest.map_lvm_to_record(lvm.parse_lvm(data[n]), equipment,
                                                   source_file="probe.lvm") for n in sizes}
            ids = {n: store.put_measurement(records[n]) for n in sizes}
            stored = {n: store.get_measurement(ids[n]) for n in sizes}
            stages = {
                "lvm.parse_lvm": lambda n: lvm.parse_lvm(data[n]),
                "store.put_measurement": lambda n: store.put_measurement(records[n]),
                "store.get_measurement": lambda n: store.get_measurement(ids[n]),
                "export.export_csv": lambda n: export.export_csv(stored[n]),
                "export.export_xml": lambda n: export.export_xml(stored[n]),
            }
            ratios = {}
            for name, stage in stages.items():
                times: dict[int, list[float]] = {n: [] for n in sizes}
                spent = 0.0
                while len(times[sizes[0]]) < PROBE_REPEATS or spent < PROBE_SECONDS:
                    for n in sizes:
                        gc.collect()
                        start = time.perf_counter()
                        stage(n)
                        times[n].append(time.perf_counter() - start)
                        spent += times[n][-1]
                ratios[name] = statistics.median(times[sizes[1]]) / statistics.median(times[sizes[0]])
        finally:
            store.close()
        return ratios

    # -- environment ---------------------------------------------------------------

    def environment(self, store) -> list[str]:
        """SQLite settings of the program's own connection, and the platform."""
        conn = getattr(store, "_conn", None)
        pragmas = {}
        for name in ("journal_mode", "synchronous", "cache_size", "page_size"):
            try:
                pragmas[name] = conn.execute(f"PRAGMA {name}").fetchone()[0]
            except (AttributeError, sqlite3.Error):
                pragmas[name] = "unavailable"
        return [
            f"env sqlite={sqlite3.sqlite_version} journal_mode={pragmas['journal_mode']}"
            f" synchronous={pragmas['synchronous']} cache_size={pragmas['cache_size']}"
            f" page_size={pragmas['page_size']}",
            f"env python={sys.version.split()[0]} numpy={numpy.__version__}"
            f" nproc={os.cpu_count()} fs={_filesystem(self.work)}",
        ]


# -- workloads -------------------------------------------------------------------


def _small(run: Run, stream: str, index: int, channels: int) -> lvmgen.LvmFile:
    """A gen-sized full-grid file, tab-separated with "," decimals like ``gen``."""
    return lvmgen.make_lvm(run.seed, stream, index, LAB_ROWS, channels, layout=0)


def _bulk(run: Run, index: int, with_points: bool = False) -> lvmgen.LvmFile:
    return lvmgen.make_lvm(run.seed, "bulk", index, BULK_ROWS, BULK_CHANNELS, dt=BULK_DT,
                           empty_share=BULK_EMPTY_SHARE, with_points=with_points)


def ingest_bulk(run: Run):
    def setup(directory):
        store, registry = run.new_store(directory)
        pool = []
        for index in range(BULK_POOL):
            generated = _bulk(run, index)
            path = run.write_input(directory, f"bulk-{index}.lvm", generated.data)
            pool.append((path, generated.point_count))
        side = []
        for index in range(SIDE_RECORDS):
            generated = _small(run, "side", index, BULK_CHANNELS)
            path = run.write_input(directory, f"side-{index}.lvm", generated.data)
            side.append((run.import_file(store, registry, path, generated.point_count,
                                         timed=False), generated))
        return store, registry, pool, side, directory

    store, registry, pool, side, directory = run.repeat_setup(setup)
    imported = []
    for index in run.cycles():
        if index < len(pool):
            path, points = pool[index]
        else:
            generated = _bulk(run, index)
            path = run.write_input(directory, f"bulk-{index}.lvm", generated.data)
            points = generated.point_count
        with run.traced(index % 2 == 0):
            record_id = run.import_file(store, registry, path, points)
            run.other_groups(index, store, directory, reads=side)
        os.remove(path)
        if record_id is not None:
            imported.append((record_id, f"bulk-{index}.lvm",
                             lambda i=index: _bulk(run, i, with_points=True)))
    run.verify_records(store, imported)
    return store


def export_read(run: Run):
    def setup(directory):
        store, registry = run.new_store(directory)
        records = []
        for index in range(READ_RECORDS):
            generated = lvmgen.make_lvm(run.seed, "read", index, READ_ROWS, READ_CHANNELS)
            name = f"read-{index}.lvm"
            path = run.write_input(directory, name, generated.data)
            record_id = run.import_file(store, registry, path, generated.point_count,
                                        timed=False)
            records.append((record_id, name, generated))
        return store, registry, records, directory

    store, registry, records, directory = run.repeat_setup(setup)

    def imports(index):
        return lvmgen.make_lvm(run.seed, "read-import", index, READ_ROWS, READ_CHANNELS)

    for index in run.cycles():
        record_id, _, generated = run.rng.choice(records)
        with run.traced(index % 2 == 0):
            run.read_cycle(store, record_id, generated, run.rng.randrange(READ_CHANNELS))
            run.other_groups(index, store, directory, imports=imports, registry=registry)
    run.verify_records(store, [(record_id, name, lambda g=generated: g)
                               for record_id, name, generated in records])
    return store


def lab_session(run: Run):
    def setup(directory):
        store, registry = run.new_store(directory)
        run.digest.update(run.annex_data)
        run.digest_files += 1
        run.digest_bytes += len(run.annex_data)
        records = []
        for index in range(LAB_PRELOAD):
            if index % ANNEX_EVERY == 0:
                run.import_file(store, registry, run.annex, run.annex_rows * LAB_CHANNELS,
                                timed=False)
                continue
            generated = _small(run, "lab", index, LAB_CHANNELS)
            name = f"lab-{index}.lvm"
            path = run.write_input(directory, name, generated.data)
            record_id = run.import_file(store, registry, path, generated.point_count,
                                        timed=False)
            records.append((record_id, name, generated))
        return store, registry, records, directory

    store, registry, records, directory = run.repeat_setup(setup)
    reads = [(record_id, generated) for record_id, _, generated in records]

    def imports(index):
        return _small(run, "lab-import", index, LAB_CHANNELS)

    # the CLI command sequence is this workload's main group (cli_every=1)
    for index in run.cycles():
        with run.traced(index % 2 == 0):
            run.other_groups(index, store, directory, reads=reads, imports=imports,
                             registry=registry)
    run.verify_records(store, [(record_id, name, lambda g=generated: g)
                               for record_id, name, generated in records])
    return store


WORKLOADS = {"ingest_bulk": ingest_bulk, "export_read": export_read,
             "lab_session": lab_session}
