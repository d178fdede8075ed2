"""Command-line surface for the measurement-integration pipeline.

One binary with subcommands covering the whole workflow: create a store,
install equipment models and parsing procedures, import .lvm files, list,
view, edit and remove measurements, export to XML/CSV, run the
thermocouple analyses and generate synthetic .lvm files.

``run`` owns each command's lifecycle: it parses the arguments, opens the
store (``init_schema``, so a path with no store yet gets an empty one),
calls the command's handler with the arguments and that store, closes the
store and returns the exit status.  A handler does only its command's
work.  ``gen`` writes a file and opens no store.

Success output is line oriented and stable; record ids are printed alone
on the final line.  Domain errors map to one ``ERROR <Name>: <detail>``
line on stderr and exit code 1; usage errors and non-UTF-8 arguments exit 2.
A stdout whose reader has closed (``lvmforge show 1 | head -1``) is no
error of the command: ``main`` exits 141 (128 + SIGPIPE), as a shell
reports a process SIGPIPE ended, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from datetime import datetime

from . import analysis, export as export_mod, store as store_mod
from .errors import IndexOutOfRange, LvmforgeError
from .ingest import ParsingBinding, ParsingProcedure, import_file
from .lvm import HighPrecisionTime, read_date, read_int, read_real, read_text, serialize_lvm
from .model import (
    ConceptCategory,
    builtin_sytherm,
    parse_model_definition,
    render_canonical,
    render_model_definition,
)

STORE_ENV_VAR = "LVMFORGE_STORE"


def _argument(read, what: str):
    """An argparse type that reads through a lvm grammar reader, which
    returns None for text outside its grammar."""
    def convert(text: str):
        value = read(text)
        if value is None:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value
    return convert


_int = _argument(read_int, "an integer")
_real = _argument(read_real, "a real")
_date = _argument(read_date, "a YYYY/MM/DD date")


def _reals(text: str) -> tuple[float, ...]:
    return tuple(map(_real, text.split(",")))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and building the tree costs milliseconds."""
    parser = argparse.ArgumentParser(
        prog="lvmforge",
        description="Import, store, analyze and export LabVIEW .lvm measurements.")
    parser.add_argument("--store", help=f"store path (or set {STORE_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init", help="create an empty store").set_defaults(func=_cmd_init)

    model = sub.add_parser("model", help="manage equipment models")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    p = model_sub.add_parser("add", help="install a model from a definition file")
    p.add_argument("definition_file")
    p.set_defaults(func=_cmd_model_add)
    model_sub.add_parser("list", help="list installed models").set_defaults(
        func=_cmd_model_list)
    p = model_sub.add_parser("show", help="print a model definition")
    p.add_argument("name")
    p.set_defaults(func=_cmd_model_show)
    p = model_sub.add_parser("remove", help="delete a model with its parameters and bindings")
    p.add_argument("name")
    p.set_defaults(func=_cmd_model_remove)
    p = model_sub.add_parser("sytherm", help="install the built-in SYTHERM model")
    p.add_argument("--channels", type=_int, default=3)
    p.set_defaults(func=_cmd_model_sytherm)

    proc = sub.add_parser("proc", help="manage parsing procedures")
    proc_sub = proc.add_subparsers(dest="proc_command", required=True)
    p = proc_sub.add_parser("add", help="register a parsing procedure")
    p.add_argument("name")
    p.set_defaults(func=_cmd_proc_add)

    p = sub.add_parser("bind", help="bind a procedure to (equipment, extension)")
    p.add_argument("equipment")
    p.add_argument("procedure")
    p.add_argument("extension")
    p.set_defaults(func=_cmd_bind)

    p = sub.add_parser("import", help="import a measurement file")
    p.add_argument("file")
    p.add_argument("--equipment", required=True)
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("list", help="list stored measurements")
    p.add_argument("--equipment")
    p.add_argument("--operator")
    p.add_argument("--from", dest="date_from", type=_date, metavar="YYYY/MM/DD")
    p.add_argument("--to", dest="date_to", type=_date, metavar="YYYY/MM/DD")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("show", help="print one measurement")
    p.add_argument("id", type=_int)
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("edit", help="replace one parameter value")
    p.add_argument("id", type=_int)
    p.add_argument("parameter")
    p.add_argument("value")
    p.set_defaults(func=_cmd_edit)

    p = sub.add_parser("remove", help="delete one measurement")
    p.add_argument("id", type=_int)
    p.set_defaults(func=_cmd_remove)

    p = sub.add_parser("export", help="export a measurement")
    p.add_argument("id", type=_int)
    p.add_argument("--format", required=True, choices=["xml", "csv"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    analyze = sub.add_parser("analyze", help="thermocouple analyses")
    analyze_sub = analyze.add_subparsers(dest="analyze_command", required=True)
    p = analyze_sub.add_parser("nonlin", help="per-point non-linearity error")
    p.add_argument("id", type=_int)
    p.add_argument("--refs", required=True, type=_reals, metavar="T1,T2,...",
                   help="reference temperatures, one per sample")
    p.add_argument("--tref30", type=_real, required=True,
                   help="reference temperature at ambient")
    p.add_argument("--channel", type=_int, default=0)
    p.set_defaults(func=_cmd_analyze_nonlin)
    p = analyze_sub.add_parser("tau", help="first-order time constant")
    p.add_argument("id", type=_int)
    p.add_argument("--channel", type=_int, default=0)
    p.set_defaults(func=_cmd_analyze_tau)

    p = sub.add_parser("gen", help="generate a synthetic first-order .lvm file")
    p.add_argument("--tau", type=_real, required=True)
    p.add_argument("--y0", type=_real, required=True)
    p.add_argument("--yinf", type=_real, required=True)
    p.add_argument("--dt", type=_real, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--noise", type=_real, default=0.0)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--channels", type=_int, default=1)
    p.add_argument("--operator", default="Generator")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for arg in argv:
        if read_text(arg) is None:
            print(f"ERROR InvalidArgument: {arg!r} is not UTF-8 text", file=sys.stderr)
            return 2
    try:
        args = build_parser().parse_args(argv)
        if args.command == "gen":
            args.func(args)
        else:
            with store_mod.init_schema(_store_path(args)) as store:
                args.func(args, store)
        return 0
    except SystemExit as exc:  # a usage error, or no store path
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:  # stdout's reader has gone: not an error of the command
        raise
    except (LvmforgeError, OSError) as exc:
        name = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        print(f"ERROR {name}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # where a closed pipe shows when stdout is buffered
    except BrokenPipeError:
        # The reader closed early, as in `lvmforge show 1 | head -1`.  Exit as a
        # process that SIGPIPE ended reports in a shell, and point stdout at
        # devnull so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)


def _store_path(args) -> str:
    path = args.store or os.environ.get(STORE_ENV_VAR)
    if not path:
        print(f"ERROR MissingStorePath: pass --store or set {STORE_ENV_VAR}",
              file=sys.stderr)
        raise SystemExit(2)
    return path


# -- command handlers: run passes each one the store it opened ----------

def _cmd_init(args, store) -> None:
    print(_store_path(args))


def _cmd_model_add(args, store) -> None:
    with open(args.definition_file, encoding="utf-8") as handle:
        model = parse_model_definition(handle.read())
    store.put_equipment(model)
    print(model.name)


def _cmd_model_list(args, store) -> None:
    for name in store.list_equipment():
        print(name)


def _cmd_model_show(args, store) -> None:
    print(render_model_definition(store.get_equipment(args.name)), end="")


def _cmd_model_remove(args, store) -> None:
    store.remove_equipment(args.name)


def _cmd_model_sytherm(args, store) -> None:
    model = builtin_sytherm(args.channels)
    store.put_equipment(model)
    print(model.name)


def _cmd_proc_add(args, store) -> None:
    procedure = ParsingProcedure(args.name)
    store.put_procedure(procedure)
    print(procedure.name)


def _cmd_bind(args, store) -> None:
    binding = ParsingBinding(args.equipment, args.procedure, args.extension)
    store.put_binding(binding)
    print(binding.binding_name)


def _cmd_import(args, store) -> None:
    print(import_file(args.file, args.equipment, None, store))


def _cmd_list(args, store) -> None:
    for s in store.query(equipment=args.equipment, operator=args.operator,
                         date_from=args.date_from, date_to=args.date_to):
        print(f"{s.record_id}\t{s.equipment_name}\t{s.imported_at.isoformat()}"
              f"\t{s.source_file}\t{s.operator or ''}")


def _cmd_show(args, store) -> None:
    record = store.get_measurement(args.id)
    print(f"id: {record.record_id}")
    print(f"equipment: {record.equipment_name}")
    print(f"imported-at: {record.imported_at.isoformat()}")
    print(f"source-file: {record.source_file}")
    for category in ConceptCategory:
        values = record.values.get(category)
        if not values:
            continue
        print(f"[{category.value}]")
        for name, typed in values.items():
            print(f"  {name} = {render_canonical(typed)}")
    for series in record.series:
        unit = f" ({series.unit})" if series.unit else ""
        print(f"series {series.name}{unit}: {len(series.x)} points")
    for warning in record.warnings:
        print(f"warning: {warning}")


def _cmd_edit(args, store) -> None:
    store.update_value(args.id, args.parameter, args.value)


def _cmd_remove(args, store) -> None:
    store.delete_measurement(args.id)


def _cmd_export(args, store) -> None:
    record = store.get_measurement(args.id)
    exporter = export_mod.export_xml if args.format == "xml" else export_mod.export_csv
    with open(args.out, "wb") as handle:
        handle.write(exporter(record))
    print(args.out)


def _series(store, record_id, channel):
    record = store.get_measurement(record_id)
    if not 0 <= channel < len(record.series):
        raise IndexOutOfRange(f"channel {channel} of {len(record.series)}")
    return record.series[channel]


def _cmd_analyze_nonlin(args, store) -> None:
    data = analysis.NonLinearityInput(
        t_real=_series(store, args.id, args.channel).y, t_ref=args.refs, t_ref30=args.tref30)
    for eps in analysis.nonlinearity_error(data):
        print(f"{eps:.6f}")


def _cmd_analyze_tau(args, store) -> None:
    series = _series(store, args.id, args.channel)
    response = analysis.step_response_from_series(series.points)
    print(f"{analysis.estimate_time_constant(response):.6f}")


def _cmd_gen(args) -> None:
    now = datetime.now()
    responses = [
        analysis.synth_first_order(args.y0, args.yinf, args.tau, args.dt, args.n,
                                   noise_sigma=args.noise, seed=args.seed + k)
        for k in range(args.channels)
    ]
    time = HighPrecisionTime(now.hour, now.minute, now.second, f"{now.microsecond:06d}")
    doc = analysis.gen_lvm(responses, operator=args.operator,
                           date=now.date(), time=time)
    with open(args.out, "wb") as handle:
        handle.write(serialize_lvm(doc))
    print(args.out)


if __name__ == "__main__":
    main()
