"""Seeded .lvm input files for the benchmark.

The writer here is deliberately independent of ``lvmforge.serialize_lvm``:
a change to the program's writer must not change the bytes the benchmark
feeds to the parser.  Every file is a function of (seed, stream, index)
alone, so a verification step can regenerate any file it needs instead
of keeping its expected values in memory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Written as a LabVIEW acquisition module would write them: tab-separated
# with "," decimals (the lab default) or comma-separated with "." decimals.
LAYOUTS = (("\t", ",", "Tab"), (",", ".", "Comma"))

OPERATORS = ("Profesor", "Student1", "Student2", "Technician")

# The non-linearity reference at ambient; above every curve, so no
# reference point can equal it.
TREF30 = 1000.0

NOISE = 0.02  # sigma of the Gaussian noise on every sample, in degrees


@dataclass(frozen=True)
class Curve:
    """Noise-free first-order response y = yinf + (y0 - yinf) e^(-x / tau)."""

    y0: float
    yinf: float
    tau: float

    def at(self, x: float) -> float:
        return self.yinf + (self.y0 - self.yinf) * math.exp(-x / self.tau)


@dataclass(frozen=True)
class LvmFile:
    data: bytes
    dt: float
    curves: tuple[Curve, ...]
    counts: tuple[int, ...]  # per channel, the samples that are not empty
    # per channel, the (x, y) points the file holds, empty samples skipped
    points: tuple[tuple[tuple[float, float], ...], ...]

    @property
    def point_count(self) -> int:
        return sum(self.counts)


def make_lvm(seed: int, stream: str, index: int, rows: int, channels: int,
             dt: float = 1.0, empty_share: float = 0.0,
             layout: int | None = None, with_points: bool = True) -> LvmFile:
    """One seeded multi-channel first-order step-response file.

    ``layout`` picks the separator/decimal pair; by default it is drawn
    from the seed.  ``empty_share`` of the samples are left empty.  The
    expected points are skipped unless ``with_points``, which costs about
    as much as writing the file.
    """
    rng = random.Random(f"{seed}/{stream}/{index}")
    sep, ds, sep_name = LAYOUTS[rng.randrange(2) if layout is None else layout]
    operator = rng.choice(OPERATORS)
    duration = rows * dt
    curves = tuple(
        Curve(y0=rng.uniform(18.0, 26.0), yinf=rng.uniform(80.0, 250.0),
              tau=rng.uniform(duration / 40, duration / 8))
        for _ in range(channels))
    hour, minute, second = rng.randrange(24), rng.randrange(60), rng.randrange(60)
    fraction = "".join(str(rng.randrange(10)) for _ in range(19))
    day = "2013/%02d/%02d" % (rng.randint(1, 12), rng.randint(1, 28))
    clock = "%02d:%02d:%02d%s%s" % (hour, minute, second, ds, fraction)

    def line(*fields: str) -> str:
        return sep.join(fields)

    out = [
        line("LabVIEW Measurement", ""),
        line("Writer_Version", "2"),
        line("Reader_Version", "2"),
        line("Separator", sep_name),
        line("Decimal_Separator", ds),
        line("Multi_Headings", "No"),
        line("X_Columns", "One"),
        line("Time_Pref", "Absolute"),
        line("Operator", operator),
        line("Date", day),
        line("Time", clock),
        "***End_of_Header***",
        "",
        line("Notes", "X values guaranteed valid only for Channel 0"),
        "",
        line("Channels", str(channels)),
        line("Samples", *["1"] * channels),
        line("Date", *[day] * channels),
        line("Time", *[clock] * channels),
        line("X_Dimension", *["Time"] * channels),
        line("X0", *["0" + ds + "0" * 16 + "E+0"] * channels),
        line("Delta_X", *[("%.6f" % dt).replace(".", ds)] * channels),
        "***End_of_Header***",
        "",
        line("X_Value", *["Channel %d" % k for k in range(channels)], "Comment"),
    ]
    gauss, uniform = rng.gauss, rng.random
    x_texts = ["%.6f" % (i * dt) for i in range(rows)]
    xs = [float(t) for t in x_texts]
    columns = []
    for curve in curves:
        base, step, tau = curve.yinf, curve.y0 - curve.yinf, curve.tau
        column = ["%.6f" % (base + step * math.exp(-x / tau) + gauss(0.0, NOISE))
                  for x in xs]
        if empty_share:
            column = ["" if uniform() < empty_share else y for y in column]
        columns.append(column)
    block = "\n".join(sep.join(fields) for fields in zip(x_texts, *columns))
    if ds != ".":
        block = block.replace(".", ds)
    data = ("\n".join(out) + "\n" + block + "\n").encode("utf-8")
    points = tuple(
        tuple((x, float(y)) for x, y in zip(xs, column) if y) for column in columns
    ) if with_points else ()
    counts = tuple(sum(1 for y in column if y) for column in columns)
    return LvmFile(data=data, dt=dt, curves=curves, counts=counts, points=points)
