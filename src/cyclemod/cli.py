"""Command-line surface: gen, ecs, decompose, plot, mask, bench.

Each ``cmd_*`` checks its input and returns its exit code and its text;
only then does ``main``, the one writer, open ``--output`` (or take
stdout) and write the text, which ``gen`` and ``plot`` make as it is
written. Exit codes: 0 success (or admitted), 3 score below threshold,
2 usage error (a refused input, which leaves no file, or an ``--output``
that cannot be opened), 1 internal error (such as a failed write). All
outputs are deterministic for fully explicit inputs; JSON floats have
fixed six decimals, so golden files are stable across platforms.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from contextlib import AbstractContextManager, nullcontext
from itertools import islice, starmap
from typing import Iterable, Iterator, TextIO

from . import ecs as ecs_mod
from .errors import CycleModError, OutOfRange, WidthMismatch
from .modring import make_modulus
from .seedgen import (
    SeedSequence, compute_d, decompose_identity, generate_sequence, verify_identity,
)

THRESHOLD_ENV_VAR = "CYCLEMOD_THRESHOLD"
# Records per range verb. The verbs walk d_k and store none: at p = 80,
# 10^6 records peak at about 15 MB of RSS for gen (CSV or JSON) and for
# ecs, as does importing cli; 10^5 plot points at that plus one 5.35 MB SVG, 21.3 MB.
RANGE_LIMIT = 10**6
PLOT_RANGE_LIMIT = 10**5
# A token of width w costs w/8 bytes; the widest residue (p = 80) is 127 bits.
MASK_WIDTH_LIMIT = 4096

# gen yields GEN_CHUNK rows at a time as (head, row, separator, tail). A
# JSON row is dumps_fixed's layout of {"k", "a_k", "d_k"} inside a list.
# At p = 80 a piece is about 6 KB of CSV or 9 KB of JSON, near the text
# layer's 8,192-character buffer; a larger piece only raises the peak.
GEN_CHUNK = 64
_GEN_FORMATS = {
    "csv": ("k,a_k,d_k\n", "{},{},{}", "\n", "\n"),
    "json": ("[\n", '  {{\n    "k": {},\n    "a_k": {},\n    "d_k": {}\n  }}', ",\n", "\n]\n"),
}

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3


def dumps_fixed(obj) -> str:
    """JSON writer with fixed 6-decimal floats and stable key order."""
    if isinstance(obj, (dict, list)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        if not obj:
            return brackets
        if isinstance(obj, dict):
            items = [f'"{key}": {dumps_fixed(val)}' for key, val in obj.items()]
        else:
            items = [dumps_fixed(val) for val in obj]
        body = ",\n".join(items).replace("\n", "\n  ")
        return f"{brackets[0]}\n  {body}\n{brackets[1]}"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return f"{obj:.6f}"
    if isinstance(obj, int):
        return str(obj)
    return '"' + obj + '"'  # TypeError for any other type


def _default_threshold() -> float:
    text = os.environ.get(THRESHOLD_ENV_VAR)
    if text is None:
        return ecs_mod.DEFAULT_THRESHOLD
    try:
        return float(text)
    except ValueError:
        raise OutOfRange(f"${THRESHOLD_ENV_VAR} must be a number, got {text!r}") from None


def _output(path: str | None) -> AbstractContextManager[TextIO]:
    """Standard output, or the ``--output`` file opened at the call, for ``with``."""
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OutOfRange(f"cannot write --output {path}: {exc.strerror}") from None


def _add_range_args(sub: argparse.ArgumentParser, k_end_required: bool = True) -> None:
    sub.add_argument("--p", type=int, required=True, help="exponent of the modulus 3^p")
    sub.add_argument("--k-start", type=int, default=1, dest="k_start")
    sub.add_argument(
        "--k-end", type=int, required=k_end_required, default=None, dest="k_end",
        help=None if k_end_required else "defaults to one full period, phi(3^p)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclemod",
        description="Deterministic seed residues over Z/3^pZ: generation, "
        "scoring, identity decomposition, masking, and timing benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit the (k, a_k, d_k) sequence")
    _add_range_args(gen)
    gen.add_argument("--format", choices=("csv", "json"), default="csv")
    gen.set_defaults(func=cmd_gen)

    ecs = sub.add_parser("ecs", help="score a sequence and gate on the threshold")
    _add_range_args(ecs)
    ecs.add_argument("--buckets", type=int, default=ecs_mod.DEFAULT_BUCKETS)
    ecs.add_argument(
        "--threshold",
        type=float,
        default=None,
        help=f"admission threshold (default {ecs_mod.DEFAULT_THRESHOLD:.2f}, or ${THRESHOLD_ENV_VAR})",
    )
    ecs.set_defaults(func=cmd_ecs)

    dec = sub.add_parser("decompose", help="integer identity witness for (p, s)")
    dec.add_argument("--p", type=int, required=True)
    dec.add_argument("--s", type=int, required=True)
    dec.set_defaults(func=cmd_decompose)

    plot = sub.add_parser("plot", help="deterministic SVG residue map")
    _add_range_args(plot)
    plot.set_defaults(func=cmd_plot)

    mask = sub.add_parser("mask", help="XOR-mask d_k with an entropy token")
    mask.add_argument("--p", type=int, required=True)
    mask.add_argument("--k", type=int, required=True)
    mask.add_argument("--width", type=int, default=None, help="token width in bits")
    src = mask.add_mutually_exclusive_group(required=True)
    src.add_argument("--r-hex", dest="r_hex", default=None)
    src.add_argument("--source", choices=("test", "os"), default=None)
    mask.add_argument("--seed", type=int, default=0, help="seed for --source test")
    mask.set_defaults(func=cmd_mask)

    bench = sub.add_parser("bench", help="compare inversion timing uniformity")
    _add_range_args(bench, k_end_required=False)
    bench.add_argument("--reps", type=int, default=50)
    bench.set_defaults(func=cmd_bench)

    # --output is every verb's last option, so each --help lists it last.
    for verb in (gen, ecs, dec, plot, mask, bench):
        verb.add_argument("--output", default=None)
    return parser


def _sequence(args: argparse.Namespace, limit: int) -> SeedSequence:
    """The verb's k range, refused before generation past ``limit`` records."""
    if args.k_end - args.k_start + 1 > limit:
        raise OutOfRange(f"{args.command} range is capped at {limit} records")
    return generate_sequence(args.p, args.k_start, args.k_end)


def _gen_text(seq: SeedSequence, fmt: str) -> Iterator[str]:
    head, row, sep, tail = _GEN_FORMATS[fmt]
    rows = iter(seq)
    yield head
    lead = ""
    while chunk := sep.join(starmap(row.format, islice(rows, GEN_CHUNK))):
        yield lead
        yield chunk
        lead = sep
    yield tail


def cmd_gen(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    return EXIT_OK, _gen_text(_sequence(args, RANGE_LIMIT), args.format)


def cmd_ecs(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    threshold = args.threshold if args.threshold is not None else _default_threshold()
    seq = _sequence(args, RANGE_LIMIT)
    ecs_mod.check_threshold(threshold)  # refused before the range is scored
    report = ecs_mod.score(seq, buckets=args.buckets)
    admitted = ecs_mod.admit(report, threshold)
    payload = {**report._asdict(), "admitted": admitted, "threshold": threshold}
    return EXIT_OK if admitted else EXIT_REJECTED, [dumps_fixed(payload) + "\n"]


def cmd_decompose(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    witness = decompose_identity(args.p, args.s)
    # A is the one decimal no input bounds: str() refuses it past the digit limit.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and witness.A >= 10**digits:
        raise OutOfRange(f"A = 3^p(s+1) - 1 must have at most {digits} digits")
    payload = {**witness._asdict(), "verified": verify_identity(witness)}
    return EXIT_OK, [dumps_fixed(payload) + "\n"]


def cmd_plot(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from .svgplot import render_residue_svg  # here, so that no other verb loads it
    # Lazy: the SVG is drawn as main writes it, after --output opens.
    return EXIT_OK, map(render_residue_svg, [_sequence(args, PLOT_RANGE_LIMIT)])


def cmd_mask(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from .hybrid import entropy_source, mask_xor, token_from_hex  # likewise
    m = make_modulus(args.p)
    width = args.width if args.width is not None else m.bit_width
    if width > MASK_WIDTH_LIMIT:
        raise OutOfRange(f"token width is capped at {MASK_WIDTH_LIMIT} bits, got {width}")
    if args.r_hex is not None:
        token = token_from_hex(args.r_hex, width)
    elif args.source == "test":
        token = next(entropy_source("deterministic_test", width, seed=args.seed))
    else:
        token = next(entropy_source("os", width))
    seed = mask_xor(compute_d(args.k, m), token, k=args.k)
    return EXIT_OK, [seed.hex() + "\n"]


def cmd_bench(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import bench as bench_mod  # only bench needs statistics

    m = make_modulus(args.p)
    k_end = args.k_end if args.k_end is not None else m.phi
    report = bench_mod.compare_report(args.p, (args.k_start, k_end), args.reps)
    return EXIT_OK, [dumps_fixed(report) + "\n"]


def __getattr__(name: str):
    """The names perfbench/tracing.py patches on cli, loaded on first lookup (PEP 562)."""
    module = {"render_residue_svg": "svgplot", "mask_xor": "hybrid",
              "token_from_hex": "hybrid"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = args.func(args)
        with _output(args.output) as out:
            # The text layer encodes a write in one piece, so 64 KiB slices keep a piece held once.
            out.writelines(t[i:i + 65536] for t in text for i in range(0, len(t), 65536))
        return code
    except (CycleModError, OSError) as exc:
        print(f"cyclemod {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, (OutOfRange, WidthMismatch)) else EXIT_INTERNAL
