"""Command-line interface.

Subcommands: identity, cusp, longitude, endinv, batch.  Slopes are written
"q/p"; outputs are JSON by default, CSV for tables, SVG for cusp pictures.
Exit codes: 0 success, 1 usage/other error (an unwritable ``--out`` path
included), 2 non-hyperbolic slope, 3 ambiguous geometric-root selection.

``--eps`` bounds the two series' tails together, and a series spends
its share: the identity residual |S1 + S2 + 1| can come close to eps and
the form disagreement, (4/c)|S1 + S2 + 1| for a link of c components,
close to 4 eps/c.  So ``identity`` meets its acceptance rules (1e-6 on
each) by the tail bound alone only for eps <= 2.5e-7 c; at a larger eps it
may exit 1 and name the rule it fails, as ``identity 2/5 --eps 1e-5`` does.

The geometric root is fixed by the slope, so the requests of one process
share work through two bounded LRU caches.  ``_evaluation`` keeps r's
geometric evaluation (root, Markoff map and edge system), keyed by r, for
the misses of ``identity`` and ``cusp``.  ``_rendered`` keeps what a
request writes, keyed by its subcommand, slope and the options that change
the bytes (``--eps``, ``--format``, ``--periods``, ``--orientation``,
``--depth``; never ``--out``): its texts, zlib-compressed (level 1), and
the stderr line of a request that exits 1, so a repeated request skips
layout, SVG and JSON encoding.  One ``cusp`` entry holds both the JSON
text and the SVG, and ``svg_written_to`` is added to the JSON on writing.
Only outputs of bounded size are cached: ``cusp`` up to the default
``--periods`` (2; an SVG at ``cusp_layout.MAX_PERIODS`` compresses to
33-98 KB) and ``endinv`` up to ``endinvariants.DEFAULT_GAP_DEPTH`` (6;
100-150 KB compressed at depth 7); other requests render every time.
Each cache holds at most ``_CACHE_SIZE`` entries.  Measured by tracemalloc
on every hyperbolic slope with p <= 24 and with 41 <= p <= 64, an
evaluation holds at most 8 KB and 19 KB, an ``endinv`` JSON entry at most
42 KB and 48 KB, and any other entry at most 6 KB (an ``endinv`` SVG, a
``cusp`` entry), so the two caches stay under 4.3 MB together.
Compressing adds 2 ms to a 6-10 ms ``endinv`` miss, and its hit costs
1 ms of decompression.  A request that raises caches nothing: its error
is raised again, with its exit code, on every call; an unwritable
``--out`` fails on every call, as writing follows the lookup.  ``batch``
and library callers (``mcshane.cusp_shape``,
``markoff.geometric_evaluation``, ``endinvariants.bowditch_L``) bypass the
caches and always compute.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import zlib

from . import cusp_layout, endinvariants, mcshane, plat
from .errors import (
    AmbiguousGeometricRootError,
    NonHyperbolicError,
    SlopeError,
    TwoBridgeError,
)
from .markoff import geometric_evaluation, translation_length
from .slopes import Slope, is_hyperbolic

CSV_SCHEMA_VERSION = 1
_EPS_HELP = ("bound on the two series' tails together (default 1e-8); a "
             "series spends its share, so the acceptance rules follow from "
             "it only for eps <= 2.5e-7 c, c the number of components")
# entries in each cross-request cache; the module docstring gives its memory
_CACHE_SIZE = 64
# cusp outputs are cached up to these SVG periods; the module docstring says why
_DEFAULT_PERIODS = 2


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _evaluation(r: Slope):
    """r's geometric evaluation, computed once per process."""
    return geometric_evaluation(r)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _rendered(render, r: Slope, *options) -> tuple:
    """``render(r, *options)`` once per process: its texts, zlib-compressed
    (level 1), and its failure line."""
    texts, failure = render(r, *options)
    return tuple(zlib.compress(t.encode(), 1) for t in texts), failure


def _output(render, r: Slope, *options, cache: bool = True) -> tuple:
    """The texts and failure line of ``render(r, *options)``, served from
    ``_rendered`` when ``cache`` is set."""
    if not cache:
        return render(r, *options)
    texts, failure = _rendered(render, r, *options)
    return [zlib.decompress(t).decode() for t in texts], failure


def _write(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _exit_status(failure: str | None) -> int:
    """1 after printing ``failure`` to stderr, 0 when there is none."""
    if failure is None:
        return 0
    print(failure, file=sys.stderr)
    return 1


def _census_csv(report) -> str:
    rows = ["schema,slope,phi_re,phi_im,l_re,l_im,h_re,h_im"]
    for s, v in report.slopes_small_trace:
        l, hv = translation_length(v), mcshane.h(v)
        rows.append("%d,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
                    % (CSV_SCHEMA_VERSION, s, v.real, v.imag,
                       l.real, l.imag, hv.real, hv.imag))
    return "\n".join(rows) + "\n"


def _render_identity(r: Slope, fmt: str, eps: float):
    report = mcshane.cusp_shape(r, eps=eps, ev=_evaluation(r))
    if fmt == "csv":
        text = _census_csv(report)
    else:
        text = json.dumps(report.to_json(), indent=2)
    failures = _acceptance_failures(report)
    if failures:
        return (text,), ("error: %s fails the acceptance rules: %s"
                         % (r, "; ".join(failures)))
    return (text,), None


def cmd_identity(args) -> int:
    (text,), failure = _output(_render_identity, Slope.parse(args.r),
                               args.format, args.eps)
    _write(text, args.out)
    return _exit_status(failure)


def _acceptance_failures(report) -> list:
    """The acceptance rules an identity report fails, each with its figure."""
    failures = []
    if not report.identity_residual <= 1e-6:
        failures.append("identity residual %.3g > 1e-6" % report.identity_residual)
    if not report.finite_identity_residual <= 1e-9:
        failures.append("finite residual %.3g > 1e-9"
                        % report.finite_identity_residual)
    if report.partial:
        failures.append("partial: a series stopped at the node budget")
    if not report.form_disagreement <= 1e-6:
        failures.append("form disagreement %.3g > 1e-6"
                        % report.form_disagreement)
    return failures


def _render_cusp(r: Slope, periods: int):
    """The cusp's JSON text, without ``svg_written_to``, and its SVG."""
    layout = cusp_layout.layout_cusp(r, _evaluation(r))
    cusp_layout.check_simply_folded(layout)
    doc = layout.to_json()
    doc["folds_ok"] = True  # check_simply_folded raises otherwise
    doc["fold_slopes"] = [str(layout.fold_minus.fold_slope),
                          str(layout.fold_plus.fold_slope)]
    return (json.dumps(doc, indent=2),
            cusp_layout.render_svg(layout, periods=periods)), None


def cmd_cusp(args) -> int:
    (doc, svg), _ = _output(_render_cusp, Slope.parse(args.r), args.periods,
                            cache=args.periods <= _DEFAULT_PERIODS)
    if args.format == "svg":
        _write(svg, args.out)
        return 0
    if args.out:  # JSON goes to stdout; --out receives the SVG
        _write(svg, args.out)
        # the text json.dumps(..., indent=2) gives with this last field added
        doc = '%s,\n  "svg_written_to": %s\n}' % (doc[:-2], json.dumps(args.out))
    _write(doc, None)
    return 0


def _render_longitude(r: Slope, orientation: str):
    doc = plat.longitude_json(r, orientation=orientation)
    text = json.dumps(doc, indent=2)
    if doc["lk_formula"] != doc["lk_diagram"]:
        return (text,), ("error: %s: lk_formula %s != lk_diagram %s"
                         % (r, doc["lk_formula"], doc["lk_diagram"]))
    return (text,), None


def cmd_longitude(args) -> int:
    (text,), failure = _output(_render_longitude, Slope.parse(args.r),
                               args.orientation)
    _write(text, args.out)
    return _exit_status(failure)


def _render_endinv(r: Slope, fmt: str, depth: int):
    report = endinvariants.bowditch_L(r, depth=depth)
    if fmt == "svg":
        return (endinvariants.render_gaps_svg(report.gap_system),), None
    return (report.to_json_text(),), None


def cmd_endinv(args) -> int:
    (text,), _ = _output(_render_endinv, Slope.parse(args.r), args.format,
                         args.depth,
                         cache=args.depth <= endinvariants.DEFAULT_GAP_DEPTH)
    _write(text, args.out)
    return 0


def _batch_rows(pmax, eps):
    for p in range(3, pmax + 1):
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            r = Slope(q, p)
            if not is_hyperbolic(r):
                continue
            report = mcshane.cusp_shape(r, eps=eps)
            diagram = plat.build_plat(r)
            lk = plat.linking_number_formula(r, diagram=diagram)
            lk_diag = plat.linking_number_diagram(r, diagram=diagram)
            case = endinvariants.bowditch_L(r, depth=0).case
            yield {
                "schema": CSV_SCHEMA_VERSION,
                "r": str(r),
                "q": q,
                "p": p,
                "components": report.components,
                "lambda_link_re": report.lambda_link.real,
                "lambda_link_im": report.lambda_link.imag,
                "lk_formula": lk,
                "lk_diagram": lk_diag,
                "identity_residual": report.identity_residual,
                "tail_bound": report.tail_bound_1 + report.tail_bound_2,
                "end_invariant_case": case,
            }


_BATCH_COLUMNS = ("schema", "r", "q", "p", "components", "lambda_link_re",
                  "lambda_link_im", "lk_formula", "lk_diagram",
                  "identity_residual", "tail_bound", "end_invariant_case")


def cmd_batch(args) -> int:
    rows = list(_batch_rows(args.pmax, args.eps))
    if args.format == "json":
        _write(json.dumps(rows, indent=2), args.out)
        return 0
    lines = [",".join(_BATCH_COLUMNS)]
    for row in rows:
        cells = []
        for col in _BATCH_COLUMNS:
            val = row[col]
            cells.append("%.17g" % val if isinstance(val, float) else str(val))
        lines.append(",".join(cells))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def period_count(text):
    """A number of periods ``cusp_layout.render_svg`` draws, 1 to
    ``MAX_PERIODS``, else a usage error, whatever the output format."""
    value = int(text)
    if not 1 <= value <= cusp_layout.MAX_PERIODS:
        raise argparse.ArgumentTypeError("must lie in [1, %d], got %d"
                                         % (cusp_layout.MAX_PERIODS, value))
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as other bad input
    does: argparse's own code 2 means a non-hyperbolic slope here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused, as
    building it costs many times what parsing one command line does."""
    parser = _Parser(
        prog="twobridge",
        description="Cusp shapes, trace identities and end invariants of "
                    "hyperbolic 2-bridge links.  The holonomy trace is a "
                    "root of the trace polynomial, certified at whatever "
                    "precision it needs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("json",)):
        p.add_argument("r", help='slope "q/p" with 0 < q/p < 1')
        p.add_argument("--out", "-o", default=None, help="output path")
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])

    p = sub.add_parser("identity", help="McShane-type identity and cusp moduli")
    common(p, ("json", "csv"))
    p.add_argument("--eps", type=float, default=mcshane.DEFAULT_EPS,
                   help=_EPS_HELP)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("cusp", help="cusp triangulation zigzag layout and SVG")
    common(p, ("json", "svg"))
    p.add_argument("--periods", type=period_count, default=_DEFAULT_PERIODS)
    p.set_defaults(func=cmd_cusp)

    p = sub.add_parser("longitude", help="longitude homology class and linking numbers")
    common(p, ("json",))
    p.add_argument("--orientation", choices=("default", "reversed"),
                   default="default")
    p.set_defaults(func=cmd_longitude)

    p = sub.add_parser("endinv", help="end-invariant classification and gap system")
    common(p, ("json", "svg"))
    p.add_argument("--depth", type=int,
                   default=endinvariants.DEFAULT_GAP_DEPTH)
    p.set_defaults(func=cmd_endinv)

    p = sub.add_parser("batch", help="one row per hyperbolic slope up to --pmax")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--eps", type=float, default=mcshane.DEFAULT_EPS,
                   help=_EPS_HELP)
    p.add_argument("--out", "-o", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonHyperbolicError as exc:
        print("error: %s (need q != +-1 mod p)" % exc, file=sys.stderr)
        return 2
    except AmbiguousGeometricRootError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (SlopeError, TwoBridgeError, OSError) as exc:  # OSError: --out
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
