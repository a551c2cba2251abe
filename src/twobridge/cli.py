"""Command-line interface.

Subcommands: identity, cusp, longitude, endinv, batch.  Slopes are written
"q/p"; outputs are JSON by default, CSV for tables, SVG for cusp pictures.
Exit codes: 0 success, 1 usage/other error, 2 non-hyperbolic slope,
3 ambiguous geometric-root selection.

The geometric root is fixed by the slope, so the requests of one process
share work through three bounded LRU caches: ``_evaluation`` keeps r's
geometric evaluation (root, Markoff map and edge system), keyed by r, for
``identity`` and ``cusp``; ``_identity`` keeps r's identity report, keyed
by (r, eps), and builds it on the cached evaluation; ``_endinv_text``
keeps r's ``endinv`` JSON text, keyed by (r, depth), zlib-compressed.
Each holds at most ``_CACHE_SIZE`` entries: an evaluation with its report,
after ``identity`` and ``cusp`` of its slope, holds at most 12 KB for
p <= 24 and 20 KB for 41 <= p <= 64 (tracemalloc), so these two stay
under 1.5 MB together.  An ``endinv`` text is cached only in JSON and only
up to ``endinvariants.DEFAULT_GAP_DEPTH`` (6), where its 330-380 KB for
p <= 64 compress to 30-47 KB, so 64 entries stay under 3 MB; compressing
adds 2 ms to a 6-10 ms miss, and a hit costs 1 ms of decompression.
Deeper texts (100-150 KB compressed at depth 7) and SVG pictures are
computed on every request.  A request that raises caches nothing: its
error is raised again, with its exit code, on every call.  ``batch`` and
library callers (``mcshane.cusp_shape``, ``markoff.geometric_evaluation``,
``endinvariants.bowditch_L``) bypass the caches and always compute.
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
# entries in each cross-request cache; the module docstring gives its memory
_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _evaluation(r: Slope):
    """r's geometric evaluation, computed once per process."""
    return geometric_evaluation(r)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _identity(r: Slope, eps: float):
    """r's identity report at ``eps``, on the cached evaluation."""
    return mcshane.cusp_shape(r, eps=eps, ev=_evaluation(r))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _endinv_text(r: Slope, depth: int) -> bytes:
    """r's end-invariant JSON text at ``depth``, zlib-compressed (level 1)."""
    text = endinvariants.bowditch_L(r, depth=depth).to_json_text()
    return zlib.compress(text.encode(), 1)


def _write(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _census_csv(report) -> str:
    rows = ["schema,slope,phi_re,phi_im,l_re,l_im,h_re,h_im"]
    for s, v in report.slopes_small_trace:
        l, hv = translation_length(v), mcshane.h(v)
        rows.append("%d,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
                    % (CSV_SCHEMA_VERSION, s, v.real, v.imag,
                       l.real, l.imag, hv.real, hv.imag))
    return "\n".join(rows) + "\n"


def cmd_identity(args) -> int:
    r = Slope.parse(args.r)
    report = _identity(r, args.eps)
    if args.format == "csv":
        _write(_census_csv(report), args.out)
    else:
        _write(json.dumps(report.to_json(), indent=2), args.out)
    failures = _acceptance_failures(report)
    if failures:
        print("error: %s fails the acceptance rules: %s"
              % (r, "; ".join(failures)), file=sys.stderr)
        return 1
    return 0


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


def cmd_cusp(args) -> int:
    r = Slope.parse(args.r)
    layout = cusp_layout.layout_cusp(r, _evaluation(r))
    cusp_layout.check_simply_folded(layout)
    if args.format == "svg":
        _write(cusp_layout.render_svg(layout, periods=args.periods), args.out)
        return 0
    # JSON goes to stdout; --out receives the SVG
    doc = layout.to_json()
    doc["folds_ok"] = True  # check_simply_folded raises otherwise
    doc["fold_slopes"] = [str(layout.fold_minus.fold_slope),
                          str(layout.fold_plus.fold_slope)]
    if args.out:
        _write(cusp_layout.render_svg(layout, periods=args.periods), args.out)
        doc["svg_written_to"] = args.out
    _write(json.dumps(doc, indent=2), None)
    return 0


def cmd_longitude(args) -> int:
    r = Slope.parse(args.r)
    doc = plat.longitude_json(r, orientation=args.orientation)
    _write(json.dumps(doc, indent=2), args.out)
    return 0 if doc["lk_formula"] == doc["lk_diagram"] else 1


def cmd_endinv(args) -> int:
    r = Slope.parse(args.r)
    if args.format == "svg":
        report = endinvariants.bowditch_L(r, depth=args.depth)
        _write(endinvariants.render_gaps_svg(report.gap_system), args.out)
    elif args.depth <= endinvariants.DEFAULT_GAP_DEPTH:
        _write(zlib.decompress(_endinv_text(r, args.depth)).decode(), args.out)
    else:
        _write(endinvariants.bowditch_L(r, depth=args.depth).to_json_text(),
               args.out)
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
    p.add_argument("--eps", type=float, default=mcshane.DEFAULT_EPS)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("cusp", help="cusp triangulation zigzag layout and SVG")
    common(p, ("json", "svg"))
    p.add_argument("--periods", type=period_count, default=2)
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
    p.add_argument("--eps", type=float, default=mcshane.DEFAULT_EPS)
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
    except (SlopeError, TwoBridgeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
