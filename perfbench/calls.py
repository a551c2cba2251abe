"""The requests the benchmark sends to twobridge, and their correctness checks.

Import this module only after ``src`` is on ``sys.path``.  Every request
returns a flat dict of the fields the checks need; ``check`` compares it
with the stored reference and with the acceptance rules of the command-line
interface, and returns None or the reason the output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from twobridge import cli, endinvariants, markoff, mcshane, plat
from twobridge.slopes import Slope

LAMBDA_TOL = 1e-8
IDENTITY_RESIDUAL_MAX = 1e-6
FINITE_RESIDUAL_MAX = 1e-9
FORM_DISAGREEMENT_MAX = 1e-6


def _pair(z):
    return [z.real, z.imag]


def _identity_fields(report) -> dict:
    return {
        "lambda_link": _pair(report.lambda_link),
        "identity_residual": report.identity_residual,
        "finite_identity_residual": report.finite_identity_residual,
        "form_disagreement": report.form_disagreement,
        "partial": report.partial,
        "tail_bound": report.tail_bound_1 + report.tail_bound_2,
    }


def batch_row(slope: str, eps: float) -> dict:
    """One row of ``twobridge batch``."""
    r = Slope.parse(slope)
    out = _identity_fields(mcshane.cusp_shape(r, eps=eps))
    out["lk_formula"] = plat.linking_number_formula(r)
    out["lk_diagram"] = plat.linking_number_diagram(r)
    out["case"] = endinvariants.bowditch_L(r, depth=0).case
    return out


def evaluation(slope: str):
    """The geometric evaluation the kernel parity check sums over."""
    return markoff.geometric_evaluation(Slope.parse(slope))


def subcommand(op: str, slope: str, out_dir: str) -> dict:
    """``twobridge <op> <slope> --out <file>`` run in-process, output parsed."""
    path = os.path.join(out_dir, "%s-%s.out" % (op, slope.replace("/", "-")))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main([op, slope, "--out", path])
    if op == "cusp":  # --out receives the SVG, the JSON goes to stdout
        doc = json.loads(stdout.getvalue())
        out = {"folds_ok": doc["folds_ok"], "lambda_half": doc["lambda_half"],
               "svg_bytes": os.path.getsize(path)}
    else:
        with open(path) as fh:
            doc = json.load(fh)
        if op == "identity":
            out = {k: doc[k] for k in ("lambda_link", "identity_residual",
                                        "finite_identity_residual",
                                        "form_disagreement", "partial")}
            out["tail_bound"] = doc["tail_bound_1"] + doc["tail_bound_2"]
        elif op == "longitude":
            out = {"lk_formula": doc["lk_formula"], "lk_diagram": doc["lk_diagram"],
                   "class_b": doc["class"]["b"]}
        else:
            out = {"case": doc["case"], "gaps": len(doc["gap_system"]["gaps"])}
    out["rc"] = rc
    return out


def _close(value, reference) -> bool:
    return abs(complex(*value) - complex(*reference)) <= LAMBDA_TOL


def check(result: dict, ref: dict) -> str | None:
    """None when ``result`` is correct, otherwise the first reason it is not.

    ``ref`` holds the reference fields of the slope; fields it lacks (a slope
    that failed when the reference was generated) are checked by the
    acceptance rules alone.
    """
    if result.get("rc", 0) != 0:
        return "exit code %d" % result["rc"]
    if "lambda_link" in result:
        if "lambda_link" in ref and not _close(result["lambda_link"], ref["lambda_link"]):
            return "lambda_link %r differs from reference %r" % (
                result["lambda_link"], ref["lambda_link"])
        if result["identity_residual"] > IDENTITY_RESIDUAL_MAX:
            return "identity_residual %.3g" % result["identity_residual"]
        if result["finite_identity_residual"] > FINITE_RESIDUAL_MAX:
            return "finite_identity_residual %.3g" % result["finite_identity_residual"]
        if result["form_disagreement"] > FORM_DISAGREEMENT_MAX:
            return "form_disagreement %.3g" % result["form_disagreement"]
        if result["partial"]:
            return "partial series"
    if "lk_formula" in result:
        if result["lk_formula"] != result["lk_diagram"]:
            return "lk_formula %d != lk_diagram %d" % (result["lk_formula"],
                                                       result["lk_diagram"])
        if "lk" in ref and result["lk_formula"] != ref["lk"]:
            return "linking number %d != reference %d" % (result["lk_formula"], ref["lk"])
    if "class_b" in result and "class_b" in ref and result["class_b"] != ref["class_b"]:
        return "longitude class b %d != reference %d" % (result["class_b"], ref["class_b"])
    if "case" in result and "case" in ref and result["case"] != ref["case"]:
        return "end-invariant case %r != reference %r" % (result["case"], ref["case"])
    if "gaps" in result and "gaps" in ref and result["gaps"] != ref["gaps"]:
        return "%d gaps != reference %d" % (result["gaps"], ref["gaps"])
    if "folds_ok" in result:
        if not result["folds_ok"]:
            return "cusp layout is not simply folded"
        if "lambda_half" in ref and not _close(result["lambda_half"], ref["lambda_half"]):
            return "lambda_half %r differs from reference %r" % (
                result["lambda_half"], ref["lambda_half"])
        if result["svg_bytes"] <= 0:
            return "empty SVG"
    return None
