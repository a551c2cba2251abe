"""CLI surface: commands, formats, exit codes, determinism."""

import hashlib
import json
import math
import time
from pathlib import Path

import pytest

from twobridge import markoff, plat
from twobridge.cli import main
from twobridge.errors import AmbiguousGeometricRootError, NoGeometricRootError
from twobridge.slopes import Slope


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_with_out(capsys, argv):
    """``run`` and the bytes written to ``--out`` (None when nothing was),
    with the file removed again."""
    result = run(capsys, *argv)
    path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if path is None or not path.exists():
        return (*result, None)
    written = path.read_bytes()
    path.unlink()
    return (*result, written)


class TestIdentity:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "identity", "2/5")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["series_S1"][0] + doc["series_S2"][0] + 1) < 1e-6
        assert abs(doc["lambda_link"][1] - 3.4641016151377544) < 1e-6

    def test_non_hyperbolic_exit_2(self, capsys):
        code, _, err = run(capsys, "identity", "1/3")
        assert code == 2
        assert "+-1 mod p" in err

    def test_ambiguous_root_exit_3(self, capsys, monkeypatch):
        """With the Im lambda(O) > 0 check dropped, both classes of 3/7's
        conjugate pair survive: the selection names both roots and
        ``identity`` exits 3."""
        original = markoff._rejection

        def keep_conjugates(ev):
            reason, lam = original(ev)
            if reason == "Im lambda(O) <= 0" and lam.imag < 0:
                return None, lam
            return reason, lam

        monkeypatch.setattr(markoff, "_rejection", keep_conjugates)
        r = Slope(3, 7)
        with pytest.raises(AmbiguousGeometricRootError) as info:
            markoff.geometric_evaluation(r)
        survivors = [c.root for c in info.value.report.candidates if c.passed]
        assert len(survivors) == 2
        assert all(repr(z) in str(info.value) for z in survivors)

        code, out, err = run(capsys, "identity", "3/7")
        assert (code, out) == (3, "")
        assert err == "error: %s\n" % info.value

    def test_no_root_lists_one_candidate_per_line(self, capsys, monkeypatch):
        """With every class of 3/7 rejected, the message gives each
        candidate's root and whole reason on a line of its own, also the
        reason given to the geometric class, which holds "; " as a census
        reason does (an edge prints as "e(<a,b>; head c)"), and
        ``identity`` exits 1 with that message."""
        original = markoff._rejection

        def reject_all(ev):
            reason, lam = original(ev)
            return reason or "rejected at %s" % ev.edges.e_plus, lam

        monkeypatch.setattr(markoff, "_rejection", reject_all)
        with pytest.raises(NoGeometricRootError) as info:
            markoff.geometric_evaluation(Slope(3, 7))
        candidates = info.value.report.candidates
        head, *lines = str(info.value).split("\n")
        assert head == "no geometric root found for 3/7:"
        assert lines == ["%s: %s" % (format(c.root, ".6g"), c.reason)
                         for c in candidates]
        # the classes are listed by representative, the geometric one third
        assert len(lines) == 4 and lines[2].endswith("e(<2/5,1/2>; head 1/3)")

        code, out, err = run(capsys, "identity", "3/7")
        assert (code, out) == (1, "")
        assert err == "error: %s\n" % info.value

    def test_coefficient_past_double_range_exit_1(self, capsys):
        """A coefficient of 2/1601's trace polynomial has 1 105 bits, past
        the range of a double: ``identity`` exits 1 with an error line that
        names its bit length, not a traceback."""
        code, out, err = run(capsys, "identity", "2/1601")
        assert (code, out) == (1, "")
        assert err.startswith("error: a coefficient of 1105 bits lies past "
                              "the 1024-bit range of a double")

    def test_csv_census(self, capsys):
        code, out, _ = run(capsys, "identity", "2/5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("schema,slope,phi_re")
        assert any(row.split(",")[1] == "1/5" for row in lines[1:])

    def test_eps_controls_tail(self, capsys):
        _, out1, _ = run(capsys, "identity", "5/17", "--eps", "1e-4")
        _, out2, _ = run(capsys, "identity", "5/17", "--eps", "1e-8")
        t1 = json.loads(out1)["tail_bound_1"]
        t2 = json.loads(out2)["tail_bound_1"]
        assert t2 <= t1

    def test_failed_acceptance_named(self, capsys):
        """At eps 0.5 the series of 2/5 stop early: the report is written,
        and stderr names the rule it fails and by how much."""
        code, out, err = run(capsys, "identity", "2/5", "--eps", "0.5")
        assert code == 1
        doc = json.loads(out)
        residual, disagreement = doc["identity_residual"], doc["form_disagreement"]
        assert residual > 1e-6 and disagreement > 1e-6
        assert err == ("error: 2/5 fails the acceptance rules: "
                       "identity residual %.3g > 1e-6; "
                       "form disagreement %.3g > 1e-6\n" % (residual, disagreement))

    def test_identity_rule_named_past_its_eps(self, capsys):
        """A series spends its eps: at eps 1e-5, above the 2.5e-7 c up to
        which the tail bound implies the rules, the identity residual of
        2/5 exceeds 1e-6 though both tails meet their eps.  The report is
        written, and stderr names the identity rule."""
        code, out, err = run(capsys, "identity", "2/5", "--eps", "1e-5")
        assert code == 1
        doc = json.loads(out)
        assert doc["tail_bound_1"] + doc["tail_bound_2"] <= 1e-5
        assert doc["identity_residual"] > 1e-6
        assert err.startswith("error: 2/5 fails the acceptance rules: "
                              "identity residual %.3g > 1e-6"
                              % doc["identity_residual"])

    def test_form_disagreement_rule(self, capsys):
        """lambda_I1 - lambda_I2 = (4/c)(S1 + S2 + 1): at eps 1e-6 the tail
        bound keeps the identity residual of 2/5 within its rule, while the
        two forms disagree by more than 1e-6, and the report fails on that
        rule alone."""
        code, out, err = run(capsys, "identity", "2/5", "--eps", "1e-6")
        assert code == 1
        doc = json.loads(out)
        assert doc["identity_residual"] <= 1e-6 < doc["form_disagreement"]
        assert err == ("error: 2/5 fails the acceptance rules: "
                       "form disagreement %.3g > 1e-6\n" % doc["form_disagreement"])

    @pytest.mark.parametrize("command", ["identity", "batch"])
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_rejected(self, capsys, command, eps):
        """A non-finite eps is a named error, not a walk of the whole node
        budget (nan) or a series that sums nothing (inf)."""
        argv = ["identity", "2/5"] if command == "identity" else ["batch", "--pmax", "5"]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--eps", eps)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "eps" in err

    @pytest.mark.parametrize("command", ["identity", "batch"])
    def test_negative_eps_named_as_given(self, capsys, command):
        """``cusp_shape`` checks eps before it gives each series half of it,
        so the message names the eps of the request, not -0.5."""
        argv = ["identity", "2/5"] if command == "identity" else ["batch", "--pmax", "5"]
        code, out, err = run(capsys, *argv, "--eps", "-1")
        assert (code, out) == (1, "")
        assert err == "error: eps must be positive and finite, got -1.0\n"


class TestCusp:
    def test_svg_and_json(self, capsys, tmp_path):
        path = tmp_path / "cusp.svg"
        code, out, _ = run(capsys, "cusp", "5/17", "-o", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["folds_ok"]
        svg = path.read_text()
        assert svg.count("<polyline") == 6  # 5 zigzag lines + longitude

    def test_deterministic_reruns(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "cusp", "2/5", "-o", str(p1))
        run(capsys, "cusp", "2/5", "-o", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_format_to_stdout(self, capsys):
        code, out, _ = run(capsys, "cusp", "2/5", "--format", "svg")
        assert code == 0
        assert out.startswith("<?xml") and out.count("<svg") == 1

    def test_svg_format_to_file_only(self, capsys, tmp_path):
        path = tmp_path / "cusp.svg"
        code, out, _ = run(capsys, "cusp", "2/5", "--format", "svg",
                           "-o", str(path))
        assert code == 0
        assert out == ""
        svg = path.read_text()
        assert svg.startswith("<?xml") and svg.count("<svg") == 1
        _, stdout_svg, _ = run(capsys, "cusp", "2/5", "--format", "svg")
        assert svg == stdout_svg

    def test_periods_above_plot_width_rejected(self, capsys, tmp_path):
        """720 periods, one per pixel of plot width, draw; 721 is a usage
        error (exit 1, no output) in every form of the request, JSON alone
        included, although that draws nothing."""
        code, out, _ = run(capsys, "cusp", "2/5", "--format", "svg",
                           "--periods", "720")
        assert code == 0 and out.startswith("<?xml")
        path = tmp_path / "cusp.svg"
        for extra in ((), ("--out", str(path)), ("--format", "svg")):
            with pytest.raises(SystemExit) as exc:
                main(["cusp", "2/5", "--periods", "721", *extra])
            captured = capsys.readouterr()
            assert exc.value.code == 1 and captured.out == ""
            assert captured.err.endswith(
                "error: argument --periods: must lie in [1, 720], got 721\n")
        assert not path.exists()


class TestLongitude:
    def test_oracle_equality(self, capsys):
        code, out, _ = run(capsys, "longitude", "2/5")
        assert code == 0
        doc = json.loads(out)
        assert doc["lk_formula"] == doc["lk_diagram"] == -2

    def test_orientation_flag(self, capsys):
        code, out, _ = run(capsys, "longitude", "3/8", "--orientation", "reversed")
        assert code == 0
        assert json.loads(out)["orientation"] == "reversed"

    def test_linking_number_mismatch_named(self, capsys, monkeypatch):
        """A diagram count that disagrees with the formula is written out,
        named on stderr with both figures, and exits 1."""
        monkeypatch.setattr(plat, "linking_number_diagram",
                            lambda r, orientation, diagram: 7)
        code, out, err = run(capsys, "longitude", "2/5")
        assert code == 1 and json.loads(out)["lk_diagram"] == 7
        assert err == "error: 2/5: lk_formula -2 != lk_diagram 7\n"


class TestOutPath:
    @pytest.mark.parametrize("argv", [["identity", "2/5"], ["cusp", "2/5"]])
    def test_unwritable_out_named(self, capsys, tmp_path, argv):
        """An --out path in a missing directory is a named error, exit 1."""
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err and not path.exists()


class TestEndinv:
    def test_exceptional(self, capsys):
        code, out, _ = run(capsys, "endinv", "3/7", "--depth", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "exceptional-2"
        assert doc["extra_orbits"] == ["4/7"]

    def test_covered_length_prints_for_long_gap_sums(self, capsys):
        # the exact covered length of 3/10 has a denominator of thousands of
        # digits; a fixed-point sum of the 1 458 gap lengths rounds it
        code, out, _ = run(capsys, "endinv", "3/10")
        assert code == 0
        doc = json.loads(out)
        assert 0.99 < doc["gap_system"]["covered_length_in_unit_interval"] < 1

    @pytest.mark.parametrize("argv, digest", [
        (("2/5", "--depth", "6"),
         "aec8d73484cc1960f704bae28738a08ab16ac1245b6401424316da713db14e98"),
        (("3/7", "--depth", "6"),
         "2f4eb97743e85ae1fee396fe4287a6ffddbb45eb1d9e7c9273d6bd51a3e8f978"),
        (("2/9", "--depth", "6"),
         "2e99ee86187ed546cb14dbe870b1d01139c63c3541aaad14f608e121ebb67766"),
        (("3/8", "--depth", "6"),
         "87df3ae858a39714682b324a0f90a20e36e57a31393f40f0a045a7b4fe6fe95d"),
        (("5/8", "--depth", "6"),
         "7a763813f1a4e4206a0fa019ba757e4deabef333ce9b74832a45211c1a597b3c"),
        (("7/11", "--depth", "6"),
         "40d5df4951ee86ae28ee02b9189211bdafea5257427401b005590a887f005416"),
        (("5/13", "--depth", "6"),
         "c9e73e17b80e1708839079f1d4702e2e651f99b1edff426dfb95d44fd60a8fec"),
        (("2/5", "--depth", "8"),
         "6b6107a12f2253b06ae282e4097598c56da3f8ce80f5deb127eaf03094ebe87c"),
        (("3/10", "--depth", "0"),
         "da488d3eeb93e58c7e6be67885f78169bde1f268f22ee18bf61156fdd0c81ef6"),
        (("2/5", "--depth", "6", "--format", "svg"),
         "d854bf9a526794db77a25e66b6fe2ac60a1127436ff2a8b98116dfed5da9a3c3"),
    ])
    def test_output_digests(self, capsys, tmp_path, argv, digest):
        """The --out file is byte for byte the one the Fraction-based gap
        system wrote, down to the printed covered length."""
        path = tmp_path / "endinv.out"
        code, _, _ = run(capsys, "endinv", *argv, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_gaps_sorted(self, capsys):
        from fractions import Fraction
        _, out, _ = run(capsys, "endinv", "2/5", "--depth", "3")
        doc = json.loads(out)
        lefts = [Fraction(g["interval"][0]) for g in doc["gap_system"]["gaps"]]
        assert lefts == sorted(lefts)


class TestBatch:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "batch", "--pmax", "8")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "schema" and "lk_formula" in header
        # hyperbolic slopes with p <= 8: 2/5, 3/5, 2/7, 3/7, 4/7, 5/7, 3/8, 5/8
        assert len(lines) - 1 == 8

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "batch", "--pmax", "5", "--format", "json")
        rows = json.loads(out)
        assert [row["r"] for row in rows] == ["2/5", "3/5"]
        for row in rows:
            assert row["identity_residual"] < 1e-6
            assert row["lk_formula"] == row["lk_diagram"]

    def test_one_farey_chain_per_row(self, count_farey_chains):
        """A batch row (cusp shape, both linking numbers, end-invariant case)
        builds r's Farey chain once, in its edge system."""
        from twobridge import cli
        row = next(cli._batch_rows(5, 1e-8))
        assert row["r"] == "2/5" and count_farey_chains == [Slope(2, 5)]


class TestCaches:
    @pytest.mark.parametrize("argv", [
        ("identity", "5/17"),
        ("identity", "5/17", "--format", "csv"),
        ("cusp", "5/17"),
        ("cusp", "5/17", "--format", "svg"),
        ("endinv", "3/8"),
        ("endinv", "3/8", "--format", "svg"),
        ("identity", "5/17", "--eps", "1e-7", "--out", "OUT/a.json"),
        ("identity", "5/17", "--eps", "1e-7", "--format", "csv", "--out", "OUT/a.csv"),
        ("cusp", "5/17", "--out", "OUT/a.svg"),
        ("cusp", "5/17", "--format", "svg", "--out", "OUT/a.svg"),
        ("cusp", "5/17", "--periods", "3", "--out", "OUT/a.svg"),
        ("longitude", "5/17"),
        ("longitude", "5/17", "--orientation", "reversed", "--out", "OUT/a.json"),
        ("endinv", "3/8", "--depth", "3", "--out", "OUT/a.json"),
        ("endinv", "3/8", "--format", "svg", "--out", "OUT/a.svg"),
        ("identity", "2/5", "--eps", "1e-5"),
        ("cusp", "5/17", "--out", "OUT/missing/a.svg"),
    ])
    def test_repeat_is_byte_identical(self, capsys, tmp_path, argv):
        """A repeated request, served from the caches where it can be,
        writes what the first one wrote: stdout, the ``--out`` bytes, the
        exit code and stderr.  A request that fails, such as ``identity 2/5
        --eps 1e-5`` (an acceptance rule) or an unwritable ``--out``, exits
        1 with its message on every call."""
        argv = [a.replace("OUT", str(tmp_path)) for a in argv]
        first = _run_with_out(capsys, argv)
        assert _run_with_out(capsys, argv) == first
        code, _, err, _ = first
        assert code == (1 if err else 0)

    def test_one_root_selection_per_slope(self, capsys, monkeypatch):
        """identity and cusp of one slope, and a repeat of identity, select
        the geometric root once."""
        from twobridge import markoff, plat
        calls = []
        original = markoff.select_geometric_root

        def counted(roots, r, edges=None):
            calls.append(r)
            return original(roots, r, edges)

        monkeypatch.setattr(markoff, "select_geometric_root", counted)
        for command in ("identity", "cusp", "identity"):
            assert run(capsys, command, "5/17")[0] == 0
        assert calls == [Slope(5, 17)]

    def test_cache_keys_and_counts(self, capsys):
        """An output is keyed by subcommand, slope and the options that
        change its bytes (cusp's two formats come from one entry), the
        evaluation by r alone, and both caches are bounded.  A cusp SVG of
        more than the default periods is not cached."""
        from twobridge import cli
        for argv in (("identity", "2/5", "--eps", "1e-7"),
                     ("identity", "2/5"),
                     ("identity", "2/5", "--eps", "1e-7"),
                     ("identity", "2/5", "--format", "csv"),
                     ("cusp", "2/5"),
                     ("cusp", "2/5", "--format", "svg"),
                     ("cusp", "2/5", "--periods", "1"),
                     ("cusp", "2/5", "--periods", "3"),
                     ("longitude", "2/5"),
                     ("longitude", "2/5", "--orientation", "reversed"),
                     ("longitude", "2/5")):
            assert run(capsys, *argv)[0] == 0
        rendered = cli._rendered.cache_info()
        evaluation = cli._evaluation.cache_info()
        assert (rendered.misses, rendered.hits, rendered.currsize) == (7, 3, 7)
        assert (evaluation.misses, evaluation.hits, evaluation.currsize) == (1, 5, 1)
        assert rendered.maxsize == evaluation.maxsize == cli._CACHE_SIZE

    def test_out_path_is_not_a_key(self, capsys, tmp_path):
        """cusp's JSON names the ``--out`` path its SVG went to, yet two
        paths for one slope share one entry: the path is added on writing,
        as the text ``json.dumps(..., indent=2)`` gives."""
        from twobridge import cli
        docs = []
        for name in ("a.svg", "b.svg"):
            path = tmp_path / name
            code, out, _ = run(capsys, "cusp", "5/17", "--out", str(path))
            assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
            docs.append((json.loads(out), path.read_text()))
        (doc_a, svg_a), (doc_b, svg_b) = docs
        assert doc_a.pop("svg_written_to") == str(tmp_path / "a.svg")
        assert doc_b.pop("svg_written_to") == str(tmp_path / "b.svg")
        assert (doc_a, svg_a) == (doc_b, svg_b)
        info = cli._rendered.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_entries_never_pass_maxsize(self, capsys):
        """More distinct requests than the cache holds keep it at its
        maxsize, and the least recently used entry is the one dropped."""
        from twobridge import cli
        slopes = [str(Slope(q, p)) for p in range(5, 30) for q in range(2, p - 1)
                  if math.gcd(q, p) == 1][:cli._CACHE_SIZE + 6]
        for s in slopes:
            assert run(capsys, "longitude", s)[0] == 0
            assert cli._rendered.cache_info().currsize <= cli._CACHE_SIZE
        info = cli._rendered.cache_info()
        assert (info.misses, info.hits, info.currsize) == (
            len(slopes), 0, cli._CACHE_SIZE)
        assert run(capsys, "longitude", slopes[-1])[0] == 0
        assert run(capsys, "longitude", slopes[0])[0] == 0
        info = cli._rendered.cache_info()
        assert (info.misses, info.hits) == (len(slopes) + 1, 1)

    def test_errors_are_not_cached(self, capsys):
        """A non-hyperbolic slope exits 2 on every call, and leaves no
        entry behind."""
        from twobridge import cli
        for command in ("identity", "cusp", "endinv") * 2:
            code, out, err = run(capsys, command, "1/3")
            assert (code, out) == (2, "") and "+-1 mod p" in err
        assert cli._rendered.cache_info().currsize == 0
        assert cli._evaluation.cache_info().currsize == 0

    def test_endinv_text_keys_and_counts(self, capsys):
        """End-invariant outputs are keyed by (r, format, depth), and cached
        only up to the default depth; a depth outside [0, 12] exits 1 and
        caches nothing.  The cache's memory bound was measured at depth 6,
        so a new default depth means measuring it again."""
        from twobridge import cli
        assert cli.endinvariants.DEFAULT_GAP_DEPTH == 6
        for argv in (("3/8",), ("3/8",), ("3/8", "--depth", "3"),
                     ("3/8", "--format", "svg")):
            assert run(capsys, "endinv", *argv)[0] == 0
        info = cli._rendered.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 1, 3)
        assert run(capsys, "endinv", "3/8", "--depth", "7")[0] == 0
        assert cli._rendered.cache_info().currsize == 3
        cli._rendered.cache_clear()
        for depth in ("13", "-1"):
            code, out, err = run(capsys, "endinv", "3/8", "--depth", depth)
            assert (code, out) == (1, "") and "depth must lie in" in err
        assert cli._rendered.cache_info().currsize == 0


class TestParsing:
    def test_bad_slope_exit_1(self, capsys):
        code, _, err = run(capsys, "identity", "5/3")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("text", ["abc", "2/x", "1/2/3", "2/"])
    def test_malformed_slope_exit_1(self, capsys, text):
        code, out, err = run(capsys, "identity", text)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed slope")

    @pytest.mark.parametrize("argv", [["identity", "2/5", "--bogus"],
                                      ["identity", "2/5", "--eps", "-inf"],
                                      ["cusp", "2/5", "--periods", "0"],
                                      ["cusp", "2/5", "--periods", "-1"]])
    def test_usage_error_exit_1(self, capsys, argv):
        """A usage error exits 1, not argparse's 2, which here means a
        non-hyperbolic slope."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: " in capsys.readouterr().out

    def test_parser_built_once(self, capsys):
        """Two calls of main build the parser once, on the first call."""
        from twobridge import cli
        cli.build_parser.cache_clear()
        run(capsys, "longitude", "2/5")
        run(capsys, "identity", "1/3")
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


@pytest.mark.slow
def test_near_parabolic_root_at_large_p(capsys):
    """2/241's geometric root lies near the parabolic value 2, and its
    census scan spends over 600 000 nodes before it passes: ``cusp`` lays
    out its cusp, and ``identity`` passes every acceptance rule, the
    slowly growing fan around 0/1 closed by rule 2 of ``kernels``
    within the node budget.  Most of the time goes to the root finding,
    done once."""
    code, out, _ = run(capsys, "cusp", "2/241")
    assert code == 0 and json.loads(out)["folds_ok"]
    code, out, err = run(capsys, "identity", "2/241")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert not doc["partial"] and doc["identity_residual"] <= 1e-6


@pytest.mark.slow
def test_identity_at_p301(capsys):
    """100/301's double roots certify once Aberth evaluates its trace
    polynomial by the mediant walk, and ``identity`` passes every
    acceptance rule, with lambda within 1e-8 of its recorded value."""
    code, out, err = run(capsys, "identity", "100/301")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert not doc["partial"]
    assert doc["identity_residual"] <= 1e-6
    assert doc["finite_identity_residual"] <= 1e-9
    assert doc["form_disagreement"] <= 1e-6
    lam = complex(*doc["lambda_link"])
    assert abs(lam - complex(-2.99974098477, 2.64676906162)) <= 1e-8
