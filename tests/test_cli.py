"""Command-line front end: output schemas, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pvi import cli
from pvi import verifier as vf
from pvi.curves import CURVES, CurveId
from pvi.multipoly import MultiPoly
from pvi.orbits import MAX_PARTITION_DENOMINATOR


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestClassify:
    def test_three_solution_case(self, capsys):
        code, data, _ = run_json(capsys, "classify", "--pvi", "1/8,-1/8,1/8,3/8")
        assert code == 0
        assert data["schema_version"] == "1"
        assert data["curves"] == ["A", "B", "C"]
        assert data["alpha"] == ["1/8", "1/8", "1/8", "1/8"]

    def test_picard_case(self, capsys):
        code, data, _ = run_json(capsys, "classify", "--alpha", "0,0,0,0")
        assert code == 0
        assert data["kind"] == "picard_family"
        assert data["curves"] == []

    def test_empty_with_verification(self, capsys):
        code, data, _ = run_json(
            capsys, "classify", "--alpha", "1,2,3,4", "--verify", "--samples", "8"
        )
        assert code == 0
        assert data["kind"] == "empty"
        assert len(data["reports"]) == 7
        assert all(rep["max_residual"] > 1e-3 for rep in data["reports"].values())

    def test_requires_exactly_one_form(self, capsys):
        code, _, err = run(capsys, "classify", "--alpha", "1,1,1,1", "--pvi", "1,1,1,1")
        assert code == 2
        code, _, err = run(capsys, "classify")
        assert code == 2

    def test_malformed_rational_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--alpha", "1,2,x,4"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--alpha", "1,1,1,1", "--frobnicate"])
        assert exc.value.code == 2

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--alpha", "9,1,1,1", "--format", "text")
        assert code == 0
        assert "D" in out

    def test_text_format_emits_no_report_json(self, capsys, monkeypatch):
        def no_json(self):
            raise AssertionError("the text form reads only the aggregates")

        monkeypatch.setattr(vf.ResidualReport, "to_json_dict", no_json)
        code, out, _ = run(capsys, "classify", "--alpha", "9,1,1,1", "--verify",
                           "--format", "text")
        assert code == 0
        assert "residual[D]" in out

    def test_verify_text_builds_no_samples(self, capsys, monkeypatch):
        built = []
        sample_init = vf.ResidualSample.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            sample_init(self, *args, **kwargs)

        monkeypatch.setattr(vf.ResidualSample, "__init__", counting)
        code, out, _ = run(capsys, "verify", "--curve", "D", "--alpha=9,1,1,1",
                           "--format", "text")
        assert code == 0
        assert "samples: 100  skipped: 0" in out
        assert built == []

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--alpha", "9,1,1,1", "--verify", "--samples", samples])
        assert exc.value.code == 2

    def test_samples_above_limit_exit_2(self, capsys):
        code, out, err = run(capsys, "classify", "--alpha", "9,1,1,1", "--verify",
                             "--samples", str(vf.MAX_SAMPLES + 1))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and str(vf.MAX_SAMPLES) in err

    def test_no_valid_samples_exits_1(self, capsys, monkeypatch):
        def no_samples(*args, **kwargs):
            raise vf.NoValidSamplesError("every sample was skipped; nothing to report")

        monkeypatch.setattr(vf, "classify", no_samples)
        code, out, err = run(capsys, "classify", "--alpha", "9,1,1,1", "--verify")
        assert code == 1
        assert out == ""
        assert err == "verification failed: every sample was skipped; nothing to report\n"

    def test_determinism(self, capsys):
        argv = ("classify", "--alpha", "1,1,2,2", "--verify", "--samples", "9")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestOrbit:
    def test_vector_mode(self, capsys):
        code, data, _ = run_json(capsys, "orbit", "--mu", "1/4", "--nu", "0")
        assert code == 0
        assert data["size"] == 2
        assert data["curve"] == "A"
        assert data["orbit"] == [["1/4", "0"], ["1/4", "1/2"]]
        assert data["standard_form"]["N"] == 4

    def test_denominator_mode(self, capsys):
        code, data, _ = run_json(capsys, "orbit", "--denominator", "6")
        assert code == 0
        assert data["partition"] == [4, 4, 4]
        assert data["class_count"] == 12

    def test_large_prime_denominator(self, capsys):
        code, data, _ = run_json(capsys, "orbit", "--denominator", "999983")
        assert code == 0
        assert data["partition"] == [(999983 ** 2 - 1) // 2]
        assert data["class_count"] == (999983 ** 2 - 1) // 2

    def test_denominator_above_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "orbit", "--denominator", str(MAX_PARTITION_DENOMINATOR + 1))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "exceeds the orbit partition cap" in err

    def test_long_orbit_has_no_curve(self, capsys):
        code, data, _ = run_json(capsys, "orbit", "--mu", "1/5", "--nu", "0")
        assert code == 0
        assert data["size"] == 12
        assert data["curve"] is None

    def test_half_integer_exits_2(self, capsys):
        code, _, err = run(capsys, "orbit", "--mu", "1/2", "--nu", "0")
        assert code == 2
        assert "half-integer" in err

    def test_modes_are_exclusive(self, capsys):
        code, _, _ = run(capsys, "orbit", "--mu", "1/4", "--nu", "0", "--denominator", "4")
        assert code == 2
        code, _, _ = run(capsys, "orbit", "--mu", "1/4")
        assert code == 2

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "orbit", "--mu", "1/6", "--nu", "5/6")
        _, out2, _ = run(capsys, "orbit", "--mu", "1/6", "--nu", "5/6")
        assert out1 == out2


class TestVerify:
    def test_pass_case(self, capsys):
        code, data, _ = run_json(
            capsys, "verify", "--curve", "D", "--pvi", "9/8,-1/8,1/8,3/8"
        )
        assert code == 0
        assert data["verdict"] == "pass"
        assert data["max_residual"] < 1e-8

    def test_fail_case_exits_1(self, capsys):
        code, data, _ = run_json(capsys, "verify", "--curve", "A", "--alpha", "9,1,1,1")
        assert code == 1
        assert data["verdict"] == "fail"

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--curve", "A", "--alpha", "1,1,2,2",
            "--samples", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_re,t_im,y_re,y_im,residual"
        assert len(lines) == 11  # header + 5 samples x 2 branches

    def test_custom_polynomial(self, capsys):
        code, data, _ = run_json(
            capsys, "verify", "--poly", "y^2 - t", "--alpha", "1,1,2,2",
            "--samples", "6",
        )
        assert code == 0
        assert data["curve"] is None
        assert data["verdict"] == "pass"

    def test_verify_text_builds_no_samples(self, capsys, monkeypatch):
        built = []
        sample_init = vf.ResidualSample.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            sample_init(self, *args, **kwargs)

        monkeypatch.setattr(vf.ResidualSample, "__init__", counting)
        code, out, _ = run(capsys, "verify", "--curve", "D", "--alpha=9,1,1,1",
                           "--format", "text")
        assert code == 0
        assert "samples: 100  skipped: 0" in out
        assert built == []

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--curve", "A", "--alpha", "9,1,1,1", "--samples", samples])
        assert exc.value.code == 2

    def test_samples_above_limit_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--curve", "A", "--alpha", "1,1,2,2",
                             "--samples", str(vf.MAX_SAMPLES + 1))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and str(vf.MAX_SAMPLES) in err

    def test_bad_polynomial_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--poly", "y^^2", "--alpha", "1,1,2,2")
        assert code == 2


class TestEvalPicard:
    def test_quarter_class(self, capsys):
        code, data, _ = run_json(
            capsys, "eval-picard", "--mu", "1/4", "--nu", "0", "--tau-im", "2"
        )
        assert code == 0
        assert data["curve"] == "A"
        assert data["curve_residual"] < 1e-8
        assert data["master_residual"] < 1e-8
        y = complex(data["y"]["re"], data["y"]["im"])
        t = complex(data["t"]["re"], data["t"]["im"])
        assert abs(y * y - t) < 1e-8

    def test_half_integer_exits_2(self, capsys):
        code, _, _ = run(capsys, "eval-picard", "--mu", "1/2", "--nu", "0", "--tau-im", "2")
        assert code == 2

    def test_lower_half_plane_exits_2(self, capsys):
        code, _, _ = run(capsys, "eval-picard", "--mu", "1/4", "--nu", "0", "--tau-im", "-1")
        assert code == 2


class TestDeriveQuartics:
    def test_json(self, capsys):
        code, data, _ = run_json(capsys, "derive-quartics")
        assert code == 0
        assert data["matches_canonical"] is True
        assert set(data["curves"]) == {"D", "E", "F", "G"}
        assert MultiPoly.parse(data["curves"]["D"]) == CURVES[CurveId.D]


class TestSelftest:
    def test_json_report(self, capsys):
        code, data, _ = run_json(capsys, "selftest", "--json")
        assert code == 0
        assert data["ok"] is True
        assert data["failed"] == 0
        assert len(data["checks"]) >= 12
        names = {c["name"] for c in data["checks"]}
        assert "quartic-derivation" in names
        assert all(c["passed"] for c in data["checks"])

    def test_mutation_control(self, capsys, monkeypatch):
        # a coefficient typo in the first quartic must trip the derivation
        # check and flip the exit code
        broken = CURVES[CurveId.D] + MultiPoly.variable("y")
        monkeypatch.setitem(CURVES, CurveId.D, broken)
        code, data, _ = run_json(capsys, "selftest", "--json")
        assert code == 1
        assert data["ok"] is False
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["quartic-derivation"]["passed"] is False

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert out.count("[PASS]") >= 12
        assert "[FAIL]" not in out


class TestEntryPoint:
    def test_module_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pvi.cli", "orbit", "--denominator", "4"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["partition"] == [2, 2, 2]

    @pytest.mark.skipif(shutil.which("pvi") is None, reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["pvi", "orbit", "--denominator", "4"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["partition"] == [2, 2, 2]


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestOrbitListing:
    @pytest.mark.parametrize("mu,nu", [("1/3", "0"), ("1/4", "1/4"), ("2/7", "3/7"), ("1/12", "5/12"),
                                       ("4/15", "1/5"), ("3/16", "0"), ("1/45", "2/9")])
    def test_list_is_the_sorted_orbit(self, capsys, mu, nu):
        from pvi import orbits as ob

        v = ob.canonicalize((ob.parse_rational(mu), ob.parse_rational(nu)))
        expected = [w.as_strings() for w in sorted(ob.enumerate_orbit(v))]
        code, body, _ = run_json(capsys, "orbit", "--mu", mu, "--nu", nu)
        assert code == 0
        assert body["orbit"] == expected
        code, out, _ = run(capsys, "orbit", "--mu", mu, "--nu", nu, "--format", "text")
        assert code == 0
        assert out.splitlines()[1] == "orbit: " + ", ".join(f"({a}, {b})" for a, b in expected)

    # sha256 of the JSON bytes as the breadth-first listing printed them: the
    # three numerator parities at level 160, odd level 45, and levels 96 and 6
    @pytest.mark.parametrize("mu,nu,digest", [
        ("1/160", "0", "f4296013b153d334567ec29e1b3098329adcce92ba16d62a958a5cc49c774329"),
        ("3/160", "1/160", "29e0939611c39c6b275d96fad1527099cd156f5315590b0f375ce367f3bd6fdf"),
        ("0", "7/160", "a48215a0bad2fcf588cf3f5f9216edde6192133c0e6ac880b316f838f0290d5d"),
        ("2/45", "7/45", "b242197e24d2176fad8b69908c028049e2d0d7451f90026d928e98459389dcfb"),
        ("5/96", "1/96", "5827f95ba3d18eed630aff08a5d50ab356c4d041c64cbb41ef2ac263e6ff5617"),
        ("1/6", "5/6", "1ae7257584fef37a47b4a9db76df8ef0489b6a1a4ef89b2890bab2e503a8ddda"),
    ])
    def test_json_bytes_are_pinned(self, capsys, mu, nu, digest):
        code, out, _ = run(capsys, "orbit", "--mu", mu, "--nu", nu)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifierBytes:
    # sha256 of the verifier's output, taken before the branches of a curve
    # were cached: every curve at its canonical alpha and at (1, 2, 3, 4), one
    # CSV report, one custom polynomial and a verified classification; the
    # last three rows, taken before the roots came from np.roots at each t,
    # are custom polynomials whose roots depend on the last bits.  The
    # residuals are floating point, so the digests hold for one numpy and
    # LAPACK build.
    @pytest.mark.parametrize("argv,code,digest", [
        (["verify", "--curve", "A", "--alpha=1,1,2,2"], 0,
         "d2432460e1a4a83da82a35c82e3b63b73127825a0f8ce024eef63d9da77c1784"),
        (["verify", "--curve", "A", "--alpha=1,2,3,4"], 1,
         "d6486b81a66f0451d16746b0fbf2ceb9467d0c477b6dd4a4592c86dc31c2e472"),
        (["verify", "--curve", "B", "--alpha=1,2,1,2"], 0,
         "32b928b8547bea570e52949f2b6134aa361efdeb9e6139e786c31a72e5576a94"),
        (["verify", "--curve", "B", "--alpha=1,2,3,4"], 1,
         "5fbe6e331d0a7699186a09d61896140bf3f5a9aaa55ab536d136900e12a05377"),
        (["verify", "--curve", "C", "--alpha=1,2,2,1"], 0,
         "5ccf0fecf6b3253d9732373383085a41a2b5884ae3f44172e71baf5d14201194"),
        (["verify", "--curve", "C", "--alpha=1,2,3,4"], 1,
         "4950a758ee6345f897402272987aa2ead56ba4221fc9866e6867ff1c06c24349"),
        (["verify", "--curve", "D", "--alpha=9,1,1,1"], 0,
         "b6d1d3f8e1a1ef311548efa5ca7417a304a6f0078f2bab1855b699b3fc78787f"),
        (["verify", "--curve", "D", "--alpha=1,2,3,4"], 1,
         "a0a17f17e8e67dc500a0f6c5ae817ccb65a955a0a5cbd1e2ab4b490dd63fc7a4"),
        (["verify", "--curve", "E", "--alpha=1,9,1,1"], 0,
         "6ff1d4defb1bfffebba49f8f507dae44747ece2f6fb09bbefe750c4a12eca5d8"),
        (["verify", "--curve", "E", "--alpha=1,2,3,4"], 1,
         "7f625ce0e8983e37fe49f3d69003ccb1da5f7653cafcdfc8ed2127b2c722ee9c"),
        (["verify", "--curve", "F", "--alpha=1,1,9,1"], 0,
         "dd40b843f2785745f6fd7849e9673b117cefacb49c1f81ae822f6b221f852409"),
        (["verify", "--curve", "F", "--alpha=1,2,3,4"], 1,
         "f23e1271a2f9c0e96f6edfcf1841bea6a562b4b80c48d7f528b569d54c9e9775"),
        (["verify", "--curve", "G", "--alpha=1,1,1,9"], 0,
         "ef5f2cb11a2adef39db72347a16add3397bb175dcd56d41f3857baa432e199e7"),
        (["verify", "--curve", "G", "--alpha=1,2,3,4"], 1,
         "62a4e0abe039ce135052afb28d09c794d7b53ef2c54293f4d2754ef75a8ad92e"),
        (["verify", "--curve", "D", "--alpha=9,1,1,1", "--format", "csv"], 0,
         "084544df1723416513577f5de986809f11310ef9537f8717ae3efefe4718a49f"),
        (["verify", "--poly", "y^3 - t*y + 2*t^2 - 1", "--alpha=1,1,2,2", "--samples", "11"], 1,
         "9ef6eee989ae449a870c9d9aeed8477ff03de325efe2671f4f7d232a9ad160a1"),
        (["classify", "--alpha=1,1,1,1", "--verify"], 0,
         "e3f89f39416d05e27cf3d6e68ea3be4ffcd8522d408489b71aa2e7fd1dc14d2c"),
        # zero roots from a trailing zero coefficient
        (["verify", "--poly", "y^3 - t*y", "--alpha=1,1,2,2", "--samples", "7"], 0,
         "fa5bdb5d0ec400b693f44f0540a8d1ae816b9a902d29bb361aabb06d328c32b1"),
        # Fraction coefficients
        (["verify", "--poly", "1/3*y^3 + 5/7*t^2*y - 2/9*t + 3*t^2", "--alpha=1,1,2,2",
          "--samples", "7"], 1,
         "5b34ad164bdeffd9e58b0d1061bd4d418a9f43dfa5d0f9b3d2e69738d14036c9"),
        # 10^12 (y - 2)^2 (y - t): which roots fail polishing depends on the last bits
        (["verify", "--poly", "1000000000000*y^3 - 1000000000000*y^2*t - 4000000000000*y^2"
          " + 4000000000000*y*t + 4000000000000*y - 4000000000000*t", "--alpha=1,1,2,2",
          "--samples", "7"], 1,
         "85c8a3f5a5247515c3186c0c8642b66fb7900a7734b7c1a5c3eea29f1052bb82"),
        # the text forms, which read only the aggregates
        (["verify", "--curve", "E", "--alpha=1,2,3,4", "--format", "text"], 1,
         "f6b1c706abbf107a331391e98569bf4c97f5678a03b7fee8b2acd566885760f2"),
        (["classify", "--alpha=9,1,1,1", "--verify", "--format", "text"], 0,
         "15cfa3d2d0d6a51c952dfdaffdc37d9f2e469b3167386d19058de22f06b9a455"),
        (["verify", "--curve", "D", "--alpha=9,1,1,1", "--format", "text"], 0,
         "c616cc35602badf897a5441d584c6d67e85f788f82fefc0aaec9bd6d05ff3892"),
    ])
    def test_bytes_are_pinned(self, capsys, argv, code, digest):
        # twice: the second run is served the branches the first one found
        for _ in range(2):
            got, out, _ = run(capsys, *argv)
            assert got == code
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_term_order_does_not_reach_the_bytes(self, capsys):
        # (1 + t + t^2)(y^2 - t) written out of str order and in it: three
        # terms at y^2 and at y^0, summed in str order either way
        digests = []
        for poly in ("y^2 + t*y^2 + t^2*y^2 - t - t^2 - t^3",
                     "t^2*y^2 + t*y^2 + y^2 - t^3 - t^2 - t"):
            code, out, _ = run(capsys, "verify", "--poly", poly, "--alpha=1,1,2,2")
            assert code == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert digests == ["f8efefe35cdc175496757f19a0aa2c716132e59617c2fa36de58d8485d7a8085"] * 2


class TestPicardBytes:
    # sha256 of eval-picard at each curve's Picard class and a fixed tau,
    # taken before the sextic was built from basis sextics: master_residual
    # sums the sextic's terms in dict order, so its last bits pin the term
    # order.  Floating point, so one numpy and LAPACK build.
    @pytest.mark.parametrize("curve,tau,digest", [
        ("A", ("0.1", "1.3"), "67229c8d473af6181893e7fb882698368e4d1062eb13d57ac9eccc3d5d31883f"),
        ("B", ("-0.3", "1.1"), "5b9dea3879108be2f8a507f13d507bc90142f71cc651aeddeb3f7384e0a62607"),
        ("C", ("0.25", "0.8"), "d6b2035644cead2e4364fb069fde2fa1aa3a9470a0239659dac2e84f956bfde9"),
        ("D", ("0.4", "1.2"), "40defdf85ab6e3a08ce0872e143b05c9daaf4cd8129bc50000d15891bb44d107"),
        ("E", ("-0.2", "0.9"), "dab1159d268683bdc098003f175a4a12a9c4d4e3aca13cc96877edf3bd255912"),
        ("F", ("0.2", "0.9"), "d949f84eec20cf0df1bf9f6abafb0fef59e4cf90464cb6efb7a32097163477b2"),
        ("G", ("-0.45", "0.7"), "41bff27998d328b3cb32c37d9a8fb4d6b073219a0351ea13ad38478c0ad8495d"),
    ])
    def test_bytes_are_pinned(self, capsys, curve, tau, digest):
        from pvi.curves import CURVE_TABLE
        from pvi.orbits import format_rational

        mu, nu = (format_rational(x) for x in CURVE_TABLE[CurveId(curve)].picard_class)
        code, out, _ = run(capsys, "eval-picard", "--mu", mu, "--nu", nu,
                           "--tau-re", tau[0], "--tau-im", tau[1])
        assert code == 0
        body = json.loads(out)
        assert body["curve"] == curve and 0 < body["master_residual"] < 1e-10
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCliCorpus:
    # 191 commands over every subcommand, with their exit codes and the sha256
    # of their stdout and stderr, as recorded in tests/cli_corpus.json.  The
    # residuals are floating point, so the digests hold for one Python, numpy
    # and LAPACK build.
    CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())

    def test_every_command_replays_byte_for_byte(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal width
        rows, moved = [], []
        for want in self.CORPUS["rows"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(want[0])
                except SystemExit as exc:
                    code = exc.code
            row = [want[0], code] + [hashlib.sha256(f.getvalue().encode()).hexdigest() for f in (out, err)]
            rows.append(row)
            if row != want:
                moved.append(" ".join(want[0]))
        assert moved == []
        assert len(rows) == self.CORPUS["commands"]
        digest = hashlib.sha256(json.dumps(rows, indent=0).encode()).hexdigest()
        assert digest == self.CORPUS["sha256"] == \
            "ed834030d1d07ea58f0d56ffe052b027da1ec79a533efb60b1205b454f1eb8fb"


class TestSignedValues:
    @pytest.mark.parametrize("argv", [
        ["classify", "--alpha", "-3,1,2,4"],
        ["classify", "--pvi", "-1/2,1,-2,3"],
        ["verify", "--curve", "A", "--alpha", "-1,1,2,2", "--samples", "3"],
        ["verify", "--curve", "B", "--pvi", "-1,2,3,4", "--samples", "3"],
        ["orbit", "--mu", "-1/3", "--nu", "0"],
        ["orbit", "--mu", "1/5", "--nu", "-2/5"],
        ["eval-picard", "--mu", "-1/3", "--nu", "0", "--tau-im", "1.2"],
        ["eval-picard", "--mu", "1/4", "--nu", "-1/4", "--tau-im", "0.9", "--tau-re", "-0.5"],
    ])
    def test_spaced_and_attached_forms_agree(self, capsys, argv):
        attached = list(argv)
        for i, tok in enumerate(argv[:-1]):
            if tok in ("--alpha", "--pvi", "--mu", "--nu"):
                attached[i:i + 2] = [f"{tok}={argv[i + 1]}", None]
        attached = [tok for tok in attached if tok is not None]
        code, out, err = run(capsys, *argv)
        assert err == ""
        assert code in (0, 1)
        assert run(capsys, *attached) == (code, out, err)
        json.loads(out)

    def test_negative_values_are_read(self, capsys):
        code, body, _ = run_json(capsys, "classify", "--alpha", "-3,1,2,4")
        assert code == 0 and body["alpha"] == ["-3", "1", "2", "4"]
        code, body, _ = run_json(capsys, "orbit", "--mu", "-1/3", "--nu", "0")
        assert code == 0 and body["vector"] == ["1/3", "0"]

    def test_missing_value_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--alpha", "--verify"])
        assert exc.value.code == 2


class TestDegreeLimitExit:
    def test_high_degree_polynomial_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--alpha=1,1,2,2", "--poly", "y^300 - t")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "255" in err

    def test_too_much_root_finding_exits_2(self, capsys):
        # degree 255 at the default 25 samples: about 25 * 0.25 s of eigenvalue
        # solves, refused before the first
        code, out, err = run(capsys, "verify", "--alpha=1,1,2,2",
                             "--poly", "y^255 + t^255 + y*t - 1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "root-finding limit" in err and str(vf.MAX_ROOT_WORK) in err


class TestClosedStdout:
    def test_reader_closed_exits_1_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pvi.cli", "orbit", "--mu", "1/3", "--nu", "0"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=_src_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["orbit", "--denominator", "6"]])
    def test_parser_output_to_closed_reader_exits_1(self, argv, unbuffered):
        env = _src_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pvi.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


class TestLazyNumpy:
    """numpy is loaded only when a curve is verified."""

    SCRIPT = """
import contextlib, io, sys
import pvi.cli as cli
assert "numpy" not in sys.modules, "import pvi.cli"
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, (argv, code)
    print("numpy" in sys.modules)
"""

    def run(self, argvs):
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT.format(argvs=argvs)],
                              capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_commands_without_verification_skip_numpy(self):
        argvs = [["--version"], ["orbit", "--mu", "1/3", "--nu", "0"], ["derive-quartics"],
                 ["eval-picard", "--mu", "1/4", "--nu", "0", "--tau-im", "1"],
                 ["classify", "--alpha", "9,1,1,1"]]
        assert self.run(argvs) == ["False"] * len(argvs)

    def test_verification_loads_numpy(self):
        # the control: the same probe sees numpy once a curve is verified
        assert self.run([["classify", "--alpha", "9,1,1,1", "--verify", "--samples", "2"]]) == ["True"]


class TestPathPins:
    # exit code and sha256 of stdout and stderr of CLI paths that no other
    # test runs: the text forms of the Picard-family and empty classifications,
    # of an orbit partition, of eval-picard with and without a curve and of
    # derive-quartics; usage errors, one verification failure and argparse
    # rejections.  COLUMNS fixes the width argparse wraps its usage line to.
    EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    @pytest.mark.parametrize("argv,code,out_digest,err_digest", [
        (["classify", "--alpha=0,0,0,0", "--format", "text"], 0,
         "921454916d3e0f83843ab9b6b7a4eecf5f2cf2dcfb979092479d28c42ea5a218", EMPTY),
        (["classify", "--alpha=1,2,3,4", "--format", "text"], 0,
         "0d801cf66aff9e44b488f66981bceb2fb26c1cd5b0b9cff1f9d03eac0aa0d62a", EMPTY),
        (["orbit", "--denominator", "6", "--format", "text"], 0,
         "ffc01c890a3e0ba2269200c6982ca0f512d386eb2eb1430418cabcd54e012a8e", EMPTY),
        (["orbit", "--denominator", "1"], 2, EMPTY,
         "1a896ab2ad4dac8963063cfe6001c5edf2599656e822ed79e21960c50ea2491c"),
        (["verify", "--curve", "A", "--poly", "y", "--alpha=1,1,2,2"], 2, EMPTY,
         "66590881a4235850b476db337e3f9e539e0ff74a02fc314054663593a99b97e9"),
        (["verify", "--poly", "y - t", "--alpha=1,1,2,2"], 1, EMPTY,
         "fd3622273fdc508834547e4c778436a16944f00f83d7e7c71285e3c1095606e1"),
        (["eval-picard", "--mu", "1/4", "--nu", "0", "--tau-im", "1.3", "--format", "text"], 0,
         "120971f7cb0792f04def8c353707605775b1e412c706dce864047dc55d6e5ed7", EMPTY),
        (["eval-picard", "--mu", "1/5", "--nu", "2/5", "--tau-im", "0.9", "--format", "text"], 0,
         "843f747de0ff7a6fa058651a9ae7da328829220e8e4416625a6e975e83f86e20", EMPTY),
        (["derive-quartics", "--format", "text"], 0,
         "8cce3f9c3e1ed5bd4fd6abcb1207169582a3759c8d140b21c92d113a29a52a46", EMPTY),
        (["orbit", "--mu", "x", "--nu", "0"], 2, EMPTY,
         "52d6037483d5bb97984e3149cc407d6ed211864c8a006acae3e12e0aa6fcbc1b"),
        (["classify", "--alpha=1,2,3"], 2, EMPTY,
         "287ea9e31fbff99451c3b2d335196829cc3c674f78d764815ad86e9140ce8ab5"),
        (["classify", "--alpha=1,1,2,2", "--samples", "x"], 2, EMPTY,
         "f077f8615765b21adc1aba49741b83e8237fad69a1e4aa3f20a57483ca7b2890"),
    ])
    def test_bytes_are_pinned(self, capsys, monkeypatch, argv, code, out_digest, err_digest):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert got == code
        assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(captured.err.encode()).hexdigest() == err_digest

    def test_verification_failure_message(self, capsys):
        code, out, err = run(capsys, "verify", "--poly", "y - t", "--alpha=1,1,2,2")
        assert (code, out) == (1, "")
        assert err == "verification failed: every sample was skipped; nothing to report\n"
