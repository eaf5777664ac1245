"""End-to-end tests of the command-line surface."""

import json

import pytest

from primelattice import cli, density, explicit
from primelattice.cli import ZEROS_ENV, build_parser, run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pi_100(capsys):
    code, out, err = _capture(capsys, ["pi", "100"])
    assert (code, out, err) == (0, "25\n", "")


def test_prime_powers_and_j(capsys):
    code, out, _ = _capture(capsys, ["prime-powers", "100"])
    assert code == 0 and out == "35\n"
    code, out, _ = _capture(capsys, ["j", "10"])
    assert code == 0 and out == "16/3\n"


def test_localize_report(capsys):
    code, out, _ = _capture(capsys, ["localize", "10"])
    assert code == 0
    assert out.strip() == "sum=9 floor=10 floor-1=9 match=floor-1"


def test_lattice_circle_json_roundtrip(capsys):
    code, out, _ = _capture(capsys, ["lattice", "circle", "5", "--format", "json"])
    assert code == 0
    got = json.loads(out)
    assert got["count"] == 81 and isinstance(got["count"], int)
    assert got["main_term"] == pytest.approx(78.53981633974483, abs=0)
    assert got["error"] == got["main_term"] - 81
    # integer fields survive a parse/re-emit cycle byte for byte
    assert json.dumps(got, separators=(",", ":")) == out.strip()


def test_lattice_divisor_json(capsys):
    code, out, _ = _capture(capsys, ["lattice", "divisor", "100", "--format", "json"])
    got = json.loads(out)
    assert code == 0 and got["count"] == 482


def test_tuples_count(capsys):
    code, out, _ = _capture(
        capsys, ["tuples", "count", "--offsets", "0,2", "--limit", "100"])
    assert code == 0 and out == "8\n"


def test_tuples_power(capsys):
    code, out, _ = _capture(
        capsys, ["tuples", "power", "--offsets", "0,2",
                 "--exponents", "1,2", "--cutoff", "10000"])
    assert code == 0 and out == "4\n"


def test_explicit_pi_json_keys(capsys):
    code, out, _ = _capture(
        capsys, ["explicit", "pi", "100", "--zeros", "100", "--format", "json"])
    assert code == 0
    got = json.loads(out)
    assert list(got) == ["value", "main_term", "zero_sum", "log2_term",
                         "trivial_zero_sum", "zeros_used"]
    assert got["zeros_used"] == 100
    assert abs(got["value"] - 25) < 1.0


def test_perron_text(capsys):
    code, out, _ = _capture(capsys, ["perron", "10", "1.5", "1000"])
    assert code == 0
    assert "within_bound=true" in out
    assert "indicator=1.0" in out


def test_singular_series(capsys):
    code, out, _ = _capture(capsys, ["singular-series", "--offsets", "0,2"])
    assert code == 0
    assert abs(float(out) - 1.3203236) < 1e-4
    code, out, _ = _capture(
        capsys, ["singular-series", "--offsets", "0,2", "--format", "json"])
    got = json.loads(out)
    assert got["prime_limit"] == 10 ** 6 and got["tail_estimate"] > 0


def test_zeros_verify(capsys):
    code, out, _ = _capture(capsys, ["zeros", "verify"])
    assert code == 0 and out.strip() == "zeros=100 verified=true"


def test_zero_file_flag_and_env(tmp_path, monkeypatch, capsys):
    path = tmp_path / "zeros.txt"
    path.write_text("".join(f"{g:.12f}\n" for g in explicit.default_zero_table().ordinates))
    code, out, _ = _capture(capsys, ["zeros", "verify", "--zero-file", str(path)])
    assert code == 0 and "zeros=100" in out

    monkeypatch.setenv(ZEROS_ENV, str(path))
    code, out, _ = _capture(capsys, ["zeros", "verify"])
    assert code == 0 and "zeros=100" in out

    monkeypatch.setenv(ZEROS_ENV, str(tmp_path / "missing.txt"))
    code, _, err = _capture(capsys, ["zeros", "verify"])
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1


def test_lattice_fit_csv(capsys):
    code, out, _ = _capture(
        capsys, ["lattice", "fit", "--shape", "circle", "--from", "128",
                 "--to", "131072", "--samples", "12", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "R,count,main_term,error"
    assert len(lines) >= 9
    fields = lines[1].split(",")
    assert float(fields[2]) - int(fields[1]) == float(fields[3])


def test_lattice_fit_text(capsys):
    code, out, _ = _capture(
        capsys, ["lattice", "fit", "--shape", "divisor", "--from", "1000",
                 "--to", "1000000", "--samples", "10"])
    assert code == 0
    assert out.startswith("fitted_exponent=")


def test_csv_format_generic(capsys):
    code, out, _ = _capture(capsys, ["pi", "100", "--format", "csv"])
    assert code == 0
    assert out == "x,value\n100.0,25\n"


def test_usage_errors_exit_2(capsys):
    assert run(["pi"]) == 2
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["lattice", "circle", "5", "--format", "yaml"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["pi", "nan"], ["perron", "10", "nan", "10"],
                                  ["explicit", "pi", "inf"]])
def test_non_finite_floats_exit_2(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "finite" in errors[0]
    assert "Traceback" not in err


def test_localization_method_is_gone(capsys):
    code, out, _ = _capture(capsys, ["lattice", "circle", "5", "--method", "localization"])
    assert code == 2 and out == ""


@pytest.mark.parametrize("shape, size", [("circle", "5"), ("divisor", "100")])
def test_method_flag_is_gone(capsys, shape, size):
    code, out, err = _capture(capsys, ["lattice", shape, size, "--method", "brute_force"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --method" in err


@pytest.mark.parametrize("args", [["10", "1.5", "1e7"], ["2", "0.001", "1e15"],
                                  ["0.7404", "1.456", "89675.3"]])
def test_perron_within_bound(capsys, args):
    code, out, err = _capture(capsys, ["perron", *args])
    assert (code, err) == (0, "")
    assert out.endswith(" within_bound=true\n")
    assert "imag_residual" not in out


def test_perron_overflow_exits_1(capsys):
    code, out, err = _capture(capsys, ["perron", "1e300", "3", "10"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_computation_errors_exit_1(capsys):
    code, _, err = _capture(capsys, ["pi", "100", "--limit", "50"])
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    code, _, err = _capture(capsys, ["perron", "1", "1.5", "100"])
    assert code == 1


def test_oversized_fit_sample_count_exits_1(capsys):
    argv = ["lattice", "fit", "--shape", "circle", "--from", "1", "--to", "100",
            "--samples", "1000000000"]
    code, out, err = _capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_oversized_prime_limit_exits_1(capsys, monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"sieve to {n} allocated before the cap check")

    monkeypatch.setattr(density, "_simple_prime_list", no_sieve)
    argv = ["singular-series", "--offsets", "0,2", "--prime-limit", "100000000000"]
    code, out, err = _capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: prime_limit must be <=") and err.count("\n") == 1


def test_memory_error_exits_1(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_pi", exhausted)
    code, out, err = _capture(capsys, ["pi", "100"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_byte_identical_across_threads(capsys):
    outs = []
    for t in ("1", "4", "8"):
        argv = ["lattice", "circle", "2000", "--threads", t, "--format", "json"]
        code, out, _ = _capture(capsys, argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]

    outs = []
    for t in ("1", "4", "8"):
        code, out, _ = _capture(
            capsys, ["lattice", "fit", "--shape", "circle", "--from", "128",
                     "--to", "131072", "--samples", "11", "--threads", t])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_repeated_runs_identical(capsys):
    a = _capture(capsys, ["explicit", "pi", "1000", "--format", "json"])
    b = _capture(capsys, ["explicit", "pi", "1000", "--format", "json"])
    assert a == b


def test_parser_builds_help():
    parser = build_parser()
    assert parser.prog == "primelattice"
