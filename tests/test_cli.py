"""Command-line surface: output formats, determinism, and exit codes."""

import inspect
import io
import json
import pathlib
import sys
import time
import tracemalloc

import pytest

import moonshine
from moonshine import _errors, cli, groups, modular, monster, qseries, sl2z


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_j_order_3(capsys):
    code, out = run_cli(capsys, "j", "--order", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "-1 1"
    assert lines[-1] == "2 21493760"


def test_j_order_0(capsys):
    code, out = run_cli(capsys, "j", "--order", "0")
    assert code == 0
    assert out.strip() == "-1 1"


def test_j_normalized(capsys):
    code, out = run_cli(capsys, "j", "--order", "3", "--normalized")
    assert code == 0
    assert "0 0" in out.splitlines()


def test_eisenstein(capsys):
    code, out = run_cli(capsys, "eisenstein", "--weight", "4", "--order", "2")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 240"]
    code, out = run_cli(capsys, "eisenstein", "--weight", "6", "--order", "2")
    assert "1 -504" in out.splitlines()


def test_eisenstein_bad_weight_exits_2(capsys):
    code, _ = run_cli(capsys, "eisenstein", "--weight", "2", "--order", "2")
    assert code == 2


def test_delta(capsys):
    code, out = run_cli(capsys, "delta", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 -24", "3 252"]


def test_reduce_outputs(capsys):
    code, out = run_cli(capsys, "reduce", "--tau", "5,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tau 0/1 1/1"
    assert lines[2] == "word T^-5"

    code, out = run_cli(capsys, "reduce", "--tau", "0,1/2")
    assert "tau 0/1 2/1" in out
    assert "word S" in out

    code, out = run_cli(capsys, "reduce", "--tau", "7/3,1/5")
    assert code == 0
    record = json.loads(run_cli(capsys, "reduce", "--tau", "7/3,1/5", "--json")[1])
    assert record["in_domain"] is True


def test_reduce_rejects_lower_half_plane(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["reduce", "--tau", "0,-1"])
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["group", "--name", "C0", "--action", "classes"], "n must be >= 1"),
    (["group", "--name", "D2", "--action", "classes"], "the vertex action needs n >= 3"),
    (["group", "--name", "S0", "--action", "series"], "n must be >= 1"),
    (["group", "--name", "A0", "--action", "factors"], "n must be >= 1"),
    (["word", "--matrix", "2,0,0,1"], "determinant must be 1"),
    (["reduce", "--tau", "1,0"], "imaginary part must be positive"),
])
def test_domain_errors_at_parse_time_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_equiv(capsys):
    code, out = run_cli(capsys, "equiv", "--tau1", "0,2", "--tau2", "1,2")
    assert code == 0
    assert "equivalent true" in out
    assert "matrix 1 1 0 1" in out
    code, out = run_cli(capsys, "equiv", "--tau1", "0,2", "--tau2", "0,3")
    assert "equivalent false" in out


def test_lattice(capsys):
    code, out = run_cli(capsys, "lattice", "--b1", "0,1", "1,0", "--b2", "3,1", "2,1")
    assert code == 0
    assert "same-lattice true" in out
    code, out = run_cli(capsys, "lattice", "--b1", "0,1", "1,0", "--b2", "0,2", "1,0")
    assert "same-lattice false" in out


def test_word(capsys):
    code, out = run_cli(capsys, "word", "--matrix", "2,1,1,1")
    assert code == 0
    assert out.startswith("word ")
    code, _ = run_cli(capsys, "word", "--matrix", "1,0,0,1")
    assert code == 0


@pytest.mark.parametrize("argv, lines", [
    (["lattice", "--b1", "-1,0", "0,1", "--b2", "0,1", "-1,0"],
     ["same-lattice true", "matrix 0 1 1 0"]),
    (["reduce", "--tau", "-7/3,1/5"], ["tau 7/34 45/34", "matrix -2 -5 1 2", "word T^-2 S T^2"]),
    (["equiv", "--tau1", "-1/2,1", "--tau2", "1/2,1"], ["equivalent true", "matrix 1 1 0 1"]),
    (["word", "--matrix", "-1,1,-1,0"], ["word T S"]),
    (["reduce", "--tau", "-.5,1"], ["tau -1/2 1/1", "matrix 1 0 0 1", "word 1"]),
], ids=["lattice", "reduce", "equiv", "word", "reduce-decimal"])
def test_values_that_begin_with_a_minus_sign(capsys, argv, lines):
    # argparse alone would read each of these values as an unknown option
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines() == lines


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--tau", "-x,1"], "argument --tau: expected one argument"),
    (["word", "--matrix", "1,1.5,0,1"], "argument --matrix: invalid int value: '1.5'"),
], ids=["option-like-value", "fractional-matrix-entry"])
def test_malformed_values_are_one_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert captured.out == "" and usage.startswith(f"usage: moonshine {argv[0]} ")
    assert error == f"moonshine {argv[0]}: error: {message}"


def test_word_rejects_non_unimodular(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["word", "--matrix", "2,0,0,2"])
    assert err.value.code == 2
    capsys.readouterr()


BIG = "1" + "0" * 5000  # 10^5000, longer than the default int/str digit limit


@pytest.mark.parametrize("argv", [
    ["word", "--matrix", f"1,{BIG},0,1"],
    ["reduce", "--tau", f"{BIG},1"],
    ["reduce", "--tau", f"0,1/{BIG}"],
    ["lattice", "--b1", f"{BIG},1", "1,0", "--b2", "0,1", "1,0"],
    ["j", "--order", BIG],
    ["eisenstein", "--weight", BIG, "--order", "3"],
    ["eisenstein", "--weight", "4", "--order", BIG],
    ["delta", "--order", BIG],
    ["knz", "--order", BIG],
    ["group", "--name", f"C{BIG}", "--action", "classes"],
], ids=["word", "reduce", "reduce-denominator", "lattice", "j", "eisenstein-weight",
        "eisenstein-order", "delta", "knz", "group"])
def test_integers_past_the_digit_limit_exit_2(capsys, argv):
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5001
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err) < 200
    assert "5001 digits" in captured.err and f"limit of {limit}" in captured.err
    assert sys.get_int_max_str_digits() == limit


def test_integers_at_the_digit_limit_are_accepted(capsys):
    entry = "1" + "0" * (sys.get_int_max_str_digits() - 1)
    code, out = run_cli(capsys, "word", "--matrix", f"1,{entry},0,1")
    assert code == 0 and out == f"word T^{entry}\n"


def _one_error_line(capsys, argv, needle):
    limit = sys.get_int_max_str_digits()
    start = time.monotonic()
    assert cli.main(argv) == 2
    assert time.monotonic() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err) < 200
    assert needle in captured.err and f"{limit}" in captured.err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("tau", ["1e5000,1", "1e-5000,1", "0,1E+5_000"])
def test_decimal_exponents_past_the_digit_limit_exit_2(capsys, tau):
    # refused while parsing, before Fraction() builds 10^5000
    _one_error_line(capsys, ["reduce", "--tau", tau], "decimal exponent of 5000")


def test_decimal_exponents_bounded_with_the_digit_limit_off(capsys):
    # with the limit switched off, CPython's default 4300 bounds the exponent
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        start = time.monotonic()
        assert cli.main(["reduce", "--tau", "1e999999999,1"]) == 2
        assert time.monotonic() - start < 2
        captured = capsys.readouterr()
        code, out = run_cli(capsys, "reduce", "--tau", "1e4300,1")
    finally:
        sys.set_int_max_str_digits(limit)
    assert captured.out == ""
    assert captured.err == "error: a decimal exponent of 999999999 is past the limit of 4300\n"
    assert code == 0 and out.startswith("tau 0/1 1/1\n")


@pytest.mark.parametrize("tau, json_flag", [
    (f"1/{10 ** 4298 + 1},1/{10 ** 4297 + 3}", False),
    (f"1/{10 ** 4298 + 1},1/{10 ** 4297 + 3}", True),
    ("99e4299,1", False),
    ("99e4299,1", True),
], ids=["tau", "tau-json", "word-exponent", "word-exponent-json"])
def test_results_past_the_digit_limit_exit_2(capsys, tau, json_flag):
    # admitted inputs whose reduced point or word has more digits than the limit
    argv = ["reduce", "--tau", tau] + (["--json"] if json_flag else [])
    _one_error_line(capsys, argv, "a result has more than")


def test_results_at_the_digit_limit_are_printed(capsys):
    entry = "1" + "0" * (sys.get_int_max_str_digits() - 1)
    exponent = sys.get_int_max_str_digits() - 1
    code, out = run_cli(capsys, "reduce", "--tau", f"1e{exponent},1")
    assert code == 0 and out == f"tau 0/1 1/1\nmatrix 1 -{entry} 0 1\nword T^-{entry}\n"


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def test_text_output_is_streamed(monkeypatch):
    # C1024 prints about 4 MB of class representatives, which --json leaves
    # out.  Written line by line, the text form peaks within a few lines of
    # --json; joined before it is written, it would peak a whole output higher.
    peaks, sizes = {}, {}
    for json_flag in (False, True):
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        argv = ["group", "--name", "C1024", "--action", "classes"] + (["--json"] if json_flag else [])
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
        finally:
            peaks[json_flag] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        sizes[json_flag] = sink.size
    assert sizes[False] > 4 * 10 ** 6
    assert peaks[False] - peaks[True] < sizes[False] // 8, (peaks, sizes)


def test_group_factors(capsys):
    code, out = run_cli(capsys, "group", "--name", "C12", "--action", "factors")
    assert code == 0
    assert out.strip() == "2 2 3"
    code, out = run_cli(capsys, "group", "--name", "D5", "--action", "factors")
    assert out.strip() == "2 5"


def test_group_series(capsys):
    code, out = run_cli(capsys, "group", "--name", "A5", "--action", "series")
    assert code == 0
    assert out.strip() == "orders 1 60"


def test_group_classes(capsys):
    code, out = run_cli(capsys, "group", "--name", "S3", "--action", "classes")
    assert code == 0
    assert sorted(int(line.split()[0]) for line in out.strip().splitlines()) == [1, 2, 3]


def test_group_unknown_name(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["group", "--name", "Q8", "--action", "factors"])
    assert err.value.code == 2
    capsys.readouterr()


def test_group_budgets_exit_2(capsys):
    # A8 and S8 would need Cayley tables of 406M and 1.6G entries; C20000's
    # elements alone would need about 3.2 GB of Perm tuples.
    for name, action, budget in (("A8", "factors", "TABLE_LIMIT"),
                                 ("S8", "series", "TABLE_LIMIT"),
                                 ("C20000", "classes", "CLOSURE_LIMIT")):
        start = time.monotonic()
        code = cli.main(["group", "--name", name, "--action", action])
        elapsed = time.monotonic() - start
        err = capsys.readouterr().err
        assert code == 2 and elapsed < 2.0, (name, elapsed)
        assert err.count("\n") == 1 and budget in err, err


@pytest.mark.parametrize("name, budget", [
    ("C1000000000", "CLOSURE_LIMIT"), ("D1000000000", "CLOSURE_LIMIT"),
    ("S100000", "CLOSURE_LIMIT"), ("A100000", "CLOSURE_LIMIT"), ("S9", "ELEMENT_LIMIT")])
def test_group_families_refused_before_allocation(capsys, name, budget):
    # The constructors compare the closed-form order with the budget before
    # building a generator: C1000000000 would otherwise need gigabytes.
    tracemalloc.start()
    start = time.monotonic()
    try:
        code = cli.main(["group", "--name", name, "--action", "classes"])
    finally:
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and elapsed < 2.0, (name, elapsed)
    assert captured.out == "" and captured.err.count("\n") == 1, captured.err
    assert budget in captured.err, captured.err
    assert peak < 8 * 2 ** 20, peak


def test_group_budgets_admit_s8_classes_and_s7_factors(capsys):
    code, out = run_cli(capsys, "group", "--name", "S8", "--action", "classes")
    assert code == 0 and len(out.splitlines()) == 22  # the partitions of 8
    code, out = run_cli(capsys, "group", "--name", "S7", "--action", "factors")
    assert code == 0 and out.strip() == "2 2520"


def test_order_too_large_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(groups, "JH_ORDER_LIMIT", 60)
    code = cli.main(["group", "--name", "A5", "--action", "factors"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: factor order 60 >= 60\n"


def test_series_budgets_exit_2(capsys):
    # each of these would otherwise run for hours or exhaust memory
    for argv, budget, value in (
            (["j", "--order", "1000000000"], "SERIES_ORDER_LIMIT", "1000000000"),
            (["delta", "--order", "1000000000"], "SERIES_ORDER_LIMIT", "1000000000"),
            (["eisenstein", "--weight", "100000", "--order", "2"],
             "EISENSTEIN_WEIGHT_LIMIT", "100000"),
            (["knz", "--order", "1000"], "KNZ_ORDER_LIMIT", "1000")):
        start = time.monotonic()
        code = cli.main(argv)
        elapsed = time.monotonic() - start
        captured = capsys.readouterr()
        assert code == 2 and elapsed < 2.0, (argv, elapsed)
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and budget in captured.err, captured.err
        assert value in captured.err, captured.err


def test_series_budgets_boundaries(capsys, monkeypatch):
    # J to order L - 1 and Delta, E_w to order L fill exactly L coefficients
    monkeypatch.setattr(modular, "SERIES_ORDER_LIMIT", 40)
    monkeypatch.setattr(modular, "EISENSTEIN_WEIGHT_LIMIT", 12)
    monkeypatch.setattr(monster, "KNZ_ORDER_LIMIT", 2)
    for argv, code in ((["j", "--order", "39"], 0), (["j", "--order", "40"], 2),
                       (["delta", "--order", "40"], 0), (["delta", "--order", "41"], 2),
                       (["eisenstein", "--weight", "12", "--order", "40"], 0),
                       (["eisenstein", "--weight", "14", "--order", "2"], 2),
                       (["eisenstein", "--weight", "4", "--order", "41"], 2),
                       (["knz", "--order", "2"], 0), (["knz", "--order", "3"], 2)):
        assert run_cli(capsys, *argv)[0] == code, argv


def test_series_budgets_admit_stretch_inputs(capsys):
    # j --order 10000 and knz --order 40 fit the window; weight 200 runs here
    assert modular.SERIES_ORDER_LIMIT >= 10000 + 1
    assert monster.KNZ_ORDER_LIMIT >= 40
    assert (monster.KNZ_ORDER_LIMIT + 1) ** 2 + 2 <= modular.SERIES_ORDER_LIMIT
    code, out = run_cli(capsys, "eisenstein", "--weight", "200", "--order", "2")
    assert code == 0 and out.startswith("0 1\n1 ")


def test_mckay_default(capsys):
    code, out = run_cli(capsys, "mckay")
    assert code == 0
    lines = out.splitlines()
    assert sum("pass" in line for line in lines) == 3
    assert sum("not-configured" in line for line in lines) == 2


def test_mckay_with_irreps_file(capsys, tmp_path):
    path = tmp_path / "dims.txt"
    path.write_text("1 1\n2 196883\n3 21296876\n4 842609326\n"
                    "5 18538750076\n6 19360062527\n7 293553734298\n")
    code, out = run_cli(capsys, "mckay", "--irreps", str(path))
    assert code == 0
    assert sum("pass" in line for line in out.splitlines()) == 5
    assert "not-configured" not in out


def test_mckay_with_wrong_irreps_fails(capsys, tmp_path):
    path = tmp_path / "dims.txt"
    path.write_text("1 1\n2 196883\n3 21296876\n4 842609326\n"
                    "5 18538750076\n6 19360062527\n7 293553734299\n")
    code, out = run_cli(capsys, "mckay", "--irreps", str(path))
    assert code == 1
    assert "fail" in out


_DIMS = b"1 1\n2 196883\n3 21296876\n4 842609326\n5 18538750076\n"


@pytest.mark.parametrize("content, where", [
    (b"1 1\n2\n", "line 2"),                                   # one field
    (b"1 1\n2 196883x\n", "line 2"),                           # not an integer
    (b"# dims\n1 1\n2 196883\n3 \xff\xfe\n", "line 4"),         # not UTF-8
    (b"", "no dimensions"),                                     # empty
    (b"1 1\n2 196883\n4 842609326\n", "line 3"),               # index gap
    (b"2 196883\n1 1\n", "line 1"),                             # unordered
    (b"1 2\n" + _DIMS[4:], "r_1"),                              # r_1 is not 1
    (_DIMS.replace(b"21296876", b"196883"), "r_3"),             # not increasing
    (None, "Is a directory"),
    (False, "No such file"),
])
def test_mckay_refuses_bad_irreps_files(capsys, tmp_path, content, where):
    path = tmp_path / "dims.txt"
    if content is None:
        path.mkdir()
    elif content is not False:
        path.write_bytes(content)
    code = cli.main(["mckay", "--irreps", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), captured.err
    assert str(path) in captured.err and where in captured.err, captured.err


def test_mckay_irreps_file_read_up_to_its_limit(capsys, tmp_path):
    # a table padded to exactly the limit is read; one byte more is refused
    # after IRREPS_FILE_LIMIT + 1 bytes, not read to its end
    limit = monster.IRREPS_FILE_LIMIT
    path = tmp_path / "dims.txt"
    path.write_bytes(_DIMS + b"#" * (limit - len(_DIMS)))
    assert run_cli(capsys, "mckay", "--irreps", str(path))[0] == 0
    path.write_bytes(_DIMS + b"#" * (limit + 1 - len(_DIMS)))
    code = cli.main(["mckay", "--irreps", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: longer than IRREPS_FILE_LIMIT = {limit} bytes\n"


def test_knz_negative_order_exits_2(capsys):
    code = cli.main(["knz", "--order", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: order must be >= 0\n"


def test_internal_faults_are_not_usage_errors(monkeypatch):
    # Only MoonshineError and OSError mean a refused input; anything else
    # is a fault and must surface as one, not as exit 2.
    def broken(order):
        raise ValueError("internal fault")
    monkeypatch.setattr(modular, "j_expansion", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["j", "--order", "3"])


# Each exception class and the standard base it had before the common root.
_BASES = {
    "ZeroLeadingCoefficient": ArithmeticError, "UnknownCoefficient": LookupError,
    "RectangleMismatch": ValueError, "DomainError": ValueError,
    "BudgetExceeded": RuntimeError, "DegenerateBasis": ValueError,
    "CapExceeded": RuntimeError, "NotASubgroup": ValueError, "NotNormal": ValueError,
    "OrderTooLarge": RuntimeError, "ClassMismatch": ValueError,
    "InsufficientData": ValueError, "InsufficientCoefficients": ValueError,
    "SearchSpaceTooLarge": RuntimeError, "DataFormatError": ValueError,
}


def test_one_error_root():
    exported = {name: value for name, value in
                {n: getattr(moonshine, n) for n in moonshine.__all__}.items()
                if inspect.isclass(value) and issubclass(value, BaseException)}
    defined = {name: value for module in (qseries, modular, sl2z, groups, monster, _errors)
               for name, value in vars(module).items()
               if inspect.isclass(value) and issubclass(value, BaseException)
               and value.__module__ == module.__name__}
    assert defined.pop("MoonshineError") is moonshine.MoonshineError
    assert set(exported) == set(defined) | {"MoonshineError"}
    assert set(defined) == set(_BASES)
    for name, cls in defined.items():
        assert issubclass(cls, moonshine.MoonshineError) and issubclass(cls, _BASES[name]), name
    # DomainError lives in the error module and is re-exported, not copied.
    assert modular.DomainError is _errors.DomainError is moonshine.DomainError


@pytest.mark.parametrize("call", [
    lambda: groups.Perm((0, 0, 1)),
    lambda: groups.PermGroup(3, [groups.Perm((1, 0))]),
    lambda: groups.cyclic_group(1).is_simple(),
    lambda: groups.cyclic_group(0),
    lambda: groups.dihedral_group(2),
    lambda: groups.symmetric_group(0),
    lambda: groups.alternating_group(0),
    lambda: sl2z.Mat2Z(2, 0, 0, 1),
    lambda: sl2z.UpperHalfPoint(0, 0),
    lambda: sl2z.UpperHalfPoint(0, -1),
    lambda: sl2z.evaluate_word([("S", 2)]),
    lambda: sl2z.evaluate_word([("U", 1)]),
    lambda: monster.decompose_bounded(-1, monster.IrrepDims.from_resource(), 1, 1),
    lambda: monster.decompose_bounded(1, monster.IrrepDims.from_resource(), 0, 1),
    lambda: monster.decompose_bounded(1, monster.IrrepDims.from_resource(), 1, 0),
], ids=["perm-images", "degree-mismatch", "trivial-simple", "cyclic-0", "dihedral-2",
        "symmetric-0", "alternating-0", "det", "y-zero", "y-negative", "word-exponent",
        "word-move", "target",
        "max-mult", "max-parts"])
def test_refused_arguments_raise_domain_error(call):
    # A bad argument to a library constructor or call is a refused input:
    # a MoonshineError that is still the ValueError it used to be.
    with pytest.raises(moonshine.MoonshineError) as info:
        call()
    assert isinstance(info.value, ValueError)


def test_knz(capsys):
    code, out = run_cli(capsys, "knz", "--order", "2")
    assert code == 0
    assert out.splitlines()[0] == "equal: true"
    code, out = run_cli(capsys, "knz", "--order", "0")
    assert code == 0
    assert "equal: true" in out


def test_knz_negative_control(capsys):
    code, out = run_cli(capsys, "knz", "--order", "2", "--use-unnormalized-c0")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "equal: false"
    assert len(lines) > 1  # mismatching monomials are reported


def test_facts(capsys):
    code, out = run_cli(capsys, "facts")
    assert code == 0
    assert "order 808017424794512875886459904961710757005754368000000000" in out
    assert "order-digits 54" in out
    assert "conjugacy-classes 194" in out
    assert "distinct-mckay-thompson-series 172" in out
    assert "mckay-thompson-span-dimension 163" in out


def test_byte_identical_reruns(capsys):
    for argv in (["j", "--order", "5"],
                 ["group", "--name", "S4", "--action", "factors"],
                 ["knz", "--order", "1"],
                 ["reduce", "--tau", "7/3,1/5"]):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


def test_json_matches_human_numbers(capsys):
    _, human = run_cli(capsys, "j", "--order", "4")
    _, machine = run_cli(capsys, "j", "--order", "4", "--json")
    record = json.loads(machine)
    human_values = {line.split()[0]: line.split()[1] for line in human.strip().splitlines()}
    assert record["coefficients"] == human_values


def test_json_integers_are_strings(capsys):
    _, machine = run_cli(capsys, "facts", "--json")
    record = json.loads(machine)
    assert isinstance(record["order"], str)
    assert record["order_digits"] == "54"


def _run_sequence(capsys, argvs, fresh):
    outcomes = []
    for argv in argvs:
        if fresh:
            cli._parser.cache_clear()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_parser_reused_after_usage_error(capsys):
    # one parser serves the whole process; a usage error (exit 2) on it
    # must leave nothing behind that changes the next call's output
    argvs = [["j", "--order", "x"], ["j", "--order", "3"],
             ["group", "--name", "C12"], ["group", "--name", "C12", "--action", "factors"],
             ["nonsense"], ["delta", "--order", "4", "--json"]]
    shared = _run_sequence(capsys, argvs, fresh=False)
    assert cli._parser() is cli._parser()
    assert shared == _run_sequence(capsys, argvs, fresh=True)
    assert [code for code, _, _ in shared] == [2, 0, 2, 0, 2, 0]


# Stdout, stderr and exit code of every subcommand, in text and --json, as
# the CLI printed them before its commands shared one renderer.  "{irreps}"
# stands for a file of irrep dimensions whose r_7 is off by one.
_GOLDEN = json.loads(pathlib.Path(__file__).with_name("cli_golden.json").read_text())


@pytest.mark.parametrize("case", _GOLDEN, ids=[" ".join(c["argv"]) for c in _GOLDEN])
def test_golden_outputs(capsys, tmp_path, case):
    irreps = tmp_path / "dims.txt"
    irreps.write_text("1 1\n2 196883\n3 21296876\n4 842609326\n"
                      "5 18538750076\n6 19360062527\n7 293553734299\n")
    argv = [arg.replace("{irreps}", str(irreps)) for arg in case["argv"]]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
