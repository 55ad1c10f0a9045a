"""Command-line behavior: literals, records, exit codes, byte-stable output."""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from spincount import funcs, matching
from spincount.cli import main, parse_function_literal
from spincount.funcs import PBFunction, SignedTable, binary
from spincount.instances import serialize
from helpers import clique_instance

FERRO = "fun f 2 2 1 1 2\ncon f x y\ncon f y z\ncon f z x\n"
PRISM = "fun xor3 3 1 0 0 1 0 1 1 0\ncon xor3 a b c\ncon xor3 a b c\n"


@pytest.fixture
def ferro_file(tmp_path):
    path = tmp_path / "ferro.csp"
    path.write_text(FERRO)
    return str(path)


@pytest.fixture
def prism_file(tmp_path):
    path = tmp_path / "prism.csp"
    path.write_text(PRISM)
    return str(path)


# ---------------------------------------------------------------------------
# function literals


def test_literal_arity_prefixed():
    f = parse_function_literal("2 2 1 1 2")
    assert isinstance(f, PBFunction)
    assert f.arity == 2 and f.table == (2, 1, 1, 2)


def test_literal_bare_power_of_two_fallback():
    f = parse_function_literal("2 1 1 2")
    assert f.arity == 2 and f.table == (2, 1, 1, 2)
    g = parse_function_literal("3 4 1 2")
    assert g.arity == 2 and g.table == (3, 4, 1, 2)


@pytest.mark.parametrize(
    "text, arity, table",
    [("0 1", 1, (0, 1)), ("5", 0, (5,)), ("1 0 1", 1, (0, 1))],
)
def test_literal_arity_prefix_is_at_least_one(text, arity, table):
    """`<arity> <values...>` is read only for arity >= 1, so "0 1" is the bare unary (0, 1)."""
    f = parse_function_literal(text)
    assert f.arity == arity and f.table == table


def test_literal_signed_and_rationals():
    f = parse_function_literal("1 -1/2 3")
    assert isinstance(f, SignedTable)
    assert f.table == (Fraction(-1, 2), 3)


def test_literal_rejects_off_sizes():
    for bad in ["", "2 3 4", "2 1 2 3 4 5", "1 1.5 2"]:
        with pytest.raises(ValueError):
            parse_function_literal(bad)


# ---------------------------------------------------------------------------
# verdict and report commands


def test_classify_human(capsys):
    assert main(["classify", "--fun", "2 1 1 2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tag: FPRAS\n")
    assert "lsm: true" in out


def test_classify_machine_quotes_notes(capsys):
    assert main(["classify", "--fun", "1 2 2 3", "--machine"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tag=Open ")
    assert 'note="symmetric antiferromagnetic' in out
    assert out.count("\n") == 1


def test_props_reports_structure(capsys):
    assert main(["props", "--fun", "3 1 0 0 1 0 1 1 0"]) == 0
    out = capsys.readouterr().out
    assert "arity: 3" in out


def test_fourier_and_inverse_round_trip(capsys):
    assert main(["fourier", "--fun", "1 0 0 1", "--machine"]) == 0
    first = capsys.readouterr().out
    assert first == 'arity=2 table="1/2 0 0 1/2"\n'
    assert main(["fourier", "--inverse", "--fun", "2 1/2 0 0 1/2", "--machine"]) == 0
    assert capsys.readouterr().out == 'arity=2 table="1 0 0 1"\n'


# ---------------------------------------------------------------------------
# gadget commands


def test_gadget_updown(capsys):
    assert main(["gadget", "updown", "--fun", "3 4 1 2"]) == 0
    out = capsys.readouterr().out
    assert "up: 4 6" in out
    assert "down: 7 3" in out
    assert "swapped: true" in out
    assert "up_formula: pps 1 1 ; f v1 v0" in out


def test_gadget_symmetrize(capsys):
    assert main(["gadget", "symmetrize", "--mode", "2", "--fun", "3 1 2 4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("table: 10 10 10 20\n")


def test_gadget_extract(capsys):
    assert main(["gadget", "extract", "--fun", "0 2 1 0", "--fun2", "2 1 1 2"]) == 0
    out = capsys.readouterr().out
    assert "table: 1 4 2 2" in out
    assert "route: composed" in out
    assert "formula: pps 2 1 ; g v0 v2 ; f v2 v1" in out


def test_gadget_pin(capsys):
    """The direction is read off the unary: a decreasing one pins toward 0, and
    a non-strict one is an input error."""
    assert main(["gadget", "pin", "--fun", "1 3", "--eps", "1/100"]) == 0
    out = capsys.readouterr().out
    assert "table: 1/243 1" in out
    assert "power: 5" in out
    assert "scale: 3" in out
    assert main(["gadget", "pin", "--fun", "3 1", "--eps", "1/100", "--machine"]) == 0
    assert capsys.readouterr().out == 'table="1 1/243" power=5 scale=3\n'
    assert main(["gadget", "pin", "--fun", "3 3", "--eps", "1/100"]) == 2
    assert "error: unary 3 3 is not strictly monotone permissive" in capsys.readouterr().err
    assert main(["gadget", "pin", "--fun", "0 1", "--eps", "1/10"]) == 2
    assert "error: unary 0 1 is not strictly monotone permissive" in capsys.readouterr().err


def test_gadget_pin_exits_3_past_the_power_bound(capsys):
    """1 - 1/10**6 to a tolerance of 1/3 needs k near 1.1 million: refused at once."""
    start = time.perf_counter()
    assert main(["gadget", "pin", "--fun", "1000000 999999", "--eps", "1/3"]) == 3
    assert time.perf_counter() - start < 1
    assert "20-bit denominator" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget", "pin", "--fun", "1 3", "--eps", "1/100", "--direction", "up"],
        ["z-estimate", "unused.csp", "--exact-cap", "6"],
    ],
    ids=["direction", "exact-cap"],
)
def test_removed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_gadget_missing_option_is_input_error(capsys):
    assert main(["gadget", "symmetrize", "--fun", "1 2 2 1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["gadget", "extract", "--fun", "0 2 1 0"]) == 2


def test_pinning_family(capsys):
    assert main(["pinning", "--fun", "1 2", "--fun", "2 1", "--machine"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tag=BothUnaries case=1 ")
    assert "up=" in out and "down=" in out


# ---------------------------------------------------------------------------
# instance commands


def test_z_exact_prints_bare_value(ferro_file, capsys):
    assert main(["z-exact", ferro_file]) == 0
    assert capsys.readouterr().out == "28\n"
    assert main(["z-exact", ferro_file, "--machine"]) == 0
    assert capsys.readouterr().out == "z=28\n"


def test_z_estimate_matches_z_exact_bytes(ferro_file, capsys):
    assert main(["z-exact", ferro_file]) == 0
    exact_out = capsys.readouterr().out
    assert main(["z-estimate", ferro_file]) == 0
    assert capsys.readouterr().out == exact_out
    assert main(["z-estimate", ferro_file, "--machine"]) == 0
    assert capsys.readouterr().out == "z=28\n"


def test_z_estimate_sampling_path_stays_close(ferro_file, capsys, monkeypatch):
    monkeypatch.setattr(funcs, "ELIMINATION_BUDGET", 0)  # send the 3-cycle down the chain
    monkeypatch.setattr(matching, "EXACT_CAP", 6)  # and telescope its 12 vertices to 6
    assert main(["z-estimate", ferro_file, "--seed", "3"]) == 0
    value = Fraction(capsys.readouterr().out.strip())
    assert Fraction(9, 10) * 28 <= value <= Fraction(11, 10) * 28


def test_z_estimate_runs_flipped_fpras_function(tmp_path, capsys, monkeypatch):
    """binary(1, 1, 1, 4) is tagged FPRAS but has negative Fourier coefficients."""
    path = tmp_path / "ring1114.csp"
    path.write_text("fun g 2 1 1 1 4\n" + "".join(f"con g x{i} x{(i + 1) % 4}\n" for i in range(4)))
    for budget in (funcs.ELIMINATION_BUDGET, 0):
        monkeypatch.setattr(funcs, "ELIMINATION_BUDGET", budget)
        assert main(["z-estimate", str(path)]) == 0
        assert capsys.readouterr().out == "343\n"


def test_z_estimate_reads_one_table_under_two_names(tmp_path, capsys):
    path = tmp_path / "two_names.csp"
    path.write_text("fun f 2 2 1 1 2\nfun g 2 2 1 1 2\ncon f x y\ncon g y z\ncon f z x\n")
    assert main(["z-exact", str(path)]) == 0
    assert capsys.readouterr().out == "28\n"
    assert main(["z-estimate", str(path)]) == 0
    assert capsys.readouterr().out == "28\n"


def test_results_print_past_the_int_string_limit(tmp_path, capsys):
    """3^10000 + 1 has 4772 digits, past Python's int-string limit: it prints in full, the
    limit is the same after main returns, and a 4400-digit input literal is still refused.
    classify's f01 over two 4002-digit denominators has more than 8000 digits, and
    symmetrize's pure_value of 3001-digit entries has 6001."""
    path = tmp_path / "ring10k.csp"
    lines = "".join(f"con f x{i} x{(i + 1) % 10000}\n" for i in range(10000))
    path.write_text("fun f 2 2 1 1 2\n" + lines)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = f"{3**10000 + 1}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 4772
    for argv in (["z-exact", str(path)], ["z-estimate", str(path)]):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected + "\n"
        assert sys.get_int_max_str_digits() == limit
    assert main(["z-exact", str(path), "--machine"]) == 0
    assert capsys.readouterr().out == f"z={expected}\n"
    big = tmp_path / "big.csp"
    big.write_text(f"fun f 1 1 {'1' * 4400}\ncon f x\n")
    assert main(["z-exact", str(big)]) == 2
    assert "malformed rational" in capsys.readouterr().err
    assert sys.get_int_max_str_digits() == limit
    d1, d2 = "1" + "0" * 4000 + "1", "1" + "0" * 4000 + "3"
    assert main(["classify", "--fun", f"2 1/{d1} 1/{d2} 1 1", "--machine"]) == 0
    f01 = capsys.readouterr().out.split(" f01=")[1].split()[0]
    assert len(f01) > 8000
    assert sys.get_int_max_str_digits() == limit
    x = "1" + "0" * 3000
    assert main(["gadget", "symmetrize", "--mode", "1", "--fun", f"2 {x} {x} {x} 0", "--machine"]) == 0
    assert capsys.readouterr().out.split(" pure_value=")[1].split()[0] == "1" + "0" * 6000
    assert sys.get_int_max_str_digits() == limit


def test_z_estimate_rejects_mixed_instances(tmp_path, capsys):
    path = tmp_path / "mixed.csp"
    path.write_text("fun f 2 2 1 1 2\nfun g 2 1 0 0 1\ncon f x y\ncon g y x\n")
    assert main(["z-estimate", str(path)]) == 2
    assert "single constraint function" in capsys.readouterr().err


def test_holant_check_true_and_false(prism_file, tmp_path, capsys):
    assert main(["holant-check", prism_file]) == 0
    assert capsys.readouterr().out == "holant: true\n"
    single = tmp_path / "single.csp"
    single.write_text("fun f 2 2 1 1 2\ncon f x y\n")
    assert main(["holant-check", str(single), "--machine"]) == 0
    assert capsys.readouterr().out == "holant=false\n"
    triple = tmp_path / "triple.csp"
    triple.write_text("fun t 3 1 0 0 0 0 0 0 1\ncon t x x x\n")
    assert main(["holant-check", str(triple), "--machine"]) == 0
    assert capsys.readouterr().out == "holant=false\n"


def test_triangle_graph_bytes(prism_file, capsys):
    assert main(["triangle-graph", prism_file]) == 0
    expected = (
        "v c0.1\nv c0.2\nv c0.3\nv c1.1\nv c1.2\nv c1.3\n"
        "e c0.1 c0.2 1 within_triangle\n"
        "e c0.1 c0.3 1 within_triangle\n"
        "e c0.2 c0.3 1 within_triangle\n"
        "e c1.1 c1.2 1 within_triangle\n"
        "e c1.1 c1.3 1 within_triangle\n"
        "e c1.2 c1.3 1 within_triangle\n"
        "e c0.1 c1.1 1 between_triangles\n"
        "e c0.2 c1.2 1 between_triangles\n"
        "e c0.3 c1.3 1 between_triangles\n"
    )
    assert capsys.readouterr().out == expected


def test_triangle_graph_rejects_non_holant(tmp_path, capsys):
    path = tmp_path / "single.csp"
    path.write_text("fun f 2 2 1 1 2\ncon f x y\n")
    assert main(["triangle-graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a holant instance; occurrence counts off" in captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_on_bad_literal(capsys):
    assert main(["classify", "--fun", "2 3 4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_on_signed_input(capsys):
    assert main(["classify", "--fun", "1 -1 0 0"]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_exit_code_on_missing_file(capsys):
    assert main(["z-exact", "/nonexistent/x.csp"]) == 2
    assert "cannot read" in capsys.readouterr().err


def _clique_file(tmp_path, k: int) -> str:
    path = tmp_path / f"k{k}.csp"
    path.write_text(serialize(clique_instance(binary(2, 1, 1, 2), k)))
    return str(path)


def test_exit_code_on_capacity(tmp_path, capsys):
    assert main(["z-exact", _clique_file(tmp_path, 18)]) == 3
    assert "error:" in capsys.readouterr().err
    path = tmp_path / "huge.csp"
    path.write_text("fun f 1000000 1\n")
    assert main(["z-exact", str(path)]) == 3
    assert "error: line 1: arity 1000000 exceeds the cap" in capsys.readouterr().err


def test_exit_code_on_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.csp"
    path.write_text("fun f 2 1 2 3\ncon f x y\n")
    assert main(["z-exact", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


# Each command, and the library modules it loads beyond spincount, spincount.cli
# and spincount.funcs.
_COMMAND_MODULES = [
    ([], []),
    (["classify", "--fun", "2 1 1 2"], ["classify"]),
    (["props", "--fun", "3 1"], []),
    (["fourier", "--fun", "2 1/3 1/5 1/7 1/11"], []),
    (["z-exact", "ferro"], ["instances"]),
    (["holant-check", "ferro"], ["instances"]),
    (["z-estimate", "ferro"], ["instances", "matching"]),
    (["triangle-graph", "prism"], ["instances", "matching"]),
    (["gadget", "pin", "--fun", "3 1", "--eps", "1/100"], ["gadgets"]),
    (["pinning", "--fun", "2 1"], ["gadgets"]),
]


@pytest.mark.parametrize(
    "argv, uses", _COMMAND_MODULES, ids=[argv[0] if argv else "import" for argv, _ in _COMMAND_MODULES]
)
def test_fresh_interpreter_loads_only_the_modules_a_command_uses(argv, uses, ferro_file, prism_file):
    """A fresh interpreter loads `funcs` for the CLI and then only what the command's
    handler calls.  Only the sampled estimator path needs networkx, so it stays unloaded."""
    argv = [{"ferro": ferro_file, "prism": prism_file}.get(a, a) for a in argv]
    code = (
        "import sys, spincount, spincount.cli\n"
        "code = spincount.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "top = ('spincount', 'networkx')\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] in top), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True)
    want = ["spincount", "spincount.cli", "spincount.funcs"] + [f"spincount.{m}" for m in uses]
    assert out.stderr.split() == sorted(want)


def test_z_estimate_long_ring_is_exact_without_networkx(tmp_path):
    """A 1000-constraint ring takes the elimination path: exact, fast, no networkx."""
    path = tmp_path / "ring1000.csp"
    lines = "".join(f"con f x{i} x{(i + 1) % 1000}\n" for i in range(1000))
    path.write_text("fun f 2 2 1 1 2\n" + lines)
    code = (
        "import sys, time\n"
        "from spincount.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(['z-estimate', sys.argv[1]])\n"
        "print(code, time.perf_counter() - start, 'networkx' in sys.modules, file=sys.stderr)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, check=True
    )
    assert out.stdout == f"{3**1000 + 1}\n"
    code, seconds, loaded = out.stderr.split()
    assert code == "0" and loaded == "False"
    assert float(seconds) < 1.0


def test_z_estimate_refuses_k18_before_the_chain(tmp_path):
    """K_18 is past the elimination budget and its 1722-vertex chain is predicted to
    take hours: exit 3 at once, naming both predictions, without loading networkx."""
    code = (
        "import sys, time\n"
        "from spincount.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(['z-estimate', sys.argv[1]])\n"
        "print(code, time.perf_counter() - start, 'networkx' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, _clique_file(tmp_path, 18)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, seconds, loaded = out.stdout.split()
    assert code == "3" and loaded == "False"
    assert float(seconds) <= 2.0
    assert "products" in out.stderr and "1722 vertices" in out.stderr
