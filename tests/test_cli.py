import pytest

from pgtemplates import cli
from pgtemplates.cli import main
from pgtemplates.fault import CSV_HEADER
from conftest import DATA

SIX = str(DATA / "six.gpg")
EIGHT = str(DATA / "eight.gpg")
PAIR = str(DATA / "six_pair.gpg")

PSI2_TEXT = "region: a b c d e f\nlive-group: (a,c) (a,d)\n"
PSI13_TEXT = ("region: a b c d e f\nunsafe: (d,e)\n"
              "colive: (a,b) (d,b) (d,e)\n")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_eight_vertex_exact_output(capsys):
    code, out, _ = run(capsys, "solve", EIGHT)
    assert code == 0
    assert out == (
        "W0: a b c d e f g h\n"
        "region: a b c d e f g h\n"
        "unsafe:\n"
        "colive: (b,c)\n"
        "live-group: (g,f)\n"
        "live-group: (a,b)\n"
        "live-group: (h,d)\n")


def test_solve_six_vertex_second_objective(capsys):
    code, out, _ = run(capsys, "solve", SIX, "--objective", "1")
    assert code == 0
    assert out == (
        "W0: a b c d e f\n"
        "region: a b c d e f\n"
        "unsafe:\n"
        "colive:\n"
        "live-group: (a,c) (a,d)\n")


def test_solve_writes_output_file(capsys, tmp_path):
    target = tmp_path / "t.txt"
    code, out, _ = run(capsys, "solve", EIGHT, "-o", str(target))
    assert code == 0
    assert target.read_text() in out


def test_solve_objective_out_of_range(capsys):
    code, _, err = run(capsys, "solve", EIGHT, "--objective", "5")
    assert code == 2
    assert "out of range" in err


def test_extract_then_verify_round_trip(capsys, tmp_path):
    template = tmp_path / "t.txt"
    strategy = tmp_path / "s.txt"
    assert run(capsys, "solve", EIGHT, "-o", str(template))[0] == 0
    code, out, _ = run(capsys, "extract", EIGHT, "--template", str(template),
                       "-o", str(strategy))
    assert code == 0
    assert strategy.read_text() == out
    code, out, _ = run(capsys, "verify", EIGHT, "--template", str(template))
    assert code == 0
    assert out == "winning from: a b c d e f g h\n"
    code, out, _ = run(capsys, "verify", EIGHT, "--strategy", str(strategy),
                       "--from", "a,b")
    assert code == 0
    assert out == "winning from: a b\n"


def test_verify_compliant_strategy_on_all_objectives(capsys, tmp_path):
    strategy = tmp_path / "s.txt"
    strategy.write_text("a: (a,c) (a,d)\nd: (d,a)\n")
    code, out, _ = run(capsys, "verify", SIX, "--strategy", str(strategy))
    assert code == 0
    assert out == "winning from: a d\n"


def test_verify_bad_strategy_prints_counterexample(capsys, tmp_path):
    strategy = tmp_path / "s.txt"
    strategy.write_text("a: (a,b)\nd: (d,a)\n")
    code, out, _ = run(capsys, "verify", SIX, "--strategy", str(strategy),
                       "--from", "a")
    assert code == 4
    lines = out.splitlines()
    assert lines[0] == "not winning from: a"
    assert lines[1].startswith("counterexample prefix:")
    assert lines[2].startswith("counterexample cycle:")
    assert "b" in lines[2]


def test_verify_unknown_start_vertex(capsys, tmp_path):
    strategy = tmp_path / "s.txt"
    strategy.write_text("a: (a,c)\nd: (d,a)\n")
    code, _, err = run(capsys, "verify", SIX, "--strategy", str(strategy),
                       "--from", "z")
    assert code == 2
    assert "unknown vertex" in err


def test_compose_gap_instance_prints_note(capsys):
    code, out, _ = run(capsys, "compose", PAIR)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "W0: (empty)"
    assert lines[1].startswith("note: composition is sound but not complete")
    assert "region:" in lines[2]


def test_compose_incremental_reports_steps(capsys):
    code, out, _ = run(capsys, "compose", PAIR, "--incremental")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("step 1: W0 = a b c d e f")
    assert lines[1].startswith("step 2: W0 = (empty)")


def test_compose_one_shot_on_solvable_file(capsys):
    code, out, _ = run(capsys, "compose", EIGHT)
    assert code == 0
    assert out.splitlines()[0] == "W0: a b c d e f g h"


def test_fault_gaf_tolerant(capsys, tmp_path):
    template = tmp_path / "t.txt"
    template.write_text(PSI2_TEXT)
    code, out, _ = run(capsys, "fault", SIX, "--template", str(template),
                       "--faulty", "(a,d)", "--gaf")
    assert code == 0
    assert out.startswith("tolerant:")


def test_fault_gaf_vulnerable(capsys, tmp_path):
    template = tmp_path / "t.txt"
    template.write_text(PSI13_TEXT)
    code, out, _ = run(capsys, "fault", SIX, "--template", str(template),
                       "--faulty", "(a,a),(a,c),(a,d)", "--gaf")
    assert code == 4
    assert out == "vulnerable at: a\n"


def test_fault_fast_path_adapts_template(capsys, tmp_path):
    template = tmp_path / "t.txt"
    template.write_text(PSI2_TEXT)
    code, out, _ = run(capsys, "fault", SIX, "--template", str(template),
                       "--faulty", "(a,d)", "--objective", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "adapted by marking the faulty edges unsafe"
    assert "unsafe: (a,d)" in out


def test_fault_slow_path_resolves(capsys, tmp_path):
    template = tmp_path / "t.txt"
    template.write_text(PSI2_TEXT)
    code, out, _ = run(capsys, "fault", SIX, "--template", str(template),
                       "--faulty", "(a,c),(a,d)", "--objective", "1")
    assert code == 0
    assert out.splitlines()[0] == \
        "conflict; re-solved on the graph without the faulty edges"


def test_fault_rejects_unknown_edge(capsys, tmp_path):
    template = tmp_path / "t.txt"
    template.write_text(PSI2_TEXT)
    code, _, err = run(capsys, "fault", SIX, "--template", str(template),
                       "--faulty", "(c,b)", "--gaf")
    assert code == 2
    assert "no such edge" in err


def test_gen_is_deterministic(capsys, tmp_path):
    args = ["gen", "--vertices", "8", "--edges", "20", "--seed", "3"]
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    assert first.splitlines()[0] == "parity 7;"
    target = tmp_path / "g.gpg"
    code, out, _ = run(capsys, *args, "-o", str(target))
    assert out == ""
    assert target.read_text() == first


def test_gen_validates_config(capsys):
    code, _, err = run(capsys, "gen", "--vertices", "5", "--edges", "3")
    assert code == 2
    assert "totality" in err


def test_oracle_parity_file(capsys):
    code, out, _ = run(capsys, "oracle", EIGHT)
    assert code == 0
    assert out == "W0: a b c d e f g h\nW1: (empty)\n"


def test_oracle_genparity_file(capsys):
    code, out, _ = run(capsys, "oracle", PAIR)
    assert code == 0
    assert out == "W0: a b c d e f\nW1: (empty)\n"


def test_oracle_size_guard(capsys, tmp_path):
    big = tmp_path / "big.gpg"
    run(capsys, "gen", "--vertices", "13", "--edges", "40",
        "--objectives", "2", "-o", str(big))
    code, _, err = run(capsys, "oracle", str(big))
    assert code == 5
    assert "size guard" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.gpg"
    bad.write_text("party 5;\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "parse error" in err
    assert "line 1" in err


@pytest.mark.parametrize("command", ["solve", "compose"])
def test_priority_beyond_64_bits_is_a_parse_error(capsys, tmp_path, command):
    bad = tmp_path / "big.gpg"
    bad.write_text("parity 1;\n0 99999999999999999999 0 1;\n1 0 1 0;\n")
    code, out, err = run(capsys, command, str(bad))
    assert (code, out) == (2, "")
    assert err == ("parse error: line 2, column 3: priority 99999999999999999999 "
                   "does not fit in 64 bits\n")


@pytest.mark.parametrize("name,text,argv,where", [
    ("bad.gpg", 'parity 1;\n0 0 0 1 "caf\u00e9";\n1 0 1 0;\n', ["solve"], "line 2, column 13"),
    ("t.txt", "region: a b\r\nunsafe: (a,\u00e9)\n", ["extract", SIX, "--template"],
     "line 2, column 12"),
])
def test_non_ascii_byte_reports_its_position(capsys, tmp_path, name, text, argv, where):
    bad = tmp_path / name
    bad.write_bytes(text.encode("utf-8"))
    code, _, err = run(capsys, *argv, str(bad))
    assert code == 2
    assert err == "parse error: %s: non-ASCII character\n" % where


@pytest.mark.parametrize("names,label", [
    (('"a b"', '"c"'), "a b"),  # would read back as the two tokens a and b
    (('"a"', '"a"'), "a"),      # two vertices would share the token a
])
def test_unserializable_name_exit_code(capsys, tmp_path, names, label):
    game = tmp_path / "named.gpg"
    game.write_text("parity 1;\n0 0 0 0,1 %s;\n1 0 0 1 %s;\n" % names)
    code, _, err = run(capsys, "solve", str(game))
    assert code == 2
    assert err == "error: vertex name %r not serializable\n" % label


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.gpg"))
    assert code == 2
    assert "error" in err


def test_conflict_exit_code(capsys, tmp_path):
    template = tmp_path / "t.txt"
    template.write_text(
        "region: a b c d e f\nunsafe: (a,a) (a,b) (a,c) (a,d)\n")
    code, _, err = run(capsys, "extract", SIX, "--template", str(template))
    assert code == 3
    assert "conflict" in err


def test_bench_fault_csv_shape(capsys):
    code, out, _ = run(capsys, "bench", "fault", "--games", "2",
                       "--trials", "3", "--vertices", "8", "--edges", "16",
                       "--fraction", "0.1,0.5", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    for line, frac in zip(lines[1:], ("0.1", "0.5")):
        cols = line.split(",")
        assert cols[0] == frac
        assert cols[1] == "6"
        assert 0.0 <= float(cols[2]) <= 1.0
        assert 0.0 <= float(cols[3]) <= 1.0


def test_main_builds_its_parser_once(capsys):
    cli._build_parser.cache_clear()
    assert run(capsys, "solve", EIGHT)[0] == 0
    parser = cli._build_parser()
    assert run(capsys, "solve", SIX, "--objective", "1")[0] == 0
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["solve", "--help"], 0), ([], 2), (["nope"], 2),
    (["solve", EIGHT, "--objective", "x"], 2)])
def test_shared_parser_exits_like_a_fresh_one(capsys, argv, code):
    # --help and usage errors print and exit alike on every call, and
    # like a parser built afresh
    exits = []
    for parse in (main, main, cli._build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        out = capsys.readouterr()
        exits.append((exc.value.code, out.out, out.err))
    assert exits[0][0] == code
    assert exits[0] == exits[1] == exits[2]
