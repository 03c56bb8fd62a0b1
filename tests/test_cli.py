import contextlib
import io
import json
import re
import subprocess
import sys
import time

import pytest

import mediant.shadows
from mediant.cli import _STERN_CHUNK, RenderConfig, _printable, main, parse_target, render
from mediant.rational import ExtendedRational
from mediant.stern import stern
from mediant.trees import best_approximation, cw_value


def run_cli(*argv):
    """Invoke main() with captured streams; argparse exits become codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_tree_cw_text():
    code, out, err = run_cli("tree", "--kind", "cw", "--depth", "2")
    assert code == 0 and err == ""
    assert out == "1/1\n1/2 2/1\n1/3 3/2 2/3 3/1\n"


def test_tree_matrix_json():
    code, out, _ = run_cli("tree", "--kind", "matrix", "--depth", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"path": "", "value": "[[1,0],[0,1]]"},
        {"path": "L", "value": "[[1,0],[1,1]]"},
        {"path": "R", "value": "[[1,1],[0,1]]"},
    ]


def test_tree_json_values_reparse():
    code, out, _ = run_cli("tree", "--kind", "cw", "--depth", "3", "--format", "json")
    assert code == 0
    for doc in json.loads(out):
        assert ExtendedRational.parse(doc["value"]) == cw_value(doc["path"])


def test_tree_sb_dot_smallest():
    code, out, _ = run_cli("tree", "--kind", "sb", "--depth", "0", "--format", "dot")
    assert code == 0
    assert out == 'digraph sb {\n  "root" [label="1/1"];\n}\n'


_NODE_RE = re.compile(r'  "([^"]+)" \[label="([^"]+)"\];\Z')
_EDGE_RE = re.compile(r'  "([^"]+)" -> "([^"]+)";\Z')


def check_dot(text, expected_nodes):
    lines = text.rstrip("\n").split("\n")
    assert re.fullmatch(r"digraph \w+ \{", lines[0])
    assert lines[-1] == "}"
    nodes, edges = {}, []
    for line in lines[1:-1]:
        node = _NODE_RE.match(line)
        if node:
            nodes[node.group(1)] = node.group(2)
            continue
        edge = _EDGE_RE.match(line)
        assert edge, f"unparseable dot line: {line!r}"
        edges.append(edge.groups())
    assert len(nodes) == expected_nodes
    assert len(edges) == expected_nodes - 1
    for tail, head in edges:
        assert tail in nodes and head in nodes
    return nodes


@pytest.mark.parametrize(
    "argv,expected_nodes",
    [
        (("tree", "--kind", "cw", "--depth", "3", "--format", "dot"), 15),
        (("tree", "--kind", "matrix", "--depth", "2", "--format", "dot"), 7),
        (("topograph", "--depth", "2", "--format", "dot"), 7),
    ],
)
def test_dot_is_well_formed(argv, expected_nodes):
    code, out, _ = run_cli(*argv)
    assert code == 0
    nodes = check_dot(out, expected_nodes)
    assert "root" in nodes


def test_locate_cw():
    code, out, _ = run_cli("locate", "--tree", "cw", "4/3")
    assert code == 0
    assert json.loads(out) == {"path": "LLR", "bfs_index": 8}


def test_locate_sb_root():
    code, out, _ = run_cli("locate", "--tree", "sb", "1/1")
    assert code == 0
    assert json.loads(out) == {"path": "", "bfs_index": 0}


def test_locate_sb():
    code, out, _ = run_cli("locate", "--tree", "sb", "2/5")
    assert json.loads(out)["path"] == "LLR"


@pytest.mark.parametrize("value", ["abc", "0/1", "-1/2", "1/0"])
def test_locate_rejects_bad_values(value):
    # "--" keeps argparse from reading a negative fraction as an option
    code, _, err = run_cli("locate", "--tree", "cw", "--", value)
    assert code == 2
    assert err.startswith("error:")


def test_stern_sequence():
    code, out, _ = run_cli("stern", "--count", "6")
    assert code == 0
    assert out == "0\n1\n1\n2\n1\n3\n"


@pytest.mark.parametrize("count", [0, 1, 6, _STERN_CHUNK - 1, _STERN_CHUNK, _STERN_CHUNK + 1])
def test_stern_count_writes_every_term_once(count):
    code, out, _ = run_cli("stern", "--count", str(count))
    assert code == 0
    assert out == "".join(f"{stern(n)}\n" for n in range(count))


def test_stern_rejects_negative_count():
    code, _, err = run_cli("stern", "--count", "-1")
    assert code == 2 and "error:" in err


def test_fusc():
    code, out, _ = run_cli("fusc", "8")
    assert code == 0
    assert out == "4\n"


def test_verify_clean():
    code, out, err = run_cli("verify", "--depth", "3")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["theorem"]["nodes"] == 15
    assert doc["theorem"]["cw_failures"] == 0
    assert doc["topograph"]["frames"] == 15
    assert doc["topograph"]["label_failures"] == 0
    assert "first_failure_path" not in doc["theorem"]


def test_verify_parallel():
    code, out, _ = run_cli("verify", "--depth", "6", "--jobs", "2")
    assert code == 0
    assert json.loads(out)["theorem"]["nodes"] == 127


def test_verify_reports_counterexample(monkeypatch):
    monkeypatch.setattr(
        mediant.shadows,
        "cw_shadow",
        lambda m: ExtendedRational(m.a + m.c, m.b + m.d),
    )
    code, out, err = run_cli("verify", "--depth", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["theorem"]["first_failure_path"] == "L"
    assert doc["topograph"]["conjugation_failures"] == 0
    assert "theorem verification failed" in err and "'L'" in err


def test_approx_decimal_target():
    code, out, _ = run_cli("approx", "--target", "3.14159", "--max-den", "10")
    assert code == 0
    assert json.loads(out) == {"best": "22/7", "error": "887/700000"}


def test_approx_exact_target():
    code, out, _ = run_cli("approx", "--target", "1/2", "--max-den", "10")
    assert json.loads(out) == {"best": "1/2", "error": "0/1"}


def test_approx_tight_bound():
    code, out, _ = run_cli("approx", "--target", "355/113", "--max-den", "112")
    assert json.loads(out)["best"] == "333/106"


@pytest.mark.parametrize(
    "argv",
    [
        ("approx", "--target", "x/y", "--max-den", "10"),
        ("approx", "--target", "1/0", "--max-den", "10"),
        ("approx", "--target", "1/2", "--max-den", "0"),
    ],
)
def test_approx_usage_errors(argv):
    code, _, err = run_cli(*argv)
    assert code == 2 and err.startswith("error:")


def test_farey():
    code, out, _ = run_cli("farey", "--max-den", "3")
    assert code == 0
    assert json.loads(out) == ["0/1", "1/3", "1/2", "2/3", "1/1"]


def test_topograph_text():
    code, out, _ = run_cli("topograph", "--depth", "1")
    assert code == 0
    assert out == "(0/1 1/1 1/0)\n(0/1 1/2 1/1) (1/1 2/1 1/0)\n"


def test_topograph_json_root():
    code, out, _ = run_cli("topograph", "--depth", "0", "--format", "json")
    assert json.loads(out) == [
        {"path": "", "left": "0/1", "right": "1/0", "forward": "1/1"}
    ]


def test_depth_cap():
    code, _, err = run_cli("tree", "--kind", "cw", "--depth", "21")
    assert code == 2 and "safety cap" in err
    code, _, err = run_cli("tree", "--kind", "cw", "--depth", "5", "--max-depth-cap", "4")
    assert code == 2
    code, _, _ = run_cli("tree", "--kind", "cw", "--depth", "4", "--max-depth-cap", "4")
    assert code == 0
    code, _, err = run_cli("verify", "--depth", "25")
    assert code == 2 and "safety cap" in err


def test_unknown_command_is_usage_error():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_missing_required_option_is_usage_error():
    code, _, _ = run_cli("tree", "--depth", "2")
    assert code == 2


def test_parse_target():
    assert parse_target("0.5") == ExtendedRational(1, 2)
    assert parse_target("-0.25") == ExtendedRational(-1, 4)
    assert parse_target(" 7/3 ") == ExtendedRational(7, 3)
    assert parse_target("-2") == ExtendedRational(-2, 1)
    for bad in (".5", "3.", "1e3", "nan"):
        with pytest.raises(ValueError):
            parse_target(bad)


def test_render_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(kind="bird", depth=1)
    with pytest.raises(ValueError):
        RenderConfig(kind="cw", depth=1, format="yaml")
    with pytest.raises(ValueError):
        RenderConfig(kind="cw", depth=-1)
    with pytest.raises(ValueError):
        RenderConfig(kind="cw", depth=9, max_depth_cap=8)


def test_render_is_pure():
    config = RenderConfig(kind="sb", depth=2, format="text")
    assert render(config) == render(config)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mediant", "fusc", "8"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4\n"


@pytest.mark.parametrize(
    "tree, value, steps",
    [
        ("sb", "100000000000000000000/1", 10**20 - 1),  # over the locate step cap
        ("sb", "10000000/1", 10**7 - 1),  # BFS index too long to print
        ("cw", "20000/1", 19999),
    ],
)
def test_locate_refuses_overlong_paths(tree, value, steps):
    start = time.perf_counter()
    code, out, err = run_cli("locate", "--tree", tree, value)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"path of {steps} steps" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["locate", "--tree", "cw", "1" * 5000 + "/1"],
        ["locate", "--tree", "sb", "1/" + "7" * 5000],
        ["approx", "--target", "3" * 5000, "--max-den", "10"],
        ["approx", "--target", "1." + "4" * 4999, "--max-den", "10"],
        ["approx", "--target", "2" * 5000 + "/3", "--max-den", "10"],
    ],
)
def test_overlong_digit_strings_are_refused(argv):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts digit strings of any length")
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: number of 5000 digits")


def _digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python prints integers of any length")
    return limit


_UNPRINTABLE = re.compile(
    r"(.*) of (\d+) digits, more than the (\d+) digits Python prints"
    r" \(sys\.get_int_max_str_digits\)"
)


def test_printable_names_the_exact_digit_count():
    limit = _digit_limit()
    assert _printable(10**limit - 1, "n") == 10**limit - 1
    near_powers = (10**limit, 10**limit + 1, 10 ** (2 * limit) - 1, 10 ** (2 * limit))
    for n in (*near_powers, 2 ** (10 * limit)):
        with pytest.raises(ValueError) as exc:
            _printable(n, "n")
        what, digits, most = _UNPRINTABLE.fullmatch(str(exc.value)).groups()
        assert what == "n" and int(most) == limit
        assert 10 ** (int(digits) - 1) <= n < 10 ** int(digits)


def test_approx_refuses_an_unprintable_error_by_its_digit_count():
    # the input passes the digit check, but the error's denominator outgrows it
    limit = _digit_limit()
    target = "9" * limit + "/" + "7" * (limit - 1) + "1"
    code, out, err = run_cli("approx", "--target", target, "--max-den", "1000")
    assert code == 2 and out == ""
    assert "Exceeds the limit" not in err
    what, digits, _ = _UNPRINTABLE.fullmatch(err.strip().removeprefix("error: ")).groups()
    q = parse_target(target)
    best = best_approximation(q.num, q.den, 1000)
    error = ExtendedRational(abs(q.num * best.den - best.num * q.den), q.den * best.den)
    n = {"error has a numerator": error.num, "error has a denominator": error.den}[what]
    assert 10 ** (int(digits) - 1) <= n < 10 ** int(digits)
