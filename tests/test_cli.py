import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

import mediant.shadows
from mediant.cli import RenderConfig, _printable, main, parse_target, render
from mediant.rational import ExtendedRational, farey_sequence
from mediant.stern import stern
from mediant.matrices import from_path
from mediant.trees import best_approximation, cw_value, index_to_path, sb_node


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


def test_locate_names_the_text_it_cannot_parse():
    code, out, err = run_cli("locate", "--tree", "cw", "1/-2")
    assert (code, out, err) == (2, "", "error: not a fraction: '1/-2'\n")


def test_stern_sequence():
    code, out, _ = run_cli("stern", "--count", "6")
    assert code == 0
    assert out == "0\n1\n1\n2\n1\n3\n"


@pytest.mark.parametrize("count", [0, 1, 6, 4095, 4096, 4097])
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
    monkeypatch.setattr(mediant.shadows, "_cw_core", lambda a, b, c, d: (a + c, b + d))
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


@pytest.mark.parametrize("max_den", range(1, 41))
def test_farey_writes_the_json_dumps_layout(max_den):
    code, out, _ = run_cli("farey", "--max-den", str(max_den))
    assert code == 0
    assert out == json.dumps([str(v) for v in farey_sequence(max_den)]) + "\n"


def test_farey_refuses_zero_before_writing():
    code, out, err = run_cli("farey", "--max-den", "0")
    assert code == 2 and out == "" and err.startswith("error:")


def test_topograph_text():
    code, out, _ = run_cli("topograph", "--depth", "1")
    assert code == 0
    assert out == "(0/1 1/1 1/0)\n(0/1 1/2 1/1) (1/1 2/1 1/0)\n"


def test_topograph_json_root():
    code, out, _ = run_cli("topograph", "--depth", "0", "--format", "json")
    assert json.loads(out) == [
        {"path": "", "left": "0/1", "right": "1/0", "forward": "1/1"}
    ]


def test_depth_cap(monkeypatch):
    code, _, _ = run_cli("tree", "--kind", "cw", "--depth", "4", "--max-depth-cap", "4")
    assert code == 0

    # a refusal starts no work: a missing cap check fails here at once, not
    # after a sweep or walk of 2^26 nodes
    def started(*args, **kwargs):
        raise AssertionError("a refused depth started work")

    for name in ("verify_theorem", "verify_topograph_proof", "_breadth_first"):
        monkeypatch.setattr(f"mediant.cli.{name}", started)
    code, _, err = run_cli("tree", "--kind", "cw", "--depth", "21")
    assert code == 2 and "safety cap" in err
    code, _, err = run_cli("tree", "--kind", "cw", "--depth", "5", "--max-depth-cap", "4")
    assert code == 2
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
    assert parse_target("007") == ExtendedRational(7, 1)
    assert parse_target("-0") == ExtendedRational(0, 1)
    for bad in (".5", "3.", "1e3", "nan", "+1", "1.2.3", "--1", "-"):
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


def _tree_argv(kind, depth, fmt):
    head = ["topograph"] if kind == "topograph" else ["tree", "--kind", kind]
    return [*head, "--depth", str(depth), "--format", fmt]


@pytest.mark.parametrize("kind", ["cw", "sb", "matrix", "topograph"])
@pytest.mark.parametrize("depth", range(6))
def test_json_is_laid_out_as_json_dumps_indent_2(kind, depth):
    code, out, _ = run_cli(*_tree_argv(kind, depth, "json"))
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("kind", ["cw", "matrix", "topograph"])
@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_render_is_the_cli_output_without_its_newline(kind, fmt):
    code, out, _ = run_cli(*_tree_argv(kind, 4, fmt))
    assert code == 0
    assert render(RenderConfig(kind=kind, depth=4, format=fmt)) + "\n" == out


def _public_nodes(kind, depth):
    """(path, text label, json object) per node in BFS order, from
    index_to_path and the per-path lookups cw_value, sb_node and from_path:
    each keeps its own per-step loop, apart from render's level order."""
    for index in range(2 ** (depth + 1) - 1):
        path = index_to_path(index)
        if kind == "topograph":
            node = sb_node(path)  # a frame's left, right and forward are these bounds
            left, right, forward = str(node.lo), str(node.hi), str(node.value)
            doc = {"path": path, "left": left, "right": right, "forward": forward}
            yield path, f"({left} {forward} {right})", doc
        else:
            value = {"cw": cw_value, "sb": lambda p: sb_node(p).value, "matrix": from_path}[kind]
            label = str(value(path))
            yield path, label, {"path": path, "value": label}


def _render_from_public_objects(kind, depth, fmt):
    nodes = list(_public_nodes(kind, depth))
    if fmt == "json":
        return json.dumps([doc for _, _, doc in nodes], indent=2)
    if fmt == "text":
        levels = [[] for _ in range(depth + 1)]
        for path, label, _ in nodes:
            levels[len(path)].append(label)
        return "\n".join(" ".join(level) for level in levels)
    lines = [f"digraph {kind} {{"]
    lines += [f'  "{path or "root"}" [label="{label}"];' for path, label, _ in nodes]
    lines += [f'  "{path[:-1] or "root"}" -> "{path}";' for path, _, _ in nodes[1:]]
    return "\n".join(lines + ["}"])


@pytest.mark.parametrize("kind", ["cw", "sb", "matrix", "topograph"])
@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@pytest.mark.parametrize("depth", range(9))
def test_render_matches_the_public_objects(kind, fmt, depth):
    # render formats raw level order states; the values must still be the
    # ExtendedRational and Mat2 text of the per-path lookups, in BFS order
    expected = _render_from_public_objects(kind, depth, fmt)
    assert render(RenderConfig(kind=kind, depth=depth, format=fmt)) == expected


def test_import_leaves_the_process_pool_modules_unloaded():
    code = (
        "import sys, mediant, mediant.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_VERIFY_IN_A_PROCESS = """
import contextlib, io, json, os, sys
os.cpu_count = lambda: 2  # fan out on a one-core host too
from mediant.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "pool": "concurrent.futures.process" in sys.modules,
    "reports": [
        [name, [[k, v] for k, v in report.items() if k != "elapsed_s"]]
        for name, report in json.loads(out.getvalue()).items()
    ],
}))
"""


def test_verify_with_two_jobs_runs_a_real_pool_and_counts_as_one_job():
    def run(jobs):
        proc = subprocess.run(
            [sys.executable, "-c", _VERIFY_IN_A_PROCESS, "verify", "--depth", "6", "--jobs", jobs],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    one, two = run("1"), run("2")
    assert (one["code"], one["pool"]) == (0, False)
    assert (two["code"], two["pool"]) == (0, True)
    assert two["reports"] == one["reports"]  # same keys, key order and counts
    assert dict(one["reports"][0][1])["nodes"] == 2**7 - 1


@pytest.mark.parametrize(
    "argv",
    [
        "topograph --depth 13 --format json",
        "tree --kind matrix --depth 13 --format dot",
        "tree --kind sb --depth 13",
        "farey --max-den 300",
    ],
)
def test_bulk_output_streams_in_bounded_memory(argv, monkeypatch):
    # 16,383 nodes or 27,399 terms: holding one small object per node or term
    # (a row tuple, an ExtendedRational) already costs several MB

    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


def _buffered_env():
    # stdout as users get it: block-buffered, so the flush at exit has work to do
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize("argv", ["stern --count 1000000", "tree --kind cw --depth 16"])
def test_closed_pipe_exits_141_without_a_traceback(argv, tmp_path):
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "mediant", *argv.split()],
            stdout=subprocess.PIPE,
            stderr=err,
            env=_buffered_env(),
        )
        proc.stdout.readline()
        proc.stdout.close()  # the output is megabytes, so the writer is still going
        assert proc.wait(timeout=60) == 141
        err.seek(0)
        stderr = err.read()
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_output_into_a_pipe_with_no_reader_exits_141():
    # a few bytes, still buffered when the command returns: the failure shows in its flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mediant", "farey", "--max-den", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=_buffered_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


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
