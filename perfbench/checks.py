"""Checkers for mediant's outputs, each against reference.py or a stated property.

Every checker returns None when the output is right and a short reason when
it is not.  None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import re

import reference as ref

_FAILURE_KEYS = {
    "theorem": ("cw_failures", "farey_failures"),
    "topograph": ("conjugation_failures", "label_failures", "mobius_failures", "frame_failures"),
}


def check_verify(stdout: str, depth: int):
    """`verify --depth D`: nodes = frames = 2^(D+1) - 1 and every failure count 0."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"verify output is not JSON: {exc}"
    size = (1 << (depth + 1)) - 1
    for part, count_key in (("theorem", "nodes"), ("topograph", "frames")):
        report = doc.get(part)
        if not isinstance(report, dict):
            return f"verify output lacks {part!r}"
        if report.get("depth") != depth or report.get(count_key) != size:
            return f"{part}: depth {report.get('depth')}, {count_key} {report.get(count_key)}, want {depth}, {size}"
        for key in _FAILURE_KEYS[part]:
            if report.get(key) != 0:
                return f"{part}: {key} = {report.get(key)}"
    return None


def verify_items(depth: int) -> int:
    """Checked work of one verify run: theorem nodes plus topograph frames."""
    return 2 * ((1 << (depth + 1)) - 1)


def _tree_text(rows, label) -> str:
    return "\n".join(" ".join(label(state) for _, state in row) for row in rows) + "\n"


def _matrix_label(m) -> str:
    return "[[%d,%d],[%d,%d]]" % m


def _sb_value(bounds) -> str:
    return ref.frac(ref.mediant_of(*bounds))


class RenderChecker:
    """Expected outputs of one render round, built once from reference.py."""

    def __init__(self, commands):
        self.items = {}
        self._expected = {}
        for name, argv in commands:
            self.items[name], self._expected[name] = self._reference(name, argv)

    @staticmethod
    def _reference(name, argv):
        value = int(argv[-1]) if name in ("stern", "farey") else int(argv[argv.index("--depth") + 1])
        if name == "tree-cw-text":
            rows = ref.cw_rows(value)
            return sum(map(len, rows)), _tree_text(rows, ref.frac)
        if name == "tree-sb-json":
            rows = ref.sb_rows(value)
            nodes = [{"path": p, "value": _sb_value(s)} for row in rows for p, s in row]
            return len(nodes), nodes
        if name == "tree-matrix-dot":
            nodes = [(p, m) for row in ref.matrix_rows(value) for p, m in row]
            lines = ["digraph matrix {"]
            lines += [f'  "{p or "root"}" [label="{_matrix_label(m)}"];' for p, m in nodes]
            lines += [f'  "{p[:-1] or "root"}" -> "{p}";' for p, _ in nodes if p]
            return len(nodes), "\n".join(lines) + "\n}\n"
        if name == "topograph-json":
            frames = [
                {
                    "path": p,
                    "left": ref.frac(lo),
                    "right": ref.frac(hi),
                    "forward": _sb_value((lo, hi)),
                }
                for row in ref.sb_rows(value)
                for p, (lo, hi) in row
            ]
            return len(frames), frames
        if name == "stern":
            return value, "".join(f"{s}\n" for s in ref.stern_list(value))
        if name == "farey":
            return ref.farey_count(value), value
        raise ValueError(f"unknown render command {name!r}")

    def check(self, name: str, stdout: str):
        expected = self._expected[name]
        if name == "farey":
            return check_farey(stdout, expected)
        if isinstance(expected, str):
            if stdout == expected:
                return None
            return f"{name}: output differs from the reference at character {_first_diff(stdout, expected)}"
        try:
            got = json.loads(stdout)
        except ValueError as exc:
            return f"{name}: output is not JSON: {exc}"
        if got == expected:
            return None
        if not isinstance(got, list) or len(got) != len(expected):
            return f"{name}: {len(got) if isinstance(got, list) else 'no'} nodes, want {len(expected)}"
        i = next(i for i, (g, e) in enumerate(zip(got, expected)) if g != e)
        return f"{name}: node {i} is {got[i]}, want {expected[i]}"


def _first_diff(a: str, b: str) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


_FRACTION = re.compile(r"(\d+)/(\d+)\Z")


def check_farey(stdout: str, max_den: int):
    """The Farey sequence F_n: |F_n| terms from 0/1 to 1/1, each within the
    bound, each consecutive pair unimodular and ascending.  A strictly
    ascending run of |F_n| members of F_n is F_n itself."""
    try:
        terms = json.loads(stdout)
    except ValueError as exc:
        return f"farey output is not JSON: {exc}"
    want = ref.farey_count(max_den)
    if not isinstance(terms, list) or len(terms) != want:
        return f"farey: {len(terms) if isinstance(terms, list) else 'no'} terms, want {want}"
    fracs = []
    for term in terms:
        m = _FRACTION.match(term) if isinstance(term, str) else None
        if m is None or int(m.group(2)) > max_den:
            return f"farey: bad term {term!r}"
        fracs.append((int(m.group(1)), int(m.group(2))))
    if fracs[0] != (0, 1) or fracs[-1] != (1, 1):
        return f"farey: ends are {terms[0]}, {terms[-1]}"
    for (a, b), (c, d) in zip(fracs, fracs[1:]):
        if b * c - a * d != 1:
            return f"farey: {a}/{b}, {c}/{d} are not ascending unimodular neighbours"
    return None


def _short(x) -> str:
    text = str(x)
    return text if len(text) <= 60 else f"{text[:28]}...{text[-28:]}"


def check_query(kind: str, arg, answer):
    """One lookup answer, in the plain form lookup_worker reports it."""
    if kind in ("cw_locate", "sb_locate"):
        path, index = answer
        where = f"{kind}({_short(ref.frac(arg))})"
        if not isinstance(path, str) or path.strip("LR"):
            return f"{where}: bad path"
        at = ref.cw_walk(path) if kind == "cw_locate" else ref.sb_walk(path)[2]
        if at != ref.reduced(*arg):
            return f"{where}: path leads to {_short(ref.frac(at))}"
        if index != ref.bfs_index(path):
            return f"{where}: bfs_index {_short(index)}, want {_short(ref.bfs_index(path))}"
        return None
    if kind == "approx":
        text, max_den = arg
        want = ref.best_approximation(ref.parse_target(text), max_den)
    elif kind == "fusc":
        want = ref.fusc(arg)
    elif kind == "cw_unrank":
        want = ref.reduced(ref.fusc(arg), ref.fusc(arg + 1))
    elif kind == "cw_value":
        want = ref.cw_walk(arg)
    elif kind == "sb_node":
        want = ref.sb_walk(arg)
    elif kind == "from_path":
        want = ref.matrix_walk(arg)
    elif kind == "decompose":
        want = arg[0]
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    if answer != want:
        return f"{kind}: got {_short(answer)}, want {_short(want)}"
    return None
