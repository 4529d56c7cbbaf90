from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from pqvol import cli, draconian, outerplanar, recurrence
from pqvol.graphs import from_edge_list, generate, write_edge_list


@pytest.fixture
def runner():
    return CliRunner()


def strip_timing(text: str) -> str:
    return text.split("# timing")[0]


def test_nvol_family_spec(runner):
    result = runner.invoke(cli.main, ["nvol", "wheel:3"])
    assert result.exit_code == 0
    assert result.output == "20\n"


def test_nvol_file_spec(runner, tmp_path):
    path = tmp_path / "c4.txt"
    write_edge_list(generate("cycle", 4), path)
    result = runner.invoke(cli.main, ["nvol", str(path)])
    assert result.exit_code == 0
    assert result.output == "16\n"


@pytest.mark.parametrize(
    "args",
    [
        ["nvol", "path:4"],
        ["nvol", "wheel:5", "--strategy", "enumerate"],
        ["nvol", "random_outerplanar:25", "--seed", "3"],
    ],
)
def test_json_trace_bytes_match_the_json_module(runner, args):
    result = runner.invoke(cli.main, [*args, "--json", "--trace"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert result.output == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_nvol_trace_lists_rules(runner):
    result = runner.invoke(cli.main, ["nvol", "path:4", "--trace"])
    assert result.exit_code == 0
    # the three edge blocks are one memo node, written once and used thrice
    assert result.output == (
        "8\n"
        "# trace v3\n"
        "n0 closed-form:edge g2m1:92bf1f26ca1b value=2\n"
        "n1 block-product g4m3:3f2ae15decc6 value=8 <- n0 n0 n0\n"
    )


def test_nvol_json(runner):
    result = runner.invoke(cli.main, ["nvol", "complete:4", "--json", "--trace"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["value"] == 20
    assert payload["trace"] == {
        "version": 3,
        "nodes": [
            {
                "id": 0,
                "rule": "closed-form:complete-minus-matching",
                "fingerprint": "g4m6:350970617bed",
                "n": 4,
                "m": 6,
                "value": 20,
                "detail": "n=4 k=0",
                "children": [],
            }
        ],
    }


def test_trace_prints_each_distinct_node_once(runner):
    trace = recurrence.nvol(generate("random_outerplanar", 120, seed=7)).trace
    distinct, stack = set(), [trace]
    while stack:
        node = stack.pop()
        if id(node) not in distinct:
            distinct.add(id(node))
            stack.extend(node.children)
    # the memo is warm, so this times the writer; writing each shared
    # subtree wherever it is used would take about 1 GB for this graph
    start = time.perf_counter()
    result = runner.invoke(cli.main, ["nvol", "random_outerplanar:120", "--seed", "7", "--trace"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    value, header, *rows = result.output.splitlines()
    assert header == "# trace v3"
    assert len(rows) == len(distinct) == 99
    assert rows[-1].startswith(f"n98 {trace.rule} {trace.fingerprint} value={value} ")
    assert elapsed < 2.0
    assert recurrence.replay_trace(trace) == int(value)


def test_nvol_plans_past_the_enumeration_cap(runner):
    # every block with a fully interior face is undone by ears, so no
    # enumeration leaf (capped at 18 vertices) is left on this 600-vertex graph
    start = time.perf_counter()
    result = runner.invoke(cli.main, ["nvol", "random_outerplanar:600", "--seed", "7"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    value, conjectural = outerplanar.nvol_outerplanar(generate("random_outerplanar", 600, seed=7))
    assert result.output == f"{value}\n"
    assert conjectural is True
    assert elapsed < 5.0


def test_nvol_strategies_agree(runner):
    auto = runner.invoke(cli.main, ["nvol", "wheel:5"])
    oracle = runner.invoke(cli.main, ["nvol", "wheel:5", "--strategy", "enumerate"])
    assert auto.output == oracle.output == "212\n"


def test_nvol_seed_selects_random_family_instance(runner):
    args = ["nvol", "random_outerplanar:7", "--seed", "9", "--json"]
    first = json.loads(runner.invoke(cli.main, args).output)
    second = json.loads(runner.invoke(cli.main, args).output)
    assert first == second
    assert first["fingerprint"] == "g7m11:cf73862405b9"
    other = json.loads(
        runner.invoke(cli.main, ["nvol", "random_outerplanar:7", "--seed", "10", "--json"]).output
    )
    assert other["fingerprint"] != first["fingerprint"]


@pytest.mark.parametrize(
    "spec",
    ["bogus:4", "cycle:abc", "cycle:2", "/no/such/file", "no_colon_no_file"],
)
def test_parse_failures_exit_2(runner, spec):
    result = runner.invoke(cli.main, ["nvol", spec])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [["nvol", "cycle:5"], ["enum", "path:3"], ["scan", "wheels", "--n-max", "3", "--samples", "1"]],
)
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(runner, monkeypatch, args, workers):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("a rejected --workers value must not start a pool")

    monkeypatch.setattr(draconian, "_executor", no_pool)
    result = runner.invoke(cli.main, [*args, "--workers", workers])
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert "Invalid value for '--workers'" in result.output


def test_resource_cap_exits_3(runner):
    result = runner.invoke(cli.main, ["nvol", "complete:25", "--strategy", "enumerate"])
    assert result.exit_code == 3
    result = runner.invoke(cli.main, ["enum", "complete:25"])
    assert result.exit_code == 3


def test_enum_listing_and_footer(runner):
    result = runner.invoke(cli.main, ["enum", "path:2"])
    assert result.exit_code == 0
    assert result.output == "0 1\n1 0\ncount 2\n"


def test_enum_json(runner):
    result = runner.invoke(cli.main, ["enum", "cycle:3", "--json"])
    payload = json.loads(result.output)
    assert payload["count"] == 6
    assert [0, 1, 1] in payload["sequences"]


def test_enum_byte_identical_across_workers(runner):
    outputs = {
        w: runner.invoke(cli.main, ["enum", "wheel:4", "--workers", str(w)]).output
        for w in (1, 2, 8)
    }
    assert outputs[1] == outputs[2] == outputs[8]
    assert outputs[1].endswith("count 66\n")


@pytest.mark.parametrize("suite", ["recurrences", "checkers", "formulas", "bijections"])
def test_verify_suites_pass(runner, suite):
    result = runner.invoke(
        cli.main, ["verify", suite, "--n-max", "6", "--samples", "3", "--seed", "1"]
    )
    assert result.exit_code == 0, result.output
    assert "result: pass" in result.output
    assert "# timing" in result.output


def test_verify_report_is_deterministic_up_to_timing(runner):
    args = ["verify", "recurrences", "--n-max", "6", "--samples", "4", "--seed", "7"]
    first = runner.invoke(cli.main, args)
    second = runner.invoke(cli.main, args)
    assert strip_timing(first.output) == strip_timing(second.output)
    assert first.output.count("# timing") == 1


def test_verify_json(runner):
    result = runner.invoke(
        cli.main,
        ["verify", "formulas", "--n-max", "5", "--samples", "2", "--json"],
    )
    payload = json.loads(result.output)
    assert payload["ok"] is True
    assert all(case["ok"] for case in payload["cases"])
    assert "elapsed" in payload["timing"]


def test_verify_failure_exits_1(runner, monkeypatch):
    monkeypatch.setitem(
        cli._SUITES, "recurrences", (lambda n, s, k: [("forced", False, "broken")], 4)
    )
    result = runner.invoke(cli.main, ["verify", "recurrences"])
    assert result.exit_code == 1
    assert "case: forced FAIL (broken)" in result.output


_SMALL = ["--n-max", "5", "--samples", "3", "--seed", "1"]


@pytest.mark.parametrize(
    "args, digest",
    [
        (["verify", "recurrences", *_SMALL],
         "85bfb45fe1cf3de9c2d6a1c4c4ef1e6f0361730560a6d0ed81da74874180b7fe"),
        (["verify", "recurrences", *_SMALL, "--json"],
         "ab81415e8a120f1fa9a2e7b8f3bd419d57b377dc23cdf36bc7393ea786e7f1ec"),
        (["verify", "checkers", *_SMALL],
         "f7f85acdbad69902310236efac7b50149ee3472dfbd216933e55536c8301bbe3"),
        (["verify", "checkers", *_SMALL, "--json"],
         "967cb109a6d876dfd4ead62ba12f89dbaedac00c12912dbbab679f5efa002345"),
        (["verify", "formulas", *_SMALL],
         "dbe69ef56e80f9a19ff846b04d1ddb5f1a1ef7e36e6c0d39ed735b0ea478c382"),
        (["verify", "formulas", *_SMALL, "--json"],
         "792290a96f7540ae17c268f38f17d1086d3638a183a8d0740b80bce1ef695092"),
        (["verify", "bijections", *_SMALL],
         "bc842baea9c79e5e609386439102b1320919202d37b1628afc34fddfd009f13f"),
        (["verify", "bijections", *_SMALL, "--json"],
         "69bb878843e793ab3bf3462cd19620a0f35d94665fb24884c5b3e794069afede"),
        (["scan", "wheels", "--n-max", "6"],
         "addaf226c2e84f50587f41eee6043617f15195f048ca254110ee34b5376b2f53"),
        (["scan", "wheels", "--n-max", "6", "--json"],
         "ddd187b47f146ac383d6fabe4555c151b5f91d477df8299eee590a97495b0ac4"),
        (["scan", "outerplanar-conjecture", "--n-max", "7", "--samples", "6", "--seed", "3"],
         "57d4c0da2e6c969e5858bd05611e9f1ce00ff951206437be2d0b4dc879703956"),
        (["scan", "outerplanar-conjecture", "--n-max", "7", "--samples", "6", "--seed", "3",
          "--json"],
         "55659e1edbf85cf941543a41745657554ae534c00af494ba8320a77f15c6c7d8"),
        # traces: reverse-ear and reverse-subdivision rows, an enumeration
        # leaf, and a k2m closed form
        (["nvol", "random_outerplanar:40", "--seed", "7", "--trace"],
         "698e281e77c7e687ab59753cb0acd15f474b46250460f982398e1f1478acb643"),
        (["nvol", "random_outerplanar:40", "--seed", "7", "--json", "--trace"],
         "fb5d519ffdda708143ddb3678fd9822348f73bd49cc1ae9d0b01737336e8066b"),
        (["nvol", "wheel:6", "--trace"],
         "23263efcbca94700bbdb8a14d0994386bf884cd4f8eb78b481e42c86b795cbed"),
        (["nvol", "wheel:6", "--json", "--trace"],
         "7b1c7a7967b76abb42480c9feb3bbb48e63ca98e7d26d0f2098c1531f2617573"),
        (["nvol", "complete_bipartite:3,4", "--trace"],
         "fb0da992743f52d7912c073c00558509a7ec179fb2879d96c6c8faaad21c79f4"),
        (["nvol", "complete_bipartite:3,4", "--json", "--trace"],
         "65a0d346b534266b4c484d16be6fec5a824b159fe14165e6f2cc8301638b53a1"),
    ],
)
def test_report_bytes_are_pinned(runner, args, digest):
    # the reports are byte-stable apart from timing: strip the "# timing"
    # section and the "timing" key, then compare with the digests taken
    # when these reports were first pinned
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0, result.output
    out = re.sub(r'\n  "timing": \{[^{}]*\},?', "", strip_timing(result.stdout))
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize(
    "args,option",
    [
        (["verify", "recurrences", "--n-max", "2"], "--n-max"),
        (["verify", "bijections", "--n-max", "3"], "--n-max"),
        (["verify", "formulas", "--n-max", "1"], "--n-max"),
        (["scan", "outerplanar-conjecture", "--n-max", "2"], "--n-max"),
        (["verify", "checkers", "--samples", "-3"], "--samples"),
        (["scan", "outerplanar-conjecture", "--samples", "-1"], "--samples"),
    ],
)
def test_sizes_below_a_suites_smallest_exit_2(runner, args, option):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert f"Invalid value for '{option}'" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "recurrences", "--n-max", "4"],
        ["verify", "bijections", "--n-max", "4"],
        ["verify", "formulas", "--n-max", "2"],
        ["scan", "outerplanar-conjecture", "--n-max", "3"],
    ],
)
def test_smallest_sizes_run(runner, args):
    result = runner.invoke(cli.main, [*args, "--samples", "2"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("n_max", [1, 3, 5])
def test_checker_suite_stays_within_n_max(runner, n_max):
    result = runner.invoke(
        cli.main, ["verify", "checkers", "--n-max", str(n_max), "--samples", "3", "--json"]
    )
    assert result.exit_code == 0, result.output
    names = [case["name"] for case in json.loads(result.output)["cases"]]
    sizes = [int(re.match(r"(exhaustive n=|random g)(\d+)", name)[2]) for name in names]
    assert len(sizes) == min(n_max, 4) + 3
    assert max(sizes) == n_max


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(
            ["scan", "wheels", "--n-max", "18"],
            "enumerating wheel:18 on 19 vertices exceeds the cap of 18",
            id="scan-wheels",
        ),
        pytest.param(
            ["scan", "outerplanar-conjecture", "--n-max", "19"],
            "on 19 vertices exceeds the cap of 18",
            id="scan-outerplanar",
        ),
        pytest.param(
            ["verify", "recurrences", "--n-max", "18"],
            "on 19 vertices exceeds the cap of 18",
            id="verify-recurrences",
        ),
        pytest.param(
            ["verify", "checkers", "--n-max", "23"],
            "on 23 vertices exceeds the cap of 22",
            id="verify-checkers",
        ),
    ],
)
def test_refusals_exit_3_before_any_work(runner, monkeypatch, args, message):
    # wheel:18 and the transformed recurrence samples have n_max + 1
    # vertices; counting the smaller samples first would take minutes to hours
    def refuse(*_args, **_kwargs):
        raise AssertionError("no count, listing or subset check may run")

    for name in ("count", "enumerate_draconian", "check_subset"):
        monkeypatch.setattr(draconian, name, refuse)
    result = runner.invoke(cli.main, [*args, "--seed", "1"])
    assert result.exit_code == 3, result.output
    assert message in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "recurrences", "--n-max", "17"],
        ["verify", "checkers", "--n-max", "22"],
        ["scan", "outerplanar-conjecture", "--n-max", "18"],
    ],
    ids=["verify-recurrences", "verify-checkers", "scan-outerplanar"],
)
def test_sizes_at_the_caps_run(runner, args):
    result = runner.invoke(cli.main, [*args, "--samples", "0"])
    assert result.exit_code == 0, result.output


def test_verify_rejects_unknown_suite(runner):
    assert runner.invoke(cli.main, ["verify", "everything"]).exit_code == 2


def test_scan_wheels(runner):
    result = runner.invoke(cli.main, ["scan", "wheels", "--n-max", "6"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "# pqvol scan v1"
    records = [ln for ln in result.output.splitlines() if ln.startswith("record ")]
    assert len(records) == 4
    assert all("agree=yes" in ln for ln in records)
    assert "label=wheel:6 formula=666 oracle=666" in result.output
    assert "result: all-agree 4/4 records" in result.output


def test_scan_records_sorted_and_worker_independent(runner):
    args = ["scan", "outerplanar-conjecture", "--n-max", "7", "--samples", "8", "--seed", "3"]
    outs = {
        w: runner.invoke(cli.main, args + ["--workers", str(w)]).output for w in (1, 2, 8)
    }
    rec = lambda text: [ln for ln in text.splitlines() if ln.startswith("record ")]
    assert rec(outs[1]) == rec(outs[2]) == rec(outs[8])
    assert rec(outs[1]) == sorted(rec(outs[1]))


def test_scan_out_file_appends_with_single_header(runner, tmp_path):
    out = tmp_path / "records.txt"
    args = [
        "scan", "outerplanar-conjecture",
        "--n-max", "6", "--samples", "4", "--seed", "2", "--out", str(out),
    ]
    assert runner.invoke(cli.main, args).exit_code == 0
    assert runner.invoke(cli.main, args).exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# pqvol scan v1"
    assert sum(ln.startswith("#") for ln in lines) == 1
    assert sum(ln.startswith("record ") for ln in lines) == 8


def test_unwritable_scan_out_exits_2_before_any_work(runner, monkeypatch, tmp_path):
    def refuse(*_args, **_kwargs):
        raise AssertionError("no count may run before --out is known to be writable")

    monkeypatch.setattr(draconian, "count", refuse)
    (tmp_path / "file").touch()
    for out in (tmp_path / "missing" / "x", tmp_path / "file" / "x"):
        result = runner.invoke(cli.main, ["scan", "wheels", "--n-max", "3", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--out'" in result.output
        assert not out.exists()
    # a run refused at a cap creates no file either
    out = tmp_path / "capped.txt"
    result = runner.invoke(cli.main, ["scan", "wheels", "--n-max", "18", "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert not out.exists()


def test_scan_json(runner):
    result = runner.invoke(cli.main, ["scan", "wheels", "--n-max", "5", "--json"])
    payload = json.loads(result.output)
    assert payload["all_agree"] is True
    assert len(payload["records"]) == 3


def test_scan_counterexample_renders_graph_and_exits_1(runner, monkeypatch):
    bad = {
        "fp": "g3m3:deadbeef0000",
        "label": "fake:3",
        "formula": 7,
        "oracle": 6,
        "agree": False,
        "conjectural": True,
        "graph": generate("cycle", 3),
    }
    monkeypatch.setitem(cli._SCANS, "wheels", lambda n, s, k, w: [bad])
    result = runner.invoke(cli.main, ["scan", "wheels"])
    assert result.exit_code == 1
    assert "!! COUNTEREXAMPLE fake:3 g3m3:deadbeef0000" in result.output
    assert "!! edges: 1-2 1-3 2-3" in result.output
    assert "!! formula=7 oracle=6" in result.output


def test_version_and_help(runner):
    assert runner.invoke(cli.main, ["--version"]).exit_code == 0
    help_result = runner.invoke(cli.main, ["--help"])
    assert help_result.exit_code == 0
    for cmd in ("nvol", "enum", "verify", "scan"):
        assert cmd in help_result.output


@pytest.fixture
def int_digits_limit():
    # the CLI lifts the int -> str digit limit for the whole process
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int -> str digit limit on this Python")
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_nvol_prints_values_past_the_digit_limit(runner, int_digits_limit, extra):
    result = runner.invoke(cli.main, ["nvol", "path:15000", *extra])
    assert result.exit_code == 0, result.output
    value = json.loads(result.output)["value"] if extra else int(result.output.splitlines()[0])
    assert value == 1 << 14999 and len(str(value)) == 4516


def test_importing_the_cli_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, pqvol.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


_SERIAL_FOOTPRINT = """
import sys

import pqvol.cli
from click.testing import CliRunner
from pqvol import cli
from pqvol.draconian import count, enumerate_draconian
from pqvol.graphs import generate

g = generate("wheel", 6)
assert enumerate_draconian(g).count == count(g, workers=1) == 666
result = CliRunner().invoke(cli.main, ["enum", "wheel:5"])
assert result.exit_code == 0 and result.output.splitlines()[-1] == "count 212", result.output
lazy = ("concurrent.futures", "multiprocessing", "hashlib", "_hashlib", "json")
print(*[name for name in lazy if name in sys.modules])
assert count(g, workers=2) == 666
print(*[name for name in lazy if name in sys.modules])
"""


def _fresh_python(code: str) -> list[str]:
    """Run code in a new interpreter that imports this pqvol; its stdout lines."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.split("\n")


def test_serial_runs_load_no_pool_hashing_or_json():
    serial, sharded = _fresh_python(_SERIAL_FOOTPRINT)[:2]
    assert serial == ""
    # the first sharded call loads the pool, and only then
    assert {"concurrent.futures", "multiprocessing"} <= set(sharded.split())


_PLAN_FOOTPRINT = """
import sys

from pqvol import recurrence
from pqvol.graphs import Graph, generate, graph_fingerprint

traces = [
    recurrence.nvol(generate("random_outerplanar", 40, seed=7)).trace,
    recurrence.nvol(generate("wheel", 6)).trace,
]
nodes = [list(recurrence._distinct_nodes(t).values()) for t in traces]
assert "reverse-ear" in {node.rule for node in nodes[0]}
assert [node.rule for node in nodes[1]] == ["enumeration"]
assert [recurrence.replay_trace(t) for t in traces] == [t.value for t in traces]
hashing = ("hashlib", "_hashlib")
print(*[name for name in hashing if name in sys.modules])
for trace, distinct in zip(traces, nodes):
    rows = recurrence.serialize_trace(trace).splitlines()[1:]
    assert len(rows) == len(distinct)
    for row, node in zip(rows, distinct):
        assert row.split()[2] == graph_fingerprint(Graph(node.n, node.edges)), row
print(*[name for name in hashing if name in sys.modules])
"""


def test_planning_hashes_nothing_until_a_trace_is_written():
    planned, written = _fresh_python(_PLAN_FOOTPRINT)[:2]
    assert planned == ""
    assert written == "hashlib _hashlib"


def _records(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln.startswith("record ")]


def test_scan_shares_one_pool_across_its_samples(runner, pool_sizes):
    args = ["scan", "outerplanar-conjecture", "--n-max", "8", "--samples", "50"]
    serial = runner.invoke(cli.main, [*args, "--workers", "1"])
    assert pool_sizes == []
    sharded = runner.invoke(cli.main, [*args, "--workers", "2"])
    assert sharded.exit_code == serial.exit_code == 0
    assert pool_sizes == [2]
    assert len(_records(sharded.output)) == 50
    assert _records(sharded.output) == _records(serial.output)
    assert multiprocessing.active_children() == []


def _prism_file(tmp_path, name: str, other: list[tuple[int, int]]) -> str:
    """The triangular prism on 1..6, then the edges of other shifted past it.

    The prism is 3-regular and not outerplanar, so the planner enumerates it."""
    prism = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    edges = prism + [(u + 6, v + 6) for u, v in other]
    path = tmp_path / name
    write_edge_list(from_edge_list(6 + max(max(e) for e in other), edges), path)
    return str(path)


def test_nvol_and_enum_open_one_pool_per_command(runner, pool_sizes, tmp_path):
    # prism + K_{3,3}: two distinct enumeration leaves
    k33 = [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]
    spec = _prism_file(tmp_path, "prism_k33.txt", k33)
    recurrence.clear_memo()
    serial = runner.invoke(cli.main, ["nvol", spec, "--trace"])
    assert serial.output.count(" enumeration ") == 2
    recurrence.clear_memo()
    sharded = runner.invoke(cli.main, ["nvol", spec, "--trace", "--workers", "2"])
    assert (sharded.exit_code, sharded.output) == (0, serial.output)
    assert pool_sizes == [2]
    assert runner.invoke(cli.main, ["enum", "wheel:6", "--workers", "2"]).exit_code == 0
    assert pool_sizes == [2, 2]
    # a command that shards nothing starts no pool
    assert runner.invoke(cli.main, ["nvol", "cycle:9", "--workers", "2"]).output == "1152\n"
    assert pool_sizes == [2, 2]
    assert multiprocessing.active_children() == []


def test_cap_refusal_after_sharding_leaves_no_worker(runner, pool_sizes, tmp_path):
    # the prism is enumerated on the pool, then the 20-vertex prism C10 x K2
    # hits the enumeration cap
    c10k2 = [(i, i % 10 + 1) for i in range(1, 11)]
    c10k2 += [(u + 10, v + 10) for u, v in c10k2] + [(i, i + 10) for i in range(1, 11)]
    spec = _prism_file(tmp_path, "two_prisms.txt", c10k2)
    recurrence.clear_memo()
    result = runner.invoke(cli.main, ["nvol", spec, "--workers", "2"])
    assert result.exit_code == 3
    assert "exceeds the cap of 18" in result.output
    assert pool_sizes == [2]
    assert multiprocessing.active_children() == []


_WITHOUT_NUMPY = """
import sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoNumpy())

from click.testing import CliRunner
from pqvol import cli
from pqvol.draconian import check_flow, check_subset
from pqvol.graphs import build_double, generate
from pqvol.sampling import compositions

for spec in (("cycle", 5), ("complete", 5)):
    d = build_double(generate(*spec))
    for comp in compositions(d.n - 1, d.n):
        assert check_subset(d, comp) == check_flow(d, comp), (spec, comp)
result = CliRunner().invoke(cli.main, ["verify", "checkers", "--n-max", "7"])
assert result.exit_code == 0, result.output
assert "numpy" not in sys.modules
print("ok")
"""


def test_pqvol_runs_with_numpy_unimportable():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY], capture_output=True, text=True, env=env
    )
    assert (out.returncode, out.stdout) == (0, "ok\n"), out.stderr
