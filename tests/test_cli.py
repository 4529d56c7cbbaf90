from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from pqvol import cli, draconian
from pqvol.graphs import generate, write_edge_list


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
    lines = result.output.splitlines()
    assert lines[0] == "8"
    assert lines[1].startswith("block-product ")
    assert sum("closed-form:edge" in ln for ln in lines) == 3


def test_nvol_json(runner):
    result = runner.invoke(cli.main, ["nvol", "complete:4", "--json", "--trace"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["value"] == 20
    assert payload["trace"]["rule"] == "closed-form:complete-minus-matching"


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

    monkeypatch.setattr(draconian, "ProcessPoolExecutor", no_pool)
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
        cli._SUITES, "recurrences", lambda n, s, k: [("forced", False, "broken")]
    )
    result = runner.invoke(cli.main, ["verify", "recurrences"])
    assert result.exit_code == 1
    assert "case: forced FAIL (broken)" in result.output


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
