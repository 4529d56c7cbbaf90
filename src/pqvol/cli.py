"""Command-line front end: volume queries, enumeration, verification, scans.

Graphs are addressed either as "family:params" one-liners (cycle:5,
complete_bipartite:2,3, random_outerplanar:8 with --seed) or as edge-list
files. Reports are deterministic for a fixed seed; timing lives in its own
trailing section so the rest of the output is byte-stable.

Exit codes: 0 all comparisons passed, 1 some comparison failed, 2 the input
could not be parsed, 3 a resource cap was hit.
"""

from __future__ import annotations

import json as jsonlib
import os
import sys
import time
from dataclasses import dataclass, field
from random import Random

import click

from . import __version__, draconian, outerplanar, recurrence, sampling
from .graphs import (
    Graph,
    build_double,
    connected_components,
    delete_edge,
    from_edge_list,
    generate,
    graph_fingerprint,
    read_edge_list,
    subdivide,
    triangle_join,
)

_EXIT_FAIL = 1
_EXIT_RESOURCE = 3


def _load_graph(spec: str, seed: int | None) -> Graph:
    if os.sep not in spec and ":" in spec:
        family, _, rest = spec.partition(":")
        try:
            params = [int(x) for x in rest.replace(":", ",").split(",") if x]
        except ValueError:
            raise click.UsageError(f"non-integer parameters in {spec!r}") from None
        try:
            return generate(family, *params, seed=seed)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None
    if os.path.exists(spec):
        try:
            return read_edge_list(spec)
        except (OSError, ValueError) as exc:
            raise click.UsageError(f"cannot read {spec!r}: {exc}") from None
    raise click.UsageError(f"{spec!r} is neither a known family spec nor a file")


def _resource_exit(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(_EXIT_RESOURCE)


@dataclass
class RunReport:
    """Deterministic run summary; timing is kept in a separate section."""

    command: str
    fingerprint: str = "-"
    seed: int | None = None
    values: dict[str, object] = field(default_factory=dict)
    cases: list[tuple[str, bool, str]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.cases)

    def to_text(self) -> str:
        lines = [
            "# report v1",
            f"command: {self.command}",
            f"fingerprint: {self.fingerprint}",
            f"seed: {self.seed if self.seed is not None else '-'}",
        ]
        for key in sorted(self.values):
            lines.append(f"value: {key}={self.values[key]}")
        for name, passed, detail in self.cases:
            suffix = f" ({detail})" if detail else ""
            lines.append(f"case: {name} {'pass' if passed else 'FAIL'}{suffix}")
        good = sum(1 for _, passed, _ in self.cases if passed)
        lines.append(f"result: {'pass' if self.ok else 'FAIL'} {good}/{len(self.cases)} cases")
        lines.append("# timing")
        lines.append(f"elapsed: {self.elapsed:.2f}s")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "values": {k: self.values[k] for k in sorted(self.values)},
            "cases": [
                {"name": n, "ok": p, "detail": d} for n, p, d in self.cases
            ],
            "ok": self.ok,
            "timing": {"elapsed": round(self.elapsed, 6)},
        }
        return jsonlib.dumps(payload, indent=2, sort_keys=True)


def _emit(report: RunReport, as_json: bool) -> None:
    click.echo(report.to_json() if as_json else report.to_text(), nl=False)


@click.group()
@click.version_option(version=__version__, prog_name="pqvol")
def main() -> None:
    """Exact normalized volumes of graph adjacency polytopes."""


# ---------------------------------------------------------------------------
# nvol


def _trace_dict(node: recurrence.TraceNode) -> dict:
    """One trace node as a JSON object; _json_text expands its children."""
    return {
        "rule": node.rule,
        "fingerprint": node.fingerprint,
        "n": node.n,
        "m": node.m,
        "value": node.value,
        "detail": node.detail,
        "children": list(node.children),
    }


def _json_text(obj) -> str:
    """jsonlib.dumps(obj, indent=2, sort_keys=True), trace nodes included,
    from an explicit stack: the json module recurses once per nesting level,
    which deep traces exceed."""
    out = []
    stack = [(obj, 0)]  # (value, depth) to encode, or literal text
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            out.append(top)
            continue
        value, depth = top
        if isinstance(value, recurrence.TraceNode):
            value = _trace_dict(value)
        if isinstance(value, dict):
            brackets, items = "{}", sorted(value.items())
        elif isinstance(value, list):
            brackets, items = "[]", [(None, v) for v in value]
        else:
            out.append(jsonlib.dumps(value))
            continue
        if not items:
            out.append(brackets)
            continue
        out.append(brackets[0])
        stack.append("\n" + "  " * depth + brackets[1])
        pad = "\n" + "  " * (depth + 1)
        for i in reversed(range(len(items))):
            key, v = items[i]
            stack.append((v, depth + 1))
            label = "" if key is None else jsonlib.dumps(key) + ": "
            stack.append(("," if i else "") + pad + label)
    return "".join(out)


@main.command("nvol")
@click.argument("graph_spec")
@click.option(
    "--strategy",
    type=click.Choice(["auto", "enumerate"]),
    default="auto",
    show_default=True,
    help="auto applies recurrences; enumerate is pure oracle mode",
)
@click.option("--trace", "show_trace", is_flag=True, help="print the derivation tree")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=None, help="seed for random graph families")
@click.option("--json", "as_json", is_flag=True)
def cmd_nvol(graph_spec, strategy, show_trace, workers, seed, as_json) -> None:
    """Print the exact normalized volume of GRAPH_SPEC."""
    g = _load_graph(graph_spec, seed)
    try:
        result = recurrence.nvol(g, strategy=strategy, workers=workers)
    except draconian.ResourceCapExceeded as exc:
        _resource_exit(exc)
    if as_json:
        payload = {
            "command": "nvol",
            "fingerprint": graph_fingerprint(g),
            "strategy": strategy,
            "value": result.value,
        }
        if show_trace:
            payload["trace"] = result.trace
        click.echo(_json_text(payload))
    else:
        click.echo(str(result.value))
        if show_trace:
            click.echo(recurrence.serialize_trace(result.trace), nl=False)


# ---------------------------------------------------------------------------
# enum


@main.command("enum")
@click.argument("graph_spec")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=None, help="seed for random graph families")
@click.option("--json", "as_json", is_flag=True)
def cmd_enum(graph_spec, workers, seed, as_json) -> None:
    """List every draconian sequence of GRAPH_SPEC in lexicographic order."""
    g = _load_graph(graph_spec, seed)
    try:
        ds = draconian.enumerate_draconian(g, workers=workers)
    except draconian.ResourceCapExceeded as exc:
        _resource_exit(exc)
    if as_json:
        payload = {
            "command": "enum",
            "count": ds.count,
            "fingerprint": graph_fingerprint(g),
            "sequences": [list(s) for s in ds.sequences],
        }
        click.echo(jsonlib.dumps(payload, indent=2, sort_keys=True))
    else:
        click.echo(ds.to_text() + f"count {ds.count}")


# ---------------------------------------------------------------------------
# verify suites


def _suite_recurrences(n_max: int, seed: int, samples: int):
    rng = Random(seed)
    cases = []
    for _ in range(samples):
        g, e = sampling.sample_subdivision_pair(rng, n_max)
        base = draconian.count(g)
        removed = draconian.count(delete_edge(g, e))
        total = draconian.count(subdivide(g, e))
        ok = total == 2 * base + removed
        cases.append(
            (
                f"subdivision {graph_fingerprint(g)} e={e[0]}-{e[1]}",
                ok,
                f"{total} = 2*{base} + {removed}",
            )
        )
    for _ in range(samples):
        g, e = sampling.sample_triangle_pair(rng, n_max)
        base = draconian.count(g)
        total = draconian.count(triangle_join(g, e))
        ok = total == 3 * base
        cases.append(
            (
                f"triangle {graph_fingerprint(g)} e={e[0]}-{e[1]}",
                ok,
                f"{total} = 3*{base}",
            )
        )
    return cases


def _suite_checkers(n_max: int, seed: int, samples: int):
    cases = []
    for n in range(1, 5):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        checked = 0
        ok = True
        for bits in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
            g = from_edge_list(n, edges)
            if len(connected_components(g)) != 1:
                continue
            d = build_double(g)
            for comp in sampling.compositions(n - 1, n):
                checked += 1
                if draconian.check_subset(d, comp) != draconian.check_flow(d, comp):
                    ok = False
        cases.append((f"exhaustive n={n}", ok, f"{checked} pairs"))
    rng = Random(seed)
    for _ in range(samples):
        n = rng.randint(5, max(5, n_max))
        g = sampling.random_connected_graph(n, rng)
        d = build_double(g)
        ok = True
        for _ in range(20):
            seq = [0] * n
            for _ in range(n - 1):
                seq[rng.randrange(n)] += 1
            if draconian.check_subset(d, seq) != draconian.check_flow(d, seq):
                ok = False
        cases.append((f"random {graph_fingerprint(g)}", ok, "20 sequences"))
    return cases


def _suite_formulas(n_max: int, seed: int, samples: int):
    rng = Random(seed)
    cases = []
    for _ in range(samples):
        n = rng.randint(2, min(n_max, 9))
        t = generate("random_tree", n, seed=rng.getrandbits(63))
        got = draconian.count(t)
        want = recurrence.nvol_forest(n, 1)
        cases.append((f"forest {graph_fingerprint(t)}", got == want, f"{got} vs {want}"))
    for n in range(3, min(n_max, 8) + 1):
        got = draconian.count(generate("cycle", n))
        want = recurrence.nvol_cycle(n)
        cases.append((f"cycle n={n}", got == want, f"{got} vs {want}"))
    for n in range(3, min(n_max, 6) + 1):
        for k in range(n // 2 + 1):
            got = draconian.count(generate("complete_minus_matching", n, k))
            want = recurrence.nvol_complete_minus_matching(n, k)
            cases.append((f"cmm n={n} k={k}", got == want, f"{got} vs {want}"))
    for n in range(4, min(n_max, 7) + 1):
        got = draconian.count(generate("complete_bipartite", 2, n - 2))
        want = recurrence.nvol_k2m(n)
        cases.append((f"k2m n={n}", got == want, f"{got} vs {want}"))
    quartet = from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    e = (1, 3)
    vals = (
        recurrence.nvol(quartet).value,
        recurrence.nvol(delete_edge(quartet, e)).value,
        recurrence.nvol(subdivide(quartet, e)).value,
        recurrence.nvol(triangle_join(quartet, e)).value,
    )
    cases.append(("join-family values", vals == (18, 16, 50, 52), f"{vals}"))
    ok = all(recurrence.stirling_identity_check(n) for n in range(3, 21))
    cases.append(("stirling identity n=3..20", ok, ""))
    return cases


def _witness_case(kind, g, e):
    if kind == "subdivision":
        ident, wit = recurrence.subdivision_step(g, e)
        target = draconian.enumerate_draconian(subdivide(g, e)).entry_set()
    else:
        ident, wit = recurrence.triangle_step(g, e)
        target = draconian.enumerate_draconian(triangle_join(g, e)).entry_set()
    ok = ident.holds and wit.is_exact_cover_of(target)
    return (
        f"{kind}-witness {graph_fingerprint(g)} e={e[0]}-{e[1]}",
        ok,
        f"|target|={len(target)}",
    )


def _suite_bijections(n_max: int, seed: int, samples: int):
    c3 = generate("cycle", 3)
    _, wit = recurrence.subdivision_step(c3, (1, 3))
    expected_a = {(2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)}
    expected_b = {(1, 2, 0, 0), (2, 1, 0, 0), (2, 0, 1, 0), (1, 1, 1, 0)}
    expected_c = {(1, 0, 0, 2), (1, 0, 2, 0), (0, 1, 0, 2), (0, 0, 1, 2), (0, 1, 2, 0), (0, 2, 1, 0)}
    cases = [
        (
            "subdivision reference sets",
            wit.images_a() == expected_a
            and wit.images_b() == expected_b
            and wit.images_c() == expected_c,
            "subdivision of the 3-cycle at 1-3",
        )
    ]
    _, witt = recurrence.triangle_step(c3, (1, 3))
    expected_bt = {(3, 0, 0, 0), (1, 2, 0, 0), (1, 0, 2, 0), (2, 1, 0, 0), (2, 0, 1, 0), (1, 1, 1, 0)}
    expected_ct = {(1, 0, 0, 2), (0, 2, 1, 0), (0, 0, 3, 0), (0, 1, 0, 2), (0, 0, 1, 2), (0, 1, 2, 0)}
    cases.append(
        (
            "triangle-join reference sets",
            witt.images_a() == expected_a
            and witt.images_b() == expected_bt
            and witt.images_c() == expected_ct,
            "triangle join of the 3-cycle at 1-3",
        )
    )
    rng = Random(seed)
    for _ in range(samples):
        g, e = sampling.sample_subdivision_pair(rng, min(n_max, 8))
        cases.append(_witness_case("subdivision", g, e))
    for _ in range(samples):
        g, e = sampling.sample_triangle_pair(rng, min(n_max, 8))
        cases.append(_witness_case("triangle", g, e))
    return cases


_SUITES = {
    "recurrences": _suite_recurrences,
    "checkers": _suite_checkers,
    "formulas": _suite_formulas,
    "bijections": _suite_bijections,
}
# Smallest --n-max each suite can sample from: subdivision pairs need four
# vertices, the forest samples two; the checker suite clamps its sizes.
_SUITE_MIN_N = {"recurrences": 4, "checkers": 1, "formulas": 2, "bijections": 4}


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(_SUITES)))
@click.option("--n-max", type=int, default=7, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=25, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_verify(suite, n_max, seed, samples, as_json) -> None:
    """Run a property suite; nonzero exit when any case fails."""
    if n_max < _SUITE_MIN_N[suite]:
        raise click.BadParameter(
            f"{n_max} is below {_SUITE_MIN_N[suite]}, the smallest size {suite} samples",
            param_hint="'--n-max'",
        )
    start = time.perf_counter()
    try:
        cases = _SUITES[suite](n_max, seed, samples)
    except draconian.ResourceCapExceeded as exc:
        _resource_exit(exc)
    report = RunReport(
        command=f"verify {suite} --n-max {n_max} --seed {seed} --samples {samples}",
        seed=seed,
        cases=cases,
        elapsed=time.perf_counter() - start,
    )
    _emit(report, as_json)
    sys.exit(0 if report.ok else _EXIT_FAIL)


# ---------------------------------------------------------------------------
# scan


def _record_line(rec: dict) -> str:
    return (
        f"record fp={rec['fp']} label={rec['label']} "
        f"formula={rec['formula']} oracle={rec['oracle']} "
        f"agree={'yes' if rec['agree'] else 'no'} "
        f"conjectural={'yes' if rec['conjectural'] else 'no'}"
    )


def _scan_wheels(n_max: int, seed: int, samples: int, workers: int):
    records = []
    for n in range(3, n_max + 1):
        g = generate("wheel", n)
        formula = recurrence.wheel_conjecture_value(n)
        oracle = draconian.count(g, workers=workers)
        records.append(
            {
                "fp": graph_fingerprint(g),
                "label": f"wheel:{n}",
                "formula": formula,
                "oracle": oracle,
                "agree": formula == oracle,
                "conjectural": True,
                "graph": g,
            }
        )
    return records


def _scan_outerplanar(n_max: int, seed: int, samples: int, workers: int):
    rng = Random(seed)
    records = []
    for _ in range(samples):
        n = rng.randint(3, n_max)
        sub_seed = rng.getrandbits(63)
        g = generate("random_outerplanar", n, seed=sub_seed)
        formula, conjectural = outerplanar.nvol_outerplanar(g)
        oracle = draconian.count(g, workers=workers)
        records.append(
            {
                "fp": graph_fingerprint(g),
                "label": f"outerplanar:n{n}s{sub_seed}",
                "formula": formula,
                "oracle": oracle,
                "agree": formula == oracle,
                "conjectural": conjectural,
                "graph": g,
            }
        )
    return records


_SCANS = {"wheels": _scan_wheels, "outerplanar-conjecture": _scan_outerplanar}


@main.command("scan")
@click.argument("target", type=click.Choice(sorted(_SCANS)))
# both targets start at three vertices, the smallest wheel and outerplanar block
@click.option("--n-max", type=click.IntRange(min=3), default=6, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=50, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="append records to this file")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_scan(target, n_max, seed, samples, out, workers, as_json) -> None:
    """Compare a conjectured formula against the enumeration oracle."""
    start = time.perf_counter()
    try:
        records = _SCANS[target](n_max, seed, samples, workers)
    except draconian.ResourceCapExceeded as exc:
        _resource_exit(exc)
    records.sort(key=lambda r: (r["fp"], r["label"]))
    lines = [_record_line(r) for r in records]

    if out:
        fresh = not os.path.exists(out) or os.path.getsize(out) == 0
        with open(out, "a", encoding="utf-8") as fh:
            if fresh:
                fh.write("# pqvol scan v1\n")
            for line in lines:
                fh.write(line + "\n")

    disagreements = [r for r in records if not r["agree"]]
    elapsed = time.perf_counter() - start
    if as_json:
        payload = {
            "command": f"scan {target}",
            "all_agree": not disagreements,
            "records": [
                {k: r[k] for k in ("fp", "label", "formula", "oracle", "agree", "conjectural")}
                for r in records
            ],
            "seed": seed,
            "timing": {"elapsed": round(elapsed, 6)},
        }
        click.echo(jsonlib.dumps(payload, indent=2, sort_keys=True))
    else:
        click.echo("# pqvol scan v1")
        for line in lines:
            click.echo(line)
        for r in disagreements:
            click.echo("!! COUNTEREXAMPLE " + r["label"] + " " + r["fp"])
            click.echo(
                "!! edges: "
                + " ".join(f"{u}-{v}" for u, v in r["graph"].sorted_edges)
            )
            click.echo(f"!! formula={r['formula']} oracle={r['oracle']}")
        click.echo(
            f"result: {'all-agree' if not disagreements else 'DISAGREEMENTS'} "
            f"{len(records) - len(disagreements)}/{len(records)} records"
        )
        click.echo("# timing")
        click.echo(f"elapsed: {elapsed:.2f}s")
    sys.exit(0 if not disagreements else _EXIT_FAIL)


if __name__ == "__main__":
    main()
