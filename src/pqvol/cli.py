"""Command-line front end: volume queries, enumeration, verification, scans.

Graphs are addressed either as "family:params" one-liners (cycle:5,
complete_bipartite:2,3, random_outerplanar:8 with --seed) or as edge-list
files. Reports are deterministic for a fixed seed; timing lives in its own
trailing section so the rest of the output is byte-stable.

`nvol --trace` prints the derivation as a node table (recurrence.trace_rows):
each distinct step once, children before parents, referred to by id. The
text form starts with `# trace v3`; under --json the same rows sit in
"trace": {"version": 3, "nodes": [...]}. A version 2 reader cannot read
v3, since a v3 reverse-subdivision row undoes a whole degree-2 thread whose
length k that reader would ignore. Rows of rule reverse-ear (an ear undone by
the edge identity, three children) keep the version at 3: a v3 reader
without that rule stops on them with "unknown combination rule" rather than
combining them wrongly, and a new version would change every trace's header.

Exit codes: 0 all comparisons passed, 1 some comparison failed, 2 the input
could not be parsed or --out cannot be written, 3 a resource cap was hit.
"""

from __future__ import annotations

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
    delete_edge,
    from_edge_list,
    generate,
    graph_fingerprint,
    is_connected,
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


def _json_text(payload: dict) -> str:
    import json  # loaded only by a command that writes --json

    return json.dumps(payload, indent=2, sort_keys=True)


@dataclass
class RunReport:
    """Deterministic run summary; timing is kept in a separate section."""

    command: str
    seed: int | None = None
    cases: list[tuple[str, bool, str]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.cases)

    def to_text(self) -> str:
        lines = [
            "# report v1",
            f"command: {self.command}",
            "fingerprint: -",
            f"seed: {self.seed if self.seed is not None else '-'}",
        ]
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
            "fingerprint": "-",
            "seed": self.seed,
            "values": {},
            "cases": [
                {"name": n, "ok": p, "detail": d} for n, p, d in self.cases
            ],
            "ok": self.ok,
            "timing": {"elapsed": round(self.elapsed, 6)},
        }
        return _json_text(payload)


class _Main(click.Group):
    """The command group: a command that hits a size cap exits 3 here."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except draconian.ResourceCapExceeded as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(_EXIT_RESOURCE)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="pqvol")
def main() -> None:
    """Exact normalized volumes of graph adjacency polytopes."""
    # volumes are printed in full: lift the 4,300-digit cap on int -> str
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


# ---------------------------------------------------------------------------
# nvol


@main.command("nvol")
@click.argument("graph_spec")
@click.option(
    "--strategy",
    type=click.Choice(["auto", "enumerate"]),
    default="auto",
    show_default=True,
    help="auto applies recurrences; enumerate is pure oracle mode",
)
@click.option("--trace", "show_trace", is_flag=True, help="print the derivation, each step once")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=None, help="seed for random graph families")
@click.option("--json", "as_json", is_flag=True)
def cmd_nvol(graph_spec, strategy, show_trace, workers, seed, as_json) -> None:
    """Print the exact normalized volume of GRAPH_SPEC."""
    g = _load_graph(graph_spec, seed)
    with draconian.pool_scope(workers):
        result = recurrence.nvol(g, strategy=strategy, workers=workers)
    if as_json:
        payload = {
            "command": "nvol",
            "fingerprint": graph_fingerprint(g),
            "strategy": strategy,
            "value": result.value,
        }
        if show_trace:
            rows = recurrence.trace_rows(result.trace)
            payload["trace"] = {"version": recurrence.TRACE_VERSION, "nodes": rows}
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
    with draconian.pool_scope(workers):
        ds = draconian.enumerate_draconian(g, workers=workers)
    if as_json:
        payload = {
            "command": "enum",
            "count": ds.count,
            "fingerprint": graph_fingerprint(g),
            "sequences": [list(s) for s in ds.sequences],
        }
        click.echo(_json_text(payload))
    else:
        click.echo(ds.to_text() + f"count {ds.count}")


# ---------------------------------------------------------------------------
# verify suites


def _suite_recurrences(n_max: int, seed: int, samples: int):
    # subdividing or triangle-joining a sample adds a vertex: refuse before
    # counting the smaller samples
    draconian.check_cap(n_max + 1, draconian.MAX_N, "enumerating the transformed samples")
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
    # check_subset refuses above its dense subset table: refuse before the
    # exhaustive cases run
    draconian.check_cap(n_max, draconian.SUBSET_MAX_N, "subset-checking the samples")
    cases = []
    for n in range(1, min(n_max, 4) + 1):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        checked = 0
        ok = True
        for bits in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
            g = from_edge_list(n, edges)
            if not is_connected(g):
                continue
            d = build_double(g)
            for comp in sampling.compositions(n - 1, n):
                checked += 1
                if draconian.check_subset(d, comp) != draconian.check_flow(d, comp):
                    ok = False
        cases.append((f"exhaustive n={n}", ok, f"{checked} pairs"))
    rng = Random(seed)
    for _ in range(samples):
        n = rng.randint(min(5, n_max), n_max)
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
    elif kind == "triangle":
        ident, wit = recurrence.triangle_step(g, e)
        target = draconian.enumerate_draconian(triangle_join(g, e)).entry_set()
    else:
        # the edge identity's map lands on D(g▵e) minus D(g:e), both listed here
        ident, wit = recurrence.edge_step(g, e)
        joined = draconian.enumerate_draconian(triangle_join(g, e)).entry_set()
        target = joined - draconian.enumerate_draconian(subdivide(g, e)).entry_set()
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
    for _ in range(samples):
        g = sampling.random_connected_graph(rng.randint(2, min(n_max, 8)), rng)
        cases.append(_witness_case("edge", g, rng.choice(g.sorted_edges)))
    return cases


# suite -> (its runner, the smallest --n-max it can sample from): subdivision
# pairs need four vertices, the forest samples two; the checker suite caps
# its sizes at --n-max
_SUITES = {
    "recurrences": (_suite_recurrences, 4),
    "checkers": (_suite_checkers, 1),
    "formulas": (_suite_formulas, 2),
    "bijections": (_suite_bijections, 4),
}


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(_SUITES)))
@click.option("--n-max", type=int, default=7, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=25, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_verify(suite, n_max, seed, samples, as_json) -> None:
    """Run a property suite; nonzero exit when any case fails."""
    run, smallest = _SUITES[suite]
    if n_max < smallest:
        raise click.BadParameter(
            f"{n_max} is below {smallest}, the smallest size {suite} samples",
            param_hint="'--n-max'",
        )
    start = time.perf_counter()
    cases = run(n_max, seed, samples)
    report = RunReport(
        command=f"verify {suite} --n-max {n_max} --seed {seed} --samples {samples}",
        seed=seed,
        cases=cases,
        elapsed=time.perf_counter() - start,
    )
    click.echo(report.to_json() if as_json else report.to_text(), nl=False)
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


def _record(g: Graph, label: str, formula: int, conjectural: bool, workers: int) -> dict:
    """One scan record: formula against the enumeration oracle's count of g."""
    oracle = draconian.count(g, workers=workers)
    return {
        "fp": graph_fingerprint(g),
        "label": label,
        "formula": formula,
        "oracle": oracle,
        "agree": formula == oracle,
        "conjectural": conjectural,
        "graph": g,
    }


def _scan_wheels(n_max: int, seed: int, samples: int, workers: int):
    # wheel:n has n + 1 vertices: refuse before counting the smaller wheels
    draconian.check_cap(n_max + 1, draconian.MAX_N, f"enumerating wheel:{n_max}")
    formula = recurrence.wheel_conjecture_value
    return [
        _record(generate("wheel", n), f"wheel:{n}", formula(n), True, workers)
        for n in range(3, n_max + 1)
    ]


def _scan_outerplanar(n_max: int, seed: int, samples: int, workers: int):
    # refuse before drawing, not at the first sample above the cap
    draconian.check_cap(n_max, draconian.MAX_N, "enumerating the outerplanar samples")
    rng = Random(seed)
    records = []
    for _ in range(samples):
        n = rng.randint(3, n_max)
        sub_seed = rng.getrandbits(63)
        g = generate("random_outerplanar", n, seed=sub_seed)
        formula, conjectural = outerplanar.nvol_outerplanar(g)
        records.append(_record(g, f"outerplanar:n{n}s{sub_seed}", formula, conjectural, workers))
    return records


_SCANS = {"wheels": _scan_wheels, "outerplanar-conjecture": _scan_outerplanar}


def _writable(ctx, param, out: str | None) -> str | None:
    """Refuse an --out path that cannot be appended to, before any work and
    without creating it, so that a run refused at a cap leaves no file."""
    if out:
        if os.path.exists(out):
            ok = os.access(out, os.W_OK)
        else:
            parent = os.path.dirname(os.path.abspath(out))
            ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
        if not ok:
            raise click.BadParameter(f"cannot write {out!r}")
    return out


@main.command("scan")
@click.argument("target", type=click.Choice(sorted(_SCANS)))
# both targets start at three vertices, the smallest wheel and outerplanar block
@click.option("--n-max", type=click.IntRange(min=3), default=6, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=50, show_default=True)
@click.option(
    "--out",
    type=click.Path(dir_okay=False),
    default=None,
    callback=_writable,
    help="append records to this file",
)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_scan(target, n_max, seed, samples, out, workers, as_json) -> None:
    """Compare a conjectured formula against the enumeration oracle.

    wheels checks wheel:3 .. wheel:N-MAX and ignores --seed and --samples.
    """
    start = time.perf_counter()
    with draconian.pool_scope(workers):
        records = _SCANS[target](n_max, seed, samples, workers)
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
        click.echo(_json_text(payload))
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
