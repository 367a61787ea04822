"""One binary for the whole toolkit.

Exit codes: 0 = success / yes / equal, 1 = no / mismatch (with a witness
printed), 2 = usage or input error, 3 = internal error (an unexpected
exception, reported as ``internal error: <Type>: <msg>`` on stderr).
``--json`` (every subcommand but ``bench``, which writes CSV) wraps
every result in the stable shape {command, input, answer, witness?,
stats?}.

In plain mode ``enumerate`` and ``cliques`` print each set as it is
found, and ``bench`` writes each CSV row as its instance finishes;
``--json`` collects the sets for its one line.  A closed stdout
(``... | head -n 1``) is no error: it stops a streaming enumeration,
``dispatch`` returns 0 at any other ``BrokenPipeError``, and ``main``
points stdout at the null device so the final flush prints nothing.

One parser serves the process, built by the first ``dispatch`` and not
at import.  It stores only the subcommand's name: ``dispatch`` looks the
``_cmd_<name>`` handler up when it runs it, so a replaced handler is the
one called.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
from contextlib import nullcontext

from . import oracle as oracle_mod
from .cliques import enumerate_maximal_hypercliques, enumerate_maximal_independent_sets
from .conformal import conformal_degree, is_k_conformal
from .core import (
    Hypergraph,
    VertexSet,
    edge_complement,
    iter_bits,
    k_section,
    parse,
    serialize,
    uniform_complement,
)
from .enumeration import StopEnumeration, enumerate_incremental, enumerate_tr
from .generators import bounded_degree_instance, bounded_rank_instance, uniform_instance
from .hitting import minimize
from .rank import rank_at_least, transversal_rank
from .verify import Equal, MissingSolution, NotSubset, verify_tr

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3

BENCH_COLUMNS = ["instance_id", "n", "m", "delta", "kstar", "outputs", "max_delay_ns", "total_ns"]


def _load(path: str) -> Hypergraph:
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _vertex_set(h: Hypergraph, tokens: str | None) -> VertexSet:
    if tokens is None or tokens.strip() in ("", "{}"):
        return VertexSet(h.n)
    try:
        return VertexSet.from_iterable(h.n, (h.index_of(tok) for tok in tokens.split()))
    except KeyError as exc:
        raise ValueError(f"unknown vertex {exc.args[0]!r}") from None


def _set_text(h: Hypergraph, s: VertexSet) -> str:
    return " ".join(h.set_tokens(s)) if s else "{}"


def _respond(
    args: argparse.Namespace,
    answer,
    *,
    witness: list[str] | None = None,
    stats: dict | None = None,
    lines: list[str] | None = None,
) -> None:
    if getattr(args, "json", False):
        fields = vars(args)
        source = fields.get("path")
        if source is None and "g" in fields:
            source = {"g": fields["g"], "h": fields["h"]}
        payload = {"command": args.command, "input": source, "answer": answer}
        if witness is not None:
            payload["witness"] = witness
        if stats is not None:
            payload["stats"] = stats
        print(json.dumps(payload))
    else:
        for line in lines or []:
            print(line)


def _stream_sink(args: argparse.Namespace, h: Hypergraph, found: list[VertexSet]):
    """Plain mode prints each set as it arrives, and a closed stdout stops
    the enumeration (so ``--stats`` still covers what was found);
    ``--json`` collects the sets in ``found`` for its one line."""
    if args.json:
        return found.append

    def emit(s: VertexSet) -> None:
        try:
            print(_set_text(h, s))
        except BrokenPipeError:
            raise StopEnumeration from None

    return emit


def _cmd_enumerate(args: argparse.Namespace) -> int:
    h = _load(args.path)
    solutions: list[VertexSet] = []
    run = enumerate_tr if args.method == "tree" else enumerate_incremental
    # an append-mode open before the run fails on a path that cannot be
    # written, before any output, and truncates nothing; the file is
    # written after the run, so a run that fails leaves it as it was (a
    # file that open created is removed)
    created = bool(args.stats) and not os.path.exists(args.stats)
    if args.stats:
        open(args.stats, "a", encoding="utf-8").close()
    try:
        stats = run(h, _stream_sink(args, h, solutions), limit=args.limit).to_json()
    except BaseException:
        if created:
            os.remove(args.stats)
        raise
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    _respond(
        args,
        {"outputs": stats["outputs"], "solutions": [h.set_tokens(t) for t in solutions]},
        stats=stats,
    )
    return EXIT_OK


def _cmd_extend(args: argparse.Namespace) -> int:
    from .extension import extend

    h = _load(args.path)
    x = _vertex_set(h, args.x)
    y = _vertex_set(h, args.y)
    emitted: list[VertexSet] = []
    outcome = extend(h, x, y, emitted.append)
    lines = [_set_text(h, t) for t in emitted]
    if outcome.continues:
        lines.append(f"CONTINUE {_set_text(h, outcome.y_plus)}")
    else:
        lines.append("HALT")
    _respond(
        args,
        {
            "outcome": "continue" if outcome.continues else "halt",
            "y_plus": h.set_tokens(outcome.y_plus) if outcome.continues else None,
            "solutions": [h.set_tokens(t) for t in emitted],
        },
        lines=lines,
    )
    return EXIT_OK if outcome.continues else EXIT_NO


def _cmd_rank(args: argparse.Namespace) -> int:
    h = _load(args.path)
    if args.exact:
        kstar = transversal_rank(h, method=args.method or "tree")
        _respond(args, kstar, lines=[str(kstar)])
        return EXIT_OK
    if args.method == "tree":
        raise ValueError("--method tree computes the rank itself; use it with --exact")
    witness = rank_at_least(h, args.k, method=args.method or "lookahead")
    if witness is None:
        _respond(args, "no", lines=["no"])
        return EXIT_NO
    lines = ["yes", _set_text(h, witness.t)]
    certifying = witness.chosen_edges or witness.edge_family or ()
    for e in certifying:
        lines.append("edge " + _set_text(h, e))
    _respond(
        args,
        "yes",
        witness=h.set_tokens(witness.t),
        stats={"certifying_edges": [h.set_tokens(e) for e in certifying]},
        lines=lines,
    )
    return EXIT_OK


def _cmd_conformal(args: argparse.Namespace) -> int:
    h = _load(args.path)
    if args.degree:
        degree = conformal_degree(h)
        _respond(args, degree, lines=[str(degree)])
        return EXIT_OK
    verdict = is_k_conformal(h, args.k)
    if verdict.ok:
        _respond(args, "conformal", lines=["conformal"])
        return EXIT_OK
    _respond(
        args,
        "counterexample",
        witness=h.set_tokens(verdict.counterexample),
        lines=["counterexample " + _set_text(h, verdict.counterexample)],
    )
    return EXIT_NO


def _cmd_cliques(args: argparse.Namespace) -> int:
    h = _load(args.path)
    found: list[VertexSet] = []
    if args.independent:
        run = enumerate_maximal_independent_sets
    else:
        run = enumerate_maximal_hypercliques
    run(h, _stream_sink(args, h, found), limit=args.limit)
    _respond(args, [h.set_tokens(c) for c in found])
    return EXIT_OK


def _in_universe(g: Hypergraph, h: Hypergraph) -> Hypergraph:
    """G's edges read by vertex name in H's universe: each file numbers
    its vertices on its own, by its header or by first use."""
    try:
        bits = [1 << h.index_of(g.token(v)) for v in range(g.n)]
    except KeyError as exc:
        raise ValueError(f"G's vertex {exc.args[0]!r} is no vertex of H") from None
    masks = [sum(bits[v] for v in iter_bits(e)) for e in g.edge_masks()]
    return Hypergraph._from_masks(h.n, h.names, masks)


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load(args.g)
    h = _load(args.h)
    outcome = verify_tr(_in_universe(g, h), h)
    if isinstance(outcome, Equal):
        _respond(args, "equal", lines=["equal"])
        return EXIT_OK
    if isinstance(outcome, NotSubset):
        _respond(
            args,
            "not-subset",
            witness=h.set_tokens(outcome.g),
            lines=["not-subset " + _set_text(h, outcome.g)],
        )
        return EXIT_NO
    assert isinstance(outcome, MissingSolution)
    _respond(
        args,
        "missing-solution",
        witness=h.set_tokens(outcome.t),
        lines=[
            "missing-solution s=" + _set_text(h, outcome.s),
            "missing-solution t=" + _set_text(h, outcome.t),
        ],
    )
    return EXIT_NO


def _cmd_minimize(args: argparse.Namespace) -> int:
    h = _load(args.path)
    s = _vertex_set(h, args.set)
    t = minimize(h, s)
    _respond(args, h.set_tokens(t), witness=h.set_tokens(t), lines=[_set_text(h, t)])
    return EXIT_OK


def _cmd_section(args: argparse.Namespace) -> int:
    h = _load(args.path)
    text = serialize(k_section(h, args.k))
    _respond(args, {"hg": text}, lines=[text.rstrip("\n")])
    return EXIT_OK


def _cmd_complement(args: argparse.Namespace) -> int:
    h = _load(args.path)
    out = uniform_complement(h, args.uniform) if args.uniform is not None else edge_complement(h)
    text = serialize(out)
    _respond(args, {"hg": text}, lines=[text.rstrip("\n")])
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    h = _load(args.path)
    raw = os.environ.get("TRANSVERSAL_ORACLE_CAP")
    cap = int(raw) if raw else oracle_mod.DEFAULT_CAP
    if args.what == "tr":
        ts = oracle_mod.brute_tr(h, cap=cap)
        _respond(args, [h.set_tokens(t) for t in ts], lines=[_set_text(h, t) for t in ts])
    elif args.what == "rank":
        k = oracle_mod.brute_rank(h, cap=cap)
        _respond(args, k, lines=[str(k)])
    elif args.what == "conformal":
        d = oracle_mod.brute_conformal_degree(h, cap=cap)
        _respond(args, d, lines=[str(d)])
    else:
        cs = oracle_mod.brute_max_cliques(h, cap=cap)
        _respond(args, [h.set_tokens(c) for c in cs], lines=[_set_text(h, c) for c in cs])
    return EXIT_OK


# family -> (generator, the option holding its last parameter)
_FAMILIES = {
    "bounded-delta": (bounded_degree_instance, "delta"),
    "bounded-rank": (bounded_rank_instance, "rank"),
    "uniform": (uniform_instance, "arity"),
}


def _cmd_bench(args: argparse.Namespace) -> int:
    make, option = _FAMILIES[args.family]
    param = getattr(args, option)
    if param is None:
        raise ValueError(f"{args.family} needs --{option}")
    # the generator refuses its own bad parameters; at m = 0 it draws
    # nothing, so this refuses them before any output, --count 0 included
    make(random.Random(0), args.n, min(args.m, 0), param)
    if args.count < 0:
        raise ValueError("need --count >= 0")
    # opened first, so a path that cannot be written fails before any run
    opened = (
        open(args.out, "w", newline="", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    )
    with opened as out:
        writer = csv.DictWriter(out, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        for i in range(args.count):
            rng = random.Random(args.seed * 1_000_003 + i)
            h = make(rng, args.n, args.m, param)
            largest = 0

            def widest(t: VertexSet) -> None:
                nonlocal largest
                largest = max(largest, len(t))

            stats = enumerate_tr(h, widest)
            # only an empty edge leaves no minimal hitting set
            kstar = largest if stats.outputs else -1
            writer.writerow(
                {
                    "instance_id": f"{args.family}-{args.seed}-{i}",
                    "n": h.n,
                    "m": h.m,
                    "delta": h.max_degree,
                    "kstar": kstar,
                    "outputs": stats.outputs,
                    "max_delay_ns": stats.max_delay_ns,
                    "total_ns": stats.total_ns,
                }
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transversal", description="hypergraph transversal toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, json_output=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if json_output:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("enumerate", help="list all minimal hitting sets")
    p.add_argument("path", help=".hg file, or - for stdin")
    p.add_argument("--method", choices=["tree", "incremental"], default="tree")
    p.add_argument("--limit", type=int, default=None, help="stop after N solutions")
    p.add_argument("--stats", default=None, help="write delay statistics to this JSON file")

    p = add("extend", help="0/1-extensions of X avoiding Y, plus verdict")
    p.add_argument("path")
    p.add_argument("--x", default=None, help="partial solution, space-separated tokens")
    p.add_argument("--y", default=None, help="forbidden vertices, space-separated tokens")

    p = add("rank", help="decide transversal rank >= k, or compute it")
    p.add_argument("path")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--k", type=int)
    mode.add_argument("--exact", action="store_true")
    p.add_argument(
        "--method",
        choices=["tree", "lookahead", "bd"],
        default=None,
        help="tree (default for --exact; --exact only), or a decider (default lookahead)",
    )

    p = add("conformal", help="k-conformality or conformal degree")
    p.add_argument("path")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--k", type=int)
    mode.add_argument("--degree", action="store_true")

    p = add("cliques", help="maximal hypercliques or independent sets")
    p.add_argument("path")
    p.add_argument("--independent", action="store_true")
    p.add_argument("--limit", type=int, default=None)

    p = add("verify", help="does G consist exactly of H's minimal hitting sets?")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)

    p = add("minimize", help="shrink a hitting set to a minimal one")
    p.add_argument("path")
    p.add_argument("--set", required=True, help="hitting set, space-separated tokens")

    p = add("section", help="k-section")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)

    p = add("complement", help="edge complement, or r-uniform complement")
    p.add_argument("path")
    p.add_argument("--uniform", type=int, default=None, metavar="R")

    p = add("oracle", help="brute-force reference answers")
    p.add_argument("what", choices=["tr", "rank", "conformal", "cliques"])
    p.add_argument("path")

    p = add("bench", json_output=False, help="random families, delay statistics to CSV")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--arity", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def dispatch(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()["_cmd_" + args.command](args)
    except BrokenPipeError:
        # the reader has gone (``| head``)
        return EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    code = dispatch()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # a closed pipe: let the interpreter's final flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
