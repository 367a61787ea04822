"""The three workloads: seeded instances, the operations run on them, and
the check each operation's answer must pass.

Every operation receives only the ``.hg`` text of its instance and parses
it with ``core.parse`` inside its own timing.  Library calls go through
module attributes (``lib.enumeration.enumerate_tr``) at call time, so
the traced run sees them through its wrappers.  Expected answers come
from ``transversal.oracle`` or from ``reference``, never from the route
being timed, and are computed once per instance before any timing.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

from reference import digest, is_minimal_transversal, minimal_transversals

# The ROADMAP sentinels.  ``seed`` is the fixed seed of the recipe in
# SPECS; the rest is what the recipe must realize: n, m, maximum degree,
# edge rank, and the sha256 prefix of the serialized ``.hg`` text.  ``tr``
# pins the number of minimal transversals and their ``digest``;
# ``conformal`` is conf16's degree by ``brute_conformal_degree`` (3 s).
SENTINELS = {
    "bd40": dict(seed=1, n=40, m=17, delta=4, rank=19, sha256="5e1b352cc8f6e949",
                 tr=(4059, "f91478b4699ff870")),
    "br30": dict(seed=2, n=30, m=60, delta=9, rank=3, sha256="d34217535909ccb0",
                 tr=(8, "60f5890df8315258")),
    "conf16": dict(seed=3, n=16, m=9, delta=6, rank=14, sha256="1885441a4af4d2f1",
                   conformal=5),
}


# Outputs read from each seeded stream of ``sparse-many``: a prefix keeps
# one op short enough that a run covers over a hundred instances.
SPARSE_LIMIT = 250
# The br30 tree streams only its first output: the whole run is 5-8 s of
# product search, too long to repeat in every round.
BR30_LIMIT = 1
# How many instances of a class also go through the CLI.
CLI_PER_CLASS = {"sparse-many": 40, "dense-few": 30, "decide": 15}
# Library ops per (kind, class) group in the untimed tracemalloc pass,
# which slows them about tenfold: enough for a steady median where ops
# are cheap, one where they are not.
MEM_PER_GROUP = {"sparse-many": 10, "dense-few": 3, "decide": 1}


@dataclass
class Instance:
    cls: str
    label: str
    h: object  # the generated Hypergraph; only checks and provenance read it
    text: str

    @property
    def sentinel(self) -> bool:
        return self.cls in SENTINELS


class Recorder:
    """The benchmark's own sink: keeps every output mask and stamps it."""

    __slots__ = ("outputs", "stamps")

    def __init__(self) -> None:
        self.outputs: list[int] = []
        self.stamps: list[int] = []

    def sink(self, vs) -> None:
        self.outputs.append(vs.mask)
        self.stamps.append(time.perf_counter_ns())


@dataclass
class Op:
    """One timed call.

    ``stream`` ops deliver outputs through the recorder's sink; the others
    return one answer, stamped when the call returns.  ``cli`` ops stamp
    each completed stdout line instead.  ``check(rec, answer)`` returns
    None when the answer is right, else the reason it is wrong.
    """

    kind: str
    inst: Instance
    run: Callable[[Recorder], object]
    check: Callable[[Recorder, object], str | None]
    stream: bool = False
    cli: bool = False
    expected: object = None

    @property
    def group(self) -> str:
        return f"{self.kind}/{self.inst.cls}"


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Op] = field(default_factory=list)  # capped once, outside the op list


# ---------------------------------------------------------------- instances


def make_instances(lib: SimpleNamespace, workload: str, seed: int, smoke: bool = False) -> dict[str, list[Instance]]:
    """Generate and serialize every instance of the workload's SPECS.

    Instance i of a seeded class is the class generator's output for the
    fixed seed ``"<class>:<i>"``, with its vertices renamed by a random
    permutation and its edges shuffled, both drawn from the workload
    seed.  Fresh random instances of these classes differ in cost by up
    to 250x (bd on deg40: 6 ms to 1.5 s), far more than any bound a run
    could hold.  A renaming keeps the structure, and with it most of the
    cost, but still changes the vertex order every search branches on,
    the output order and the ``.hg`` text.  Sentinels are the ROADMAP
    recipes as they stand.  ``smoke`` keeps one instance per seeded
    class and no sentinel.  This is the work ``setup_s`` times, together
    with importing the library.
    """
    out: dict[str, list[Instance]] = {}
    for cls, maker, args, transform, count in SPECS[workload]:

        def build(rng: random.Random):
            h = getattr(lib.generators, maker)(rng, *args)
            return h if transform is None else getattr(lib.core, transform)(h)

        if cls in SENTINELS:
            if not smoke:
                h = build(random.Random(SENTINELS[cls]["seed"]))
                out[cls] = [Instance(cls, f"sentinel {cls}", h, lib.core.serialize(h))]
            continue
        made = []
        for i in range(1 if smoke else count):
            h = rename(lib, build(random.Random(f"{cls}:{i}")), random.Random(f"{workload}:{cls}:{seed}:{i}"))
            made.append(Instance(cls, f"{cls}#{i}", h, lib.core.serialize(h)))
        out[cls] = made
    return out


def rename(lib: SimpleNamespace, h, rng: random.Random):
    """``h`` with its vertices permuted and its edges in random order."""
    perm = list(range(h.n))
    rng.shuffle(perm)
    edges = [[perm[v] for v in e] for e in h.edges]
    rng.shuffle(edges)
    return lib.core.Hypergraph(h.n, edges)


def check_sentinel(inst: Instance) -> str | None:
    """The sentinel must be the instance its ROADMAP recipe names."""
    want = SENTINELS[inst.cls]
    h = inst.h
    got = dict(n=h.n, m=h.m, delta=h.max_degree, rank=h.rank,
               sha256=hashlib.sha256(inst.text.encode()).hexdigest()[:16])
    for key, value in got.items():
        if want[key] != value:
            return f"{inst.label}: {key} is {value}, the recipe gives {want[key]}"
    return None


# ---------------------------------------------------------------- checks


def _check_family(outputs: list[int], count: int, fp: str | None, edges: tuple[int, ...]) -> str | None:
    if len(set(outputs)) != len(outputs):
        return "duplicate outputs"
    if len(outputs) != count:
        return f"{len(outputs)} outputs, expected {count}"
    if fp is not None and digest(outputs) != fp:
        return "outputs differ from the reference family"
    for t in outputs:
        if not is_minimal_transversal(edges, t):
            return f"output {t:#x} is not a minimal transversal"
    return None


def _tr_reference(inst: Instance, limit: int | None) -> tuple[int, str | None]:
    """Count (and, for a full run, digest) of the minimal transversals."""
    if limit is None and "tr" in SENTINELS.get(inst.cls, {}):
        return SENTINELS[inst.cls]["tr"]
    found = minimal_transversals(inst.h.edge_masks(), limit)
    return len(found), (None if limit else digest(found))


def _lines_to_masks(text: str) -> list[int]:
    masks = []
    for line in text.splitlines():
        mask = 0
        if line != "{}":
            for tok in line.split():
                mask |= 1 << int(tok)
        masks.append(mask)
    return masks


# ---------------------------------------------------------------- ops


def _cli_run(lib: SimpleNamespace, argv: list[str], text: str) -> Callable[[Recorder], object]:
    def run(rec: Recorder):
        out = _LineStamper(rec.stamps)
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(text), out
        try:
            code = lib.cli.dispatch(argv)
        finally:
            sys.stdin, sys.stdout = saved
        return code, "".join(out.parts)

    return run


class _LineStamper(io.TextIOBase):
    """A stdout that stamps the moment each line is complete."""

    def __init__(self, stamps: list[int]) -> None:
        self.parts: list[str] = []
        self.stamps = stamps

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.parts.append(s)
        lines = s.count("\n")
        if lines:
            now = time.perf_counter_ns()
            self.stamps.extend([now] * lines)
        return len(s)


def tree_op(lib, inst: Instance, limit: int | None) -> Op:
    count, fp = _tr_reference(inst, limit)
    edges = inst.h.edge_masks()
    return Op(
        "tree", inst,
        lambda rec: lib.enumeration.enumerate_tr(lib.core.parse(inst.text), rec.sink, limit=limit),
        lambda rec, _ans: _check_family(rec.outputs, count, fp, edges),
        stream=True,
    )


def incremental_op(lib, inst: Instance) -> Op:
    count, fp = _tr_reference(inst, None)
    edges = inst.h.edge_masks()
    return Op(
        "incremental", inst,
        lambda rec: lib.enumeration.enumerate_incremental(lib.core.parse(inst.text), rec.sink),
        lambda rec, _ans: _check_family(rec.outputs, count, fp, edges),
        stream=True,
    )


def cli_enumerate_op(lib, inst: Instance, limit: int | None) -> Op:
    count, fp = _tr_reference(inst, limit)
    edges = inst.h.edge_masks()
    argv = ["enumerate", "-"] + (["--limit", str(limit)] if limit else [])

    def check(_rec, answer):
        code, text = answer
        if code != 0:
            return f"exit code {code}"
        return _check_family(_lines_to_masks(text), count, fp, edges)

    return Op("cli-enumerate", inst, _cli_run(lib, argv, inst.text), check, cli=True)


def cliques_op(lib, inst: Instance, independent: bool) -> Op:
    n = inst.h.n
    if independent:
        full = (1 << n) - 1
        expected = {full & ~t.mask for t in lib.oracle.brute_tr(inst.h)}
        call = lambda rec: lib.cliques.enumerate_maximal_independent_sets(lib.core.parse(inst.text), rec.sink)
    else:
        expected = {c.mask for c in lib.oracle.brute_max_cliques(inst.h)}
        call = lambda rec: lib.cliques.enumerate_maximal_hypercliques(lib.core.parse(inst.text), rec.sink)

    def check(rec, _ans):
        if len(set(rec.outputs)) != len(rec.outputs):
            return "duplicate outputs"
        if set(rec.outputs) != expected:
            return "outputs differ from the brute-force oracle"
        return None

    return Op("mis" if independent else "hypercliques", inst, call, check, stream=True)


def cli_cliques_op(lib, inst: Instance) -> Op:
    expected = {c.mask for c in lib.oracle.brute_max_cliques(inst.h)}

    def check(_rec, answer):
        code, text = answer
        if code != 0:
            return f"exit code {code}"
        masks = _lines_to_masks(text)
        if len(set(masks)) != len(masks) or set(masks) != expected:
            return "CLI cliques differ from the brute-force oracle"
        return None

    return Op("cli-cliques", inst, _cli_run(lib, ["cliques", "-"], inst.text), check, cli=True)


def _max_tr_size(lib, inst: Instance) -> int:
    if inst.h.n <= 16:
        return lib.oracle.brute_rank(inst.h)
    return max((t.bit_count() for t in minimal_transversals(inst.h.edge_masks())), default=0)


def rank_op(lib, inst: Instance, method: str) -> Op:
    expected = _max_tr_size(lib, inst)
    return Op(
        f"rank-{method}", inst,
        lambda rec: lib.rank.transversal_rank(lib.core.parse(inst.text), method=method),
        lambda _rec, ans: None if ans == expected else f"rank {ans}, expected {expected}",
        expected=expected,
    )


def conformal_op(lib, inst: Instance, expected: int | None = None) -> Op:
    if expected is None:
        expected = lib.oracle.brute_conformal_degree(inst.h)
    return Op(
        "conformal", inst,
        lambda rec: lib.conformal.conformal_degree(lib.core.parse(inst.text)),
        lambda _rec, ans: None if ans == expected else f"degree {ans}, expected {expected}",
        expected=expected,
    )


def cli_answer_op(lib, inst: Instance, kind: str, argv: list[str], expected: int) -> Op:
    def check(_rec, answer):
        code, text = answer
        if code != 0:
            return f"exit code {code}"
        return None if text.strip() == str(expected) else f"printed {text.strip()!r}, expected {expected}"

    return Op(kind, inst, _cli_run(lib, argv, inst.text), check, cli=True)


def verify_ops(lib, inst: Instance) -> list[Op]:
    """``Equal`` on G = the full transversal hypergraph, and
    ``MissingSolution`` on G minus its last solution."""
    h = inst.h
    tr = [t.mask for t in lib.oracle.brute_tr(h)]
    g_full = lib.core.serialize(lib.core.Hypergraph(h.n, [_members(t) for t in tr]))
    dropped = tr[-1]
    g_less = lib.core.serialize(lib.core.Hypergraph(h.n, [_members(t) for t in tr[:-1]]))
    h_edges = set(h.edge_masks())
    less = tuple(tr[:-1])

    def equal_check(_rec, ans):
        return None if type(ans).__name__ == "Equal" else f"expected Equal, got {ans!r}"

    def missing_check(_rec, ans):
        if type(ans).__name__ != "MissingSolution":
            return f"expected MissingSolution, got {ans!r}"
        if not is_minimal_transversal(less, ans.s.mask) or ans.s.mask in h_edges:
            return "s is not a minimal transversal of G outside H"
        if ans.t.mask != dropped:
            return "t is not the solution missing from G"
        return None

    def call(g_text):
        return lambda rec: lib.verify.verify_tr(lib.core.parse(g_text), lib.core.parse(inst.text))

    return [
        Op("verify-equal", inst, call(g_full), equal_check),
        Op("verify-missing", inst, call(g_less), missing_check),
    ]


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


# ---------------------------------------------------------------- workloads


# (class, generator, arguments, transform, instances per round).
SPECS = {
    # Long streams on few realized edges: the per-node family rebuild,
    # the branching loop and the CLI's buffering dominate.
    "sparse-many": [
        ("bd40", "bounded_degree_instance", (40, 80, 4), None, 1),
        ("deg40", "bounded_degree_instance", (40, 80, 4), None, 60),
        ("deg50", "bounded_degree_instance", (50, 100, 3), None, 60),
    ],
    # Few outputs, high degree: the higher-order product search dominates.
    "dense-few": [
        ("br30", "bounded_rank_instance", (30, 60, 3), None, 1),
        ("rank20", "bounded_rank_instance", (20, 40, 3), None, 60),
        ("uni9x40", "uniform_instance", (9, 40, 3), None, 60),
        ("uni9x60", "uniform_instance", (9, 60, 3), None, 40),
    ],
    # One answer per question, no stream.
    "decide": [
        ("uni16", "uniform_instance", (16, 40, 3), None, 8),
        ("deg40", "bounded_degree_instance", (40, 80, 4), None, 10),
        ("rank20", "bounded_rank_instance", (20, 40, 3), None, 20),
        ("coc12", "bounded_degree_instance", (12, 20, 3), "edge_complement", 15),
        ("uni9x24x4", "uniform_instance", (9, 24, 4), None, 8),
        ("uni14", "uniform_instance", (14, 40, 3), None, 20),
        ("conf16", "bounded_degree_instance", (16, 30, 3), "edge_complement", 1),
    ],
}


def make_ops(lib: SimpleNamespace, name: str, inst: dict[str, list[Instance]]) -> Workload:
    """The op list of one round, with every expected answer computed."""
    get = lambda cls: inst.get(cls, [])
    cli_count = CLI_PER_CLASS[name]
    ops: list[Op] = []
    probes: list[Op] = []
    if name == "sparse-many":
        for i in get("bd40"):
            ops += [tree_op(lib, i, None), cli_enumerate_op(lib, i, None)]
        for cls in ("deg40", "deg50"):
            for j, i in enumerate(get(cls)):
                ops.append(tree_op(lib, i, SPARSE_LIMIT))
                if j < cli_count:
                    ops.append(cli_enumerate_op(lib, i, SPARSE_LIMIT))
    elif name == "dense-few":
        for i in get("br30"):
            ops += [tree_op(lib, i, BR30_LIMIT), incremental_op(lib, i)]
        for i in get("rank20"):
            ops += [tree_op(lib, i, None), incremental_op(lib, i)]
        for j, i in enumerate(get("uni9x40")):
            ops.append(cliques_op(lib, i, independent=False))
            if j < cli_count:
                ops.append(cli_cliques_op(lib, i))
        ops += [cliques_op(lib, i, independent=True) for i in get("uni9x60")]
    elif name == "decide":
        ops += [rank_op(lib, i, "lookahead") for i in get("uni16")]
        ops += [rank_op(lib, i, "bd") for i in get("deg40") + get("rank20")]
        for j, i in enumerate(get("coc12")):
            op = conformal_op(lib, i)
            ops.append(op)
            if j < cli_count:
                ops.append(cli_answer_op(lib, i, "cli-conformal", ["conformal", "--degree", "-"], op.expected))
        ops += [conformal_op(lib, i) for i in get("uni9x24x4")]
        for i in get("uni14"):
            ops += verify_ops(lib, i)
        probes += [conformal_op(lib, i, SENTINELS["conf16"]["conformal"]) for i in get("conf16")]
    else:
        raise KeyError(name)
    return Workload(ops, probes)
