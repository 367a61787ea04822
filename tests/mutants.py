"""Recorded mutants: known-wrong edits of the source that named tests must
catch.

Each row of ``MUTANTS`` is (name, file under ``src/``, exact old text, new
text, test ids expected to fail).  For each row the script copies ``src/``
to a temporary directory, replaces the old text, which must occur exactly
once, runs the named tests against the copy with ``-x -q`` under a
timeout, and expects a test failure.  A mutant whose tests pass survives;
a row whose old text is not found exactly once, or whose tests cannot be
run, is an error.  Either makes the script exit 1.

Run from anywhere, with pytest installed:

    python3 tests/mutants.py

The file name keeps pytest from collecting it; it uses the stdlib only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
# pytest's exit status when some collected test failed
TESTS_FAILED = 1

EXTENSION = "transversal/extension.py"
RANK = "transversal/rank.py"
CLI = "transversal/cli.py"
HITTING = "transversal/hitting.py"
GENERATORS = "transversal/generators.py"
BD40_PINS = "tests/test_enumeration.py::test_bd40_tree_work_counts"
SHORTCUTS = "tests/test_extension.py::test_product_shortcuts_match_the_odometer"
TREE_NODES = "tests/test_extension.py::test_extend_decides_as_the_product_search_on_tree_nodes"
CARRIED_STATE = "tests/test_enumeration.py::test_carried_state_matches_fresh_classification"
COLEX_SCAN = "tests/test_rank.py::TestLookahead::test_matches_full_colex_scan"
PROPERTIES = "tests/test_properties.py::test_property_holds_on_random_hypergraphs"
RANK_SKIPS = "tests/test_rank.py::TestLookahead::test_exact_rank_skips_redundant_seeds"
BR30_LOOKAHEAD = "tests/test_rank.py::TestLookahead::test_br30_work_counts"
ENUMERATION = "transversal/enumeration.py"
VERIFY = "transversal/verify.py"
SETTLED = "tests/test_enumeration.py::test_settled_nodes_answer_as_extend_would"

MUTANTS = [
    (
        # a member's candidates keep the edges that the new vertex hits
        "include-keeps-crit",
        EXTENSION,
        "    child = [c & nev for c in crit]\n",
        "    child = list(crit)\n",
        [CARRIED_STATE],
    ),
    (
        # v's own candidates stay out of the union, so a later vertex that
        # meets them takes the path that changes no member's candidates
        "include-drops-own-from-cand",
        EXTENSION,
        "        return uncov ^ own, crit + [own], veto, cand | own\n",
        "        return uncov ^ own, crit + [own], veto, cand\n",
        [CARRIED_STATE, BD40_PINS],
    ),
    (
        # unsound: member 0's first candidate is not in every combination
        "certificate-over-first-candidate",
        EXTENSION,
        "        free = ~(forced | veto)\n",
        "        free = ~(forced | veto | edges[(crit[0] & -crit[0]).bit_length() - 1])\n",
        [SHORTCUTS, TREE_NODES, BD40_PINS],
    ),
    (
        # drops a candidate whose trace lies inside an earlier kept one's
        "sift-rule-b-reversed",
        EXTENSION,
        "            if not t & ~p:\n",
        "            if not p & ~t:\n",
        [SHORTCUTS, BD40_PINS],
    ),
    (
        # after a deeper member runs out, the member above it moves off its
        # highest candidate instead of its current lowest one, so the walk
        # skips combinations and may miss the first witness
        "odometer-backtracks-highest-bit",
        EXTENSION,
        "            rest[i] &= rest[i] - 1\n",
        "            rest[i] ^= 1 << (rest[i].bit_length() - 1)\n",
        [SHORTCUTS, BD40_PINS],
    ),
    (
        # unsound: the memo keys on the trace on forced, which every
        # prefix shares, so once a depth runs out every later prefix that
        # reaches it is cut, and a combination that completes is missed
        "memo-trace-on-forced",
        EXTENSION,
        "                span &= ~forced\n",
        "                span &= forced\n",
        [SHORTCUTS],
    ),
    (
        # unsound: include children may settle too, though they can emit
        # (X + v itself, or its 1-extensions)
        "settle-include-children",
        ENUMERATION,
        "include_vertex(state, ev, edges), False))",
        "include_vertex(state, ev, edges), True))",
        [SETTLED],
    ),
    (
        # sound but weaker: rule (c) settles only the exclude children
        # whose X is empty, so bd40's call count rises
        "settle-only-at-empty-x",
        ENUMERATION,
        "            if excluded and _settles(ym, state, edges):\n",
        "            if excluded and not xm and _settles(ym, state, edges):\n",
        [BD40_PINS],
    ),
    (
        # the test without X's first combination: it settles nodes whose
        # call would halt, so the walk visits subtrees holding no solution
        "settle-without-first-combination",
        ENUMERATION,
        "        blocked |= edges[(c & -c).bit_length() - 1]\n",
        "        pass\n",
        [SETTLED],
    ),
    (
        # the verification passes on only its walk's product iterations,
        # so the incremental route's calls and gaps count none of its walks
        "verify-folds-only-product-work",
        VERIFY,
        "        counters.update(run.work, verify_g_outputs=run.outputs)\n",
        "        counters.update(\n"
        "            product_iterations=run.product_iterations, verify_g_outputs=run.outputs\n"
        "        )\n",
        ["tests/test_cli.py::test_incremental_stats_report_the_search_work"],
    ),
    (
        # the incremental route sums its verifications' work in the walk's
        # plain dict, where ``update`` replaces instead of adding
        "incremental-work-plain-dict",
        ENUMERATION,
        "    stats = DelayStats(work=Counter())\n",
        "    stats = DelayStats()\n",
        ["tests/test_cli.py::test_incremental_stats_report_the_search_work"],
    ),
    (
        # the exact rank's tree walk keeps its work to itself, so the
        # caller's counters read no node of it
        "rank-tree-work-not-folded",
        RANK,
        "    counters.update(walk.work)\n",
        "",
        ["tests/test_rank.py::TestTreeRank::test_work_counts"],
    ),
    (
        # sound but weaker: fires only on an unhit edge inside the veto;
        # bd40's counts do not move, bd5's do
        "certificate-over-veto-alone",
        EXTENSION,
        "        free = ~(forced | veto)\n",
        "        free = ~veto\n",
        [SHORTCUTS, TREE_NODES],
    ),
    (
        # the look-ahead's query reads a veto that no member's core holds
        "find-higher-order-reads-a-veto",
        EXTENSION,
        "unhit, forced, 0, counters)",
        "unhit, forced, 1, counters)",
        ["tests/test_extension.py::test_pruned_search_matches_full_product"],
    ),
    (
        # unsound: an uncovered edge must meet a vertex above the top
        # member, though members still to come below v could hit it
        "seed-interval-drops-below",
        RANK,
        "            if j < last:\n                reach |= below[v]\n",
        "",
        [COLEX_SCAN, PROPERTIES + "[rank_deciders]"],
    ),
    (
        # sound but weaker: the seed walk without its interval cut
        "seed-interval-cut-removed",
        RANK,
        "            if child_uncov & ~reach:\n",
        "            if False:\n",
        [RANK_SKIPS, BR30_LOOKAHEAD],
    ),
    (
        # sound but weaker: a prefix with a member that lost its last
        # private edge still grows, so the answers hold and prefixes grow
        "seed-walk-keeps-dead-member",
        RANK,
        "            if 0 in child:\n",
        "            if False:\n",
        [RANK_SKIPS, BR30_LOOKAHEAD],
    ),
    (
        # unsound: the count cut asks one uncovered edge too many, a dead
        # cut at k + 1 - |P|
        "seed-count-cut-off-by-one",
        RANK,
        "< k - j - 1:",
        "< k - j:",
        [COLEX_SCAN, PROPERTIES + "[rank_deciders]"],
    ),
    (
        # each dispatch builds its own parser instead of the cached one
        "parser-built-per-call",
        CLI,
        "        args = _parser().parse_args(argv)\n",
        "        args = build_parser().parse_args(argv)\n",
        ["tests/test_cli.py::test_one_parser_per_process"],
    ),
    (
        # unsound: only the lowest lane's private edges count, so a set
        # whose other vertices have private edges is called not minimal
        "minimality-lanes-not-folded",
        HITTING,
        "        for shift in folds:\n            singles |= singles >> shift\n",
        "",
        [
            "tests/test_hitting.py::test_predicates_match_their_definitions_on_every_subset",
            "tests/test_verify.py::test_subset_check_names_the_first_failing_edge",
        ],
    ),
    (
        # an exhausted edge space no longer ends the draw loop, so the rng
        # keeps drawing duplicates after the last new edge
        "draw-ignores-exhausted-space",
        GENERATORS,
        "    goal = min(m, space)\n",
        "    goal = m\n",
        ["tests/test_generators.py::test_no_draw_follows_the_last_new_edge"],
    ),
]


def run(file: str, old: str, new: str, tests: list[str]) -> str:
    """``killed``, ``survived`` or an ``error: ...`` line for one row."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / file
        text = path.read_text(encoding="utf-8")
        found = text.count(old)
        if found != 1:
            return f"error: old text found {found} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return f"error: tests ran over {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived"
    if done.returncode == TESTS_FAILED:
        return "killed"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {done.returncode}: {' '.join(tail)}"


def main() -> int:
    bad = 0
    for row in MUTANTS:
        verdict = run(*row[1:])
        print(f"{row[0]}: {verdict}", flush=True)
        bad += verdict != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
