from __future__ import annotations

import csv
import json
import random
import subprocess
import sys

import pytest

from transversal import cli, parse, rank, serialize
from transversal.cli import BENCH_COLUMNS, EXIT_INTERNAL, dispatch
from transversal.hitting import is_minimal_hitting_set
from transversal.core import VertexSet
from transversal.generators import uniform_instance


@pytest.fixture
def matchings(tmp_path):
    path = tmp_path / "three-matchings.hg"
    path.write_text("1 2\n3 4\n5 6\n")
    return str(path)


@pytest.fixture
def pairs(tmp_path):
    path = tmp_path / "pairs.hg"
    path.write_text("1 2\n3 4\n")
    return str(path)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_plain(capsys, pairs):
    code, out, _ = run(capsys, "enumerate", pairs)
    assert code == 0
    assert out.splitlines() == ["1 3", "1 4", "2 3", "2 4"]


def test_enumerate_limit(capsys, pairs):
    code, out, _ = run(capsys, "enumerate", "--limit", "2", pairs)
    assert code == 0
    assert len(out.splitlines()) == 2


def test_enumerate_incremental_and_stats(capsys, tmp_path, pairs):
    stats_path = tmp_path / "stats.json"
    code, out, _ = run(
        capsys, "enumerate", "--method", "incremental", "--stats", str(stats_path), pairs
    )
    assert code == 0
    assert len(out.splitlines()) == 4
    payload = json.loads(stats_path.read_text())
    assert payload["outputs"] == 4
    assert "max_delay_ns" in payload and "extend_call_histogram" in payload


def test_incremental_stats_report_the_search_work(capsys, tmp_path):
    # the tree searches inside each stage's verification count; the
    # histogram stays empty, as those searches run on the found solutions
    path = tmp_path / "uni12.hg"
    path.write_text(serialize(uniform_instance(random.Random(0), 12, 30, 3)))
    stats_path = tmp_path / "stats.json"
    code, out, _ = run(
        capsys, "enumerate", "--method", "incremental", "--stats", str(stats_path), str(path)
    )
    assert code == 0
    payload = json.loads(stats_path.read_text())
    assert payload["outputs"] == len(out.splitlines()) == 64
    assert payload["product_iterations"] > 0
    assert payload["extend_call_histogram"] == {}


def test_enumerate_json_schema(capsys, pairs):
    code, out, _ = run(capsys, "enumerate", "--json", pairs)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "enumerate"
    assert payload["answer"]["outputs"] == 4
    assert payload["stats"]["outputs"] == 4


@pytest.mark.parametrize(
    "command, enumerator, lines",
    [
        ("enumerate", "enumerate_tr", ["1 3", "1 4", "2 3", "2 4"]),
        ("cliques", "enumerate_maximal_hypercliques", ["1 2", "3 4"]),
    ],
)
def test_plain_mode_prints_each_set_as_it_arrives(
    capsys, monkeypatch, pairs, command, enumerator, lines
):
    real = getattr(cli, enumerator)
    printed: list[str] = []

    def watched_run(h, sink=None, **kw):
        def watched(s):
            sink(s)
            printed.append(capsys.readouterr().out)

        return real(h, watched, **kw)

    monkeypatch.setattr(cli, enumerator, watched_run)
    assert dispatch([command, pairs]) == 0
    assert printed == [line + "\n" for line in lines]
    # --json still collects: nothing is printed before its one line
    printed.clear()
    assert dispatch([command, "--json", pairs]) == 0
    assert printed == [""] * len(lines)
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_rank_yes_with_valid_witness(capsys, matchings):
    code, out, _ = run(capsys, "rank", "--k", "3", matchings)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    h = parse("1 2\n3 4\n5 6\n")
    witness = VertexSet.from_iterable(h.n, (h.index_of(t) for t in lines[1].split()))
    assert len(witness) >= 3
    assert is_minimal_hitting_set(h, witness)


def test_rank_no(capsys, pairs):
    code, out, _ = run(capsys, "rank", "--k", "3", pairs)
    assert code == 1
    assert out.splitlines()[0] == "no"


def test_rank_exact_and_methods(capsys, matchings):
    for method in ("lookahead", "bd", "oracle"):
        code, out, _ = run(capsys, "rank", "--exact", "--method", method, matchings)
        assert code == 0
        assert out.strip() == "3"


def test_rank_exact_defaults_to_tree(capsys, monkeypatch, matchings):
    def forbidden(*args, **kwargs):
        raise AssertionError("rank --exact asked a decider")

    for name in ("rank_at_least_lookahead", "rank_at_least_bd"):
        monkeypatch.setattr(rank, name, forbidden)
    for argv in (["--exact"], ["--exact", "--method", "tree"]):
        code, out, _ = run(capsys, "rank", *argv, matchings)
        assert code == 0
        assert out.strip() == "3"


def test_rank_tree_needs_exact(capsys, matchings):
    code, out, err = run(capsys, "rank", "--k", "2", "--method", "tree", matchings)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--exact" in err


def test_rank_empty_edge_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.hg"
    path.write_text("{}\n")
    code, _, err = run(capsys, "rank", "--k", "1", str(path))
    assert code == 2
    assert "error" in err


def test_verify_exit_codes(capsys, tmp_path, pairs):
    good = tmp_path / "g.hg"
    good.write_text("!vertices 1 2 3 4\n1 3\n1 4\n2 3\n2 4\n")
    code, out, _ = run(capsys, "verify", "--g", str(good), "--h", pairs)
    assert code == 0 and out.strip() == "equal"
    bad = tmp_path / "bad.hg"
    bad.write_text("!vertices 1 2 3 4\n1 3\n1 4\n2 3\n")
    code, out, _ = run(capsys, "verify", "--g", str(bad), "--h", pairs)
    assert code == 1
    assert out.splitlines()[0].startswith("missing-solution")
    code, _, _ = run(capsys, "verify", "--g", str(tmp_path / "nope.hg"), "--h", pairs)
    assert code == 2


def test_verify_reads_g_by_name(capsys, tmp_path, pairs):
    # enumerate's output numbers its vertices by first use, not as H does
    code, out, _ = run(capsys, "enumerate", pairs)
    g = tmp_path / "g.hg"
    g.write_text(out)
    code, out, _ = run(capsys, "verify", "--g", str(g), "--h", pairs)
    assert (code, out) == (0, "equal\n")
    g.write_text("!vertices 4 3 2 1\n2 4\n3 1\n4 1\n3 2\n")
    code, out, _ = run(capsys, "verify", "--g", str(g), "--h", pairs)
    assert (code, out) == (0, "equal\n")


def test_verify_g_over_fewer_vertices(capsys, tmp_path, pairs):
    h = tmp_path / "h.hg"
    h.write_text("1 2\n1 3\n")  # Tr(H) = {1}, {2 3}
    g = tmp_path / "g.hg"
    g.write_text("1\n")
    code, out, _ = run(capsys, "verify", "--g", str(g), "--h", str(h))
    assert code == 1
    assert out.splitlines() == ["missing-solution s=1", "missing-solution t=2 3"]
    g.write_text("4 3\n")
    code, out, _ = run(capsys, "verify", "--g", str(g), "--h", pairs)
    assert (code, out) == (1, "not-subset 3 4\n")


def test_verify_unknown_vertex(capsys, tmp_path, pairs):
    g = tmp_path / "g.hg"
    g.write_text("1 3\n1 5\n")
    code, out, err = run(capsys, "verify", "--g", str(g), "--h", pairs)
    assert (code, out) == (2, "")
    assert "'5'" in err


def test_extend_prints_solutions_and_verdict(capsys, matchings):
    code, out, _ = run(capsys, "extend", "--x", "1", matchings)
    assert code == 0  # higher-order extensions remain
    assert out.splitlines()[-1] == "CONTINUE 2"
    code, out, _ = run(capsys, "extend", "--x", "1 3", matchings)
    lines = out.splitlines()
    assert code == 1
    assert lines == ["1 3 5", "1 3 6", "HALT"]


def test_conformal(capsys, tmp_path):
    tri = tmp_path / "tri.hg"
    tri.write_text("1 2\n2 3\n1 3\n")
    code, out, _ = run(capsys, "conformal", "--k", "2", str(tri))
    assert code == 1
    assert out.startswith("counterexample")
    code, out, _ = run(capsys, "conformal", "--degree", str(tri))
    assert code == 0 and out.strip() == "3"


def test_cliques(capsys, tmp_path):
    path = tmp_path / "path.hg"
    path.write_text("1 2\n2 3\n")
    code, out, _ = run(capsys, "cliques", str(path))
    assert code == 0
    assert sorted(out.splitlines()) == ["1 2", "2 3"]
    code, out, _ = run(capsys, "cliques", "--independent", str(path))
    assert code == 0
    assert sorted(out.splitlines()) == ["1 3", "2"]


def test_minimize(capsys, tmp_path):
    tri = tmp_path / "tri.hg"
    tri.write_text("1 2\n2 3\n1 3\n")
    code, out, _ = run(capsys, "minimize", "--set", "1 2 3", str(tri))
    assert code == 0 and out.strip() == "2 3"
    code, _, _ = run(capsys, "minimize", "--set", "1", str(tri))
    assert code == 2  # not a hitting set


def test_section_and_complement_roundtrip(capsys, tmp_path):
    f = tmp_path / "h.hg"
    f.write_text("1 2 3\n3 4\n")
    code, out, _ = run(capsys, "section", "--k", "2", str(f))
    assert code == 0
    sec = parse(out)
    assert sec.m == 4 and all(len(e) == 2 for e in sec.edges)
    code, out, _ = run(capsys, "complement", str(f))
    assert code == 0
    assert parse(out).m == 2


def test_uniform_complement_cli(capsys, tmp_path):
    f = tmp_path / "g.hg"
    f.write_text("1 2\n2 3\n")
    code, out, _ = run(capsys, "complement", "--uniform", "2", str(f))
    assert code == 0
    assert parse(out).m == 1


def test_oversize_uniform_complement_is_refused(capsys, tmp_path):
    # 30 six-sets on 50 vertices: both commands would build the
    # 15,890,670 non-edges; they refuse with exit 2 before building any
    f = tmp_path / "uni50.hg"
    f.write_text(serialize(uniform_instance(random.Random(0), 50, 30, 6)))
    for argv in (["cliques", str(f)], ["complement", "--uniform", "6", str(f)]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "15,890,670" in err, err


def test_oversize_section_is_refused(capsys, tmp_path):
    # one 40-vertex edge: its 10-section would generate C(40, 10) subsets
    f = tmp_path / "edge40.hg"
    f.write_text(" ".join(f"v{i}" for i in range(40)) + "\n")
    code, out, err = run(capsys, "section", "--k", "10", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "847,660,528" in err, err


def test_oracle_subcommands(capsys, matchings):
    code, out, _ = run(capsys, "oracle", "tr", matchings)
    assert code == 0 and len(out.splitlines()) == 8
    code, out, _ = run(capsys, "oracle", "rank", matchings)
    assert out.strip() == "3"


def test_oracle_cap_env(capsys, tmp_path, monkeypatch):
    big = tmp_path / "big.hg"
    big.write_text("!vertices " + " ".join(f"v{i}" for i in range(22)) + "\nv0 v1\n")
    code, _, err = run(capsys, "oracle", "tr", str(big))
    assert code == 2  # over the default cap
    monkeypatch.setenv("TRANSVERSAL_ORACLE_CAP", "22")
    code, out, _ = run(capsys, "oracle", "rank", str(big))
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "rank", "--exact", "--method", "oracle", str(big))
    assert code == 0 and out.strip() == "1"


def test_unknown_flag_is_usage_error(capsys, pairs):
    assert run(capsys, "enumerate", "--frobnicate", pairs)[0] == 2
    assert run(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize("argv", [
    ["rank", "--k", "2", "--exact"],
    ["rank"],
    ["conformal", "--k", "2", "--degree"],
    ["conformal"],
])
def test_modes_are_exclusive_and_required(capsys, matchings, argv):
    # each mode answers a different question: giving both, or neither,
    # is a usage error, not a silently ignored flag
    code, out, err = run(capsys, *argv, matchings)
    assert (code, out) == (2, "")
    assert "usage:" in err and "internal error" not in err


def test_unknown_vertex_is_input_error(capsys, matchings):
    for argv in (["extend", "--x", "1 nosuchvertex"], ["extend", "--y", "9"],
                 ["minimize", "--set", "1 3 zz"]):
        code, out, err = run(capsys, *argv, matchings)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: unknown vertex "), argv
    assert "'nosuchvertex'" in run(capsys, "extend", "--x", "nosuchvertex", matchings)[2]


def test_internal_key_error_is_internal_error(capsys, monkeypatch, pairs):
    def lookup(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "minimize", lookup)
    code, out, err = run(capsys, "minimize", "--set", "1 3", pairs)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.splitlines() == ["internal error: KeyError: 'lost'"]


def test_unwritable_stats_path_fails_before_any_output(capsys, tmp_path, pairs):
    missing = tmp_path / "missing" / "s.json"
    code, out, err = run(capsys, "enumerate", "--stats", str(missing), pairs)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_bench_has_no_json_flag(capsys):
    argv = ["bench", "--family", "uniform", "--seed", "1", "--n", "5", "--m", "5",
            "--arity", "2", "--json"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--json" in err


def test_unexpected_exception_is_internal_error(capsys, monkeypatch, pairs):
    def boom(args):
        raise RuntimeError("search stack out of sync")

    monkeypatch.setattr("transversal.cli._cmd_enumerate", boom)
    code, out, err = run(capsys, "enumerate", pairs)
    assert code == EXIT_INTERNAL == 3
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: search stack out of sync"]


def test_keyboard_interrupt_propagates(monkeypatch, pairs):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("transversal.cli._cmd_enumerate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        dispatch(["enumerate", pairs])


def test_closed_stdout_exits_quietly(capsys, monkeypatch, tmp_path, pairs):
    # ``enumerate ... | head -n 1``: the reader is gone, which is no error
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert dispatch(["enumerate", pairs]) == 0
    assert capsys.readouterr().err == ""
    # the closed pipe stops the enumeration, whose statistics still count
    stats_path = tmp_path / "stats.json"
    assert dispatch(["enumerate", "--stats", str(stats_path), pairs]) == 0
    assert json.loads(stats_path.read_text())["outputs"] == 1
    assert dispatch(["oracle", "tr", pairs]) == 0
    assert capsys.readouterr().err == ""


def test_bench_csv(capsys, tmp_path):
    out_path = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys,
        "bench",
        "--family", "uniform",
        "--seed", "7",
        "--n", "8",
        "--m", "10",
        "--arity", "2",
        "--count", "3",
        "--out", str(out_path),
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [list(r) for r in rows][0] == BENCH_COLUMNS
    assert len(rows) == 3
    again = tmp_path / "bench2.csv"
    run(
        capsys,
        "bench",
        "--family", "uniform",
        "--seed", "7",
        "--n", "8",
        "--m", "10",
        "--arity", "2",
        "--count", "3",
        "--out", str(again),
    )
    a = [r["instance_id"] + r["n"] + r["m"] + r["kstar"] + r["outputs"] for r in rows]
    with open(again, newline="") as fh:
        b = [
            r["instance_id"] + r["n"] + r["m"] + r["kstar"] + r["outputs"]
            for r in csv.DictReader(fh)
        ]
    assert a == b


def test_bench_requires_family_param(capsys):
    code, _, err = run(capsys, "bench", "--family", "uniform", "--seed", "1", "--n", "5", "--m", "5")
    assert code == 2
    assert err == "error: uniform needs --arity\n"


def test_module_entry_point(tmp_path):
    f = tmp_path / "h.hg"
    f.write_text("1 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "transversal", "enumerate", str(f)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1", "2"]


def _cap_memory() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_commands_answer_or_refuse_in_bounded_memory(tmp_path):
    """Every command on oversize and malformed inputs, each in a child
    process whose address space is capped at 1 GiB: it answers (exit 0
    or 1) or refuses with an ``error:`` line (exit 2), and never reports
    an internal error such as a ``MemoryError``."""
    files = {
        "uni50": serialize(uniform_instance(random.Random(0), 50, 30, 6)),
        "edge40": " ".join(f"v{i}" for i in range(40)) + "\n",
        "bad": "!vertices a b\na c\n",  # c is not in the header
        "h": "a b\nb c\n",
        "unknown": "a zz\n",  # zz is no vertex of h
        "empty": "a b\n{}\n",
    }
    path = {}
    for name, text in files.items():
        path[name] = str(tmp_path / f"{name}.hg")
        (tmp_path / f"{name}.hg").write_text(text)
    bad = path["bad"]
    cases = [
        ["cliques", path["uni50"]],
        ["complement", "--uniform", "6", path["uni50"]],
        ["section", "--k", "10", path["edge40"]],
        ["enumerate", bad],
        ["extend", bad],
        ["rank", "--k", "3", bad],
        ["conformal", "--degree", bad],
        ["cliques", bad],
        ["verify", "--g", bad, "--h", path["h"]],
        ["verify", "--g", path["h"], "--h", bad],
        ["minimize", bad, "--set", "a"],
        ["section", "--k", "2", bad],
        ["complement", bad],
        ["oracle", "tr", bad],
        ["verify", "--g", path["unknown"], "--h", path["h"]],
        ["rank", "--k", "3", path["empty"]],
    ]
    for argv in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "transversal", *argv],
            capture_output=True,
            text=True,
            preexec_fn=_cap_memory,
            timeout=60,
        )
        assert proc.returncode in (0, 1, 2), (argv, proc.returncode, proc.stderr)
        if proc.returncode == 2:
            assert any(
                line.startswith("error: ") for line in proc.stderr.splitlines()
            ), (argv, proc.stderr)
        assert "internal error" not in proc.stderr, (argv, proc.stderr)
