"""Tests for the command-line frontend and its JSON reports."""

import argparse
import itertools
import json
import os
import re
import shlex

import pytest

from qgs import quantiso
from qgs.cli import (COMMANDS, FLAGS, INPUT_FLAGS, build_parser, main,
                     run_config)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

C4 = "finite 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 0\n"
P3 = "finite 3\nedge 0 1\nedge 1 2\n"
P4 = "finite 4\nedge 0 1\nedge 1 2\nedge 2 3\n"
K3 = "finite 3\nedge 0 1\nedge 1 2\nedge 0 2\n"
K4 = "finite 4\n" + "".join("edge %d %d\n" % (u, v) for u in range(4)
                             for v in range(u + 1, 4))
C6 = "finite 6\n" + "".join("edge %d %d\n" % (v, (v + 1) % 6)
                             for v in range(6))
C8 = "finite 8\n" + "".join("edge %d %d\n" % (v, (v + 1) % 8)
                             for v in range(8))


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("c4", C4), ("p3", P3), ("p4", P4), ("k3", K3),
                       ("k4", K4), ("c6", C6), ("c8", C8)):
        p = tmp_path / (name + ".graph")
        p.write_text(text)
        paths[name] = str(p)
    gp = tmp_path / "gp3.json"
    gp.write_text(json.dumps({"type": "grandparent", "d": 3}))
    paths["gp3"] = str(gp)
    grp = tmp_path / "grp.json"
    grp.write_text(json.dumps({"type": "free_product_cyclic",
                               "orders": [2, 2]}))
    paths["grp"] = str(grp)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out else None
    return code, doc, out.err


def test_orbits_p3(files, capsys):
    code, doc, _ = run(capsys, ["orbits", "--graph", files["p3"]])
    assert code == 0
    assert doc["schema"] == "qgs/1"
    assert doc["orbit_count"] == 2
    assert doc["compact"] is True
    assert doc["orbits"] == [["0", "2"], ["1"]]


def test_orbits_c4(files, capsys):
    code, doc, _ = run(capsys, ["orbits", "--graph", files["c4"]])
    assert code == 0
    assert doc["orbit_count"] == 1 and doc["compact"] is True


def test_orbits_tree_window(files, capsys, tmp_path):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"type": "tree", "d": 3}))
    code, doc, _ = run(capsys, ["orbits", "--provider", str(tree),
                                "--radius", "4"])
    assert code == 0
    assert doc["orbit_count"] == 1
    assert doc["compact"] is False


def test_mu_grandparent_ratio(files, capsys):
    code, doc, _ = run(capsys, ["mu", "--provider", files["gp3"],
                                "--radius", "5"])
    assert code == 0
    table = doc["mu"]
    assert table["(0|)"] == "1"
    # each child weighs half its parent
    assert table["(0|0)"] == "1/2"
    assert table["(0|00)"] == "1/4"
    assert doc["cocycle_consistent"] is True


def test_dims_report(files, capsys):
    code, doc, _ = run(capsys, ["dims", "--graph", files["p3"],
                                "--depth", "1"])
    assert code == 0
    by_arity = {d["arity"]: d for d in doc["dims"]}
    assert by_arity[0]["mor_dimension"] == 2
    assert all(p["exact"] for p in by_arity[1]["projections"])


def test_dims_c6_depth_two_is_frozen(files, capsys):
    # the spectral projections of Mor(2, 2) on C6 (r = 112) took about
    # 30 s when each eigenvalue cluster ran its own least squares fit
    # and SVD; the report is the one that code gave
    import time
    start = time.perf_counter()
    code, doc, _ = run(capsys, ["dims", "--graph", files["c6"],
                                "--depth", "2"])
    assert time.perf_counter() - start < 15

    def projections(exact, *counts):
        return [{"block": [0, 0], "d_left": d, "d_right": d,
                 "exact": exact}
                for d, count in counts for _ in range(count)]

    assert code == 0
    assert doc["dims"] == [
        {"arity": 0, "mor_dimension": 1,
         "projections": projections(True, ("1", 1))},
        {"arity": 1, "mor_dimension": 4,
         "projections": projections(True, ("1", 2), ("2", 2))},
        {"arity": 2, "mor_dimension": 112,
         "projections": projections(False, ("1", 12), ("2", 12))}]


def test_dims_c8_depth_two_all_is_frozen(files, capsys):
    # Aut(C8) = D8 has B_4 = 260 orbits on V^4, so the arity-2 span of
    # category "all" is complete and this report is the true one
    code, doc, _ = run(capsys, ["dims", "--graph", files["c8"],
                                "--depth", "2", "--category", "all"])
    assert code == 0
    assert doc["dims"] == [
        {"arity": arity, "mor_dimension": dim,
         "projections": [{"block": [0, 0], "d_left": d, "d_right": d,
                          "exact": arity < 2}
                         for d, count in counts for _ in range(count)]}
        for arity, dim, counts in ((0, 1, [("1", 1)]),
                                   (1, 5, [("1", 2), ("2", 3)]),
                                   (2, 260, [("1", 16), ("2", 24)]))]


def test_haar_check_passes(files, capsys):
    code, doc, _ = run(capsys, ["haar-check", "--graph", files["k3"],
                                "--depth", "5"])
    assert code == 0
    assert doc["passed"] is True
    assert all(v < 1e-9 for v in doc["residuals"].values())
    assert doc["unimodular"] is True
    assert doc["quantum_symmetry"] is False
    # depth 5: words of length 1 on the ladder's level 6
    assert (doc["max_word_length"], doc["level"]) == (1, 6)


@pytest.mark.parametrize("argv, message", [
    (["dims", "--depth", "-1"], "--depth of dims must be 0, 1 or 2"),
    (["dims", "--depth", "3"], "--depth of dims must be 0, 1 or 2"),
    (["haar-check", "--depth", "0"], "--depth of haar-check must be at "
                                     "least 5"),
    (["haar-check", "--depth", "4"], "--depth of haar-check must be at "
                                     "least 5")])
def test_depth_out_of_range(files, capsys, monkeypatch, argv, message):
    # rejected before any engine runs
    from qgs import algebra, morspace

    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(morspace, "generate_mor", refuse)
    monkeypatch.setattr(algebra, "haar_system", refuse)
    code, doc, err = run(capsys, argv + ["--graph", files["k4"]])
    assert code == 1 and doc is None
    assert message in err


def check_ladder_limit(files, capsys, monkeypatch, name, setting, value,
                       message, prebuilt=False):
    """haar-check exits 2, naming `message`, under a ladder limit
    (`setting` set to `value`) that the graph's ladder passes, and
    passes once the limit is restored."""
    from qgs import algebra, morspace
    from qgs.cli import load_graph

    def fresh_caches():
        # the engines are built under the patched bound, whatever ran
        # before
        for module, cache in ((algebra, "_systems"),
                              (morspace, "_mor_engines"),
                              (morspace, "_function_engines")):
            monkeypatch.setattr(module, cache, {})

    fresh_caches()
    if prebuilt:
        morspace.mor_engine(load_graph(files[name]))
    monkeypatch.setattr(morspace, setting, value)
    code, doc, err = run(capsys, ["haar-check", "--graph", files[name],
                                  "--depth", "5"])
    assert code == 2 and doc is None
    assert message in err
    monkeypatch.undo()
    fresh_caches()
    code, doc, _ = run(capsys, ["haar-check", "--graph", files[name],
                                "--depth", "5"])
    assert code == 0 and doc["passed"] is True


def test_haar_check_ladder_entry_bound(files, capsys, monkeypatch):
    # P3 passes the certificate; the function engine's bases are atom
    # indicators, and every entry of the MorEngine ladder that the
    # certificate reads is 1
    check_ladder_limit(files, capsys, monkeypatch, "p3",
                       "LADDER_ENTRY_BOUND", 1, "ladder entry bound 1")


def test_haar_check_ladder_entry_bound_on_the_gram_route(files, capsys,
                                                          monkeypatch):
    # K4 fails the certificate and takes the Gram route; its entries are
    # all 1, and with its MorEngine built beforehand the bound is met by
    # the Gram route's extension of that engine's ladder past level 5
    check_ladder_limit(files, capsys, monkeypatch, "k4",
                       "LADDER_ENTRY_BOUND", 1, "ladder entry bound 1",
                       prebuilt=True)


def test_haar_check_ladder_budget(files, capsys, monkeypatch):
    # K4's certificate ladder (to level 5) never counts 64 KB, but the
    # Gram route's level 6 holds 131 orbit rows of 188 int64 entries, and
    # the span a reduced copy of each (about 390 KB): haar-check exits 2
    # before storing past the budget
    check_ladder_limit(files, capsys, monkeypatch, "k4",
                       "LADDER_BUDGET_BYTES", 2 ** 18, "LADDER_BUDGET_BYTES")


def test_haar_check_reports_quantum_symmetry(files, capsys, tmp_path,
                                             monkeypatch):
    import time
    from qgs import algebra
    # C5 has no quantum symmetry: the orbit route builds no ladder past
    # level 5, where the Gram route's level 7 alone is about 4.9 GB
    start = time.monotonic()
    code, doc, _ = run(capsys, ["haar-check", "--graph",
                                cycle_file(tmp_path, 5)])
    assert time.monotonic() - start < 60
    assert code == 0 and doc["passed"] is True
    assert doc["quantum_symmetry"] is False
    assert doc["arithmetic"] == "float64 on exact Aut-orbit counts"
    # K4 has quantum symmetry: the certificate fails, and the report
    # leaves the question open
    monkeypatch.setattr(algebra, "_systems", {})
    code, doc, _ = run(capsys, ["haar-check", "--graph", files["k4"],
                                "--depth", "5"])
    assert code == 0 and doc["passed"] is True
    # the modular and base-change checks read the same level-6 system
    assert [key[-1] for key in algebra._systems] == [6]
    assert doc["quantum_symmetry"] is None
    assert doc["arithmetic"] == "float64 on exact integer Gram data"
    # the certificate of category "all" does not speak of QAut
    code, doc, _ = run(capsys, ["haar-check", "--graph", files["k3"],
                                "--depth", "5", "--category", "all"])
    assert code == 0 and doc["quantum_symmetry"] is None


def test_haar_check_passes_on_k33(capsys, tmp_path):
    # K3,3 has quantum symmetry, so the Gram route builds the ladder to
    # level 7 at the default depth; its orbit rows there have at most
    # 5,391 entries, where full arrays had 6^7 and passed the budget
    path = tmp_path / "k33.graph"
    path.write_text("finite 6\n" + "".join(
        "edge %d %d\n" % (u, v) for u in range(3) for v in range(3, 6)))
    code, doc, _ = run(capsys, ["haar-check", "--graph", str(path)])
    assert code == 0 and doc["passed"] is True
    assert doc["quantum_symmetry"] is None


def test_planar_iso_distinguished(files, capsys):
    code, doc, _ = run(capsys, ["planar-iso", "--graph", files["c4"],
                                "--graph", files["p4"], "--depth", "4"])
    assert code == 0
    assert doc["status"] == "distinguished"
    assert doc["witness"]["count1"] != doc["witness"]["count2"]


def cycle_file(tmp_path, n):
    path = tmp_path / ("c%d.graph" % n)
    path.write_text("finite %d\n" % n + "".join(
        "edge %d %d\n" % (i, (i + 1) % n) for i in range(n)))
    return str(path)


def test_planar_iso_class_sizes(capsys, tmp_path):
    # C7 and C14 have the same pointed counts up to depth 6, but a class
    # of 7 vertices cannot be paired with one of 14
    code, doc, _ = run(capsys, ["planar-iso",
                                "--graph", cycle_file(tmp_path, 7),
                                "--graph", cycle_file(tmp_path, 14)])
    assert code == 0
    assert doc["status"] == "distinguished"
    w = doc["witness"]
    assert (w["count1"], w["count2"]) == (7, 14)
    assert w["orbit1"] == sorted(map(str, range(7)))
    assert w["orbit2"] == sorted(map(str, range(14)))
    assert w["pattern_vertices"] is None and w["basepoint"] is None


def complete_file(tmp_path, n):
    path = tmp_path / ("k%d.graph" % n)
    path.write_text("finite %d\n" % n + "".join(
        "edge %d %d\n" % e for e in itertools.combinations(range(n), 2)))
    return str(path)


def test_planar_iso_budget(capsys, tmp_path):
    # on K60 the first 4-vertex pattern's join step needs 60 * 59^3
    # candidate rows of 4 * 4 + 4 * 8 bytes, 591 MB, over the 512 MiB
    # signature budget
    k60 = complete_file(tmp_path, 60)
    code, doc, err = run(capsys, ["planar-iso", "--graph", k60,
                                  "--graph", k60, "--depth", "6"])
    assert code == 2
    assert doc is None
    assert "signature budget" in err


def test_planar_iso_long_cycle(capsys, tmp_path):
    c30 = cycle_file(tmp_path, 30)
    code, doc, _ = run(capsys, ["planar-iso", "--graph", c30,
                                "--graph", c30, "--depth", "6"])
    assert code == 0
    assert doc["status"] == "indistinguishable_up_to_depth"
    assert doc["class_bijection"] == [[sorted(map(str, range(30)))] * 2]


def test_planar_iso_rejects_a_graph_without_vertices(capsys, tmp_path):
    empty = tmp_path / "empty.graph"
    empty.write_text("finite 0\n")
    k1 = tmp_path / "k1.graph"
    k1.write_text("finite 1\n")
    for a, b in ((empty, k1), (k1, empty)):
        code, doc, err = run(capsys, ["planar-iso", "--graph", str(a),
                                      "--graph", str(b)])
        assert code == 1 and doc is None
        assert "graphs must have a vertex" in err


def test_orbits_beyond_classical_limit(capsys, tmp_path):
    # the optional cross-check is not made past the brute-force limit
    code, doc, _ = run(capsys, ["orbits", "--category", "all",
                                "--graph", cycle_file(tmp_path, 12)])
    assert code == 0
    assert doc["orbit_count"] == 1
    assert doc["matches_classical"] is None


def test_planar_iso_indistinguishable(files, capsys):
    code, doc, _ = run(capsys, ["planar-iso", "--graph", files["c4"],
                                "--graph", files["c4"], "--depth", "4"])
    assert code == 0
    assert doc["status"] == "indistinguishable_up_to_depth"
    assert doc["class_bijection"]


def test_quantize_supports(files, capsys):
    code, doc, _ = run(capsys, ["quantize", "--group", files["grp"],
                                "--nmax", "3"])
    assert code == 0
    by_n = {rs["n"]: rs for rs in doc["relation_supports"]}
    assert by_n[2]["support"] == [["a", "a"], ["b", "b"]]
    assert by_n[1]["size"] == 0 and by_n[3]["size"] == 0
    assert doc["group"]["symmetric"] is True
    assert doc["config"] == {"nmax": 3, "out": None}


def test_malformed_graph_cites_line(files, capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("finite 3\nedg 0 1\n")
    code, doc, err = run(capsys, ["orbits", "--graph", str(bad)])
    assert code == 1
    assert doc is None
    assert "line 2" in err


def test_negative_vertex_count_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "negative.graph"
    bad.write_text("finite -3\n")
    for argv in (["orbits"], ["dims"], ["haar-check"],
                 ["planar-iso", "--graph", str(bad)]):
        code, doc, err = run(capsys, argv + ["--graph", str(bad)])
        assert code == 1 and doc is None
        assert "graph file: vertex count -3 is negative" in err


def test_missing_input_flag(capsys):
    code, _, err = run(capsys, ["orbits"])
    assert code == 1
    assert "--graph" in err


def test_budget_exit_code(files, capsys):
    code, _, err = run(capsys, ["orbits", "--provider", files["gp3"],
                                "--budget-vertices", "5"])
    assert code == 2
    assert "budget" in err


def test_bad_tol(files, capsys):
    code, _, err = run(capsys, ["dims", "--graph", files["p3"],
                                "--tol", "-1"])
    assert code == 1
    assert "--tol" in err


def test_usage_errors_exit_1(files, capsys):
    # exit 2 is kept for budgets; a flag the command does not read is a
    # usage error
    for argv, flag in ((["orbits", "--bogus"], "--bogus"),
                       (["planar-iso", "--graph", files["c4"], "--graph",
                         files["c4"], "--category", "all"], "--category"),
                       (["mu", "--provider", files["gp3"], "--category",
                         "all"], "--category")):
        code, doc, err = run(capsys, argv)
        assert code == 1 and doc is None
        assert flag in err
    assert main(["orbits", "--help"]) == 0
    assert "--radius" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_each_command_takes_its_flags(name):
    _, flags, defaults = COMMANDS[name]
    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    parser = sub.choices[name]
    taken = [s for a in parser._actions for s in a.option_strings
             if s not in ("-h", "--help")]
    assert sorted(taken) == sorted(flags)
    # config echoes every setting and no input file
    args = build_parser().parse_args([name])
    config = run_config(args)
    assert sorted(config) == sorted(f[2:].replace("-", "_") for f in flags
                                    if f not in INPUT_FLAGS)
    for key, value in defaults.items():
        assert config[key] == value


def test_flag_table_size():
    assert sum(len(flags) for _, flags, _ in COMMANDS.values()) == 32
    assert "--budget-closure" not in FLAGS


def documented_commands():
    """Every `qgs ...` line of README's "Command line" block and of the
    CLI tour, with the brackets around optional parts and the bars
    between alternatives dropped."""
    with open(os.path.join(ROOT, "README.md")) as handle:
        readme = handle.read()
    block = re.search(r"## Command line\n.*?```\n(.*?)```", readme,
                      re.S).group(1)
    with open(os.path.join(ROOT, "demos", "07_cli_tour.sh")) as handle:
        tour = handle.read()
    argvs = []
    for text in (block, tour):
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("qgs "):
                words = shlex.split(re.sub(r"[][]", " ", line))
                argvs.append([word for word in words[1:] if word != "|"])
    return argvs


def test_documented_commands_parse():
    argvs = documented_commands()
    # between them they show every subcommand
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    parser = build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("qgs %s does not parse" % " ".join(argv))


def test_determinism_and_out_file(files, capsys, tmp_path):
    out = tmp_path / "report.json"
    assert main(["orbits", "--graph", files["p3"], "--out", str(out)]) == 0
    first = out.read_bytes()
    assert main(["orbits", "--graph", files["p3"], "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == first
    doc = json.loads(first)
    assert doc["config"]["out"] == str(out)


def test_haar_check_rejects_a_graph_without_vertices(capsys, tmp_path):
    empty = tmp_path / "empty.graph"
    empty.write_text("finite 0\n")
    code, doc, err = run(capsys, ["haar-check", "--graph", str(empty)])
    assert code == 1 and doc is None
    assert "haar-check needs a graph with a vertex" in err
    # orbits and dims accept it
    for argv in (["orbits"], ["dims", "--depth", "1"]):
        code, doc, _ = run(capsys, argv + ["--graph", str(empty)])
        assert code == 0


@pytest.mark.parametrize("budget, what", [(1000, "refinement keys"),
                                          (1200, "homomorphism rows")])
def test_function_engine_budget(files, capsys, monkeypatch, budget, what):
    # on K4 the refinement keys and their sorted copy take
    # 2 * 4^3 * 8 = 1024 bytes, and the 36 candidate rows of the
    # 3-vertex path 36 * (3 * 4 + 4 * 8) = 1584 bytes
    from qgs import morspace
    from qgs.cli import load_graph
    from qgs.graphs import BudgetExceeded
    monkeypatch.setattr(morspace, "_function_engines", {})
    monkeypatch.setattr(quantiso, "SIGNATURE_BUDGET_BYTES", budget)
    with pytest.raises(BudgetExceeded, match=what):
        morspace.function_engine(load_graph(files["k4"]))
    code, doc, err = run(capsys, ["orbits", "--graph", files["k4"]])
    assert code == 2 and doc is None
    assert what in err and "signature budget of %d bytes" % budget in err
