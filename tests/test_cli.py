"""End-to-end command line checks through main(argv)."""

import json

import pytest

import oracles
from disorient import (
    CENTRAL_EDGE_SWAPPED,
    Orientation,
    Report,
    Violation,
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    encode_digraph6,
    encode_graph6,
    enumerate_orientations,
    parse,
    path_graph,
    star_graph,
)
from disorient.cli import CACHE_ENV, main

K3 = "Bw"
P3_G6 = encode_graph6(path_graph(3))
P4_G6 = encode_graph6(path_graph(4))
STAR3_G6 = encode_graph6(star_graph(3))
C6_G6 = encode_graph6(cycle_graph(6))
K23_G6 = encode_graph6(complete_bipartite_graph(2, 3))


def run_json(capsys, argv):
    code = main(argv + ["--output", "json"])
    out = capsys.readouterr()
    assert out.err == ""
    return code, json.loads(out.out)


class TestDprime:
    def test_json(self, capsys):
        code, j = run_json(capsys, ["dprime", K3])
        assert code == 0
        assert j["dprime"] == 3
        assert j["witness"]["width"] == 3
        assert j["witness"]["edges"] == [[0, 1], [0, 2], [1, 2]]
        assert sorted(j["witness"]["assignment"]) == [1, 2, 3]

    def test_text(self, capsys):
        assert main(["dprime", K3]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "dprime: 3" in lines
        assert any(l.startswith("witness.assignment: ") for l in lines)

    def test_repeat_runs_byte_identical(self, capsys):
        main(["dprime", C6_G6, "--output", "json"])
        first = capsys.readouterr().out
        main(["dprime", C6_G6, "--output", "json"])
        assert capsys.readouterr().out == first


class TestInputForms:
    def test_at_file(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        p.write_text(K3 + "\n")
        code, j = run_json(capsys, ["dprime", f"@{p}"])
        assert (code, j["dprime"]) == (0, 3)

    def test_bare_at_is_k1(self, capsys):
        # "@" is the graph6 of the one-vertex graph, not a file reference
        code, j = run_json(capsys, ["aut", "@"])
        assert (code, j["n"], j["order"]) == (0, 1, 1)
        code, j = run_json(capsys, ["od", "@"])
        assert (code, j["od_minus"], j["od_plus"]) == (0, 1, 1)

    def test_at_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["od", f"@{tmp_path / 'missing.g6'}"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_edgelist_autodetect(self, capsys):
        code, j = run_json(capsys, ["dprime", "3\n0 1\n1 2"])
        assert (code, j["dprime"]) == (0, 2)

    def test_digraph6_autodetect(self, capsys):
        o = Orientation(complete_graph(3), 0b010)
        code, j = run_json(capsys, ["dprime", encode_digraph6(o)])
        assert (code, j["dprime"]) == (0, 2)

    def test_header_then_space_autodetect(self, capsys):
        # a header routes the text before the whitespace sniff
        for text in (">>graph6<< Cs", ">>digraph6<< &BP?"):
            code, j = run_json(capsys, ["aut", text])
            assert code == 0 and j == run_json(capsys, ["aut", text.split()[1]])[1]

    def test_explicit_format(self, capsys):
        code, j = run_json(capsys, ["dprime", K3, "--format", "graph6"])
        assert (code, j["dprime"]) == (0, 3)

    def test_bad_input_exits_2(self, capsys):
        assert main(["dprime", "~~~not graph6~~~"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_edge_cap_only_where_read(self, capsys):
        # od, verify and conjecture sweep orientations under the cap; the
        # other commands take no --edge-cap rather than ignore one
        for argv in (["aut", K3], ["dprime", K3], ["tree-od", P3_G6],
                     ["orient", K3, "--method", "layered"], ["kmn", "2", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--edge-cap", "1"])
            assert exc.value.code == 2, argv
        assert main(["od", P3_G6, "--edge-cap", "1"]) == 2  # P3 has 2 edges
        assert main(["od", P3_G6, "--edge-cap", "2"]) == 0

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        import disorient.cli as cli

        def boom(x):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "dprime", boom)
        assert main(["dprime", K3]) == 3
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "internal error: RuntimeError: boom"


class TestAut:
    def test_triangle(self, capsys):
        code, j = run_json(capsys, ["aut", K3])
        assert code == 0
        assert (j["n"], j["order"]) == (3, 6)
        assert j["elements"][0] == [0, 1, 2]
        assert len(j["elements"]) == 6

    def test_refuses_a_group_too_large_to_list(self, capsys, monkeypatch):
        import disorient.cli as cli

        def no_listing(x):
            raise AssertionError("elements listed")

        monkeypatch.setattr(cli, "automorphisms", no_listing)
        assert main(["aut", encode_graph6(star_graph(10))]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: group too large: more than 1000000 elements\n"

    def test_elements_equal_the_oracle(self, capsys):
        for n in range(1, 6):
            for g in connected_graphs(n):
                for x in [g, *enumerate_orientations(g)]:
                    text = encode_digraph6(x) if isinstance(x, Orientation) \
                        else encode_graph6(x)
                    code, j = run_json(capsys, ["aut", text])
                    want = sorted(list(img) for img in
                                  oracles.brute_automorphism_images(x))
                    assert code == 0
                    assert (j["n"], j["order"]) == (n, len(j["elements"])), text
                    assert j["elements"] == want, text


class TestOd:
    def test_both_extremes(self, capsys):
        code, j = run_json(capsys, ["od", STAR3_G6])
        assert code == 0
        assert (j["od_minus"], j["od_plus"]) == (2, 3)
        assert parse("digraph6", j["orientation_min"]).base.n == 4

    def test_min_with_witness(self, capsys):
        code, j = run_json(capsys, ["od", STAR3_G6, "--min"])
        assert (code, j["od_minus"]) == (0, 2)
        o = parse("digraph6", j["orientation"])
        assert list(map(tuple, j["colouring"]["edges"])) == list(o.arcs)

    def test_max(self, capsys):
        code, j = run_json(capsys, ["od", P4_G6, "--max"])
        assert (code, j["od_plus"]) == (0, 1)

    def test_rigid_found(self, capsys):
        code, j = run_json(capsys, ["od", P4_G6, "--rigid"])
        assert code == 0 and j["rigid"] is True
        assert parse("digraph6", j["orientation"]).base.edges == \
            path_graph(4).edges

    def test_rigid_absent(self, capsys):
        code, j = run_json(capsys, ["od", STAR3_G6, "--rigid"])
        assert code == 0
        assert j == {"rigid": False, "orientation": None}

    def test_directed_input_rejected(self, capsys):
        o = Orientation(complete_graph(3), 0)
        assert main(["od", encode_digraph6(o)]) == 2
        assert "undirected" in capsys.readouterr().err


class TestOrient:
    def test_layered_default_partition(self, capsys):
        code, j = run_json(capsys, ["orient", K23_G6, "--method", "layered"])
        assert code == 0 and j["method"] == "layered"
        assert all(t in (0, 1) and h in (2, 3, 4) for t, h in j["arcs"])

    def test_layered_explicit_partition(self, capsys):
        code, j = run_json(capsys, ["orient", K23_G6, "--method", "layered",
                                    "--partition", "2,3,4/0,1"])
        assert code == 0
        assert all(t in (2, 3, 4) and h in (0, 1) for t, h in j["arcs"])

    def test_bad_partition(self, capsys):
        assert main(["orient", K23_G6, "--method", "layered",
                     "--partition", "a/b"]) == 2
        assert "bad partition" in capsys.readouterr().err

    def test_hamiltonian(self, capsys):
        code, j = run_json(capsys, ["orient", K3, "--method", "hamiltonian"])
        assert code == 0
        assert j["arcs"] == [[0, 1], [0, 2], [1, 2]]

    def test_clawfree(self, capsys):
        code, j = run_json(capsys, ["orient", C6_G6, "--method", "clawfree"])
        assert code == 0 and j["branch"] == "hamiltonian"
        assert parse("digraph6", j["digraph6"]).base.m == 6

    def test_compatible(self, capsys):
        code, j = run_json(capsys, ["orient", P3_G6, "--method", "compatible",
                                    "--perm", "2,1,0"])
        assert code == 0
        assert sorted(map(tuple, j["arcs"])) in (
            [(0, 1), (2, 1)], [(1, 0), (1, 2)])

    def test_compatible_needs_perm(self, capsys):
        assert main(["orient", P3_G6, "--method", "compatible"]) == 2
        assert "--perm" in capsys.readouterr().err

    def test_non_automorphism_perm(self, capsys):
        assert main(["orient", P3_G6, "--method", "compatible",
                     "--perm", "1,0,2"]) == 2


class TestTreeOd:
    def test_p4(self, capsys):
        code, j = run_json(capsys, ["tree-od", P4_G6])
        assert code == 0
        assert j == {"od_minus": 1, "od_plus": 1,
                     "case": CENTRAL_EDGE_SWAPPED, "unique_optimal": True}

    def test_star(self, capsys):
        code, j = run_json(capsys, ["tree-od", STAR3_G6])
        assert code == 0
        assert (j["od_minus"], j["od_plus"]) == (2, 3)
        assert "unique_optimal" not in j

    def test_non_tree(self, capsys):
        assert main(["tree-od", K3]) == 2

    def test_deep_path_edge_list(self, capsys, tmp_path):
        f = tmp_path / "path.txt"
        f.write_text("2500\n" + "".join(f"{v} {v + 1}\n" for v in range(2499)))
        code, j = run_json(capsys, ["tree-od", f"@{f}"])
        assert code == 0
        assert (j["od_minus"], j["od_plus"]) == (1, 1)


class TestKmn:
    def test_json(self, capsys):
        code, j = run_json(capsys, ["kmn", "2", "4"])
        assert code == 0
        assert j == {"m": 2, "n": 4, "r": 2, "value": 3,
                     "od_minus": {"m": 2, "n": 4, "r": 2, "value": 2}}

    def test_text_nested_keys(self, capsys):
        assert main(["kmn", "2", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "value: 3" in lines
        assert "od_minus.value: 2" in lines

    def test_bad_sizes(self, capsys):
        assert main(["kmn", "3", "3"]) == 2


class TestVerifyCommand:
    def test_pass(self, capsys, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text(f"{STAR3_G6}\n{P4_G6}\n")
        code, j = run_json(capsys, ["verify", "--corpus", str(f),
                                    "--theorem", "cor6"])
        assert code == 0
        assert (j["theorem_id"], j["total"], j["passed"]) == ("cor6", 2, 1)

    def test_missing_corpus(self, capsys, tmp_path):
        assert main(["verify", "--corpus", str(tmp_path / "nope"),
                     "--theorem", "cor6"]) == 2

    def test_bad_corpus_line_exits_2(self, capsys, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text(f"{K3}\n{P3_G6}\n~~~\n")
        assert main(["verify", "--corpus", str(f), "--theorem", "cor6"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_violation_exits_1(self, capsys, tmp_path, monkeypatch):
        import disorient.cli as cli

        bad = Report("cor3", 1, 0,
                     (Violation("Bw", "extremes (1, 2)", "extremes (2, 2)"),),
                     (), 0.0)
        monkeypatch.setattr(cli, "verify_theorem",
                            lambda *a, **k: bad)
        f = tmp_path / "c.g6"
        f.write_text("Bw\n")
        code, j = run_json(capsys, ["verify", "--corpus", str(f),
                                    "--theorem", "cor3"])
        assert code == 1
        assert j["violations"][0]["graph6"] == "Bw"


class TestConjectureCommand:
    def test_scan(self, capsys, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text(f"{K3}\n{P3_G6}\n")
        code, j = run_json(capsys, ["conjecture", "--corpus", str(f),
                                    "--no-cache"])
        assert code == 0
        assert j["theorem_id"] == "conjectures"
        assert j["passed"] == 2

    def test_which(self, capsys, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text(f"{P3_G6}\n")
        code, j = run_json(capsys, ["conjecture", "--corpus", str(f),
                                    "--which", "2", "--no-cache"])
        assert (code, j["theorem_id"]) == (0, "conjecture2")

    def test_cache_env(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "c.g6"
        f.write_text(f"{K3}\n")
        cache = tmp_path / "cache.jsonl"
        monkeypatch.setenv(CACHE_ENV, str(cache))
        assert main(["conjecture", "--corpus", str(f)]) == 0
        capsys.readouterr()
        assert cache.exists()
        rows = [json.loads(l) for l in cache.read_text().splitlines()]
        assert rows[0]["g6"] == K3

    def test_no_cache_overrides_env(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "c.g6"
        f.write_text(f"{K3}\n")
        cache = tmp_path / "cache.jsonl"
        monkeypatch.setenv(CACHE_ENV, str(cache))
        assert main(["conjecture", "--corpus", str(f), "--no-cache"]) == 0
        capsys.readouterr()
        assert not cache.exists()

    def test_cache_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "c.g6"
        f.write_text(f"{K3}\n")
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "unused.jsonl"))
        chosen = tmp_path / "chosen.jsonl"
        assert main(["conjecture", "--corpus", str(f),
                     "--cache", str(chosen)]) == 0
        capsys.readouterr()
        assert chosen.exists()
        assert not (tmp_path / "unused.jsonl").exists()
