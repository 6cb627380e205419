"""Verification harness: reports, skips, caching, parallel equality."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracles
from disorient import graphs, verify
from disorient import (
    CLAIMS,
    THEOREM_IDS,
    Colouring,
    Corpus,
    FormatError,
    Graph,
    Orientation,
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    dprime,
    encode_graph6,
    find_rigid_orientation,
    hamiltonian_orientation,
    hang_centre,
    is_distinguishing,
    longest_path,
    od_minus,
    path_graph,
    scan_conjectures,
    star_graph,
    trees,
    verify_theorem,
)
from disorient.graphs import neighbour_masks

CONNECTED_1_7 = Path(__file__).resolve().parent.parent / "bench" / "data" / "connected_1_7.g6"


def _corpus(*graphs) -> Corpus:
    return Corpus.from_graphs(graphs)


def _stable(report) -> dict:
    j = report.to_json()
    j.pop("wall_time")
    return j


class TestCorpus:
    def test_from_lines(self):
        c = Corpus.from_lines([
            "Bw  # triangle",
            "",
            "# a whole-line comment",
            "Bw",
        ])
        assert c.labels == ("Bw", "Bw")
        assert c.duplicates == ("Bw",)
        assert len(c) == 2
        assert all(g.n == 3 for g in c)
        # the optional graph6 header is not part of the label
        c = Corpus.from_lines([">>graph6<<Bw", "Bw", "Bo"])
        assert c.labels == ("Bw", "Bw", "Bo")
        assert c.duplicates == ("Bw",)
        assert [g.m for g in c] == [3, 3, 2]
        # nor is the space after it
        c = Corpus.from_lines(["Cs", ">>graph6<< Cs", ">>graph6<<Cs"])
        assert c.labels == ("Cs", "Cs", "Cs")
        assert c.duplicates == ("Cs", "Cs")
        # one header is removed, and a second is an error
        with pytest.raises(FormatError, match="line 2"):
            Corpus.from_lines(["Bw", ">>graph6<<>>graph6<<Bw"])

    def test_from_file(self, tmp_path):
        p = tmp_path / "corpus.g6"
        p.write_text("Bw\nCr\n")
        c = Corpus.from_file(p)
        assert c.labels == ("Bw", "Cr")
        assert c.duplicates == ()

    def test_bad_line_located(self):
        with pytest.raises(FormatError, match="line 3"):
            Corpus.from_lines(["Bw", "Cr", "~~~"])

    def test_from_graphs(self):
        c = _corpus(path_graph(3), complete_graph(3))
        assert c.labels == (encode_graph6(path_graph(3)), "Bw")

    def test_one_label_per_entry(self):
        # a label short would drop its entry from every check and scan
        with pytest.raises(ValueError, match="2 entries but 1 labels"):
            Corpus((path_graph(3), cycle_graph(4)), ("Bw",))
        with pytest.raises(ValueError, match="1 entries but 2 labels"):
            Corpus((path_graph(3),), ("Bw", "Bw"))


class TestVerifyTheorem:
    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown theorem id"):
            verify_theorem(_corpus(path_graph(3)), "thm99")

    def test_claims_cover_ids(self):
        assert set(CLAIMS) == set(THEOREM_IDS)

    def test_cor3_pass_and_skips(self):
        # star_graph(10) has 10! automorphisms, past the element cap
        r = verify_theorem(
            _corpus(star_graph(3), cycle_graph(4), complete_graph(3),
                    star_graph(10)), "cor3")
        assert (r.total, r.passed) == (4, 2)
        assert r.ok
        reasons = {s.reason for s in r.skipped}
        assert "class-swapping automorphism present" in reasons
        assert "not bipartite" in reasons

    def test_obs1_pass_on_a_group_too_large_to_list(self):
        # star_graph(10) has 10! automorphisms, too many to list
        r = verify_theorem(
            _corpus(path_graph(2), star_graph(3), cycle_graph(4),
                    complete_graph(4), star_graph(10)), "obs1")
        assert (r.total, r.passed) == (5, 5)
        assert r.ok

    def test_thm8_skips_non_traceable(self):
        r = verify_theorem(_corpus(path_graph(4), star_graph(3)), "thm8")
        assert (r.passed, len(r.skipped)) == (1, 1)
        assert r.skipped[0].reason == "not traceable"

    def test_tree_checks_split_by_centre(self):
        corpus = _corpus(star_graph(3), path_graph(4))
        fixed = verify_theorem(corpus, "cor6")
        swapped = verify_theorem(corpus, "thm7")
        assert fixed.passed == 1 and swapped.passed == 1
        assert {s.graph6 for s in fixed.skipped} == {encode_graph6(path_graph(4))}
        assert {s.graph6 for s in swapped.skipped} == {encode_graph6(star_graph(3))}

    def test_tree_check_skip_reasons(self):
        corpus = _corpus(
            Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]),  # m = n - 1
            cycle_graph(4), path_graph(1), path_graph(2),
            star_graph(3),  # central vertex
            path_graph(4),  # swapped central edge
            Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)]),  # fixed
            star_graph(12))
        want = {
            "cor6": ["disconnected", "not a tree", "fewer than three vertices",
                     "fewer than three vertices",
                     "centre case is central_edge_swapped",
                     "edge count 12 over cap 10"],
            "thm7": ["disconnected", "not a tree", "fewer than three vertices",
                     "fewer than three vertices",
                     "centre case is central_vertex",
                     "centre case is central_edge_fixed",
                     "centre case is central_vertex"],
        }
        for tid, reasons in want.items():
            r = verify_theorem(corpus, tid, edge_cap=10)
            assert [s.reason for s in r.skipped] == reasons, tid
            assert r.ok and r.passed == len(corpus) - len(reasons)

    def test_one_hanging_per_tree_request(self, monkeypatch):
        # the case, the group, the sweep and its ceiling share one hanging
        hangings = []

        def spy(t):
            hangings.append(t)
            return hang_centre(t)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "disorient" and \
                    getattr(module, "hang_centre", None) is hang_centre:
                monkeypatch.setattr(module, "hang_centre", spy)
        for t in trees(7):
            for tid in ("cor6", "thm7"):
                hangings.clear()
                verify_theorem(_corpus(t), tid)
                assert len(hangings) == 1, (tid, encode_graph6(t))

    def test_tree_reports_over_the_bench_trees(self):
        corpus = Corpus.from_file(
            Path(__file__).parents[1] / "bench" / "data" / "trees_3_10.g6")
        cor6, thm7 = (verify_theorem(corpus, t) for t in ("cor6", "thm7"))
        assert (cor6.total, cor6.passed, cor6.ok) == (199, 183, True)
        assert Counter(s.reason for s in cor6.skipped) == \
            {"centre case is central_edge_swapped": 16}
        assert (thm7.total, thm7.passed, thm7.ok) == (199, 16, True)
        assert Counter(s.reason for s in thm7.skipped) == \
            {"centre case is central_vertex": 108,
             "centre case is central_edge_fixed": 75}
        # each tree passes the one check its centre case calls for
        assert {s.graph6 for s in cor6.skipped} | \
            {s.graph6 for s in thm7.skipped} == set(corpus.labels)

    def test_kmn(self):
        r = verify_theorem(
            _corpus(complete_bipartite_graph(2, 3), cycle_graph(4),
                    complete_graph(3)), "kmn")
        assert r.passed == 1
        reasons = {s.reason for s in r.skipped}
        assert "needs classes of sizes 2 <= m < n" in reasons
        assert "not complete bipartite" in reasons

    def test_edge_cap_skip(self):
        r = verify_theorem(_corpus(complete_graph(3)), "obs1", edge_cap=2)
        assert r.passed == 0
        assert "over cap" in r.skipped[0].reason

    def test_all_ids_smoke(self):
        corpus = _corpus(path_graph(4), star_graph(3), cycle_graph(6),
                         complete_bipartite_graph(2, 3), complete_graph(3))
        for tid in THEOREM_IDS:
            r = verify_theorem(corpus, tid)
            assert r.theorem_id == tid
            assert r.total == len(corpus)
            assert r.total == r.passed + len(r.violations) + len(r.skipped)
            assert r.ok, (tid, r.violations)

    def test_jobs_match_serial(self):
        corpus = _corpus(star_graph(3), cycle_graph(4), path_graph(4))
        serial = verify_theorem(corpus, "cor3", jobs=1)
        parallel = verify_theorem(corpus, "cor3", jobs=2)
        assert _stable(serial) == _stable(parallel)

    def test_checks_take_the_parsed_graphs(self, monkeypatch):
        # the corpus holds each graph parsed; the checks do not parse again,
        # and the caches they fill do not stay on the corpus's graphs
        corpus = Corpus.from_lines(["Bw", "Cs", "DhC"])
        before = [dict(vars(g)) for g in corpus]

        def no_parse(*args):
            raise AssertionError("graph parsed again")

        monkeypatch.setattr(verify, "parse", no_parse)
        for tid in ("cor3", "cor6", "thm7"):
            for jobs in (1, 2):
                r = verify_theorem(corpus, tid, jobs=jobs)
                assert r.total == r.passed + len(r.violations) + len(r.skipped) == 3
        assert [vars(g) for g in corpus] == before

    def test_thm9_tests_twisted_maps_on_each_orientation(self, monkeypatch):
        # P3 has D' = 2, and its reversal survives in the orientation with
        # both arcs into the middle; counted as twisted, only the
        # orientation-level test can catch it
        corpus = _corpus(path_graph(3))
        assert verify_theorem(corpus, "thm9").passed == 1
        monkeypatch.setattr(verify, "is_twisted", lambda g, p: True)
        r = verify_theorem(corpus, "thm9")
        assert [v.expected for v in r.violations] == \
            ["no orientation admits a twisted map"]
        assert r.violations[0].actual.endswith("admits (2, 1, 0)")

    def test_pool_size_is_bounded(self, monkeypatch):
        import concurrent.futures
        made = []

        class SerialPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                made.append((self.max_workers, chunksize))
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        two = _corpus(star_graph(3), cycle_graph(4))
        serial = _stable(verify_theorem(two, "cor3"))
        assert _stable(verify_theorem(two, "cor3", jobs=5000)) == serial
        assert verify._run_tasks(abs, list(range(-40, 0)), 5000) == \
            list(range(40, 0, -1))
        assert verify._run_tasks(abs, list(range(-40, 0)), 2) == \
            list(range(40, 0, -1))
        assert made == [(2, 1), (4, 2), (2, 5)]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        verify._run_tasks(abs, [1, 2, 3], 8)
        assert made[-1] == (1, 1)

    def test_import_loads_no_process_pool(self):
        # multiprocessing costs every process memory; only jobs > 1 needs it
        src = str(Path(verify.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        code = "import sys, disorient; print('multiprocessing' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout.strip()) == (0, "False"), \
            done.stderr

    def test_report_json_shape(self):
        r = verify_theorem(_corpus(star_graph(3)), "cor6")
        j = r.to_json()
        assert j["theorem_id"] == "cor6"
        assert j["total"] == 1 and j["passed"] == 1
        assert j["violations"] == [] and j["skipped"] == []
        assert isinstance(j["wall_time"], float)
        json.dumps(j)  # serialisable as-is


class TestScanConjectures:
    def test_clean_sweep(self):
        r = scan_conjectures(_corpus(complete_graph(3), path_graph(3),
                                     cycle_graph(4)))
        assert r.theorem_id == "conjectures"
        assert r.ok and r.passed == 3

    def test_which_selector(self):
        c = _corpus(path_graph(3))
        assert scan_conjectures(c, "1").theorem_id == "conjecture1"
        assert scan_conjectures(c, 2).theorem_id == "conjecture2"
        with pytest.raises(ValueError):
            scan_conjectures(c, "x")

    def test_single_edge_skipped(self):
        r = scan_conjectures(Corpus.from_lines(["A_"]))
        assert r.passed == 0
        assert "undefined" in r.skipped[0].reason

    def test_edge_cap_skip(self):
        r = scan_conjectures(_corpus(cycle_graph(4)), edge_cap=2)
        assert "over cap" in r.skipped[0].reason

    def test_cacheless_scan_computes_no_keys(self, tmp_path, monkeypatch):
        small = Corpus.from_graphs(
            g for n in range(1, 7) for g in connected_graphs(n))
        want = _stable(scan_conjectures(small, cache_path=tmp_path / "c"))
        keys = _spy(monkeypatch, "encode_graph6")
        assert _stable(scan_conjectures(small)) == want
        # a corpus built directly may hold graphs graph6 cannot encode
        r = scan_conjectures(Corpus((path_graph(63),), ("P63",)))
        assert r.total == 1 and "over cap" in r.skipped[0].reason
        assert keys == []

    def test_parsed_corpus_scans_encode_no_key(self, tmp_path, monkeypatch):
        # a scan keys its rows by the corpus's labels: once the corpus is
        # built, neither a cold nor a warm scan encodes, whether the
        # corpus was read from graph6 or built from graphs
        corpora = (Corpus.from_file(CONNECTED_1_7),
                   Corpus.from_graphs(g for n in range(1, 6) for g in connected_graphs(n)))
        calls = []
        encode_int = graphs._encode_int

        def spy(*args):
            calls.append(args)
            return encode_int(*args)
        monkeypatch.setattr(graphs, "_encode_int", spy)
        for name, corpus in zip(("parsed", "built"), corpora):
            cache = tmp_path / f"{name}.jsonl"
            cold = scan_conjectures(corpus, cache_path=cache)
            text = cache.read_text()
            warm = scan_conjectures(corpus, cache_path=cache)
            assert _stable(warm) == _stable(cold)
            assert cache.read_text() == text
            assert calls == [], name

    def test_cache_roundtrip(self, tmp_path):
        cache = tmp_path / "scan.jsonl"
        corpus = _corpus(complete_graph(3), path_graph(4))
        first = scan_conjectures(corpus, cache_path=cache)
        rows = [json.loads(l) for l in cache.read_text().splitlines()]
        assert {row["g6"] for row in rows} == set(corpus.labels)
        for row in rows:
            assert set(row) == {"g6", "dprime", "od_minus", "timestamp"}
        # a second run reuses every value and appends nothing
        second = scan_conjectures(corpus, cache_path=cache)
        assert _stable(first) == _stable(second)
        assert len(cache.read_text().splitlines()) == len(rows)

    def test_cache_corrupt_line_tolerated(self, tmp_path):
        cache = tmp_path / "scan.jsonl"
        cache.write_text("this is not json\n")
        with pytest.warns(UserWarning, match="corrupt line 1"):
            r = scan_conjectures(_corpus(complete_graph(3)), cache_path=cache)
        assert r.ok

    def test_batches_read_the_cache_once(self, tmp_path, monkeypatch):
        cache = tmp_path / "scan.jsonl"
        scan_conjectures(_corpus(path_graph(3)), cache_path=cache)
        reads = []
        read_text = Path.read_text

        def spy(self, *args, **kwargs):
            reads.append(self)
            return read_text(self, *args, **kwargs)
        monkeypatch.setattr(Path, "read_text", spy)
        verify._CACHE_MEMO.clear()
        for g in (complete_graph(3), cycle_graph(5), path_graph(4)):
            assert scan_conjectures(_corpus(g), cache_path=cache).ok
        assert reads == [cache]
        rows = [json.loads(line) for line in read_text(cache).splitlines()]
        assert len(rows) == 4

    def test_cache_spellings_give_the_same_rows(self, tmp_path):
        folder = tmp_path / "dir"
        folder.mkdir()
        cache = folder / "c.jsonl"
        corpus = _corpus(path_graph(3), cycle_graph(5))
        first = _stable(scan_conjectures(corpus, cache_path=cache))
        text = cache.read_text()
        want = dict(verify._load_cache(cache))
        link = tmp_path / "link.jsonl"
        link.symlink_to(cache)
        spellings = (link, folder / ".." / "dir" / "c.jsonl", str(cache), cache)
        for spelling in spellings:
            assert verify._load_cache(spelling) == want
            assert _stable(scan_conjectures(corpus, cache_path=spelling)) == first
        assert cache.read_text() == text
        # rows appended through one spelling are read through the others
        assert scan_conjectures(_corpus(star_graph(3)), cache_path=link).ok
        want[encode_graph6(star_graph(3))] = (3, None)  # od_minus not needed at 3
        for spelling in spellings:
            assert verify._load_cache(spelling) == want

    def test_relative_cache_path_follows_the_working_directory(
            self, tmp_path, monkeypatch):
        corpus = _corpus(path_graph(3))
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir()
        second.mkdir()
        monkeypatch.chdir(first)
        assert scan_conjectures(corpus, "2", cache_path="c.jsonl").ok
        # the other file has the same size and mtime: only the inode differs
        st = (first / "c.jsonl").stat()
        other = second / "c.jsonl"
        other.write_text((first / "c.jsonl").read_text()
                         .replace('"od_minus": 1', '"od_minus": 2'))
        os.utime(other, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert (other.stat().st_size, other.stat().st_mtime_ns) == \
            (st.st_size, st.st_mtime_ns)
        monkeypatch.chdir(second)
        assert verify._load_cache("c.jsonl") == {encode_graph6(path_graph(3)): (2, 2)}
        assert not scan_conjectures(corpus, "2", cache_path="c.jsonl").ok

    def test_cache_replaced_with_equal_size_and_mtime_is_read_again(self, tmp_path):
        cache = tmp_path / "scan.jsonl"
        corpus = _corpus(path_graph(3))
        assert scan_conjectures(corpus, "2", cache_path=cache).ok
        st = cache.stat()
        swap = tmp_path / "swap.jsonl"
        swap.write_text(cache.read_text().replace('"od_minus": 1', '"od_minus": 2'))
        os.utime(swap, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(swap, cache)
        now = cache.stat()
        assert (now.st_size, now.st_mtime_ns) == (st.st_size, st.st_mtime_ns)
        assert now.st_ino != st.st_ino
        assert not scan_conjectures(corpus, "2", cache_path=cache).ok

    def test_cache_rewritten_from_outside_is_seen(self, tmp_path):
        cache = tmp_path / "scan.jsonl"
        corpus = _corpus(path_graph(3))
        assert scan_conjectures(corpus, "2", cache_path=cache).ok
        # another writer replaces the rows with impossible values
        cache.write_text(json.dumps({"g6": encode_graph6(path_graph(3)),
                                     "dprime": 2, "od_minus": 2}) + "\n")
        assert not scan_conjectures(corpus, "2", cache_path=cache).ok

    @pytest.mark.parametrize("row", [
        {"g6": "Bw", "dprime": "3", "od_minus": 2},
        {"g6": "Bw", "dprime": True, "od_minus": None},
        {"g6": "Bw", "dprime": 2.0, "od_minus": None},
        {"g6": "Bw", "dprime": 0},
        {"g6": "Bw", "od_minus": None},
        {"g6": "Bw", "dprime": 3, "od_minus": False},
        {"g6": "Bw", "dprime": 3, "od_minus": "1"},
        {"g6": 5, "dprime": 3},
        ["Bw", 3],
    ])
    def test_wrongly_typed_row_is_skipped_and_recomputed(self, tmp_path, row):
        cache = tmp_path / "scan.jsonl"
        cache.write_text(json.dumps(row) + "\n")
        with pytest.warns(UserWarning, match="corrupt line 1"):
            r = scan_conjectures(Corpus.from_lines(["Bw"]), cache_path=cache)
        assert r.ok and r.passed == 1
        fresh = [json.loads(line) for line in cache.read_text().splitlines()[1:]]
        assert [(f["g6"], f["dprime"], f["od_minus"]) for f in fresh] == \
            [("Bw", 3, None)]

    def test_corrupt_line_warns_on_the_read_that_sees_it(self, tmp_path):
        cache = tmp_path / "scan.jsonl"
        corpus = _corpus(complete_graph(3))
        scan_conjectures(corpus, cache_path=cache)
        with cache.open("a") as fh:
            fh.write("{not json\n")
        with pytest.warns(UserWarning, match="corrupt line 2"):
            assert scan_conjectures(corpus, cache_path=cache).ok

    def test_counterexample_reported_not_raised(self, tmp_path):
        # seed the cache with impossible values; the scan must surface
        # the resulting finding in the report instead of raising
        cache = tmp_path / "scan.jsonl"
        canon = encode_graph6(path_graph(3))
        cache.write_text(json.dumps(
            {"g6": canon, "dprime": 2, "od_minus": 2}) + "\n")
        r = scan_conjectures(_corpus(path_graph(3)), "2", cache_path=cache)
        assert not r.ok
        assert r.violations[0].graph6 == canon
        assert "rigid orientation" in r.violations[0].expected

    def test_scan_takes_the_parsed_graphs(self, tmp_path, monkeypatch):
        # as in verify_theorem: no graph is parsed again, cold or warm,
        # and the caches the scan fills do not stay on the corpus's graphs
        corpus = Corpus.from_lines(["A_", "Bw", "C?", "Cs", "DhC", "E?bw"])
        before = [dict(vars(g)) for g in corpus]

        def no_parse(*args):
            raise AssertionError("graph parsed again")

        monkeypatch.setattr(verify, "parse", no_parse)
        for jobs in (1, 2):
            cache = tmp_path / f"scan{jobs}.jsonl"
            for _ in range(2):  # cold, then warm
                r = scan_conjectures(corpus, cache_path=cache, jobs=jobs)
                assert r.total == r.passed + len(r.violations) + len(r.skipped) == 6
        assert [vars(g) for g in corpus] == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_pinned_cold_and_warm(self, tmp_path, jobs):
        # SHA-256 of each row's g6, dprime and od_minus in file order: the
        # values a cold scan of every connected graph on at most 7
        # vertices settles, as the searches alone give them
        corpus = Corpus.from_graphs(
            g for n in range(1, 8) for g in connected_graphs(n))
        cache = tmp_path / "scan.jsonl"
        cold = scan_conjectures(corpus, cache_path=cache, jobs=jobs)
        text = cache.read_text()
        warm = scan_conjectures(corpus, cache_path=cache, jobs=jobs)
        assert _stable(warm) == _stable(cold)
        assert cache.read_text() == text  # the warm pass appends nothing
        digest = hashlib.sha256("\n".join(
            " ".join(str(row[k]) for k in ("g6", "dprime", "od_minus"))
            for row in map(json.loads, text.splitlines())).encode()).hexdigest()
        assert digest == \
            "79372419debf7d17afa6a933e71f016c371f7eb868dc95ee3728ee7d873551fd"

    def test_jobs_match_serial(self):
        corpus = _corpus(complete_graph(3), path_graph(3), cycle_graph(5))
        assert _stable(scan_conjectures(corpus, jobs=1)) == \
            _stable(scan_conjectures(corpus, jobs=2))

    def test_warm_scan_settles_every_graph_from_its_row(self, tmp_path,
                                                        monkeypatch):
        # a cached row stands for the connectivity test: a warm scan
        # computes no value, and tests connectivity only for the two
        # graphs with no row, the single edge and K7 over the cap
        corpus = Corpus.from_file(CONNECTED_1_7)
        cache = tmp_path / "scan.jsonl"
        masks, reached, settled = [_spy(monkeypatch, name) for name in
                                   ("neighbour_masks", "reach", "_settle")]
        cold = scan_conjectures(corpus, cache_path=cache)
        assert len(masks) == len(reached) == len(corpus) == 996
        assert len(settled) == 994
        masks.clear()
        reached.clear()
        settled.clear()
        assert _stable(scan_conjectures(corpus, cache_path=cache)) == \
            _stable(cold)
        assert [encode_graph6(g) for g in masks] == \
            [s.graph6 for s in cold.skipped] == ["A_", "F~~~w"]
        assert (len(reached), settled) == (2, [])

    def test_cached_row_over_a_lower_cap_is_set_aside(self, tmp_path):
        # K7 has 21 edges: a row written at cap 25 is set aside at cap 20,
        # as a cold scan sets it aside
        corpus = _corpus(path_graph(3), complete_graph(7))
        cache = tmp_path / "scan.jsonl"
        assert scan_conjectures(corpus, edge_cap=25, cache_path=cache).passed == 2
        assert "F~~~w" in cache.read_text()
        capped = scan_conjectures(corpus, edge_cap=20, cache_path=cache)
        assert _stable(capped) == _stable(scan_conjectures(corpus, edge_cap=20))
        assert [s.reason for s in capped.skipped] == ["edge count 21 over cap 20"]

    def test_conjecture_2_after_conjecture_1_computes_the_missing_values(
            self, tmp_path, monkeypatch):
        # conjecture 1 needs no orientation minimum at D' = 2, so its rows
        # lack one; a conjecture 2 scan on the same cache computes exactly
        # those and reports as a scan with no cache does
        graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
        corpus = Corpus.from_graphs(graphs)
        cache = tmp_path / "scan.jsonl"
        scan_conjectures(corpus, "1", cache_path=cache)
        first = {row["g6"]: row for row in _rows(cache)}
        lacking = [g6 for g6, row in first.items()
                   if row["dprime"] == 2 and row["od_minus"] is None]
        assert lacking
        settled = _spy(monkeypatch, "_settle")
        second = scan_conjectures(corpus, "2", cache_path=cache)
        assert sorted(map(encode_graph6, settled)) == sorted(lacking)
        assert _stable(second) == _stable(scan_conjectures(corpus, "2"))
        rows = _rows(cache)[len(first):]
        assert sorted(row["g6"] for row in rows) == sorted(lacking)
        assert all(row["od_minus"] == 1 for row in rows)

    def test_warm_parallel_scan_starts_no_pool(self, tmp_path, monkeypatch):
        # cached rows, a single edge, a disconnected graph and one over the
        # cap: nothing is left for a worker, so no pool starts
        import concurrent.futures
        corpus = Corpus.from_graphs(
            [g for n in range(1, 6) for g in connected_graphs(n)]
            + [Graph(4, ()), complete_graph(7)])
        cache = tmp_path / "scan.jsonl"
        cold = scan_conjectures(corpus, cache_path=cache, jobs=2)
        assert {s.reason for s in cold.skipped} == {
            "disconnected", "distinguishing index undefined for a single edge",
            "edge count 21 over cap 20"}
        text = cache.read_text()

        def no_pool(*args, **kwargs):
            raise AssertionError("process pool started")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert _stable(scan_conjectures(corpus, cache_path=cache, jobs=2)) == \
            _stable(cold)
        assert cache.read_text() == text


def _spy(monkeypatch, name):
    """Record the first argument of every call verify makes to name."""
    calls = []
    fn = getattr(verify, name)

    def spy(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)
    monkeypatch.setattr(verify, name, spy)
    return calls


def _rows(cache):
    rows = [json.loads(line) for line in cache.read_text().splitlines()]
    for row in rows:
        del row["timestamp"]
    return rows


def _path_decisions(top: int):
    """(g, path, colours, kept) for every colouring _two_colouring decides
    by its closed forms on connected graphs with 2 <= n <= top: the
    longest path's, and with each chord of a path through every vertex.
    kept says whether an automorphism but the identity keeps colours."""
    for n in range(2, top + 1):
        for g in connected_graphs(n):
            bits = neighbour_masks(g)
            path = longest_path(g)
            k = len(path)
            steps = {frozenset(e) for e in zip(path, path[1:])}
            base = tuple(1 if frozenset(e) in steps else 2 for e in g.edges)
            yield g, path, base, verify._symmetric(
                bits, path, [range(k - 1, -1, -1)])
            if k < n:
                continue
            for i, (u, v) in enumerate(g.edges):
                if base[i] == 2:
                    a, b = sorted((path.index(u), path.index(v)))
                    yield (g, path, base[:i] + (1,) + base[i + 1:],
                           verify._symmetric(bits, path,
                                             verify._chord_moves(n, a, b)))


# a triangle with a pendant edge at each corner: claw-free, and its three
# leaves rule out a Hamiltonian path
NET = Graph.from_edges(6, [(0, 1), (0, 4), (1, 4), (0, 2), (1, 3), (4, 5)])
# a triangle with one pendant edge, whose path colouring distinguishes it
PAW = Graph.from_edges(4, [(0, 1), (0, 3), (1, 3), (0, 2)])
# three legs of lengths 1, 1 and 2 at one centre: not traceable, a claw;
# its longest path's colouring distinguishes it and orients it rigidly
SPIDER = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
# legs of lengths 1, 2 and 2: the longest path's reversal keeps both its
# colouring and that with the one chord, so D' is searched, and the
# search's witness orients it rigidly
LONG_LEGS = Graph.from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 3), (2, 4)])
# an edge 01 with common neighbours 4 and 5 and a pendant edge at each
# end: the longest path (2, 0, 4, 1, 3) sets it apart with one chord
TWO_TAILS = Graph.from_edges(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3),
                                 (1, 4), (1, 5)])
# K_{2,4} with a pendant edge: its longest path's colouring distinguishes
# it, but that colouring's orientation keeps a symmetry
K24_TAIL = Graph.from_edges(7, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 3),
                                (1, 6), (2, 6), (4, 6), (5, 6)])


class TestScanCertificates:
    def test_rows_equal_the_searches(self, tmp_path):
        graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
        cache = tmp_path / "scan.jsonl"
        report = scan_conjectures(Corpus.from_graphs(graphs), cache_path=cache)
        assert report.ok
        rows = {row["g6"]: row for row in
                map(json.loads, cache.read_text().splitlines())}
        skipped = {s.graph6 for s in report.skipped}
        assert skipped == {"A_", "F~~~w"}  # the single edge, K7 over the cap
        assert len(rows) == len(graphs) - len(skipped)
        for g in graphs:
            g6 = encode_graph6(g)
            if g6 in skipped:
                continue
            d = dprime(g).value
            if d == 2:
                want = 1 if find_rigid_orientation(g) else od_minus(g)[0]
            elif d >= 4:
                want = od_minus(g)[0]
            else:
                want = None
            assert (rows[g6]["dprime"], rows[g6]["od_minus"]) == (d, want), g6

    @pytest.mark.parametrize("g, searched, swept", [
        (PAW, False, False),
        (path_graph(5), True, False),  # the reversal keeps it; no chord
        (SPIDER, False, False),
        (NET, True, False),
        (complete_graph(6), False, False),  # a chord sets it apart
        (LONG_LEGS, True, False),
        (TWO_TAILS, False, False),
        (K24_TAIL, False, True),
    ])
    def test_which_values_are_searched(self, monkeypatch, g, searched, swept):
        # the scan's symmetry searches of the graph, after its twin
        # screen, and the structures it tests with is_rigid
        rigidity_searches = _spy(monkeypatch, "nontrivial_automorphism")
        tested = _spy(monkeypatch, "is_rigid")
        index = _spy(monkeypatch, "dprime")
        sweeps = _spy(monkeypatch, "find_rigid_orientation")
        clawfree = _spy(monkeypatch, "clawfree_rigid_orientation_trace")
        assert dprime(g).value == 2
        assert scan_conjectures(_corpus(g)).passed == 1
        assert (len(index), len(sweeps)) == (int(searched), int(swept))
        assert clawfree == []
        # the others have twins, so only these are searched
        assert len(rigidity_searches) == int(
            g in (NET, path_graph(5), LONG_LEGS))
        # is_rigid tests only the index witness's orientation, for the
        # graphs with no Hamiltonian path
        assert all(isinstance(x, Orientation) for x in tested)
        assert len(tested) == int(
            g in (NET, SPIDER, LONG_LEGS, TWO_TAILS, K24_TAIL))

    def test_cold_scan_search_counts(self, monkeypatch):
        # what the certificates leave to the searches, n <= 7: a regression
        # that sends graphs back to them shows here
        index = _spy(monkeypatch, "dprime")
        sweeps = _spy(monkeypatch, "find_rigid_orientation")
        corpus = Corpus.from_graphs(
            g for n in range(1, 8) for g in connected_graphs(n))
        assert scan_conjectures(corpus).ok
        assert (len(index), len(sweeps)) == (57, 2)
        assert [encode_graph6(g) for g in sweeps] == ["FqacO", "FqaBW"]

    def test_scans_leave_no_adjacency_on_the_corpus(self, tmp_path):
        graphs = [Graph(g.n, g.edges)
                  for n in range(1, 7) for g in connected_graphs(n)]
        corpus = Corpus.from_graphs(graphs)
        cache = tmp_path / "scan.jsonl"
        for _ in range(2):  # cold, then warm
            assert scan_conjectures(corpus, cache_path=cache).ok
            assert not any(vars(g).keys() & {"edge_index", "hung"}
                           for g in graphs)

    def test_closed_forms_equal_the_stabiliser_test(self):
        # every decision _two_colouring can make on a connected graph with
        # n <= 7: the longest path's colouring, and each chord's on a path
        # through every vertex
        chords = 0
        for g, path, colours, kept in _path_decisions(7):
            assert kept == (not is_distinguishing(g, Colouring(2, colours))), \
                (encode_graph6(g), colours)
            chords += colours.count(1) == len(path)
        assert chords == 4567

    def test_closed_forms_equal_brute_force(self):
        for g, _, colours, kept in _path_decisions(6):
            assert kept == (oracles.colour_keeping_map(g, colours) is not None), \
                (encode_graph6(g), colours)

    def test_traceable_graphs_orient_by_theorem_8(self, monkeypatch):
        # a traceable graph at D' = 2 is settled with no orientation built
        graphs = [g for n in range(2, 7) for g in connected_graphs(n)
                  if len(longest_path(g)) == n]
        built = _spy(monkeypatch, "hamiltonian_orientation")
        rigid = verify.is_rigid

        def rigid_spy(x):
            if isinstance(x, Orientation):
                built.append(x)
            return rigid(x)
        monkeypatch.setattr(verify, "is_rigid", rigid_spy)
        assert scan_conjectures(Corpus.from_graphs(graphs)).ok
        assert built == []

    def test_path_orientation_is_rigid(self):
        # what the scan relies on for those graphs, by brute force
        for n in range(2, 7):
            for g in connected_graphs(n):
                path = longest_path(g)
                if len(path) == n:
                    o = hamiltonian_orientation(g, path)
                    assert oracles.brute_automorphism_images(o) == \
                        [tuple(range(n))], encode_graph6(g)

    def test_warm_rescan_computes_no_path(self, monkeypatch, tmp_path):
        cache = tmp_path / "scan.jsonl"
        corpus = _corpus(NET, PAW, SPIDER, path_graph(5), star_graph(4))
        first = scan_conjectures(corpus, cache_path=cache)
        paths = _spy(monkeypatch, "path_walk")
        assert _stable(scan_conjectures(corpus, cache_path=cache)) == \
            _stable(first)
        assert paths == []
