"""Verification harness: reports, skips, caching, parallel equality."""

import json
from pathlib import Path

import pytest

from disorient import verify
from disorient import (
    CLAIMS,
    THEOREM_IDS,
    Corpus,
    FormatError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    encode_graph6,
    path_graph,
    scan_conjectures,
    star_graph,
    verify_theorem,
)


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

    def test_obs1_pass_past_element_cap(self):
        # star_graph(10) has 10! automorphisms, past the element cap
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

    def test_cache_roundtrip(self, tmp_path):
        cache = tmp_path / "scan.jsonl"
        corpus = _corpus(complete_graph(3), path_graph(4))
        first = scan_conjectures(corpus, cache_path=cache)
        rows = [json.loads(l) for l in cache.read_text().splitlines()]
        assert {row["g6"] for row in rows} == set(corpus.labels)
        for row in rows:
            assert set(row) == {"g6", "dprime", "od_minus", "od_plus",
                                "timestamp"}
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
        assert reads == [cache.resolve()]
        rows = [json.loads(line) for line in read_text(cache).splitlines()]
        assert len(rows) == 4

    def test_cache_rewritten_from_outside_is_seen(self, tmp_path):
        cache = tmp_path / "scan.jsonl"
        corpus = _corpus(path_graph(3))
        assert scan_conjectures(corpus, "2", cache_path=cache).ok
        # another writer replaces the rows with impossible values
        cache.write_text(json.dumps({"g6": encode_graph6(path_graph(3)),
                                     "dprime": 2, "od_minus": 2}) + "\n")
        assert not scan_conjectures(corpus, "2", cache_path=cache).ok

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

    def test_jobs_match_serial(self):
        corpus = _corpus(complete_graph(3), path_graph(3), cycle_graph(5))
        assert _stable(scan_conjectures(corpus, jobs=1)) == \
            _stable(scan_conjectures(corpus, jobs=2))
