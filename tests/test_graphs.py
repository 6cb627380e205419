"""Formats, basic structure queries and tree centres."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from disorient import (
    Corpus,
    FormatError,
    Graph,
    Orientation,
    analyze,
    bipartition,
    connected_graphs,
    cycle_graph,
    double_star,
    encode_digraph6,
    encode_graph6,
    hamiltonian_path,
    hang,
    hang_centre,
    is_claw_free,
    is_connected,
    is_tree,
    longest_cycle,
    longest_path,
    parse,
    path_graph,
    star_graph,
    tree_center,
    trees,
)


class TestParse:
    def test_graph6_triangle(self):
        g = parse("graph6", "Bw")
        assert g.n == 3
        assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}

    def test_graph6_single_vertex(self):
        g = parse("graph6", "@")
        assert (g.n, g.m) == (1, 0)

    def test_graph6_optional_header(self):
        assert parse("graph6", ">>graph6<<Bw") == parse("graph6", "Bw")

    def test_header_then_space(self):
        # as in a corpus line, the space after a header is not data
        assert parse("graph6", ">>graph6<< Cs") == parse("graph6", "Cs")
        assert parse("digraph6", ">>digraph6<< &BP?") == parse("digraph6", "&BP?")

    def test_edgelist_path(self):
        g = parse("edgelist", "3\n0 1\n1 2")
        assert g == path_graph(3)

    def test_edgelist_comments_and_blanks(self):
        text = "4  # order\n\n0 1\n1 2  # middle\n2 3\n"
        assert parse("edgelist", text) == path_graph(4)

    def test_digraph6_round_trip(self):
        o = Orientation(cycle_graph(4), 0b0101)
        again = parse("digraph6", encode_digraph6(o))
        assert again.arcs == o.arcs

    def test_digraph6_header(self):
        o = Orientation(path_graph(3), 0)
        text = encode_digraph6(o)
        assert text.startswith("&")
        assert parse("digraph6", ">>digraph6<<" + text).arcs == o.arcs

    def test_digraph6_opposite_arcs_rejected(self):
        # adjacency matrix with both (0,1) and (1,0): bits 01 / 10
        # n=2: matrix rows "01","10" -> bits 0110 padded -> value 011000
        bad = "&" + chr(2 + 63) + chr(0b011000 + 63)
        with pytest.raises(FormatError, match="not an orientation"):
            parse("digraph6", bad)

    def test_malformed_inputs(self):
        for text in ["", "B", "Bww", chr(62) + "w"]:
            with pytest.raises(FormatError):
                parse("graph6", text)
        with pytest.raises(FormatError):
            parse("edgelist", "2\n0 3")
        with pytest.raises(FormatError):
            parse("edgelist", "x\n0 1")
        with pytest.raises(ValueError):
            parse("nonsense", "Bw")

    @pytest.mark.parametrize("fmt, text, message", [
        ("graph6", "", "empty input"),
        ("graph6", "~", "graphs with more than 62 vertices are not supported"),
        ("graph6", ">", "bad size byte '>'"),
        ("graph6", "?", "vertex count 0"),
        ("graph6", "B", "expected 1 data bytes, got 0"),
        ("graph6", "Bww", "expected 1 data bytes, got 2"),
        ("graph6", "B\x7f\x7f", "expected 1 data bytes, got 2"),
        ("graph6", "D?\x7f", "bad data byte '\\x7f'"),
        ("graph6", "D>x", "bad data byte '>'"),
        ("graph6", "Bx", "nonzero padding bits"),
        ("graph6", "D?A", "nonzero padding bits"),
        ("digraph6", "Bw", "digraph6 input must start with '&'"),
        ("digraph6", "&A", "expected 1 data bytes, got 0"),
        ("digraph6", "&Aww", "expected 1 data bytes, got 2"),
        ("digraph6", "&A\x7f", "bad data byte '\\x7f'"),
        ("digraph6", "&A@", "nonzero padding bits"),
        ("digraph6", "&A" + chr(0b000011 + 63), "nonzero padding bits"),
        ("digraph6", "&@_", "not an orientation: loop"),
        # the first defect in row order names the error
        ("digraph6", "&A" + chr(0b111000 + 63), "not an orientation: loop"),
        ("digraph6", "&A" + chr(0b011100 + 63), "not an orientation: opposite arcs"),
    ])
    def test_format_error_messages(self, fmt, text, message):
        with pytest.raises(FormatError) as info:
            parse(fmt, text)
        assert str(info.value) == message

    def test_disconnected_accepted(self):
        g = parse("edgelist", "4\n0 1\n2 3")
        assert not is_connected(g)


class TestEncode:
    def test_triangle(self):
        assert encode_graph6(parse("graph6", "Bw")) == "Bw"

    def test_round_trip_small_corpus(self):
        for n in range(1, 8):
            for g in connected_graphs(n):
                assert parse("graph6", encode_graph6(g)) == g

    def test_matches_independent_encoder(self):
        for n in range(1, 8):
            for g in connected_graphs(n):
                text = oracles.graph6_of(g.n, g.edges)
                assert encode_graph6(g) == text
                assert oracles.graph6_edges(text) == (g.n, list(g.edges))
                assert parse("graph6", text) == g

    def test_size_limit(self):
        with pytest.raises(ValueError):
            encode_graph6(Graph.from_edges(63, []))


@st.composite
def sized_bodies(draw):
    """A size byte and data bytes of the length it asks for, either format."""
    n = draw(st.integers(1, 8))
    directed = draw(st.booleans())
    bits = n * n if directed else n * (n - 1) // 2
    data = draw(st.text(st.characters(min_codepoint=63, max_codepoint=126),
                        min_size=(bits + 5) // 6, max_size=(bits + 5) // 6))
    return ("&" if directed else "") + chr(n + 63) + data


@st.composite
def edge_lists(draw):
    """A vertex count and lines of small tokens: loops, repeats, strays."""
    number = st.integers(-1, 7).map(str)
    token = st.one_of(number, st.sampled_from(["x", "#", ""]))
    line = st.one_of(st.tuples(number, number).map(" ".join),
                     st.lists(token, min_size=1, max_size=3).map(" ".join))
    return "\n".join([draw(number)] + draw(st.lists(line, max_size=8)))


# text near each format: graph6 bytes, a digraph6 marker, edge-list lines
FUZZ_TEXT = st.one_of(
    edge_lists(),
    st.text(),
    st.text(st.characters(min_codepoint=63, max_codepoint=127), max_size=40),
    st.text(st.characters(min_codepoint=63, max_codepoint=127), max_size=40)
    .map(lambda s: "&" + s),
    sized_bodies(),
    st.text("0123456789 -\n#x", max_size=40),
)


@st.composite
def graphs_to_62(draw):
    """A graph on up to 62 vertices, every pair an edge or not by one int."""
    n = draw(st.integers(1, 62))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, tuple(sorted(e for k, e in enumerate(pairs) if mask >> k & 1)))


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 20))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])


class TestParseFuzz:
    """Any text either parses or fails with FormatError, nothing else."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(FUZZ_TEXT)
    def test_only_format_error_escapes(self, text):
        for fmt in ("graph6", "digraph6", "edgelist"):
            try:
                parse(fmt, text)
            except FormatError:
                pass

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(random_graphs(), st.data())
    def test_round_trips(self, g, data):
        assert parse("graph6", encode_graph6(g)) == g
        o = Orientation(g, data.draw(st.integers(0, (1 << g.m) - 1)))
        assert parse("digraph6", encode_digraph6(o)) == o

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(graphs_to_62(), st.data())
    def test_codecs_match_independent_ones(self, g, data):
        text = encode_graph6(g)
        assert text == oracles.graph6_of(g.n, g.edges)
        assert oracles.graph6_edges(text) == (g.n, list(g.edges))
        assert parse("graph6", text) == g
        o = Orientation(g, data.draw(st.integers(0, (1 << g.m) - 1)))
        text = encode_digraph6(o)
        assert oracles.digraph6_arcs(text) == (g.n, sorted(o.arcs))
        assert parse("digraph6", text) == o

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(sized_bodies())
    def test_parse_agrees_with_independent_decoder(self, text):
        # each body has the right length and valid bytes, so the only
        # defects are padding and, in digraph6, loops and opposite arcs
        try:
            if text.startswith("&"):
                n, arcs = oracles.digraph6_arcs(text)
            else:
                n, edges = oracles.graph6_edges(text)
        except AssertionError:
            with pytest.raises(FormatError, match="nonzero padding bits"):
                parse("digraph6" if text.startswith("&") else "graph6", text)
            return
        if not text.startswith("&"):
            assert parse("graph6", text) == Graph(n, tuple(edges))
            return
        pairs = {frozenset(a) for a in arcs}
        if any(t == h for t, h in arcs) or len(pairs) < len(arcs):
            with pytest.raises(FormatError, match="not an orientation"):
                parse("digraph6", text)
        else:
            assert sorted(parse("digraph6", text).arcs) == arcs


class TestKeptText:
    """A corpus keeps each entry's graph6 text as its label; no graph keeps one."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(graphs_to_62())
    def test_kept_text_is_the_encoding(self, g):
        t = encode_graph6(g)
        for text in (t, ">>graph6<<" + t, f"  {t}\n", f">>graph6<< {t} # note"):
            corpus = Corpus.from_lines([text])
            assert corpus.labels == (t,)
            assert corpus.entries == (g,)
            assert encode_graph6(corpus.entries[0]) == t
            assert "graph6" not in vars(corpus.entries[0])

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(sized_bodies().filter(lambda text: not text.startswith("&")))
    def test_every_accepted_text_is_the_encoding(self, text):
        # one text per graph: the size byte, the data length and the zero
        # padding are all fixed, so any body parse accepts is the encoding
        try:
            h = parse("graph6", text)
        except FormatError:
            return
        assert encode_graph6(Graph(h.n, h.edges)) == text

    def test_corpus_labels_are_the_kept_texts(self):
        corpus = Corpus.from_lines(["Bw", ">>graph6<<Cs  # comment", "  DhC\n",
                                    ">>graph6<< Bw"])
        assert corpus.labels == ("Bw", "Cs", "DhC", "Bw")
        for g, label in zip(corpus, corpus.labels):
            assert encode_graph6(g) == label
            assert "graph6" not in vars(g)

    def test_other_graphs_keep_no_text(self):
        parsed = parse("graph6", "DhC")
        built = [parsed, Graph(parsed.n, parsed.edges),
                 parsed.relabel((4, 3, 2, 1, 0)), replace(parsed),
                 *connected_graphs(5)]
        corpus = Corpus.from_graphs(built)
        assert corpus.labels == tuple(encode_graph6(g) for g in built)
        for g in built:
            assert "graph6" not in vars(g)


class TestGraphBasics:
    def test_canonical_edge_order(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert g.index_of(2, 0) == 1

    def test_loops_and_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_relabel(self):
        g = path_graph(3).relabel((2, 1, 0))
        assert g == path_graph(3).relabel((2, 1, 0))
        assert set(g.edges) == {(1, 2), (0, 1)}

    def test_orientation_vector_round_trip(self):
        g = cycle_graph(5)
        for vec in range(1 << g.m):
            o = Orientation(g, vec)
            assert o.vector == vec
            assert Orientation.from_arcs(g, o.arcs) == o

    def test_orientation_vector_out_of_range_rejected(self):
        # a vector is never truncated to the edge count nor read as
        # "all reversed", and neither a tuple of direction flags nor a
        # single flag is taken for a vector
        for bad in (4, -1, (True, False), True):
            with pytest.raises(ValueError):
                Orientation(path_graph(3), bad)

    def test_from_arcs_input_errors(self):
        # an arc off the base, an edge directed twice, an edge left out
        for arcs, says in (([(0, 2), (1, 2)], r"arc \(0, 2\)"),
                           ([(0, 1), (1, 0)], "directed twice"),
                           ([(0, 1)], "every edge")):
            with pytest.raises(ValueError, match=says):
                Orientation.from_arcs(path_graph(3), arcs)


class TestStructure:
    def test_analyze_claw(self):
        r = analyze(star_graph(3))
        assert r.connected
        assert r.is_tree
        assert not r.is_claw_free
        assert r.bipartition is not None
        assert sorted(map(sorted, r.bipartition)) == [[0], [1, 2, 3]]
        assert r.hamiltonian_path is None
        assert r.longest_cycle is None

    def test_analyze_c6(self):
        r = analyze(cycle_graph(6))
        assert r.connected
        assert r.is_claw_free
        assert r.bipartition is not None
        assert r.hamiltonian_path is not None
        assert len(r.longest_cycle) == 6

    def test_analyze_p4(self):
        r = analyze(path_graph(4))
        assert r.is_tree
        assert r.hamiltonian_path == (0, 1, 2, 3)

    def test_bipartition(self):
        assert bipartition(parse("graph6", "Bw")) is None
        left, right = bipartition(cycle_graph(6))
        assert sorted(map(sorted, (left, right))) == [[0, 2, 4], [1, 3, 5]]

    def test_bipartition_vs_brute_colouring(self):
        # every labelled graph on at most 5 vertices, connected or not
        split = 0
        for n in range(1, 6):
            pairs = [(i, j) for j in range(1, n) for i in range(j)]
            for mask in range(1 << len(pairs)):
                g = Graph(n, tuple(sorted(p for k, p in enumerate(pairs)
                                          if mask >> k & 1)))
                want = oracles.brute_bipartition(g)
                assert bipartition(g) == want, g.edges
                split += want is not None
        assert 0 < split < 1 + 2 + 8 + 64 + 1024

    def test_predicates(self):
        assert is_tree(path_graph(5))
        assert not is_tree(cycle_graph(5))
        assert is_claw_free(cycle_graph(6))
        assert not is_claw_free(star_graph(3))

    def test_is_connected_vs_brute_search(self):
        rng = random.Random(19)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 12)
            p = rng.choice((0.1, 0.25, 0.5))
            g = Graph.from_edges(n, [(i, j) for j in range(1, n) for i in range(j)
                                     if rng.random() < p])
            want = oracles.brute_connected(g.n, g.edges)
            assert is_connected(g) == want, encode_graph6(g)
            seen.add((n == 1, want))
        assert seen == {(True, True), (False, True), (False, False)}

    def test_is_connected_fills_no_cache(self):
        for g in (cycle_graph(5), Graph.from_edges(4, [(0, 1), (2, 3)])):
            before = dict(vars(g))
            is_connected(g)
            assert vars(g) == before

    def test_hamiltonian_path_is_least(self):
        # the search returns the lexicographically smallest witness
        assert hamiltonian_path(cycle_graph(4)) == (0, 1, 2, 3)
        assert hamiltonian_path(path_graph(5)) == (0, 1, 2, 3, 4)

    def test_traceability_vs_oracle(self):
        for n in range(2, 7):
            for g in connected_graphs(n):
                assert (hamiltonian_path(g) is not None) == \
                    oracles.brute_traceable(g), encode_graph6(g)

    def test_least_path_vs_brute_force(self):
        # includes every graph the degree screen rejects unsearched
        for n in range(1, 8):
            for g in connected_graphs(n):
                assert hamiltonian_path(g) == \
                    oracles.brute_least_hamiltonian_path(g), encode_graph6(g)

    def test_least_longest_path_vs_brute_force(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                assert longest_path(g) == \
                    oracles.brute_least_longest_path(g), encode_graph6(g)
        # the walk takes no connectivity for granted
        g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        assert longest_path(g) == oracles.brute_least_longest_path(g) == \
            (2, 3, 4)

    def test_walks_fill_no_cache(self):
        for g in (cycle_graph(5), star_graph(3)):
            before = dict(vars(g))
            hamiltonian_path(g)
            longest_path(g)
            assert vars(g) == before

    def test_longest_cycle_vs_oracle(self):
        for n in range(3, 7):
            for g in connected_graphs(n):
                cyc = longest_cycle(g)
                want = oracles.brute_longest_cycle_length(g)
                assert (0 if cyc is None else len(cyc)) == want, encode_graph6(g)
                if cyc is not None:
                    k = len(cyc)
                    assert len(set(cyc)) == k
                    assert all(g.has_edge(cyc[i], cyc[(i + 1) % k])
                               for i in range(k))


class TestTreeCenter:
    def test_odd_path(self):
        info = tree_center(path_graph(5))
        assert info.kind == "vertex"
        assert info.vertices == (2,)

    def test_even_path(self):
        info = tree_center(path_graph(4))
        assert info.kind == "edge"
        assert tuple(sorted(info.vertices)) == (1, 2)

    def test_star(self):
        info = tree_center(star_graph(3))
        assert (info.kind, info.vertices) == ("vertex", (0,))

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError):
            tree_center(cycle_graph(4))

    def test_non_tree_with_tree_edge_count_rejected(self):
        # m = n - 1, but a triangle and an isolated vertex
        with pytest.raises(ValueError):
            tree_center(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]))
        with pytest.raises(ValueError):
            tree_center(Graph.from_edges(6, [(0, 1), (2, 3), (3, 4), (2, 4), (4, 5)]))

    def test_forest_rejected(self):
        # leaf stripping alone would find a "centre" of an edge plus a path
        with pytest.raises(ValueError):
            tree_center(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]))

    def test_vs_eccentricity_oracle(self):
        for n in range(2, 10):
            for t in trees(n):
                info = tree_center(t)
                assert tuple(sorted(info.vertices)) == \
                    oracles.brute_tree_centre(t), encode_graph6(t)

    def test_relabelling_invariance(self):
        rng = random.Random(7)
        for t in trees(7):
            perm = list(range(t.n))
            rng.shuffle(perm)
            mapped = tree_center(t.relabel(perm))
            direct = tree_center(t)
            assert sorted(mapped.vertices) == sorted(perm[v] for v in direct.vertices)


def rooted_shapes(t, root, table):
    """Undirected AHU codes of every vertex's subtree, t hung from root."""
    hung = hang(t, root)
    return hung.codes(table, hung.away)


class TestRootedShapes:
    def test_path_and_star(self):
        table = {}
        # a leaf is code 0, and a child's key is twice its code
        assert rooted_shapes(path_graph(3), 0, table) == [2, 1, 0]
        assert rooted_shapes(path_graph(3), 1, table) == [0, 3, 0]
        assert table == {(): 0, (0,): 1, (2,): 2, (0, 0): 3}
        # the star hung from a leaf: one child holding two leaves
        assert rooted_shapes(star_graph(3), 1, table)[1] == table[(6,)]

    def test_arc_directions_in_keys(self):
        hung = hang(path_graph(3), 1)
        table = {}
        # vector 0 is 0 -> 1 -> 2; seen from the middle, one arc points in
        # (odd key) and one out; vector 0b10 is 0 -> 1 <- 2
        assert hung.codes(table, 0)[1] == table[(0, 1)]
        assert hung.codes(table, 0b10)[1] == table[(1, 1)]
        # without directions every arc points away from the root
        assert hung.away == 0b01
        assert rooted_shapes(path_graph(3), 1, table)[1] == \
            hung.codes(table, 0b01)[1] == table[(0, 0)]

    def test_deep_path(self):
        # codes are integers, so depth costs no recursion when they compare
        table = {}
        a = rooted_shapes(path_graph(5000), 0, table)
        b = rooted_shapes(path_graph(5000), 4999, table)
        assert a == b[::-1]
        assert len(table) == 5000

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError):
            rooted_shapes(cycle_graph(4), 0, {})

    def test_root_out_of_range_rejected(self):
        for root in (-1, 3):
            with pytest.raises(ValueError, match=f"root {root} "):
                hang(path_graph(3), root)


class TestHangCentre:
    def test_hung_from_first_centre_vertex(self):
        for n in range(1, 10):
            for t in trees(n):
                hung = hang_centre(t)
                assert hung.centre == tree_center(t), encode_graph6(t)
                assert hung.root == hung.centre.vertices[0]
                assert hung.steps == hang(t, hung.root).steps, encode_graph6(t)

    def test_halves(self):
        # a's half is a's other children, b's half is b's subtree
        table = {}
        hung = hang_centre(double_star(1, 2))
        codes = hung.codes(table, hung.away)
        assert hung.halves(table, codes) == (table[(0,)], table[(0, 0)])
        hung = hang_centre(double_star(2, 2))
        codes = hung.codes(table, hung.away)
        half_a, half_b = hung.halves(table, codes)
        assert half_a == half_b == table[(0, 0)]

    def test_halves_vs_each_end(self):
        # each half's code is the other end's subtree when hung from it
        for n in range(2, 11):
            for t in trees(n):
                hung = hang_centre(t)
                if hung.centre.kind != "edge":
                    continue
                table = {}
                a, b = hung.centre.vertices
                got = hung.halves(table, hung.codes(table, hung.away))
                assert got == (rooted_shapes(t, b, table)[a],
                               rooted_shapes(t, a, table)[b]), encode_graph6(t)
