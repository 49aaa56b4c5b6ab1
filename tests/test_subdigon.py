import gc
import itertools
import json
import sys
import traceback
import tracemalloc

import pytest

from hypercatalan import subdigon
from hypercatalan.core import Composition, TypeVector, central_count, hyper_catalan, vef
from hypercatalan.raney import is_word_list, lists_text, parse_string
from hypercatalan.series import LayeredPoly
from hypercatalan.subdigon import count_subdigons, enumerate_subdigons, serialize
from oracles import (
    NULL,
    PlaneTree,
    central_arity,
    check_subdigon,
    count_trees,
    enumerate_trees,
    from_word,
    group_trees,
    panel,
    psi_sum,
    to_word,
    tree_of,
    type_of,
    vef_structural,
)


def tv(*counts):
    return TypeVector.from_counts(counts)


TRIANGLE = panel(2, [NULL, NULL])


def all_small_types(max_faces, max_gon):
    """Every type vector with F <= max_faces and gon index <= max_gon."""
    for counts in itertools.product(range(max_faces + 1), repeat=max_gon - 1):
        if sum(counts) <= max_faces:
            yield TypeVector.from_counts(counts)


class TestConstruction:
    def test_panel_validation(self):
        with pytest.raises(ValueError):
            panel(1, [NULL])
        with pytest.raises(ValueError):
            panel(3, [NULL, NULL])

    def test_check_subdigon(self):
        s = panel(3, [TRIANGLE, NULL, TRIANGLE])
        assert check_subdigon(s) is s
        with pytest.raises(ValueError):
            check_subdigon(PlaneTree((NULL,)))
        with pytest.raises(ValueError):
            check_subdigon(panel(2, [PlaneTree((NULL,)), NULL]))

    def test_to_word_is_preorder_arities(self):
        assert to_word(NULL) == (0,)
        assert to_word(panel(3, [NULL, TRIANGLE, NULL])) == (3, 0, 2, 0, 0, 0)
        assert to_word(PlaneTree((PlaneTree((NULL,)),))) == (1, 1, 0)

    def test_central_arity(self):
        assert central_arity(NULL) is None
        assert central_arity(TRIANGLE) == 2
        assert central_arity(panel(3, [NULL] * 3)) == 3


class TestTypeOf:
    def test_null(self):
        assert type_of(NULL) == TypeVector()

    def test_single_panels(self):
        assert type_of(TRIANGLE) == tv(1)
        assert type_of(panel(4, [NULL] * 4)) == tv(0, 0, 1)

    def test_nested(self):
        s = panel(2, [panel(3, [NULL] * 3), NULL])
        assert type_of(s) == tv(1, 1)
        assert type_of(panel(2, [TRIANGLE, NULL])) == tv(2)


class TestVEFStructural:
    def test_base_cases(self):
        assert (vef_structural(NULL).V, vef_structural(NULL).E, vef_structural(NULL).F) == (2, 1, 0)
        s = vef_structural(TRIANGLE)
        assert (s.V, s.E, s.F) == (3, 3, 1)

    def test_agrees_with_closed_form_exhaustively(self):
        for m in all_small_types(max_faces=5, max_gon=4):
            for s in map(tree_of, enumerate_subdigons(m)):
                assert vef_structural(s) == vef(type_of(s))


class TestEnumeration:
    def test_null_type(self):
        assert enumerate_subdigons(TypeVector()) == ["0"]
        assert tree_of("0") == NULL

    def test_paper_counts(self):
        assert len(enumerate_subdigons(tv(2, 1))) == 21
        assert len(enumerate_subdigons(tv(2, 1, 1))) == 495

    def test_no_duplicates_and_right_types(self):
        for m in [tv(2, 1), tv(3), tv(1, 1, 1)]:
            subs = [tree_of(w) for w in enumerate_subdigons(m)]
            assert len(set(subs)) == len(subs)
            assert all(type_of(s) == m for s in subs)

    def test_face_cap(self):
        with pytest.raises(ValueError):
            enumerate_subdigons(tv(9), face_cap=8)

    def test_to_json_pieces_are_json_dumps_of_the_words(self):
        for m in [TypeVector(), tv(2, 1), tv(0, 0, 0, 0, 0, 0, 0, 0, 1)]:
            pieces = subdigon.to_json(subdigon.subdigons_text(m))
            assert "".join(pieces) == json.dumps(enumerate_subdigons(m)), m


class TestCounting:
    def test_catalan_column(self):
        expected = [1, 1, 2, 5, 14, 42, 132]
        for n, c in enumerate(expected):
            assert count_subdigons(TypeVector.of({2: n} if n else {})) == c

    def test_paper_values(self):
        assert count_subdigons(tv(2, 1)) == 21
        assert count_subdigons(tv(4)) == 14

    def test_matches_enumeration(self):
        # every type of <= 6 faces over arities 2-7 with at most 5,000 subdigons
        small = [m for m in all_small_types(max_faces=6, max_gon=7) if hyper_catalan(m) <= 5000]
        for m in small + WIDE_TYPES:
            assert count_subdigons(m) == len(enumerate_subdigons(m)), m

    def test_matches_tree_oracle_to_8_faces(self):
        for m in all_small_types(max_faces=8, max_gon=4):
            assert count_subdigons(m) == count_trees(m), m

    # 200 faces of one arity, and 9 of arities 3 and 6
    @pytest.mark.parametrize("counts", [{2: 200}, {2: 4, 5: 5}])
    def test_recursion_depth_bounded_by_arity(self, counts):
        m = TypeVector.of(counts)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(traceback.extract_stack()) + 40)
        try:
            count = count_subdigons(m)
        finally:
            sys.setrecursionlimit(limit)
        assert count == count_trees(m)


class TestCentralClassification:
    def test_paper_split(self):
        split = {}
        for s in map(tree_of, enumerate_subdigons(tv(2, 1))):
            split[central_arity(s)] = split.get(central_arity(s), 0) + 1
        assert split == {2: 12, 3: 9}

    def test_matches_central_count(self):
        for m in all_small_types(max_faces=5, max_gon=5):
            words = enumerate_subdigons(m)
            for r in range(2, 6):
                # the head digit of a word is the arity of its central polygon
                got = sum(1 for w in words if w[0] == str(r))
                assert got == central_count(m, r)


class TestPsiProjection:
    def test_monomial_sum(self):
        m = tv(2, 1, 1)
        assert psi_sum(map(tree_of, enumerate_subdigons(m))) == LayeredPoly({m: 495})


class TestWordToTree:
    def test_group_trees_items(self):
        assert group_trees(()) == []
        assert group_trees((0, 0)) == [(0, NULL), (1, NULL)]
        assert group_trees((2, 0)) == [(0, None), (1, NULL)]
        assert group_trees((0, 3, 0, -1)) == [(0, NULL), (1, None), (2, NULL), (3, None)]
        assert group_trees((1, 2, 0, 0)) == [(0, PlaneTree((TRIANGLE,)))]

    def test_round_trip_every_subdigon_up_to_5_faces(self):
        for m in all_small_types(5, 4):
            for s in map(tree_of, enumerate_subdigons(m)):
                assert from_word(to_word(s)) == s

    def test_from_word_errors(self):
        with pytest.raises(ValueError) as exc:
            from_word((2, 0))
        assert str(exc.value) == "unexpected end of input at position 2"
        with pytest.raises(ValueError) as exc:
            from_word((2, 0, 0, 0, 3))
        assert str(exc.value) == "trailing input at position 3"
        with pytest.raises(ValueError):
            from_word(())


class TestSerialization:
    def test_basic_forms(self):
        assert serialize((0,)) == "0"
        assert serialize(to_word(TRIANGLE)) == "200"
        assert serialize(to_word(panel(3, [NULL, TRIANGLE, NULL]))) == "302000"

    def test_round_trip_all_495(self):
        for w in enumerate_subdigons(tv(2, 1, 1)):
            s = tree_of(w)
            assert serialize(to_word(s)) == w
            assert tree_of(serialize(to_word(s))) == s

    def test_large_arity_comma_separated(self):
        for k in (10, 12):
            s = panel(k, [NULL] * k)
            assert serialize(to_word(s)) == f"{k}" + ",0" * k
            assert tree_of(serialize(to_word(s))) == s
        assert serialize(to_word(panel(9, [NULL] * 9))) == "9" + "0" * 9

    def test_deep_text_does_not_recurse(self):
        text = "2" * 3000 + "0" * 3001
        assert to_word(tree_of(text)) == tuple(int(ch) for ch in text)


class TestDeepTrees:
    def test_unary_chain_of_5000_nodes(self):
        chain = from_word((1,) * 4999 + (0,))
        same = from_word((1,) * 4999 + (0,))
        longer = from_word((1,) * 5000 + (0,))
        assert chain == same and hash(chain) == hash(same)
        assert chain != longer
        assert len({chain, same, longer}) == 2
        assert repr(chain) == "PlaneTree('" + "1" * 4999 + "0')"
        assert serialize(to_word(chain)) == "1" * 4999 + "0"

    def test_equality_is_by_word(self):
        assert panel(2, [TRIANGLE, NULL]) != panel(2, [NULL, TRIANGLE])
        assert panel(2, [TRIANGLE, NULL]) == from_word((2, 2, 0, 0, 0))
        assert NULL != (0,) and NULL == PlaneTree(())


def _words_of_trees(m):
    return [serialize(to_word(s)) for s in enumerate_trees(m)]


# types with an arity of 10 or more, whose words are in the comma form
WIDE_TYPES = [
    tv(*counts)
    for counts in ([0] * 8 + [1], [1] + [0] * 8 + [1], [0] * 9 + [1], [1, 1] + [0] * 9 + [1])
]


def _oracle_types():
    """Every type of <= 6 faces over arities 2-7 with at most 5,000 subdigons, and WIDE_TYPES."""
    small = [m for m in all_small_types(max_faces=6, max_gon=7) if hyper_catalan(m) <= 5000]
    return small + WIDE_TYPES


class TestAgainstOracles:
    def test_words_equal_the_tree_oracle_in_lexicographic_order(self):
        for m in _oracle_types():
            assert enumerate_subdigons(m) == sorted(_words_of_trees(m), key=parse_string), m

    def test_listing_is_the_raney_listing_of_one_word(self):
        for m in _oracle_types():
            assert subdigon.subdigons_text(m) == lists_text(1, Composition(0, m)), m

    def test_every_word_is_a_raney_word(self):
        for m in _oracle_types():
            for w in enumerate_subdigons(m):
                assert is_word_list(parse_string(w), 1), (m, w)

    def test_counts_equal_the_type_vector_oracle(self):
        for m in [*all_small_types(max_faces=6, max_gon=7), *WIDE_TYPES]:
            assert count_subdigons(m) == count_trees(m), m


def _clear_memo():
    subdigon._listing.cache_clear()


class TestMemo:
    def test_words_do_not_depend_on_call_order(self):
        # the memo holds each listed type's finished text, so no listing
        # depends on which types were listed before it
        types = sorted(all_small_types(max_faces=5, max_gon=5),
                       key=lambda m: (m.faces(), m.to_counts()))
        try:
            expected = {m: sorted(_words_of_trees(m), key=parse_string) for m in types}
        finally:
            enumerate_trees.cache_clear()  # 663,021 trees
        for order in (types, types[::-1]):
            _clear_memo()
            for m in order:
                assert enumerate_subdigons(m) == expected[m], m

    def test_retention_is_bounded_by_the_listing(self):
        _clear_memo()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            words = enumerate_subdigons(tv(2, 2, 1))
            text_bytes = sum(len(w) + 1 for w in words)
            del words
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 2 * text_bytes, (retained, text_bytes)

    def test_build_peak_is_bounded_by_the_listing(self):
        # the suffix table keeps the lists of a sub-multiset as one block of text, so
        # a build never holds a separate str per word of the type (6.6 times the text
        # if it did)
        _clear_memo()
        gc.collect()
        tracemalloc.start()
        try:
            text = subdigon.subdigons_text(tv(3, 2, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text), (peak, len(text))
