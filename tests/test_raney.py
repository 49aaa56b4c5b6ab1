import collections
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from hypercatalan.core import Composition, TypeVector, raney_count
from hypercatalan.raney import (
    enumerate_lists,
    format_string,
    group_words,
    identify_words,
    is_word,
    is_word_list,
    list_rotations,
    list_blocks,
    lists_text,
    parse_string,
    rank,
    render,
    rotations_text,
)
from hypercatalan.subdigon import enumerate_subdigons, serialize
from oracles import (
    NULL,
    PlaneTree,
    check_subdigon,
    enumerate_lists_dfs,
    from_word,
    group_trees,
    list_rotations_scan,
    render_tree,
    rotate,
    split_words,
    to_word,
    tree_of,
    type_of,
)


PAPER_21_WORDS = """
20203000 20230000 20300200 20302000 20320000 22003000 22030000
22300000 23000200 23002000 23020000 23200000 30020200 30022000
30200200 30202000 30220000 32000200 32002000 32020000 32200000
""".split()

PAPER_15_LISTS = """
001200 002010 002100 010200 012000 020010 020100 021000 100200
102000 120000 200010 200100 201000 210000
""".split()


def strings_of_rank(n_target, alphabet=4, max_len=12, rng=None, count=500):
    rng = rng or random.Random(0)
    out = []
    while len(out) < count:
        length = rng.randint(1, max_len)
        sigma = tuple(rng.randint(0, alphabet) for _ in range(length))
        if rank(sigma) == n_target:
            out.append(sigma)
    return out


class TestParsing:
    def test_compact_and_separated(self):
        assert parse_string("202") == (2, 0, 2)
        assert parse_string("2, 0, 12") == (2, 0, 12)
        assert parse_string("3 1 0") == (3, 1, 0)
        assert parse_string("") == ()
        assert parse_string("2 , 0 ,0") == (2, 0, 0)
        assert parse_string("2 0,1") == (2, 0, 1)
        assert parse_string("2\n0\r\n0") == (2, 0, 0)
        assert parse_string("1\x0b0\f0\u00a0 0") == (1, 0, 0, 0)  # every separator str.split knows

    @pytest.mark.parametrize("text,message", [
        ("\u00b2", "not a digit string: '\u00b2'"),  # superscript two: str.isdigit admits it
        ("\u0663\u0663", "not a digit string: '\u0663\u0663'"),  # Arabic-Indic: int() reads 33
        ("12\u00b2", "not a digit string: '12\u00b2'"),
        ("2,\u00b2", "bad symbol '\u00b2'"),
        ("2 \u0663", "bad symbol '\u0663'"),
        ("1_0,0", "bad symbol '1_0'"),  # int() reads 10
        ("2,+3", "bad symbol '+3'"),
        ("2,-0", "bad symbol '-0'"),
        ("2,-1,0", "negative symbol -1"),
        ("0 -12", "negative symbol -12"),
        (",0", "bad symbol ''"),
        ("0,,0", "bad symbol ''"),
        ("2,0,0,", "bad symbol ''"),
        ("2, ,0", "bad symbol ''"),
    ])
    def test_only_ascii_digits_are_symbols(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_string(text)
        assert str(exc.value) == message

    def test_format_round_trip(self):
        assert format_string((2, 0, 2)) == "202"
        assert format_string((12, 0)) == "12,0"
        assert parse_string(format_string((12, 0))) == (12, 0)


class TestRank:
    def test_examples(self):
        assert rank((0,)) == -1
        assert rank(parse_string("202030100")) == -1
        assert rank(parse_string("0030130010001000420")) == -4


class TestWordRecognition:
    def test_grammar_examples(self):
        assert is_word((0,))
        assert is_word(parse_string("202030100"))
        assert not is_word(parse_string("020"))
        assert not is_word(())
        assert not is_word((2, 0))

    def test_prefix_criterion_examples(self):
        assert is_word_list((0,), 1)
        assert not is_word_list(parse_string("020"), 1)

    def test_recognizers_agree_exhaustively(self):
        # grammar (grouping into one word) against the rank criterion for n = 1
        for length in range(1, 11):
            for sigma in itertools.product(range(4), repeat=length):
                assert is_word(sigma) == is_word_list(sigma, 1), sigma

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=20))
    def test_recognizers_agree_random(self, symbols):
        sigma = tuple(symbols)
        assert is_word(sigma) == is_word_list(sigma, 1)

    def test_deep_word_does_not_recurse(self):
        sigma = (1,) * 5000 + (0,)
        assert is_word(sigma)
        assert not is_word(sigma + (0,))
        assert to_word(from_word(sigma)) == sigma


class TestWordLists:
    def test_examples(self):
        assert is_word_list((0, 0), 2)
        assert is_word_list(parse_string("002010"), 3)
        assert not is_word_list(parse_string("202030100"), 2)
        assert is_word_list(parse_string("202030100"), 1)

    def test_greedy_split(self):
        assert split_words(parse_string("002010")) == [(0,), (0,), (2, 0, 1, 0)]
        assert split_words((2, 0)) is None

    def test_rank_criterion_agrees_with_greedy_split(self):
        for length in range(9):
            for sigma in itertools.product(range(4), repeat=length):
                words = split_words(sigma)
                for n in range(1, 5):
                    expected = words is not None and len(words) == n
                    assert is_word_list(sigma, n) == expected, (sigma, n)

    def test_negative_symbol_is_rejected_not_misread(self):
        # rank -1 and no proper prefix at -1, yet no word: the rank test holds for naturals only
        assert not is_word((3, -1, 0))
        with pytest.raises(ValueError, match="^negative symbol -1$"):
            is_word_list((3, -1, 0), 1)

    def test_split_segments_are_words(self):
        rng = random.Random(3)
        for n in range(1, 5):
            for sigma in strings_of_rank(-n, rng=rng, count=50):
                words = split_words(sigma)
                if words is not None:
                    assert all(is_word(w) for w in words)


class TestRotations:
    def test_trivial(self):
        assert list_rotations((0, 0)) == {0, 1}

    def test_brute_force_example(self):
        offsets = list_rotations(parse_string("0002"))
        assert len(offsets) == 2
        for off in range(4):
            expected = off in offsets
            assert is_word_list(rotate((0, 0, 0, 2), off), 2) == expected

    def test_rejects_nonnegative_rank(self):
        with pytest.raises(ValueError):
            list_rotations((1, 1))

    def test_raney_lemma_randomized(self):
        rng = random.Random(42)
        for n in range(1, 6):
            for sigma in strings_of_rank(-n, rng=rng, count=100):
                offsets = list_rotations(sigma)  # raises unless |offsets| == n
                assert len(offsets) == n

    @pytest.mark.parametrize("text", ["0002", "0300200", "12,0,0,0,0,0,0,0,0,0,0,0,0"])
    def test_rotations_text_lines(self, text):
        sigma = parse_string(text)
        want = [f"{off}: {format_string(rotate(sigma, off))}" for off in sorted(list_rotations(sigma))]
        assert rotations_text(sigma) == "\n".join(want)

    def test_rotate_empty_string(self):
        assert rotate((), 0) == () and rotate([], 3) == ()
        assert rotate((1, 2, 0), 4) == (2, 0, 1)

    def test_lemma_violation_raises(self):
        # a negative symbol would break Raney's lemma (rank -3 but only 2 rotations): out of domain
        with pytest.raises(ValueError, match="^negative symbol -1$"):
            list_rotations((-1, 0))


# the entry points that take strings of naturals only, identify_words in both modes
NATURALS_ONLY = {
    "is_word_list": lambda sigma: is_word_list(sigma, 1),
    "list_rotations": list_rotations,
    "rotations_text": rotations_text,
    "identify_linear": lambda sigma: identify_words(sigma, cyclic=False),
    "identify_cyclic": lambda sigma: identify_words(sigma, cyclic=True),
}


@pytest.mark.parametrize("sigma", [(3, -1, 0), (-1, 0), (0, 0, -2), (5, -1)],
                         ids=lambda sigma: ",".join(map(str, sigma)))
@pytest.mark.parametrize("entry", NATURALS_ONLY)
def test_negative_symbol_is_a_value_error(entry, sigma):
    with pytest.raises(ValueError, match=f"^negative symbol {min(sigma)}$"):
        NATURALS_ONLY[entry](sigma)


class TestGroupWords:
    def test_slices_equal_the_tree_oracle_exhaustively(self):
        # every string of length <= 8 over symbols -1..3: 488,281 strings
        for length in range(9):
            for sigma in itertools.product(range(-1, 4), repeat=length):
                items, trees = group_words(sigma), group_trees(sigma)
                assert [i for i, _ in items] == [i for i, _ in trees], sigma
                slices = [None if end is None else sigma[i:end] for i, end in items]
                assert slices == [None if t is None else to_word(t) for _, t in trees], sigma

    def test_cyclic_render_equals_the_tree_oracle(self):
        # shuffled strings of 60-80 faces of arity 2-5 holding 1-3 words, as the benchmark draws
        rng = random.Random(14)
        for _ in range(100):
            n = rng.choice((1, 2, 3))
            heads = [rng.choice((2, 2, 3, 3, 4, 5)) for _ in range(rng.randint(60, 80))]
            sigma = heads + [0] * (n + sum(a - 1 for a in heads))
            rng.shuffle(sigma)
            items = identify_words(sigma, cyclic=True)
            off = min(list_rotations(sigma))
            trees = sorted(((i + off) % len(sigma), t) for i, t in group_trees(rotate(sigma, off)))
            assert [start for start, _ in items] == [start for start, _ in trees]
            assert [render(w) for _, w in items] == [render_tree(t) for _, t in trees]


def _words(items):
    """The words of a complete identification, in position order."""
    words = [w for _, w in items]
    assert None not in words, items
    return words


class TestIdentifyWords:
    def test_all_zeros(self):
        assert list(map(render, _words(identify_words((0, 0, 0))))) == ["0", "0", "0"]

    def test_paper_walkthrough(self):
        words = _words(identify_words(parse_string("0030130010001000420"), cyclic=True))
        assert len(words) == 4
        # in position order: (10) at 12, 0, 0, then the wrapped word at 16
        assert list(map(render, words)) == [
            "(10)", "0", "0", "(4(200)0(30(1(300(10)))0)0)"
        ]
        # every identified word is a slice of the circular symbols
        big = words[-1]
        assert big == (4, 2, 0, 0, 0, 3, 0, 1, 3, 0, 0, 1, 0, 0, 0)

    def test_linear_paper_strings(self):
        # linear identification leaves the wrapped word's head unidentified in place
        items = identify_words(parse_string("0030130010001000420"), cyclic=False)
        assert [start for start, w in items if w is None] == [16, 17]
        words = _words(identify_words(parse_string("4200030130010001000"), cyclic=False))
        assert list(map(render, words)) == ["(4(200)0(30(1(300(10)))0)0)", "(10)", "0", "0"]

    def test_whole_word_single_group(self):
        for text in ["0", "200", "202030100", "302000"]:
            sigma = parse_string(text)
            assert is_word(sigma)
            words = _words(identify_words(sigma, cyclic=False))
            assert len(words) == 1
            assert words[0] == sigma

    def test_rejects_nonnegative_rank(self):
        with pytest.raises(ValueError):
            identify_words((2, 0))

    def test_agrees_with_greedy_split(self):
        rng = random.Random(5)
        for n in range(1, 5):
            for sigma in strings_of_rank(-n, rng=rng, count=40):
                for off in list_rotations(sigma):
                    rotated = rotate(sigma, off)
                    assert _words(identify_words(rotated, cyclic=False)) == split_words(rotated)

    def test_word_starts_are_the_rotations(self):
        # the n identified words tile the circle; each start begins a list of n words
        rng = random.Random(11)
        for n in range(1, 5):
            for sigma in strings_of_rank(-n, rng=rng, count=60):
                items = identify_words(sigma, cyclic=True)
                assert None not in [w for _, w in items]
                assert {start for start, _ in items} == list_rotations(sigma)

    def test_deep_string_does_not_recurse(self):
        sigma = (2,) * 1200 + (0,) * 1201
        for cyclic in (False, True):
            assert _words(identify_words(sigma, cyclic=cyclic)) == [sigma]
        assert identify_words(rotate(sigma, 7))[0][0] == len(sigma) - 7

    def test_randomized_move_order_same_words(self):
        # grouping is order independent: compare against right-to-left scan
        rng = random.Random(9)
        for sigma in strings_of_rank(-3, rng=rng, count=30):
            left = _words(identify_words(sigma, cyclic=True))
            right = _identify_reversed(sigma)
            assert sorted(left) == sorted(right)


class TestRender:
    def test_digit_words_keep_their_bytes(self):
        assert render((0,)) == "0"
        assert render((9,) + (0,) * 9) == "(9000000000)"
        word = (4, 2, 0, 0, 0, 3, 0, 1, 3, 0, 0, 1, 0, 0, 0)
        assert render(word) == "(4(200)0(30(1(300(10)))0)0)" == render_tree(from_word(word))

    def test_wide_words_parse_back(self):
        # every word over one symbol of 10-12, m1 <= 1 and up to one more symbol of 2-3
        assert render((10,) + (0,) * 10) == "(10 0 0 0 0 0 0 0 0 0 0)"
        for k in (10, 11, 12):
            for m1 in (0, 1):
                for extra in ({}, {2: 1}, {3: 1}):
                    c = Composition(m1, TypeVector.of({k: 1, **extra}))
                    for word in map(parse_string, enumerate_lists(1, c)):
                        text = render(word)
                        assert parse_string(text.replace("(", "").replace(")", "")) == word, text
                        assert text.replace(" ", "") == render_tree(from_word(word)), text
                        assert "  " not in text and "( " not in text and " )" not in text, text


def _identify_reversed(sigma):
    """Restart-after-every-move grouping around the circle, scanning right-to-left.

    Each item is [symbol, word], the word None while the symbol is unidentified.
    """
    items = [[a, (0,) if a == 0 else None] for a in sigma]
    moved = True
    while moved:
        moved = False
        for idx in reversed(range(len(items))):
            a, word = items[idx]
            if word is not None or a > len(items) - 1:
                continue
            followers = [items[(idx + j) % len(items)] for j in range(1, a + 1)]
            if all(f[1] is not None for f in followers):
                items[idx][1] = (a,) + sum((f[1] for f in followers), ())
                drop = {id(f) for f in followers}
                items = [x for x in items if id(x) not in drop]
                moved = True
                break
    assert all(word is not None for _, word in items)
    return [word for _, word in items]


class TestEnumerateLists:
    def test_paper_21_words(self):
        got = enumerate_lists(1, Composition(0, TypeVector.from_counts([2, 1])))
        assert got == PAPER_21_WORDS

    def test_paper_15_lists(self):
        got = enumerate_lists(3, Composition(1, TypeVector.from_counts([1])))
        assert got == PAPER_15_LISTS

    def test_singleton(self):
        assert enumerate_lists(1, Composition()) == ["0"]

    def test_counts_match_closed_form(self):
        for n in range(1, 4):
            for m1 in range(3):
                for m2 in range(3):
                    for m3 in range(2):
                        c = Composition(m1, TypeVector.of({2: m2, 3: m3}))
                        if c.length(n) > 9:
                            continue
                        assert len(enumerate_lists(n, c)) == raney_count(n, c)

    def test_matches_brute_force_in_order(self):
        for n in range(1, 4):
            for m1 in range(3):
                for m2 in range(3):
                    for m3 in range(2):
                        c = Composition(m1, TypeVector.of({2: m2, 3: m3}))
                        if c.length(n) > 8:
                            continue
                        symbols = [0] * c.zeros(n) + [1] * m1 + [2] * m2 + [3] * m3
                        lists = set(itertools.permutations(symbols))
                        want = sorted(s for s in lists if is_word_list(s, n))
                        assert enumerate_lists(n, c) == [format_string(s) for s in want], (n, c)

    def test_no_two_words_are_rotations(self):
        lists = enumerate_lists(1, Composition(0, TypeVector.from_counts([2, 1])))
        words = [parse_string(w) for w in lists]
        for a in words:
            for b in words:
                if a != b:
                    assert all(rotate(a, off) != b for off in range(len(a)))


def _outcome(fn, *args):
    """fn's result, or its exception type and message."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _oracle_compositions():
    """n <= 3, m1 <= 3, <= 6 faces over arities 2-4, at most 5,000 lists."""
    for n in range(1, 4):
        for m1 in range(4):
            for counts in itertools.product(range(7), repeat=3):
                c = Composition(m1, TypeVector.from_counts(counts))
                if sum(counts) <= 6 and raney_count(n, c) <= 5000:
                    yield n, c


def _wide_compositions():
    """n <= 3, m1 <= 2, <= 3 faces over arities 2-9, at most 5,000 lists.

    Symbols up to 9, up to 5 kinds of them, and lists from 1 symbol long, some
    shorter than ``list_blocks``' prefixes.
    """
    for n in range(1, 4):
        for m1 in range(3):
            for faces in range(4):
                for arities in itertools.combinations_with_replacement(range(2, 10), faces):
                    c = Composition(m1, TypeVector.of(collections.Counter(arities)))
                    if raney_count(n, c) <= 5000:
                        yield n, c


class TestAgainstOracles:
    def test_lists_equal_the_search_oracle_in_order(self):
        for n, c in _oracle_compositions():
            want = [format_string(s) for s in enumerate_lists_dfs(n, c)]
            assert lists_text(n, c) == "\n".join(want), (n, c)

    def test_many_symbol_kinds_equal_the_search_oracle(self):
        for n, c in _wide_compositions():
            want = [format_string(s) for s in enumerate_lists_dfs(n, c)]
            assert lists_text(n, c) == "\n".join(want), (n, c)

    def test_blocks_join_to_the_listing_and_end_at_lists(self):
        for n, c in _oracle_compositions():
            blocks = list(list_blocks(n, c))
            assert "".join(blocks) == lists_text(n, c), (n, c)
            # each later block starts a list, so a block's newlines count the lists it adds
            assert blocks[0][:1] not in ("", "\n") and all(b[:1] == "\n" for b in blocks[1:])

    def test_blocks_reject_a_word_count_below_one_before_any_block(self):
        blocks = list_blocks(0, Composition(1, TypeVector.of({2: 1})))
        with pytest.raises(ValueError, match="word count 0 < 1"):
            next(blocks)

    def test_symbols_of_10_and_above_use_the_comma_form(self):
        for tail in ({10: 1}, {12: 1}, {2: 1, 10: 1}, {3: 1, 11: 1}):
            for n in (1, 2):
                for m1 in (0, 1, 2):
                    c = Composition(m1, TypeVector.of(tail))
                    want = [format_string(s) for s in enumerate_lists_dfs(n, c)]
                    got = enumerate_lists(n, c)
                    assert got == want, (n, c)
                    assert lists_text(n, c) == "\n".join(want), (n, c)
                    assert all("," in w for w in got)
        ten = Composition(0, TypeVector.of({10: 1}))
        assert enumerate_lists(1, ten) == ["10," + "0," * 9 + "0"]

    def test_long_single_list(self):
        c = Composition(1200)
        assert enumerate_lists(1, c) == [format_string(s) for s in enumerate_lists_dfs(1, c)]
        assert enumerate_lists(1, c) == ["1" * 1200 + "0"]

    def test_rotations_equal_the_scan_every_short_string(self):
        # every string of naturals up to 4, up to 7 long: a rank >= 0 raises as the scan does
        for length in range(1, 8):
            for sigma in itertools.product(range(5), repeat=length):
                want = _outcome(list_rotations_scan, sigma)
                assert _outcome(list_rotations, sigma) == want, sigma

    def test_rotations_equal_the_scan_random(self):
        # shuffled strings of rank -n with symbols up to 12, up to 60 long
        rng = random.Random(17)
        for n in range(1, 8):
            for _ in range(60):
                heads = [rng.randint(1, 12) for _ in range(rng.randint(0, 8))]
                sigma = heads + [0] * (n + sum(a - 1 for a in heads))
                rng.shuffle(sigma)
                assert list_rotations(sigma) == list_rotations_scan(sigma), sigma


    def test_digit_decode_equals_int_per_character(self):
        rng = random.Random(23)
        texts = ["".join(map(str, s)) for length in range(1, 5) for s in itertools.product(range(10), repeat=length)]
        texts += ["".join(rng.choice("0123456789") for _ in range(rng.randint(5, 400))) for _ in range(300)]
        for text in texts:
            sigma = parse_string(text)
            assert sigma == tuple(map(int, text)), text
            assert format_string(sigma) == text

    def test_comma_form_rotations_equal_the_scan(self):
        # symbols of 10 and above: each rotation is cut after the texts and commas before it
        rng = random.Random(29)
        for n in range(1, 6):
            for _ in range(60):
                heads = [rng.choice((10, 11, 25, 100))]
                heads += [rng.choice((1, 2, 3, 10, 12)) for _ in range(rng.randint(0, 5))]
                sigma = heads + [0] * (n + sum(a - 1 for a in heads))
                rng.shuffle(sigma)
                want = [f"{off}: {format_string(rotate(sigma, off))}"
                        for off in sorted(list_rotations_scan(sigma))]
                assert rotations_text(sigma) == "\n".join(want), sigma
                assert all("," in line for line in want)

    def test_cyclic_identify_equals_grouping_the_rotation(self):
        # unary 1s and up to 5 words: the cut words against group_words on a list rotation
        rng = random.Random(31)
        for n in range(1, 6):
            for _ in range(150):
                heads = [rng.choice((1, 1, 1, 2, 3, 4, 12)) for _ in range(rng.randint(0, 12))]
                sigma = heads + [0] * (n + sum(a - 1 for a in heads))
                rng.shuffle(sigma)
                off = min(list_rotations_scan(sigma))
                rotated = rotate(sigma, off)
                want = sorted(((i + off) % len(sigma), rotated[i:end]) for i, end in group_words(rotated))
                assert identify_words(sigma, cyclic=True) == want, sigma

    def test_identify_every_short_string(self):
        # every string over 0..3 of rank < 0, up to 8 long: cyclic words are the grouped
        # list rotation, and every symbol is identified
        for length in range(1, 9):
            for sigma in itertools.product(range(4), repeat=length):
                if rank(sigma) >= 0:
                    continue
                off = min(list_rotations_scan(sigma))
                rotated = rotate(sigma, off)
                want = sorted(((i + off) % length, None if end is None else rotated[i:end])
                              for i, end in group_words(rotated))
                got = identify_words(sigma)
                assert got == want, sigma
                assert None not in [w for _, w in got], sigma


class TestTreeBijection:
    def test_leaf(self):
        assert from_word((0,)) == PlaneTree()

    def test_triangle_word(self):
        t = from_word((2, 0, 0))
        assert len(t.children) == 2
        assert serialize(to_word(check_subdigon(t))) == "200"

    def test_rejects_non_word(self):
        with pytest.raises(ValueError):
            from_word((2, 0))

    def test_round_trip_short_words(self):
        for length in range(1, 10):
            for sigma in itertools.product(range(4), repeat=length):
                if is_word(sigma):
                    assert to_word(from_word(sigma)) == sigma

    def test_unary_nodes_round_trip(self):
        sigma = (1, 1, 0)
        assert to_word(from_word(sigma)) == sigma
        with pytest.raises(ValueError):
            check_subdigon(from_word(sigma))

    def test_unary_trees_round_trip(self):
        for nodes in range(1, 9):
            for t in _plane_trees(nodes):
                assert from_word(to_word(t)) == t

    def test_words_biject_with_subdigons(self):
        m = TypeVector.from_counts([2, 1])
        words = [parse_string(w) for w in enumerate_lists(1, Composition(0, m))]
        mapped = {serialize(to_word(check_subdigon(from_word(w)))) for w in words}
        enumerated = set(enumerate_subdigons(m))
        assert mapped == enumerated
        assert {from_word(w) for w in words} == {tree_of(s) for s in enumerate_subdigons(m)}
        for w in words:
            s = check_subdigon(from_word(w))
            assert type_of(s) == m
            assert to_word(s) == w


def _plane_trees(nodes):
    """Every plane tree with the given number of nodes, unary nodes included."""
    if nodes == 1:
        return [NULL]
    return [PlaneTree(kids) for kids in _forests(nodes - 1)]


def _forests(nodes):
    """Every ordered forest of plane trees with the given total number of nodes."""
    if nodes == 0:
        return [()]
    return [
        (first,) + rest
        for size in range(1, nodes + 1)
        for first in _plane_trees(size)
        for rest in _forests(nodes - size)
    ]


def test_multinomial_sanity():
    from math import factorial
    # all permutations of the composition behind the 21-word example
    assert factorial(8) // (factorial(5) * factorial(2) * factorial(1)) == 168
