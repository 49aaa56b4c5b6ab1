import contextlib
import json
import random
import signal
import time
from fractions import Fraction
from math import comb, prod

import pytest

from hypercatalan import series
from hypercatalan.catpow import _mul_cut
from hypercatalan.core import TypeVector, hyper_catalan, power_coeff, unit_type, vef
from hypercatalan.series import (
    LayeredPoly,
    LayerSpec,
    Measure,
    NonzeroRemainder,
    _walk,
    build_beta,
    enumerate_types,
    evaluate_geometric,
    first_term,
    geode_quotient,
    layer_slice,
    layer_sums,
    level,
    mul_truncated,
    partial_sums,
    render_table,
    table_rows,
)

from oracles import (ONE, add, admits, bumped_walk, catalan, count_trees, geode, graded, mul,
                     mul_from_top, pack, packed, poly, poly_from_json, poly_text, poly_to_json,
                     print_order, table_json, truncate, unpack, unpacked)


def tv(*counts):
    return TypeVector.from_counts(counts)


# every measure at small d, d = 0 included
SWEEP_SPECS = (
    [LayerSpec(Measure.VERTEX, d) for d in range(9)]
    + [LayerSpec(Measure.EDGE, d) for d in range(11)]
    + [LayerSpec(Measure.FACE, d, q) for q in range(2, 6) for d in range(6)]
)


class TestLevel:
    def test_empty_is_level_zero(self):
        for meas in Measure:
            assert level(TypeVector(), meas) == 0

    def test_table_placement(self):
        assert level(tv(2, 1), Measure.VERTEX) == 4

    @pytest.mark.parametrize("n", range(2, 8))
    def test_unit_levels(self, n):
        assert level(unit_type(n), Measure.VERTEX) == n - 1
        assert level(unit_type(n), Measure.EDGE) == n
        assert level(unit_type(n), Measure.FACE) == 1

    def test_additivity(self):
        rng = random.Random(7)
        for _ in range(1000):
            a = TypeVector.of({k: rng.randint(0, 3) for k in (2, 3, 5, 7)})
            b = TypeVector.of({k: rng.randint(0, 3) for k in (2, 4, 6)})
            for meas in Measure:
                assert level(a + b, meas) == level(a, meas) + level(b, meas)


    def test_matches_vef_counts(self):
        rng = random.Random(11)
        for _ in range(500):
            m = TypeVector.of({k: rng.randint(0, 4) for k in (2, 3, 4, 7)})
            s = vef(m)
            assert level(m, Measure.VERTEX) == s.V - 2
            assert level(m, Measure.EDGE) == s.E - 1
            assert level(m, Measure.FACE) == s.F


class TestLayerSpec:
    def test_max_gon_is_largest_admitted_unit(self):
        for meas in Measure:
            for d in range(6):
                for q in (None, 2, 3, 5, 9):
                    if meas is Measure.FACE and q is None:
                        continue
                    spec = LayerSpec(meas, d, q)
                    fits = [k for k in range(2, 12) if admits(spec, unit_type(k))]
                    assert spec.max_gon() == max(fits, default=1), (meas, d, q)

    def test_face_requires_gon_bound(self):
        with pytest.raises(ValueError):
            LayerSpec(Measure.FACE, 3)
        LayerSpec(Measure.FACE, 3, 4)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            LayerSpec(Measure.VERTEX, -1)
        with pytest.raises(ValueError):
            LayerSpec(Measure.FACE, 2, 1)


class TestTruncate:
    def test_identity_on_truncated(self):
        spec = LayerSpec(Measure.VERTEX, 3)
        p = build_beta(spec)
        assert truncate(p, spec) == p

    def test_drops_high_levels(self):
        # t6 has vertex level 5, out of a level-4 slice
        spec = LayerSpec(Measure.VERTEX, 4)
        p = poly((1, [1]), (3, [0, 0, 0, 0, 1]))
        assert truncate(p, spec) == poly((1, [1]))

    def test_gon_bound(self):
        spec = LayerSpec(Measure.FACE, 2, 3)
        p = poly((1, [1]), (1, [0, 0, 1]))
        assert truncate(p, spec) == poly((1, [1]))


class TestMulTruncated:
    def test_multiply_by_one(self):
        spec = LayerSpec(Measure.EDGE, 6)
        p = build_beta(spec)
        assert mul_truncated(p, ONE, spec) == truncate(p, spec)

    def test_prunes_by_level(self):
        spec = LayerSpec(Measure.VERTEX, 1)
        p = poly((1, []), (1, [1]))  # 1 + t2
        assert mul_truncated(p, p, spec) == poly((1, []), (2, [1]))

    def test_matches_full_product_then_truncate(self):
        rng = random.Random(11)
        for meas in Measure:
            spec = LayerSpec(meas, 4, 4 if meas is Measure.FACE else None)
            wide = LayerSpec(meas, 8, 4 if meas is Measure.FACE else None)
            types = enumerate_types(wide)
            for _ in range(20):
                p = LayeredPoly({m: rng.randint(-5, 5) for m in rng.sample(types, 6)})
                q = LayeredPoly({m: rng.randint(-5, 5) for m in rng.sample(types, 6)})
                assert mul_truncated(p, q, spec) == truncate(mul(p, q), spec)

    def test_remainder_commutation(self):
        # truncate(P*Q) == mul_truncated(truncate(P), truncate(Q))
        rng = random.Random(13)
        spec = LayerSpec(Measure.VERTEX, 3)
        types = enumerate_types(LayerSpec(Measure.VERTEX, 6))
        for _ in range(50):
            p = LayeredPoly({m: rng.randint(-4, 4) for m in rng.sample(types, 8)})
            q = LayeredPoly({m: rng.randint(-4, 4) for m in rng.sample(types, 8)})
            assert truncate(mul(p, q), spec) == mul_truncated(
                truncate(p, spec), truncate(q, spec), spec
            )


class TestEnumerateTypes:
    def test_vertex_level_two(self):
        assert enumerate_types(LayerSpec(Measure.VERTEX, 2)) == [
            TypeVector(), tv(1), tv(2), tv(0, 1)
        ]

    def test_edge_level_three(self):
        assert enumerate_types(LayerSpec(Measure.EDGE, 3)) == [
            TypeVector(), tv(1), tv(0, 1)
        ]

    def test_face_level_one(self):
        assert enumerate_types(LayerSpec(Measure.FACE, 1, 3)) == [
            TypeVector(), tv(1), tv(0, 1)
        ]

    def test_graded_then_lex_order(self):
        specs = [LayerSpec(Measure.VERTEX, 9), LayerSpec(Measure.EDGE, 10), LayerSpec(Measure.FACE, 4, 5)]
        for spec in specs:
            types = enumerate_types(spec)
            assert types == sorted(types, key=lambda m: (level(m, spec.measure), m.entries))

    def test_exact_membership(self):
        spec = LayerSpec(Measure.EDGE, 6)
        got = set(enumerate_types(spec))
        for m in got:
            assert level(m, Measure.EDGE) <= 6
        # brute force the complement over a wide box
        import itertools
        for counts in itertools.product(range(4), repeat=5):
            m = TypeVector.from_counts(counts)
            if level(m, Measure.EDGE) <= 6:
                assert m in got


class TestBuildBeta:
    def test_vertex_zero_is_one(self):
        assert build_beta(LayerSpec(Measure.VERTEX, 0)) == ONE

    def test_vertex_table_top_row(self):
        beta = build_beta(LayerSpec(Measure.VERTEX, 3))
        assert layer_slice(beta, Measure.VERTEX, 3) == poly(
            (5, [3]), (5, [1, 1]), (1, [0, 0, 1])
        )

    def test_face_table_row(self):
        beta = build_beta(LayerSpec(Measure.FACE, 2, 3))
        assert layer_slice(beta, Measure.FACE, 2) == poly(
            (2, [2]), (5, [1, 1]), (3, [0, 2])
        )

    def test_coefficients_against_subdigon_oracle(self):
        specs = [LayerSpec(Measure.VERTEX, 5), LayerSpec(Measure.EDGE, 7),
                 LayerSpec(Measure.FACE, 4, 4)]
        for spec in specs:
            beta = build_beta(spec)
            for m, c in beta.terms.items():
                assert c == count_trees(m)


class TestEvaluateGeometric:
    @pytest.mark.parametrize("spec", [
        LayerSpec(Measure.VERTEX, 0),
        LayerSpec(Measure.VERTEX, 5),
        LayerSpec(Measure.EDGE, 8),
        LayerSpec(Measure.FACE, 4, 3),
    ])
    def test_paper_zeros(self, spec):
        assert evaluate_geometric(spec) == {}
        assert not _oracle_geometric(build_beta(spec), spec)

    def test_zero_over_sweep(self):
        for spec in SWEEP_SPECS:
            assert evaluate_geometric(spec) == {}
            assert not _oracle_geometric(build_beta(spec), spec)

    def test_nonzero_on_wrong_input(self, monkeypatch):
        spec = LayerSpec(Measure.VERTEX, 3)
        monkeypatch.setattr(series, "_walk", bumped_walk(_walk, [(1, tv(1), 1)]))
        residual = evaluate_geometric(spec)
        assert min(residual) == 1 and residual[1] == {pack(tv(1), spec.d + 1): -1}

# The oracle chain: every product through mul_truncated at the full level d.


def _oracle_sources(beta, spec):
    power = truncate(beta, spec)
    for n in range(2, spec.max_gon() + 1):
        power = mul_truncated(power, beta, spec)
        yield n, mul_truncated(LayeredPoly({unit_type(n): 1}), power, spec)


def _oracle_geometric(beta, spec):
    acc = add(ONE, truncate(beta, spec), -1)
    for _, source in _oracle_sources(beta, spec):
        acc = add(acc, source)
    return acc


def _oracle_table_rows(spec):
    sym = spec.measure.value[0]
    beta = build_beta(spec)
    sources = list(_oracle_sources(beta, spec))
    rows = []
    for lvl in range(spec.d + 1):
        for n, source in sources:
            part = layer_slice(source, spec.measure, lvl)
            if part:
                rows.append((f"[{sym}^{lvl}] t{n} b^{n}", part))
        rows.append((f"[{sym}^{lvl}] total",
                     layer_slice(add(beta, ONE, -1), spec.measure, lvl)))
    return rows


def _spec_id(spec):
    return f"{spec.measure.value}-d{spec.d}-q{spec.gon_bound}"


class TestPackedKernel:
    """evaluate_geometric and table_rows against the mul_truncated chain."""

    @pytest.mark.parametrize("spec", [s for s in SWEEP_SPECS if s.d >= 1], ids=_spec_id)
    def test_corrupted_beta_residual_matches_oracle(self, spec, monkeypatch):
        beta = build_beta(spec)
        for lvl in sorted({0, 1, spec.d}):  # level 0: the constant term the kernel scales by
            m = min(layer_slice(beta, spec.measure, lvl).terms, key=lambda t: t.entries,
                    default=None)
            if m is None:  # edge level 1 holds no monomial
                continue
            monkeypatch.setattr(series, "_walk", bumped_walk(_walk, [(lvl, m, 1)]))
            residual = evaluate_geometric(spec)
            assert residual == packed(_oracle_geometric(add(beta, LayeredPoly({m: 1})), spec), spec)
            assert residual[lvl] == {pack(m, spec.d + 1): -1}

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
    def test_terms_outside_spec_are_dropped(self, spec, monkeypatch):
        # a random beta on the walk's keys: the kernel drops every product term past the spec
        rng = random.Random(spec.d * 31 + (spec.gon_bound or 0))
        buckets = [{key: rng.choice((-1, 1)) * rng.randint(1, 9) for key in b} for b in _walk(spec)]
        beta = unpacked({key: c for b in buckets for key, c in b.items()}, spec)
        if spec.max_gon() >= 2:
            assert any(not admits(spec, m) for m in mul(beta, beta).terms)
        monkeypatch.setattr(series, "_walk", lambda s: [dict(b) for b in buckets])
        assert evaluate_geometric(spec) == packed(_oracle_geometric(beta, spec), spec)

    @pytest.mark.parametrize("spec", [s for s in SWEEP_SPECS if s.d >= 1], ids=_spec_id)
    def test_square_matches_product_and_oracle(self, spec):
        # random coefficients on the walk's keys, under each kind of constant term;
        # the square (a is b) takes its own path through the kernel, and a product of two
        # operands starts from a copy of b (a0 = 1) or a scaled one (any other a0)
        rng = random.Random(_spec_id(spec))
        keys = _walk(spec)
        consts = ({0: 1}, {0: 0}, {0: -3}, {})

        def operand(const):
            return [dict(const)] + [{key: rng.randint(-9, 9) for key in bucket if rng.random() < 0.8}
                                    for bucket in keys[1:]]

        def oracle(a, b, bound):
            p, q = (unpacked({key: c for bucket in x for key, c in bucket.items()}, spec) for x in (a, b))
            return mul_truncated(p, q, LayerSpec(spec.measure, bound, spec.gon_bound))

        def unpack_graded(out):
            return unpacked({key: c for bucket in out for key, c in bucket.items()}, spec)

        for const in consts:
            a = operand(const)
            bound = rng.randint(0, spec.d)
            square = series._mul_graded(a, a, bound)
            assert square == series._mul_graded(a, [dict(bucket) for bucket in a], bound)
            assert unpack_graded(square) == oracle(a, a, bound)
            assert len(square) == bound + 1
        for const_a in consts:
            for const_b in consts:
                a, b = operand(const_a), operand(const_b)
                bound = rng.randint(0, spec.d)
                product = series._mul_graded(a, b, bound)
                assert unpack_graded(product) == oracle(a, b, bound), (const_a, const_b)
                assert len(product) == bound + 1

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
    def test_table_rows_match_oracle(self, spec):
        rows = [(label, unpacked(bucket, spec)) for label, bucket in table_rows(spec)]
        assert rows == _oracle_table_rows(spec)


def _oracle_render(rows, fmt):
    """LayeredPoly rows, such as the oracle chain's table, each printed on its own."""
    if fmt == "json":
        return table_json(rows)
    if fmt == "csv":
        return "row,polynomial\n" + "".join(f'{label},"{poly_text(p)}"\n' for label, p in rows)
    return "".join(f"{label:>16}  {poly_text(p)}\n" for label, p in rows)


class TestRenderTable:
    """render_table on the packed rows against the oracle rows printed term by term."""

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
    def test_matches_oracle(self, spec, fmt):
        want = _oracle_render(_oracle_table_rows(spec), fmt)
        assert render_table(spec, table_rows(spec), fmt) == want

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
    def test_str_matches_oracle(self, spec):
        # each row printed on its own, and its first term as verify prints it
        for (label, bucket), (_, p) in zip(table_rows(spec), _oracle_table_rows(spec)):
            assert render_table(spec, [(label, bucket)], "text") == f"{label:>16}  {poly_text(p)}\n"
            assert first_term(spec, bucket) == poly_text(LayeredPoly(dict(print_order(p)[:1])))

    def test_signs_and_constant_term(self):
        spec = LayerSpec(Measure.VERTEX, 4)
        p = poly((1, []), (-1, [1]), (-3, [0, 1]), (1, [2]), (5, [0, 0, 1]))
        bucket = {pack(m, spec.d + 1): c for m, c in p.terms.items()}
        assert render_table(spec, [("p", bucket)], "csv") == f'row,polynomial\np,"{poly_text(p)}"\n'
        assert poly_text(p) == "1 - t2 - 3t3 + 5t4 + t2^2"
        assert first_term(spec, bucket) == "1"
        assert first_term(spec, {0: -1}) == "-1"
        assert render_table(spec, [("p", {})], "csv") == 'row,polynomial\np,"0"\n'

    def test_json_matches_json_dumps(self):
        # the json text is written directly: it must be json.dumps's, byte for byte, on
        # labels spelt as table_rows spells them
        spec = LayerSpec(Measure.VERTEX, 4)
        rows = [("[v^0] total", {}), ("[v^1] total", {0: 0, 1: 0}), ("[e^10] t12 b^12", {0: 0, 1: 0, 5: 3}),
                ("[f^3] t2 b^2", {0: -1, 1: -12, 25: 7, 6: -1}), ("", {2: -10**40})]
        want = table_json([(label, unpacked(bucket, spec)) for label, bucket in rows])
        assert render_table(spec, rows, "json") == want
        assert render_table(spec, [], "json") == table_json([]) == "[]\n"

    def test_row_labels_need_no_json_escaping(self):
        # render_table quotes each label as it is
        labels = {label for spec in SWEEP_SPECS for label, _ in table_rows(spec)}
        assert [label for label in labels if json.dumps(label) != f'"{label}"'] == []

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
    def test_print_order_is_faces_then_entries(self, spec):
        # every key the spec admits, and random keys across levels, in one bucket
        base = spec.d + 1
        keys = [key for bucket in _walk(spec) for key in bucket]
        rng = random.Random(_spec_id(spec))
        keys += [rng.randrange(base ** 6) for _ in range(200)]
        bucket = dict.fromkeys(keys, 1)
        shown = [m for m, _ in series._printer(spec, [bucket], "json")(bucket)]
        want = sorted({unpack(key, base) for key in keys}, key=lambda m: (m.faces(), m.entries))
        assert shown == [json.dumps(m.to_counts()) for m in want]

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
    def test_walk_labels_its_types(self, spec):
        # the labeller gives each type the walk makes its TypeVector's label, from the keys of
        # every level or of the top level alone, as geode_quotient gives them, none of whose
        # remainders is a key
        buckets = _walk(spec)
        for keys in ({key for bucket in buckets for key in bucket}, set(buckets[-1])):
            labels = series._labels(keys, spec.d + 1)
            assert keys <= labels.keys()
            for key, label in labels.items():
                m = unpack(key, spec.d + 1)
                assert label == (m.faces(), m.entries), key

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
    def test_labels_leave_the_text_unchanged(self, spec):
        # a stray row: key 0 at -1, a key one gon past the spec and 20 random keys, some
        # labelled from a remainder that is no key of the rows
        rows = table_rows(spec)
        if spec.d:  # at base 1 no key but 0 has digits
            base, rng = spec.d + 1, random.Random(_spec_id(spec))
            stray = {base ** (spec.max_gon() - 1): 3}  # one gon past the spec
            stray.update((key, -2) for key in rng.sample(range(base ** 6), 20))
            rows.append(("stray", {0: -1, **rows[-1][1], **stray}))
        oracle_rows = [(label, unpacked(bucket, spec)) for label, bucket in rows]
        for fmt in ("text", "csv", "json"):
            assert render_table(spec, rows, fmt) == _oracle_render(oracle_rows, fmt), fmt

    def test_zero_coefficients_are_skipped(self):
        spec = LayerSpec(Measure.VERTEX, 2)
        rows = [("a", {0: 0, 1: 0}), ("b", {1: 2, 0: -1})]
        assert render_table(spec, rows, "text") == "               a  0\n               b  -1 + 2t2\n"
        assert json.loads(render_table(spec, rows, "json"))[0] == {"row": "a", "terms": []}


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once it has run for seconds, so that a loop that
    never ends fails the test instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestKeysThatNameNoMonomial:
    """A nonzero key at base 1 (d = 0) or a negative key is refused, not decoded forever."""

    @pytest.mark.parametrize("spec, key", [
        (LayerSpec(Measure.VERTEX, 0), 1), (LayerSpec(Measure.EDGE, 0), 12),
        (LayerSpec(Measure.FACE, 0, 3), 2), (LayerSpec(Measure.VERTEX, 3), -1),
        (LayerSpec(Measure.EDGE, 5), -37), (LayerSpec(Measure.FACE, 4, 4), -5 ** 3),
    ])
    def test_raises_value_error(self, spec, key):
        with _deadline(3):
            with pytest.raises(ValueError, match="names no monomial"):
                first_term(spec, {key: 1})
            for fmt in ("text", "csv", "json"):
                with pytest.raises(ValueError, match="names no monomial"):
                    render_table(spec, [("stray", {0: 1, key: -2})], fmt)

    def test_constant_term_at_base_one(self):
        spec = LayerSpec(Measure.VERTEX, 0)
        with _deadline(3):
            assert first_term(spec, {0: 2}) == "2"
            assert render_table(spec, [("one", {0: 1})], "csv") == 'row,polynomial\none,"1"\n'


class TestPowers:
    def test_power_coeff_matches_multiplication(self):
        spec = LayerSpec(Measure.FACE, 5, 5)
        beta = build_beta(spec)
        power = beta
        for r in range(2, 6):
            power = mul_truncated(power, beta, spec)
            for m, c in power.terms.items():
                assert c == power_coeff(m, r)

    def test_edge_powers_match_catalan_power_closed_form(self):
        from hypercatalan.catpow import catalan_power
        spec = LayerSpec(Measure.EDGE, 16, 2)
        beta = build_beta(spec)
        sq = mul_truncated(beta, beta, spec)
        for n in range(8):
            assert sq.terms.get(TypeVector.of({2: n})) == catalan_power(2, n)


class TestGeode:
    def test_trivial_quotients(self):
        assert geode(1, 3) == ONE
        assert geode(2, 2) == poly((2, [1]))

    def test_table_row_quotient(self):
        assert geode(2, 3) == poly((2, [1]), (3, [0, 1]))

    def test_zero_remainder_over_sweep(self):
        for q in range(2, 7):
            for d in range(1, 8):
                spec = LayerSpec(Measure.FACE, d, q)
                divisor = LayeredPoly({unit_type(k): 1 for k in range(2, q + 1)})
                sliced = layer_slice(build_beta(spec), Measure.FACE, d)
                assert mul_truncated(geode(d, q), divisor, spec) == sliced

    def test_nonzero_remainder_raises(self, monkeypatch):
        # no single monomial is a multiple of t2 + t3 + ..., so every bumped coefficient raises
        for q in range(3, 6):
            for d in range(1, 6):
                for key in _walk(LayerSpec(Measure.FACE, d, q))[d]:
                    bumps = [(d, unpack(key, d + 1), 1)]
                    monkeypatch.setattr(series, "_walk", bumped_walk(_walk, bumps))
                    with pytest.raises(NonzeroRemainder):
                        geode_quotient(d, q)


class TestSerialization:
    def test_json_round_trip(self):
        beta = build_beta(LayerSpec(Measure.VERTEX, 4))
        assert poly_from_json(poly_to_json(beta)) == beta

    def test_table_rows_sum_to_total(self):
        for spec in (LayerSpec(Measure.VERTEX, 5), LayerSpec(Measure.FACE, 4, 3)):
            rows = [(label, unpacked(bucket, spec)) for label, bucket in table_rows(spec)]
            acc = LayeredPoly()
            for label, p in rows:
                if label.endswith("total"):
                    assert acc == p or (not acc and not p)
                    acc = LayeredPoly()
                else:
                    acc = add(acc, p)


class TestLayerSums:
    def test_catalan_layers(self):
        t2 = Fraction(1, 5)
        sums = layer_sums(LayerSpec(Measure.VERTEX, 30, 2), {2: t2})
        assert sorted(sums) == list(range(31))
        for n, part in sums.items():
            assert part == catalan(n) * t2**n


# The oracle for the coefficient walk: every multiset of gons, filtered by
# admits and sorted by (level, entries), with the factorial closed form.


def _oracle_types(spec):
    top = spec.gon_bound or spec.d + 1

    def grow(k, room):
        # the multisets of gons k..top whose level fits in room, as entries
        if k > top:
            yield ()
            return
        w = level(unit_type(k), spec.measure)
        for mk in range(room // w + 1):
            for rest in grow(k + 1, room - mk * w):
                yield ((k, mk),) + rest if mk else rest

    types = [TypeVector(entries) for entries in grow(2, spec.d)]
    return sorted((m for m in types if admits(spec, m)),
                  key=lambda m: (level(m, spec.measure), m.entries))


def _oracle_layer_sums(types, spec, values):
    sums = {}
    for m in types:
        term = hyper_catalan(m)
        for k, mk in m.items():
            term = term * values[k] ** mk
        lvl = level(m, spec.measure)
        sums[lvl] = sums.get(lvl, 0) + term
    return sums


def _values(rng, kind, q):
    """t_2..t_q of one kind: Fractions (zero and negative ones too), ints, both mixed, or floats."""
    if kind == "fraction":
        draw = lambda: Fraction(rng.randint(-7, 7), rng.randint(1, 12))
    elif kind == "int":
        draw = lambda: rng.randint(-3, 3)
    elif kind == "mixed":
        draw = lambda: _values(rng, rng.choice(["fraction", "int"]), 2)[2]
    else:
        draw = lambda: rng.uniform(-0.3, 0.3)
    return {k: draw() for k in range(2, q + 1)}


# float level sums against the exact sums of the same floats, relative to sum |C_m t^m|
FLOAT_TOLERANCE = Fraction(1e-13)


def _assert_float_sums_close(got, types, spec, values):
    """got has the exact sums' levels, the int 1 then floats, each within the tolerance."""
    exact = {k: Fraction(v) for k, v in values.items()}
    want = _oracle_layer_sums(types, spec, exact)
    scale = _oracle_layer_sums(types, spec, {k: abs(v) for k, v in values.items()})
    assert list(got) == list(want), (spec, values)
    assert [type(v) for v in got.values()] == [int] + [float] * (len(got) - 1)
    for lvl, v in got.items():
        error = abs(Fraction(v) - want[lvl])
        assert error <= FLOAT_TOLERANCE * Fraction(scale[lvl]), (spec, values, lvl)


def _assert_partial_sums(spec, values, sums):
    """partial_sums equals the running sum of the level sums, typed as alpha + part types it.

    repr tells an int from a Fraction and a float bit for bit, so the float check is exact.
    """
    want, alpha = [], 0
    for lvl, part in sums.items():
        alpha = alpha + part
        want.append((lvl, repr(alpha)))
    got = [(lvl, repr(a)) for lvl, a in partial_sums(spec, values).items()]
    assert got == want, (spec, values)


BOUNDED_MEASURES = [(meas, q) for meas in Measure for q in range(2, 7)]


class TestCoefficientWalk:
    """enumerate_types, build_beta and layer_sums against the oracle."""

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=_spec_id)
    def test_build_beta_matches_closed_form(self, spec):
        types = _oracle_types(spec)
        assert enumerate_types(spec) == types
        assert build_beta(spec).terms == {m: hyper_catalan(m) for m in types}

    @pytest.mark.parametrize("meas,q", BOUNDED_MEASURES, ids=lambda x: str(getattr(x, "value", x)))
    def test_layer_sums_match_oracle(self, meas, q):
        rng = random.Random(q * 7 + len(meas.value))
        for d in range(13):
            spec = LayerSpec(meas, d, q)
            types = _oracle_types(spec)
            assert build_beta(spec).terms == {m: hyper_catalan(m) for m in types}
            for kind in ("fraction", "int", "float"):
                values = _values(rng, kind, q)
                if kind == "fraction":
                    values[2 + d % (q - 1)] = Fraction(0)
                got = layer_sums(spec, values)
                if kind == "float":
                    _assert_float_sums_close(got, types, spec, values)
                    _assert_partial_sums(spec, values, got)
                    continue
                want = _oracle_layer_sums(types, spec, values)
                assert got == want, (d, kind, values)
                assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
                _assert_partial_sums(spec, values, want)

    def test_mixed_int_and_fraction_value_types(self):
        # level 1 holds only t2, an int; every higher level holds a Fraction term
        spec = LayerSpec(Measure.VERTEX, 6, 3)
        values = {2: 2, 3: Fraction(-1, 3)}
        got, want = layer_sums(spec, values), _oracle_layer_sums(_oracle_types(spec), spec, values)
        assert got == want
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
        assert type(got[1]) is int and type(got[2]) is Fraction
        _assert_partial_sums(spec, values, want)


# the exact route's differential sweep: every level bound up to these, q = 2..6
EXACT_LEVEL_BOUND = {Measure.VERTEX: 30, Measure.EDGE: 36, Measure.FACE: 10}


class TestExactLevelSums:
    """Exact layer_sums, summed by (F, e) cells with no walk, against the per-term oracle."""

    @pytest.mark.parametrize("meas,q", BOUNDED_MEASURES, ids=lambda x: str(getattr(x, "value", x)))
    def test_matches_oracle(self, meas, q):
        rng = random.Random(q * 11 + len(meas.value))
        top = EXACT_LEVEL_BOUND[meas]
        all_types = _oracle_types(LayerSpec(meas, top, q))
        for d in range(top + 1):
            spec = LayerSpec(meas, d, q)
            types = [m for m in all_types if level(m, meas) <= d]
            for kind in ("fraction", "int", "mixed", "float"):
                values = _values(rng, kind, q)
                if kind == "fraction":
                    values[2 + d % (q - 1)] = Fraction(0)
                if kind == "float":
                    got = layer_sums(spec, values)
                    _assert_float_sums_close(got, types, spec, values)
                    _assert_partial_sums(spec, values, got)
                    continue
                got, want = layer_sums(spec, values), _oracle_layer_sums(types, spec, values)
                assert list(got.items()) == list(want.items()), (d, kind, values)
                assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
                _assert_partial_sums(spec, values, want)

    @pytest.mark.parametrize("meas", [Measure.VERTEX, Measure.EDGE], ids=lambda m: m.value)
    def test_unbounded_gons_match_oracle(self, meas):
        rng = random.Random(len(meas.value))
        for d in range(15):
            spec = LayerSpec(meas, d)
            values = _values(rng, "mixed", spec.max_gon())
            got, want = layer_sums(spec, values), _oracle_layer_sums(_oracle_types(spec), spec, values)
            assert list(got.items()) == list(want.items()), (d, values)
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
            _assert_partial_sums(spec, values, want)

    def test_exact_values_never_walk(self, monkeypatch):
        # no kind of value walks, floats included, for level sums or partial sums
        def walk(spec):
            raise AssertionError("walked")

        monkeypatch.setattr(series, "_walk", walk)
        for spec in (LayerSpec(Measure.VERTEX, 9, 4), LayerSpec(Measure.EDGE, 9),
                     LayerSpec(Measure.FACE, 5, 3)):
            for sums in (layer_sums, partial_sums):
                assert sums(spec, {k: Fraction(1, k + 5) for k in range(2, 11)})[0] == 1
                assert sums(spec, {k: k - 3 for k in range(2, 11)})[0] == 1
                assert sums(spec, {k: 1 / (k + 5) for k in range(2, 11)})[0] == 1

    def test_float_cells_add_in_a_fixed_order(self):
        # pinned bits: adding R^F's terms to a cell in another order changes level 5's last bit
        spec = LayerSpec(Measure.VERTEX, 5, 4)
        sums = layer_sums(spec, {2: 1 / 9, 3: 1 / 10, 4: 1 / 26})
        assert [sums[0]] + [v.hex() for v in list(sums.values())[1:]] == [
            1, "0x1.c71c71c71c71cp-4", "0x1.febc5d8cf5412p-4", "0x1.9d2ff29a06dc8p-4",
            "0x1.56d69f1196a39p-4", "0x1.56469eaf12f3ap-4"]

    def test_float_powers_add_highest_index_first(self, monkeypatch):
        # every R^F that the cell pass takes from the kernel, bit for bit against the oracle
        powers = []

        def kernel(terms, b, n):
            powers.append((n, _mul_cut(terms, b, n)))
            return powers[-1][1]

        monkeypatch.setattr(series, "_mul_cut", kernel)
        r = [1 / 9, 1 / 10, 1 / 26]
        layer_sums(LayerSpec(Measure.VERTEX, 40, 4), dict(zip((2, 3, 4), r)))
        assert len(powers) == 40
        want = [1]
        for f, (n, got) in enumerate(powers, 1):
            want = mul_from_top(r, want)
            assert len(got) == min(n, len(want)), f
            assert [x.hex() for x in got] == [x.hex() for x in want[:n]], f

    def test_zero_leading_values_match_the_oracle(self):
        # t2 = 0 (and t3 = 0): R^F is zero below j0*F, where each F's cells start
        for meas, d, q in ((Measure.VERTEX, 24, 5), (Measure.EDGE, 30, 6), (Measure.FACE, 9, 5)):
            spec = LayerSpec(meas, d, q)
            types = _oracle_types(spec)
            for lead in (1, 2, 3):
                values = {k: Fraction(0) if k < 2 + lead else Fraction(3 - k, 2 * k + 5)
                          for k in range(2, q + 1)}
                got, want = layer_sums(spec, values), _oracle_layer_sums(types, spec, values)
                assert list(got.items()) == list(want.items()), (spec, values)
                _assert_partial_sums(spec, values, want)
                floats = {k: float(v) for k, v in values.items()}
                got = layer_sums(spec, floats)
                _assert_float_sums_close(got, types, spec, floats)
                _assert_partial_sums(spec, floats, got)

    def test_zero_leading_float_cells_keep_their_bits(self):
        # pinned bits of the cell pass that started every F's cells at e = 0
        sums = layer_sums(LayerSpec(Measure.VERTEX, 9, 5), {2: 0, 3: 1 / 9, 4: 1 / 10, 5: 1 / 26})
        assert [sums[0]] + [v.hex() for v in list(sums.values())[1:]] == [
            1, "0x0.0p+0", "0x1.c71c71c71c71cp-4", "0x1.999999999999ap-4", "0x1.353dfe8a9353ep-4",
            "0x1.3e93e93e93e94p-4", "0x1.734c4d6bb67ecp-4", "0x1.7157157157158p-4",
            "0x1.a5e9ec1604495p-4", "0x1.e1dca99c957d1p-4"]
        sums = layer_sums(LayerSpec(Measure.EDGE, 12, 4), {2: 0, 3: 0, 4: 1 / 7})
        assert [lvl for lvl, v in sums.items() if v] == [0, 4, 8, 12]
        assert [sums[4], sums[8], sums[12]] == [1 / 7, 0.08163265306122448, 0.06413994169096209]

    def test_zero_leading_underflowed_cells_are_skipped(self):
        # 0.1**F is 0.0 from F = 324 on, while binom(3F, F) / (2F + 1) is past the float range
        sums = layer_sums(LayerSpec(Measure.VERTEX, 1400, 3), {2: 0, 3: 0.1})
        assert sums[2] == 0.1 and sums[700] == sums[1400] == 0.0

    @pytest.mark.parametrize("d,q,values", [
        (600, 2, {2: 0.26}), (600, 3, {2: 0.25, 3: -1 / 128}), (1000, 2, {2: 0.25}),
    ])
    def test_float_cells_past_the_float_range_are_scaled(self, d, q, values):
        # binom(2F, F) / (F + 1) passes the float range at F = 515, where t2**F is near or
        # below the smallest normal float, yet every level sum is finite
        spec = LayerSpec(Measure.VERTEX, d, q)
        got = layer_sums(spec, values)
        want = layer_sums(spec, {k: Fraction(v) for k, v in values.items()})
        scale = layer_sums(spec, {k: abs(Fraction(v)) for k, v in values.items()})
        assert list(got) == list(want)
        assert [type(v) for v in got.values()] == [int] + [float] * (len(got) - 1)
        for lvl, v in got.items():
            assert abs(Fraction(v) - want[lvl]) <= FLOAT_TOLERANCE * scale[lvl], lvl
        _assert_partial_sums(spec, values, got)

    def test_float_scalings_agree_bit_for_bit(self):
        # the scaled cells are the unscaled ones times powers of 2, so wherever the unscaled
        # pass stays in the float range both give the same level sums, bit for bit
        rng = random.Random(2025)
        for _ in range(400):
            meas, q, d = rng.choice(list(Measure)), rng.randint(2, 6), rng.randint(1, 120)
            spec = LayerSpec(meas, d, q)
            floats = {k: rng.choice((0, 1, -1)) / rng.randint(5, 60) for k in range(2, q + 1)}
            plain, scaled = ([(lvl, float(num).hex()) for lvl, num, _ in
                              series._level_numerators(spec, floats, scaled=scaled)[3]]
                             for scaled in (False, True))
            assert plain == scaled, (spec, floats)

    def test_vertex_60_seven_gons_under_a_second(self):
        # walking every admitted type took 3.4 s (2-core Xeon VM, Python 3.11)
        spec = LayerSpec(Measure.VERTEX, 60, 8)
        start = time.perf_counter()
        sums = layer_sums(spec, {k: Fraction(1, 10 + 3 * k) for k in range(2, 9)})
        assert time.perf_counter() - start < 1.0
        assert sorted(sums) == list(range(61))

    def test_float_vertex_60_seven_gons_under_a_second(self):
        # walking every admitted type took about 2 s (2-core Xeon VM, Python 3.11)
        spec = LayerSpec(Measure.VERTEX, 60, 8)
        start = time.perf_counter()
        sums = layer_sums(spec, {k: 1 / (10 + 3 * k) for k in range(2, 9)})
        assert time.perf_counter() - start < 1.0
        assert sorted(sums) == list(range(61))
        assert all(type(v) is float for lvl, v in sums.items() if lvl)


# level bounds of the one-value oracle sweep: the oracle walks every multiset of gons
ONE_VALUE_ORACLE_BOUND = {Measure.VERTEX: 16, Measure.EDGE: 20, Measure.FACE: 7}


class TestOneValue:
    """One nonzero t_k: the zero is the Fuss-Catalan series, binom(kF, F)/((k-1)F+1) * t_k^F
    alone at level (b + a(k-2))F, one cell per face count F."""

    @pytest.mark.parametrize("meas", list(Measure), ids=lambda m: m.value)
    @pytest.mark.parametrize("k", range(2, 6))
    def test_exact_level_sums(self, meas, k):
        lw = series.weight(k, meas)
        for q in (k, k + 1):
            small = LayerSpec(meas, ONE_VALUE_ORACLE_BOUND[meas], q)
            types = _oracle_types(small)
            for t in (2, -1, Fraction(1, 7), Fraction(-3, 10)):
                values = {i: t if i == k else 0 for i in range(2, q + 1)}
                spec = LayerSpec(meas, 40 * lw + lw - 1, q)
                got = layer_sums(spec, values)
                assert all(lw * f in got for f in range(41)), (spec, t)
                for lvl, s in got.items():
                    f, rest = divmod(lvl, lw)
                    want = 0 if rest else Fraction(comb(k * f, f), (k - 1) * f + 1) * t**f
                    assert s == want, (spec, t, lvl)
                got, want = layer_sums(small, values), _oracle_layer_sums(types, small, values)
                assert list(got.items()) == list(want.items()), (small, t)
                assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
                _assert_partial_sums(small, values, want)

    @pytest.mark.parametrize("meas", list(Measure), ids=lambda m: m.value)
    @pytest.mark.parametrize("k", range(2, 6))
    def test_float_level_sums_bit_for_bit(self, meas, k, monkeypatch):
        # c^F by repeated products, its cell the correctly rounded quotient times c^F; from
        # c = ±1e-6 on, c^F underflows to 0.0 at F = 54 and the quotient passes the float range
        # before F = 600: the level stays 0.0, and the pass is not restarted scaled
        passes = []
        numerators = series._level_numerators
        monkeypatch.setattr(series, "_level_numerators",
                            lambda *args, **kw: passes.append(kw) or numerators(*args, **kw))
        lw = series.weight(k, meas)
        for c, n in ((0.1, 60), (-0.3, 60), (1 / 7, 60), (1e-6, 600), (-1e-6, 600)):
            spec = LayerSpec(meas, lw * n, k)
            passes.clear()
            got = layer_sums(spec, {i: c if i == k else 0.0 for i in range(2, k + 1)})
            assert passes == [{}], (spec, c)
            power, want = 1, [1]
            for f in range(1, n + 1):
                power *= c
                want.append(comb(k * f, f) / ((k - 1) * f + 1) * power if power else 0.0)
            assert [repr(got[lw * f]) for f in range(n + 1)] == list(map(repr, want)), (spec, c)
            assert all(s == 0.0 for lvl, s in got.items() if lvl % lw), (spec, c)
            if abs(c) < 1e-3:
                assert want[53] and not any(want[54:]), (spec, c)
                with pytest.raises(OverflowError):
                    comb(k * n, n) / ((k - 1) * n + 1)


# every measure up to d = 12, face layering with q = 2..6 up to d = 6
WALK_SPECS = (
    [LayerSpec(Measure.VERTEX, d) for d in range(13)]
    + [LayerSpec(Measure.EDGE, d) for d in range(13)]
    + [LayerSpec(Measure.FACE, d, q) for q in range(2, 7) for d in range(7)]
)


def _oracle_graded(spec):
    """The oracle beta, every admitted multiset with its closed form, packed by the oracle."""
    return graded(LayeredPoly({m: hyper_catalan(m) for m in _oracle_types(spec)}), spec)


class TestPackedWalk:
    """The walk's packed level buckets against the packed oracle beta."""

    @pytest.mark.parametrize("spec", WALK_SPECS, ids=_spec_id)
    def test_buckets_match_oracle(self, spec):
        assert _walk(spec) == _oracle_graded(spec)

    def test_catalan_column_far_past_the_sweeps(self):
        # S(t2) is the Catalan series: the face level F of q = 2 is C_F t2^F, key F
        walked = _walk(LayerSpec(Measure.FACE, 2000, 2))
        assert len(walked) == 2001
        for f, bucket in enumerate(walked):
            assert bucket == {f: comb(2 * f, f) // (f + 1)}, f

    def test_two_gons_under_a_gon_bound(self):
        # vertex level m2 + 2*m3 <= 40 with no gon past t3: every type goes on to t3 that has room
        d = 40
        want = [{} for _ in range(d + 1)]
        for m2 in range(d + 1):
            for m3 in range((d - m2) // 2 + 1):
                want[m2 + 2 * m3][m2 + (d + 1) * m3] = hyper_catalan(tv(m2, m3))
        assert _walk(LayerSpec(Measure.VERTEX, d, 3)) == want

    @pytest.mark.parametrize("spec", WALK_SPECS, ids=_spec_id)
    def test_walked_residual_matches_build_beta(self, spec, monkeypatch):
        residual = evaluate_geometric(spec)
        beta = graded(build_beta(spec), spec)
        monkeypatch.setattr(series, "_walk", lambda s: [dict(b) for b in beta])
        assert residual == evaluate_geometric(spec) == {}

    @pytest.mark.parametrize("spec", [s for s in WALK_SPECS if s.max_gon() >= 2], ids=_spec_id)
    def test_wrong_key_unit_is_caught(self, spec, monkeypatch):
        # the unit (d+1)^(k-1) in place of (d+1)^(k-2) multiplies every key by d+1
        wrong = [{key * (spec.d + 1): c for key, c in bucket.items()} for bucket in _walk(spec)]
        assert wrong != _oracle_graded(spec)
        rows = table_rows(spec)
        monkeypatch.setattr(series, "_walk", lambda s: [dict(b) for b in wrong])
        assert evaluate_geometric(spec)
        assert table_rows(spec) != rows


# gradings (b, a) beyond the three measures': one gon t_k weighs b + a*(k-2), b >= 1, a >= 0
GRADINGS = [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (3, 1), (2, 3), (3, 2), (5, 1), (1, 3)]


class TestAffineGradings:
    """Every site reads the grading from series._GRADING, so any (b, a) layers the zero."""

    @pytest.mark.parametrize("b,a", GRADINGS)
    def test_grading_layers_the_zero(self, b, a, monkeypatch):
        monkeypatch.setattr(series, "_GRADING", {meas: (b, a) for meas in Measure})
        rng = random.Random(10 * b + a)
        for d in (0, 1, 3, 6, 10, 14):
            if a:
                LayerSpec(Measure.VERTEX, d)
            else:
                with pytest.raises(ValueError, match="face layering requires a gon bound"):
                    LayerSpec(Measure.VERTEX, d)
            for q in (2, 3, 5, None) if a else (2, 3, 5):
                spec = LayerSpec(Measure.VERTEX, d, q)
                types = _oracle_types(spec)  # its gons reach d + 1 unbounded: t_k weighs >= k - 1
                assert enumerate_types(spec) == types, (d, q)
                assert [level(m, spec.measure) for m in types] == [
                    sum((b + a * (k - 2)) * mk for k, mk in m.items()) for m in types]
                units = [k for k in range(2, 20) if admits(spec, unit_type(k))]
                assert spec.max_gon() == max(units, default=1), (d, q)
                assert evaluate_geometric(spec) == {}, (d, q)
                values = {k: Fraction(rng.randint(-7, 7), rng.randint(1, 12))
                          for k in range(2, max(spec.max_gon(), 2) + 1)}
                term = lambda key: prod(values[k] ** mk for k, mk in unpack(key, d + 1).items())
                walked = [(lvl, sum(c * term(key) for key, c in bucket.items()))
                          for lvl, bucket in enumerate(_walk(spec)) if bucket]
                assert list(layer_sums(spec, values).items()) == walked, (d, q, values)


class TestLiteratureSequences:
    """Level sums at t_k = 1 against sequences from their binomial sums, not from C_m."""

    def test_vertex_level_sums_are_little_schroeder_numbers(self):
        # dissections of a (d+2)-gon: (1/n) sum_k binom(n, k) binom(n+k, k-1) at n = d >= 1
        # (Stanley, "Hipparchus, Plutarch, Schroder, and Hough", Amer. Math. Monthly 104, 1997)
        want = [1] + [Fraction(sum(comb(n, k) * comb(n + k, k - 1) for k in range(1, n + 1)), n)
                      for n in range(1, 11)]
        assert want == [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859]
        spec = LayerSpec(Measure.VERTEX, 10)
        sums = layer_sums(spec, {k: 1 for k in range(2, spec.max_gon() + 1)})
        assert list(sums.items()) == list(enumerate(want))

    def test_edge_level_sums_are_riordan_numbers(self):
        # (1/(n+1)) sum_{k>=1} binom(n+1, k) binom(n-k-1, k-1) at n = d >= 1
        # (Bernhart, "Catalan, Motzkin, and Riordan numbers", Discrete Math. 204, 1999)
        want = [1] + [Fraction(sum(comb(n + 1, k) * comb(n - k - 1, k - 1)
                                   for k in range(1, n // 2 + 1)), n + 1) for n in range(1, 13)]
        assert want == [1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603, 1585, 4213]
        spec = LayerSpec(Measure.EDGE, 12)
        sums = layer_sums(spec, {k: 1 for k in range(2, spec.max_gon() + 1)})
        assert 1 not in sums  # edge level 1 has no type: t2 alone weighs 2
        assert list(sums.items()) == [(d, r) for d, r in enumerate(want) if d != 1]
