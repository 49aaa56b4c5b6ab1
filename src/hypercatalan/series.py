"""Layered truncations of the series zero, on packed keys.

A LayerSpec fixes a measure and a maximum level d: vertex level V-2, edge level
E-1 or face level F.  Each is an affine grading (b, a), kept only in _GRADING:
a type with F faces and excess e = sum_k (k-2) m_k sits at b*F + a*e, one gon
t_k weighing b + a*(k-2), with (b, a) = (1, 1), (2, 1) and (1, 0).  The run-time
paths keep every polynomial packed.  The coefficient walk (_walk) makes the
types of beta one gon at a time, writing each into its level bucket of packed
keys; evaluate_geometric returns the residual as {level: {packed key:
coefficient}}, and geode_quotient its quotient of one bucket; table_rows
returns the buckets that render_table prints.  The residual sums
1 + sum_n t_n beta^n into fresh level buckets and compares each with beta's:
only a level where they differ is subtracted term by term.
_labels is the one decoder of packed keys.  In one pass in increasing key order it
gives each key, from the label of a smaller one, its TypeVector's entries, its
print order as one int that sorts as (faces, entries) does, and its text.
build_beta (and so enumerate_types) and geode_quotient read a key's gons from
it; _printer, behind render_table and first_term alike, sorts each bucket by
that int and shows each key by its text.  The int is sized from the largest key
it is given, not from d, so a key past the spec sorts right too.
render_table writes its json text itself, as json.dumps would, with no json module.

LayeredPoly, a map from TypeVector to int, is the type-vector form that the
tests compare the packed paths with, through mul_truncated (which prunes
partial products past level d, sound because every measure is additive),
build_beta, enumerate_types and layer_slice.  No command reaches them, and they
are outside the package's __all__; bench/tracer.py wraps them by name.

- Packed keys: a monomial admitted at level bound d is the int
  sum_k m_k * B^(k-2) with B = d+1 (Kronecker substitution), so a
  monomial product is one int addition.  No digit carries: every gon
  weighs at least 1, so a monomial of level <= d has every m_k <= d < B,
  and so has every product of two monomials whose levels add up to <= d.
- Level buckets: terms sit in one dict per level, and bucket pairs whose
  levels add up to more than the bound are never visited.
- Tight truncation: t_n * beta^n is cut at d, so beta^n is computed only
  up to level d - weight(n).  No weight falls as n grows, so each power
  needs its factors only up to its own bound: beta^n is (beta^(n/2))^2
  for even n and beta^(n-1) * beta for odd n.  Level 0 holds only the
  empty monomial, so a product's constant-term part is copies: a square's
  level l is 2*a0*a_l, and any other product's starts as b_l (scaled by a0
  unless a0 is 1) with b0*a_l added.  Only the pairs of levels >= 1 are
  multiplied term by term, a square each unordered pair once.

Level sums (layer_sums) need no walk.  Group the types by F = sum_k m_k
and s = sum_k (k-1) m_k: V - 1 = s + 1 and E - 1 = F + s, so C_m =
binom(F+s, F)/(s+1) * F!/m!, and by the multinomial theorem the sum of
F!/m! * t^m over one (F, s) is [mu^s] (sum_k t_k mu^(k-1))^F.  With
t_k = n_k/Q over one denominator, R(mu) = sum_k n_k mu^(k-2) and the excess
e = s - F, the cell (F, e) at level b*F + a*e adds binom(F+s, F) * [mu^e] R^F
// (s+1) over Q^F (exact: it is sum C_m * prod_k n_k^m_k).
Float values take the same cells with Q = 1 and n_k = t_k as floats, the
cell adding binom(F+s, F)/(s+1) * [mu^e] R^F.  R = mu^j R~ for the first
nonzero index j of R (j = 0 unless t_2 = 0), so R^F is zero below e = jF and
its cells are those of R~^F: F runs 1 .. d // (b + a*j), and each F's first
cell, (F, jF) on level (b + a*j)*F, has the binomial binom(kF, F), k = j+2,
advanced from F-1 by the ratio perm(kF, k) / (F * perm((k-1)F, k-1)), as
_walk advances C, and each later cell by one more ratio.  The cells take one
of two loops (``_level_numerators``).  When R~ is one term c (one nonzero
value t_k), the zero is the Fuss-Catalan series: each F has the one cell
binom(kF, F)/((k-1)F+1) * c^F, alone on its level, with c^F by repeated
products and no list.  Otherwise R~^F is a plain list, advanced by
core._mul_cut, which adds one slice per nonzero coefficient of R~ in the
order given: highest index first, so each float cell adds its terms in one
fixed order; one loop takes each F's row of cells, exact and float alike.  A
float quotient past the float range restarts the pass on 4 R(2 mu), in the
same loops.

Partial sums (partial_pairs), the truncations of the zero that solve prints,
come from the same cell pass as plain ints.  Exact ones keep a single running
numerator over Q^(l // b): each level multiplies it by a power of Q from the
same table, adds the level's numerator, and reduces the pair by one gcd.  solve
writes its level lines from the pairs, and partial_sums wraps them in int,
Fraction or float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from math import gcd, isfinite, lcm, ldexp, perm
from operator import mul, or_

from .core import Measure, TypeVector, _mul_cut, _poly_text


_GRADING = {Measure.VERTEX: (1, 1), Measure.EDGE: (2, 1), Measure.FACE: (1, 0)}  # (b, a)


def weight(k: int, measure: Measure) -> int:
    """Level of one (k+1)-gon t_k, b + a*(k-2): k-1 (vertex), k (edge) or 1 (face)."""
    b, a = _GRADING[measure]
    return b + a * (k - 2)


def level(m: TypeVector, measure: Measure) -> int:
    """Shifted level of a monomial, b*F + a*e: V-2, E-1 or F depending on measure."""
    return sum(weight(k, measure) * mk for k, mk in m.items())


@dataclass(frozen=True)
class LayerSpec:
    """A measure with a maximum level d and an optional gon bound q.

    The spec admits a monomial of level at most d with no gon index above q.  A grading
    with a = 0 (face) needs q; with a >= 1 the level bound caps the gon index by itself.
    """

    measure: Measure
    d: int
    gon_bound: int | None = None

    def __post_init__(self):
        if not isinstance(self.measure, Measure):
            raise ValueError(f"measure {self.measure!r} is not a Measure")
        if not isinstance(self.d, int):
            raise ValueError(f"level bound {self.d!r} is not an int")
        if not isinstance(self.gon_bound, (int, type(None))):
            raise ValueError(f"gon bound {self.gon_bound!r} is not an int")
        if self.d < 0:
            raise ValueError(f"negative level bound {self.d}")
        if self.gon_bound is not None and self.gon_bound < 2:
            raise ValueError(f"gon bound {self.gon_bound} < 2")
        if not _GRADING[self.measure][1] and self.gon_bound is None:
            raise ValueError("face layering requires a gon bound")

    def max_gon(self) -> int:
        """Largest gon index k an admitted monomial can mention, b + a*(k-2) <= d; 1 if none."""
        b, a = _GRADING[self.measure]
        top = 2 + (self.d - b) // a if a else self.gon_bound  # a = 0 has a gon bound
        return min(top, self.gon_bound or top) if self.d >= b else 1


class NonzeroRemainder(ArithmeticError):
    """Raised when an expected-exact polynomial division leaves a remainder."""


class LayeredPoly:
    """Immutable sparse polynomial over type-vector monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[TypeVector, int] | None = None):
        clean = {m: c for m, c in (terms or {}).items() if c != 0}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("LayeredPoly is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, LayeredPoly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def mul_truncated(p: LayeredPoly, q: LayeredPoly, spec: LayerSpec) -> LayeredPoly:
    """The terms of p*q that spec admits, pruning partial products eagerly.

    Sound because every measure is additive: once a pair of monomials
    exceeds level d, so does any extension of it.
    """
    out: dict[TypeVector, int] = {}
    plevels = [(m, c, level(m, spec.measure)) for m, c in p.terms.items()]
    qlevels = [(m, c, level(m, spec.measure)) for m, c in q.terms.items()]
    for m1, c1, l1 in plevels:
        if l1 > spec.d:
            continue
        for m2, c2, l2 in qlevels:
            if l1 + l2 > spec.d:
                continue
            m = m1 + m2
            if spec.gon_bound is not None and m.max_gon() > spec.gon_bound:
                continue
            out[m] = out.get(m, 0) + c1 * c2
    return LayeredPoly(out)


# A graded polynomial: level buckets 0..bound, bucket i mapping the
# packed key of each monomial at level i to its coefficient.
Graded = list[dict[int, int]]


def _walk(spec: LayerSpec) -> Graded:
    """beta for spec graded: {packed key: C_m} per level.

    One pass per gon k = 2 .. max_gon: each type made so far that still has room takes
    1, 2, ... (k+1)-gons, each new type written into its level bucket as it is made.  A
    type carries its level, V, E, C and packed key; one more (k+1)-gon at count m_k updates
    C = (E-1)!/((V-1)! m!) exactly: C * E(E+1)...(E+k-1) / ((m_k+1) * V(V+1)...(V+k-2)).
    A type goes on to gon k+1 only while its level is at most d - weight(k+1): the
    weights never decrease with k, so a type that fails has no room for any later gon.
    """
    d, top = spec.d, spec.max_gon()
    buckets: Graded = [{} for _ in range(d + 1)]
    buckets[0][0] = 1
    live = [(0, 2, 1, 1, 0)]  # (level, V, E, C, key) of each type with room for gon k
    for k in range(2, top + 1):
        w, unit = weight(k, spec.measure), (d + 1) ** (k - 2)
        room = d - weight(k + 1, spec.measure) if k < top else -1
        grown = [t for t in live if t[0] <= room]  # the types that take no (k+1)-gon
        for lvl, v, e, c, key in live:
            for mk in range(1, (d - lvl) // w + 1):
                c = c * perm(e + k - 1, k) // (mk * perm(v + k - 2, k - 1))
                lvl, v, e, key = lvl + w, v + k - 1, e + k, key + unit
                buckets[lvl][key] = c
                if lvl <= room:
                    grown.append((lvl, v, e, c, key))
        live = grown
    return buckets


def enumerate_types(spec: LayerSpec) -> list[TypeVector]:
    """All type vectors admitted by spec, graded by level then lex."""
    return sorted(build_beta(spec).terms, key=lambda m: (level(m, spec.measure), m.entries))


def build_beta(spec: LayerSpec) -> LayeredPoly:
    """The layered truncation of the series zero: sum of C_m * t^m."""
    buckets = _walk(spec)
    label = _labels(set().union(*buckets), spec.d + 1)
    return LayeredPoly({TypeVector(label[key][2]): c for bucket in buckets
                        for key, c in bucket.items()})


def _level_numerators(spec: LayerSpec, values: dict, scaled: bool = False):
    """(exact, w2, qpow, [(level, numerator, frac)]): the cell pass of layer_sums and partial_pairs.

    One entry per level that spec admits a type at, in increasing order; the level sum is
    the numerator over qpow[level // w2] (1 for floats), and frac marks a level with a type
    that uses a Fraction value.  A float numerator that is not finite raises OverflowError, and
    values that lack a gon spec admits raise ValueError, before any cell.
    The cells run over R~, R less its factor mu^j0 (module docstring), in one of two loops:
    one nonzero value has one cell per F, any more a row of cells per F, exact and float
    alike.  A float cell whose binomial quotient passes the float range starts the pass
    again scaled, in the same loops: R(mu) becomes 4 R(2 mu) and R^0 becomes 2^-64, so c is
    scaled by 4^F 2^e / 2^64 and the quotient by 2^64 / 2^(2F + e), which bounds it by 2^64.
    Near the radius of convergence that keeps both in range, where c alone falls below the
    smallest float (0.26^F at F = 554), and a level sum past the float range overflows
    before c does.  Both factors are scaled by powers of 2, so wherever the plain pass stays
    in the normal float range the scaled one gives its level sums bit for bit.  A float c
    that falls below the normal range is not rescaled: a subnormal c keeps only some of
    its bits and a c of 0.0 is skipped, so from there on a float level sum is no longer
    within 1e-13 of the sum of |terms| of the exact one, and may read 0.0 (layer_sums).
    """
    d, ks = spec.d, [(k, weight(k, spec.measure)) for k in range(2, spec.max_gon() + 1)]
    if missing := [k for k, _ in ks if k not in values]:
        raise ValueError(f"no value for the gons {missing}, which spec admits")
    # reach[l]: spec admits a type at level l (an unbounded knapsack over the weights)
    reach = [True] + [False] * d
    for _, w in ks:
        for lvl in range(w, d + 1):
            reach[lvl] = reach[lvl] or reach[lvl - w]
    exact = all(isinstance(values[k], (int, Fraction)) for k, _ in ks)
    if exact:
        q = lcm(*(values[k].denominator for k, _ in ks))
        r = [values[k].numerator * (q // values[k].denominator) for k, _ in ks]
    else:
        q, r = 1, [float(values[k]) for k, _ in ks]
        if scaled:
            r = [ldexp(x, j + 2) for j, x in enumerate(r)]
    # R = mu^j0 R~ with R~(0) != 0, so the cell (F, e) of R^F is the cell (F, e - j0 F) of
    # R~^F.  R~'s nonzero terms go highest index first: each cell of R~^F then adds its
    # terms in increasing index of R~^(F-1), the order that keeps float sums reproducible
    nonzero = [j for j, x in enumerate(r) if x]
    j0 = nonzero[0] if nonzero else 0
    terms = [(j - j0, r[j]) for j in reversed(nonzero)]
    # the cell (F, e) sits at level w2*F + step*e, its first (e = j0 F) at lw*F, a
    # (j0+2)-gon's weight times F; R~^F is cut at the largest e that fits
    w2, step = _GRADING[spec.measure]  # (b, a)
    k, lw = j0 + 2, w2 + step * j0
    qpow = list(accumulate([q] * (d // w2), mul, initial=1))  # up to Q^(most faces)
    nums = [1] + [0 if exact else 0.0] * d
    unit = ldexp(1.0, -64) if scaled else 1  # R^0: see the docstring
    try:
        if len(terms) == 1:  # R = c*mu^j0: each F has the one cell (F, j0 F), on a level of its own
            [(_, c)] = terms
            mono, b = unit, 1
            for f in range(1, d // lw + 1):  # mono = c^F and b = binom(kF, F), advanced by ratios
                mono *= c
                b = b * perm(k * f, k) // (f * perm((k - 1) * f, k - 1))
                if exact:
                    nums[lw * f] += b * mono // ((k - 1) * f + 1) * qpow[step * j0 * f // w2]
                elif not mono:  # c^F underflowed to 0.0, and so does every later power
                    break
                else:
                    nums[lw * f] += ((b << 64) / (((k - 1) * f + 1) << (k * f)) if scaled
                                     else b / ((k - 1) * f + 1)) * mono
        else:
            power, b0 = [unit], 1  # R~^F and binom(kF, F), the first cell's binomial
            for f in range(1, d // lw + 1):
                n = len(power) + len(r) - 1 - j0
                if step:
                    n = min(n, (d - lw * f) // step + 1)
                power = _mul_cut(terms, power, n)
                b0 = (b0 * perm(k * f, k) // (f * perm((k - 1) * f, k - 1)) if j0
                      else b0 * (4 * f - 2) // f)  # the same ratio at k = 2, cheaper
                # b = binom(F + s, F) with s = F + e, advanced by ratios; the cell divides by
                # s1 = s + 1 = f1 + e and sits on level lvl + step*s1
                b, f1, lvl = b0, f + 1, w2 * f - step * (f + 1)
                for s1, c in enumerate(power, f1 + j0 * f):
                    if c:  # a float c^F can underflow to 0.0
                        if exact:  # the numerator over Q^F, rescaled to the level's Q^(level // w2)
                            nums[lvl + step * s1] += b * c // s1 * qpow[step * (s1 - f1) // w2]
                        else:
                            nums[lvl + step * s1] += ((b << 64) / (s1 << (f + s1 - 1)) if scaled
                                                      else b / s1) * c
                    b = b * (f + s1) // s1
    except OverflowError:  # a float quotient past the float range, below 2^64 once scaled
        if scaled:  # so not a quotient: no second restart
            raise
        return _level_numerators(spec, values, scaled=True)
    # frac[l]: a type at level l uses a Fraction value, one t_k of weight w on a type at l - w
    frac = [False] * (d + 1)
    for w in {w for k, w in ks if exact and isinstance(values[k], Fraction)}:
        frac[w:] = map(or_, frac[w:], reach)
    levels = list(compress(zip(range(d + 1), nums, frac), reach))
    if not exact:
        for lvl, num, _ in levels:
            if not isfinite(num):
                raise OverflowError(f"level {lvl} sum is {num}")
    return exact, w2, qpow, levels


def layer_sums(spec: LayerSpec, values: dict) -> dict[int, object]:
    """{level: sum of C_m * prod_k values[k]^m_k over the types spec admits at that level}.

    Summed by the cells (F, e) of the module docstring.  A level is present iff
    spec admits a type at it, and level 0 is the int 1.  Int and Fraction values
    give exact sums: one numerator per level l over Q^(l // b), the most
    faces at l, and an int unless a type at l uses a Fraction value.  Other
    values are taken as floats; a level sum that is not finite raises OverflowError.
    A float level sum is within 1e-13 of the sum of |terms| of the exact one only while
    every cell's float coefficient stays in the normal float range: one that underflows
    loses bits or is skipped.  At vertex d = 800, t = {2: 1/7, 3: 1/30} the bound fails
    from level 502 on, and levels 563-800 read 0.0 where the exact sums are 1.75e-44
    (level 600) down to 9.52e-58 (level 800).
    """
    exact, w2, qpow, levels = _level_numerators(spec, values)
    if not exact:
        return {lvl: num for lvl, num, _ in levels}
    return {lvl: Fraction(num, qpow[lvl // w2]) if frac else num // qpow[lvl // w2]
            for lvl, num, frac in levels}


def partial_pairs(spec: LayerSpec, values: dict):
    """Yield (level, numerator, denominator) of each partial sum, the truncations of the zero.

    The partial sum at a level is the sum of the layer_sums up to it.  Exact values keep one
    running numerator over Q^(l // b), rescaled by a power of Q at each level.  The
    denominator is None while the partial sum is an int (before the first level whose level
    sum is a Fraction); from there on the pair is reduced, with a positive denominator.
    Float values yield the float running sums (level 0 is the int 1), denominator None.
    """
    exact, w2, qpow, levels = _level_numerators(spec, values)
    alpha = 0
    if not exact:
        for lvl, num, _ in levels:
            alpha += num
            yield lvl, alpha, None
        return
    top, frac = 0, False  # alpha is a numerator over Q^top
    for lvl, num, frac_here in levels:
        k = lvl // w2
        alpha, top, frac = alpha * qpow[k - top] + num, k, frac or frac_here
        if not frac:
            yield lvl, alpha // qpow[k], None
            continue
        g = gcd(alpha, qpow[k])
        yield lvl, alpha // g, qpow[k] // g


def partial_sums(spec: LayerSpec, values: dict) -> dict[int, object]:
    """{level: sum of the layer_sums up to that level}, the truncations of the zero.

    A partial sum is an int until the first level whose level sum is a Fraction, and a
    Fraction from there on; float values add the float level sums left to right.  These
    are the pairs of partial_pairs as numbers.
    """
    return {lvl: n if den is None else Fraction(n, den)
            for lvl, n, den in partial_pairs(spec, values)}


def _mul_graded(a: Graded, b: Graded, bound: int) -> Graded:
    """a*b truncated at level bound; a and b both have buckets up to bound.

    Each constant term (key 0, the only one at level 0) scales a copy of the other side:
    a square's level l >= 1 starts as 2*a0*a_l, any other product's as b_l (copied when
    a0 is 1) with b0*a_l added.  The pairs of levels >= 1 are then multiplied term by
    term, a square (a is b) taking each unordered pair once, doubled off the diagonal.
    """
    a0, b0 = a[0].get(0, 0), b[0].get(0, 0)
    square = a is b
    if square:
        twice = 2 * a0
        out: Graded = [{k: a0 * c for k, c in a[0].items()}]
        out += [{k: twice * c for k, c in bucket.items()} for bucket in a[1 : bound + 1]]
    else:
        out = [dict(bucket) if a0 == 1 else {k: a0 * c for k, c in bucket.items()}
               for bucket in b[: bound + 1]]
        for o, bucket in zip(out[1:], a[1:]):
            for k, c in bucket.items():
                o[k] = o.get(k, 0) + b0 * c
    for i in range(1, bound // 2 + 1 if square else bound):
        terms_a = list(a[i].items())
        for j in range(i if square else 1, bound + 1 - i):
            terms_b = b[j].items()
            o = out[i + j]
            for x, (ka, ca) in enumerate(terms_a):
                if square:
                    if i == j:  # the diagonal once, the pairs after it doubled
                        o[2 * ka] = o.get(2 * ka, 0) + ca * ca
                        terms_b = terms_a[x + 1 :]
                    ca *= 2
                for kb, cb in terms_b:
                    k = ka + kb
                    o[k] = o.get(k, 0) + ca * cb
    return out


def _graded_powers(beta: Graded, spec: LayerSpec):
    """(n, weight(n), key of t_n, beta^n cut at d - weight(n)) for every gon n spec admits.

    beta is graded for spec.  Kept are the last power and those a later square needs.
    """
    top = spec.max_gon()
    powers = {1: beta}
    for n in range(2, top + 1):
        w = weight(n, spec.measure)
        factors = (powers[n - 1], beta) if n % 2 else (powers[n // 2], powers[n // 2])
        power = _mul_graded(*factors, spec.d - w)
        powers = {m: p for m, p in powers.items() if n < 2 * m <= top} | {n: power}
        yield n, w, (spec.d + 1) ** (n - 2), power


def evaluate_geometric(spec: LayerSpec) -> dict[int, dict[int, int]]:
    """The walked series' residual 1 - beta + sum_n t_n * beta^n, cut to spec, packed.

    {level: {packed key: coefficient}} of the nonzero terms: {} (zero) for the layered series.
    1 + sum_n t_n * beta^n is summed into fresh level buckets and each is compared with
    beta's; only a level where they differ is subtracted term by term.
    """
    beta = _walk(spec)
    acc: Graded = [{0: 1}] + [{} for _ in beta[1:]]
    for _, w, shift, power in _graded_powers(beta, spec):
        for out, bucket in zip(acc[w:], power):
            for key, c in bucket.items():
                key += shift
                out[key] = out.get(key, 0) + c
    residual = {}
    for lvl, (got, want) in enumerate(zip(acc, beta)):
        if got != want:
            diff = {key: -c for key, c in want.items()}
            for key, c in got.items():
                diff[key] = diff.get(key, 0) + c
            if terms := {key: c for key, c in diff.items() if c}:
                residual[lvl] = terms
    return residual


def layer_slice(p: LayeredPoly, measure: Measure, n: int) -> LayeredPoly:
    """Sub-polynomial of terms at exactly level n."""
    return LayeredPoly({m: c for m, c in p.terms.items() if level(m, measure) == n})


def geode_quotient(d: int, q: int) -> dict[int, dict[int, int]]:
    """Face-layer-d slice of beta - 1 divided exactly by t_2 + ... + t_q, packed.

    {d - 1: {packed key: coefficient}} with keys at base d + 1, evaluate_geometric's form.
    A triangular solve over packed keys, most t_2 first: the slice S is G * (t_2 + ...
    + t_q), so G[n] = S[n + t_2] - sum_{k >= 3, n_k >= 1} G[n + t_2 - t_k], each G on
    the right having one t_2 more than n.  G times the divisor must give S back.
    """
    if d < 1:
        raise ValueError(f"face level {d} < 1")
    base = d + 1
    sliced = _walk(LayerSpec(Measure.FACE, d, q))[d]  # rejects q < 2; d >= 1: no constant term
    units = [base ** (k - 2) for k in range(3, q + 1)]  # the keys of t_3 .. t_q
    label, quotient = _labels(sliced, base), {}
    for key in sorted((key for key in sliced if key % base), key=lambda key: -(key % base)):
        known = (quotient.get(key - units[k - 3], 0) for k, _ in label[key][2] if k > 2)
        quotient[key - 1] = sliced[key] - sum(known)
    product: dict[int, int] = {}
    for key, c in quotient.items():
        for u in [1, *units]:
            product[key + u] = product.get(key + u, 0) + c
    if {key: c for key, c in product.items() if c} != {key: c for key, c in sliced.items() if c}:
        raise NonzeroRemainder(f"face level {d} slice is not a multiple of t2 + ... + t{q}")
    return {d - 1: {key: c for key, c in quotient.items() if c}}


def table_rows(spec: LayerSpec) -> list[tuple[str, dict[int, int]]]:
    """Per-level, per-source-term decomposition of the layering identity, packed.

    For each level up to d, the level bucket of each contributing source term
    t_n*beta^n, labelled "[v^3] t2 b^2", then that of beta - 1, "[v^3] total".
    """
    sym = spec.measure.value[0]
    beta = _walk(spec)
    sources = [(n, [{} for _ in range(w)] + [{k + shift: c for k, c in b.items()} for b in power])
               for n, w, shift, power in _graded_powers(beta, spec)]
    beta[0][0] = beta[0].get(0, 0) - 1  # the total rows are beta - 1
    rows = []
    for lvl in range(spec.d + 1):
        rows += [(f"[{sym}^{lvl}] t{n} b^{n}", src[lvl]) for n, src in sources if src[lvl]]
        rows.append((f"[{sym}^{lvl}] total", beta[lvl]))
    return rows


def _labels(keys, base: int, json: bool = False) -> dict[int, tuple[int, str, tuple]]:
    """{key: (order, text, entries)} for the packed keys and some smaller ones.

    The module's one decoder of packed keys.  entries are the TypeVector's; text is the
    monomial as 't2^3t4', or its counts '[3, 0, 1]' if json; order is an int that sorts as
    (faces, entries) does.  A key whose top gon k has count m_k has the label of key %
    base**(k-2), the type less its k-gons, plus the entry (k, m_k), its order and its text.
    Keys go in increasing order, so that smaller key has its label; if it is no key (as in
    one level's bucket), it and its own remainders, each some rest % base**j, are labelled
    first, by one more pass that needs no other.  order is faces * base**(K-1) + sum_k
    (m_k - base) * base**(K-k) over the entries, K the top gon of the largest key: the
    counts are digits below the base and an absent gon reads as the base, so a smaller
    first gon, or a smaller count at it, sorts first.  A key naming no monomial (a negative
    one, or a nonzero one at base 1) raises ValueError.
    """
    keys = sorted(keys)
    high = keys[-1] if keys else 0
    if keys and keys[0] < 0 or high and base < 2:
        raise ValueError(f"key {keys[0] if keys[0] < 0 else high} names no monomial at base {base}")
    place = [1]  # place[i] = base**i up to base**(K-1), K the top gon of the largest key
    while place[-1] <= high:
        place.append(place[-1] * base)
    place.reverse()  # now base**(K-1-i): the faces at place[0], the count m_k at place[k-1]
    # per gon k: the order added by each (k+1)-gon and taken once, the text 'tk', the json lead
    gon = [(place[0] + place[k - 1], place[k - 2], f"t{k}", "[" + "0, " * (k - 2))
           for k in range(2, len(place) + 1)]
    label = {0: (0, "[]" if json else "", ())}

    def decode(keys):
        k, unit, span = 1, 0, 1  # the top gon k of the key at hand, base**(k-2) and base**(k-1)
        for key in keys:
            if key in label:
                continue
            while key >= span:
                k, unit, span = k + 1, span, span * base
                each, once, tk, lead = gon[k - 2]
            mk, rest = divmod(key, unit)
            if rest not in label:  # no key: labelled first, with its own remainders
                decode(sorted({rest % base**j for j in range(k - 1)}))
            order, text, entries = label[rest]
            if json:  # '[m2, ..., mj]' less its ']', zeros up to gon k, then ', mk]'
                text = (f"{text[:-1]}{', 0' * (k - 1 - entries[-1][0])}, {mk}]" if entries
                        else f"{lead}{mk}]")
            else:
                text = f"{text}{tk}^{mk}" if mk > 1 else text + tk
            label[key] = order + mk * each - once, text, (*entries, (k, mk))

    decode(keys)
    return label


def _printer(spec: LayerSpec, buckets, fmt: str):
    """terms(bucket): its nonzero (monomial, coeff) pairs in print order: faces, then entries.

    Each bucket sorts by its keys' _labels order, read through one {key: order} map, and a key
    shows as its label's text: the counts '[m2, m3, ...]' in json, the text 't2^3t4' otherwise.
    """
    label = _labels(set().union(*buckets), spec.d + 1, fmt == "json")
    order = {key: lab[0] for key, lab in label.items()}

    def terms(bucket):
        return [(label[key][1], c) for key in sorted(bucket, key=order.__getitem__)
                if (c := bucket[key])]

    return terms


def render_table(spec: LayerSpec, rows: list[tuple[str, dict[int, int]]], fmt: str) -> str:
    """The rows of table_rows as text, csv or json; zero coefficients are skipped.

    The json text is written here, as json.dumps writes it with its default separators.
    A row label holds only the measure letter, digits, 't', 'b', '^', brackets and
    spaces, so it goes between quotes with nothing to escape.  Any other fmt raises
    ValueError.
    """
    if fmt not in ("text", "csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}")
    terms = _printer(spec, [b for _, b in rows], fmt)
    if fmt == "json":
        shown = [", ".join([f'{{"type": {m}, "coeff": "{c}"}}' for m, c in terms(b)])
                 for _, b in rows]
        return "[" + ", ".join([f'{{"row": "{label}", "terms": [{text}]}}'
                                for (label, _), text in zip(rows, shown)]) + "]\n"
    if fmt == "csv":
        lines = ["row,polynomial", *[f'{label},"{_poly_text(terms(b))}"' for label, b in rows]]
    else:
        lines = [f"{label:>16}  {_poly_text(terms(b))}" for label, b in rows]
    return "\n".join(lines) + "\n"


def first_term(spec: LayerSpec, bucket: dict[int, int]) -> str:
    """The first nonzero term of a packed bucket in print order, as text: '-2t2^5'."""
    return _poly_text(_printer(spec, [bucket], "text")(bucket)[:1])
