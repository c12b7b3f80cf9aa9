"""Combinatorial companions: periodic box sets and their densities,
difference-set configuration search, multivariate-to-curve reduction, clique
search on curve difference sets, and the two-level periodic coloring."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    box_distance,
    box_member,
    coloring_violations_bulk,
    curve_difference_member,
    horner_float,
    independent_fraction,
)

from oscillabound import cayleylab
from oscillabound.cayleylab import (
    BoxSet,
    CliqueInstance,
    clique_search,
    coloring_threshold,
    config_search,
    curve_difference_oracle,
    multivariate_reduce,
    periodic_coloring_verify,
    upper_density_estimate,
)
from oscillabound.polycore import CurveFamily, parse_curve_family

PARABOLA = parse_curve_family([["0", "1"], ["0", "0", "1"]])


def test_boxset_membership_exact():
    bs = BoxSet([[("0", "1/3"), ("-1", "1")]], period=("3", None))
    assert bs.contains((Fraction(1, 3), 0))
    assert (Fraction(10, 3), Fraction(1)) in bs  # wraps: 10/3 mod 3 = 1/3
    assert not bs.contains((Fraction(1, 2), 0))
    assert bs.contains((-3, -1))  # -3 mod 3 = 0
    assert not bs.contains((0, 2))
    try:
        bs.contains((1,))
    except ValueError:
        pass
    else:
        raise AssertionError("dimension mismatch accepted")


def test_boxset_unbounded_and_empty():
    half = BoxSet([[(None, "0"), (None, None)]])
    assert half.contains((-100, 999)) and not half.contains((1, 0))
    empty = BoxSet([], dim=2)
    assert not empty.contains((0, 0))
    assert empty.distance((0, 0)) == math.inf
    roundtrip = BoxSet.from_json({"boxes": [[["0", "1"]]], "period": ["2"]})
    assert roundtrip.contains((Fraction(5, 2),)) and not roundtrip.contains((Fraction(3, 2),))


def test_boxset_distance():
    bs = BoxSet([[("0", "1")]], period=("4",))
    assert bs.distance((Fraction(1, 2),)) == 0
    assert bs.distance((Fraction(3, 2),)) == Fraction(1, 2)
    assert bs.distance((Fraction(7, 2),)) == Fraction(1, 2)  # wraps to the next copy


def test_boxset_distance_checks_dimension():
    bs = BoxSet([[("0", "1"), ("0", "1")]])
    for point in ((5, 0, 99), (5,)):
        for query in (bs.distance, bs.contains):
            try:
                query(point)
            except ValueError as exc:
                assert "dimension mismatch" in str(exc)
            else:
                raise AssertionError(f"{query.__name__}{point} accepted")


STRIPES = ([[("0", "3"), ("-1", "1")]], ("9", "9"))
_coords = st.fractions(min_value=-12, max_value=12, max_denominator=4)


@st.composite
def _box_sets_and_points(draw):
    """Box sets with negative lo, open sides on periodic axes, boxes as wide
    as their period or wider, and no boxes at all; points in a wider range."""
    dim = draw(st.integers(1, 3))
    period = [draw(st.none() | st.fractions(min_value="1/4", max_value=6, max_denominator=4)) for _ in range(dim)]
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        box = []
        for _ in range(dim):
            lo, hi = sorted((draw(_coords), draw(_coords)))
            box.append((draw(st.none() | st.just(lo)), draw(st.none() | st.just(hi))))
        boxes.append(box)
    point = tuple(draw(st.fractions(min_value=-30, max_value=30, max_denominator=4)) for _ in range(dim))
    return boxes, period, point


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_box_sets_and_points())
@example((*STRIPES, (1, Fraction(-1, 2))))
@example(([[("0", "2")]], ("2",), (7,)))
@example(([[("1", "5")]], ("4",), (Fraction(1, 2),)))
@example(([[(None, "-1")]], ("3",), (Fraction(5, 2),)))
@example(([], (None, "2"), (0, 0)))
def test_boxset_matches_brute_force_oracle(case):
    boxes, period, point = case
    bs = BoxSet(boxes, period=period, dim=len(period))
    gap = bs.distance(point)
    assert gap >= 0, case
    assert bs.contains(point) == box_member(bs.boxes, bs.period, point) == (gap == 0), case
    assert gap == box_distance(bs.boxes, bs.period, point), case


def test_density_full_empty_stripes():
    radii = [2.0, 5.0, 10.0]
    full = BoxSet([[(None, None), (None, None)]])
    for est in upper_density_estimate(full, radii):
        assert abs(est.value - 1.0) <= est.error + 1e-12
        assert est.error < 0.2
    empty = BoxSet([], dim=2)
    for est in upper_density_estimate(empty, radii):
        assert est.value == 0.0 and est.error == 0.0
    stripes = BoxSet([[("0", "1"), (None, None)]], period=("3", None))
    last = upper_density_estimate(stripes, [12.0])[0]
    assert abs(last.value - 1 / 3) <= last.error + 0.02
    # each radius is read as a float, as the CLI's config gives it: "12", 12 and Fraction(12) are 12.0
    for radii in (["12"], [12], [Fraction(12)], ("12",)):
        assert upper_density_estimate(stripes, radii) == [last], radii


def test_config_search_big_box_hits_origin():
    big = BoxSet([[("-100", "100"), ("-100", "100")]])
    res = config_search(PARABOLA, (1.0, 2.0), big, "1/4")
    assert res.found and res.x2 == (0, 0) and res.residual == 0.0
    s = res.s
    assert res.x1 == (s, s * s)


def test_config_search_tiny_box_not_found():
    # diameter below min ||F(s)||: s >= e implies the first coordinate >= e
    tiny = BoxSet([[("0", "1/2"), ("0", "1/2")]])
    res = config_search(PARABOLA, (1.0, 2.0), tiny, "1/4")
    assert not res.found


def test_config_search_on_an_empty_box_set_finds_nothing():
    # no probe point lies in the set, so there is nothing to scan from
    res = config_search(PARABOLA, (1.0, 2.0), BoxSet([], dim=2), "1/4")
    assert not res.found and res.s is None and res.residual == math.inf


def test_config_search_stripe_demo():
    stripes = BoxSet(
        [[("0", "3"), ("-1", "1")]],
        period=("9", "9"),
    )
    res = config_search(PARABOLA, (1.0, 2.0), stripes, "1/4")
    assert res.found
    assert res.s == 3 and res.residual == 0.0
    assert res.x1 == (3, 9) and res.x2 == (0, 0)
    assert stripes.contains(res.x1) and stripes.contains(res.x2)
    diff = tuple(a - b for a, b in zip(res.x1, res.x2))
    assert diff == (res.s, res.s**2)


def test_config_search_never_reports_s_zero():
    # e^-800 underflows to 0.0, and the scan used to start at s = 0, which
    # lies in no window (log 0 = -inf) and, for a family without constant
    # terms, pairs x1 = x2, which is no edge
    stripes = BoxSet(*STRIPES)
    for a in (-800, -700):
        res = config_search(PARABOLA, (a, 1), stripes, "1/4")
        assert res.found and res.s == Fraction(1, 4) and res.x1 != res.x2, (a, res)
    shifted = parse_curve_family([["1", "1"], ["0", "0", "1"]])
    res = config_search(shifted, (-800, 1.0), BoxSet([[(None, None), (None, None)]]), "1/4")
    assert res.found and res.s > 0, res


# [0,1]^2 and the band R x [-3,-1], both repeated with period 9 on the
# second axis: (20/7, 400/49) is outside, since 400/49 - 9 > -1
BAND_SET = ([[("0", "1"), ("0", "1")], [(None, None), ("-3", "-1")]], (None, "9"))


def test_config_search_witnesses_pass_the_oracle():
    cases = [
        (BAND_SET, "1/7"),
        (STRIPES, "1/4"),
        (([[("-100", "100"), ("-100", "100")]], None), "1/4"),
        (([[("1", "2"), ("-2", "-1/2")], [("-1/2", "0"), (None, "-5")]], ("5/2", "7")), "1/5"),
        (([[(None, "1/2"), ("2", "3")]], ("3", "11/2")), "1/3"),
    ]
    for (boxes, period), step in cases:
        bs = BoxSet(boxes, period=period)
        res = config_search(PARABOLA, (1.0, 2.0), bs, step)
        assert res.found, boxes
        assert box_member(bs.boxes, bs.period, res.x1), (boxes, res)
        assert box_member(bs.boxes, bs.period, res.x2), (boxes, res)
        assert tuple(a - b for a, b in zip(res.x1, res.x2)) == (res.s, res.s**2)


def test_config_search_validation():
    try:
        config_search(PARABOLA, (1.0, 2.0), BoxSet([], dim=1), "1/4")
    except ValueError:
        pass
    else:
        raise AssertionError("dimension mismatch accepted")
    try:
        config_search(PARABOLA, (1.0, 2.0), BoxSet([], dim=2), "0")
    except ValueError:
        pass
    else:
        raise AssertionError("zero step accepted")
    # an empty scan would report NotFound, as if the set had been searched
    big = BoxSet([[("-100", "100"), ("-100", "100")]])
    # the window is read as every real window is (realosc._as_window)
    for window, message in (
        ((2.0, 1.0), "window needs T > a"),
        ((1.5, 1.5), "window needs T > a"),
        ((math.nan, 2.0), "window bounds must be finite; got nan, 2.0"),
        ((-math.inf, 1.0), "window bounds must be finite; got -inf, 1.0"),
        ("12", "a real window must be a Window or a pair of numbers (a, T); got '12'"),
        ((True, 2.0), "a real window must be a Window or a pair of numbers (a, T); got (True, 2.0)"),
    ):
        try:
            config_search(PARABOLA, window, big, "1/4")
        except ValueError as exc:
            assert str(exc) == message, exc
        else:
            raise AssertionError(f"window {window!r} accepted")
    # e^800 overflows a float: the scan range cannot be built
    try:
        config_search(PARABOLA, (1.0, 800.0), big, "1/4")
    except ValueError as exc:
        assert "e^T overflows" in str(exc), exc
    else:
        raise AssertionError("window (1, 800) accepted")
    # [e, e^30] holds about 4e13 multiples of 1/4: the scan stops after
    # _MAX_PROBES of them, though a witness among those is still returned
    assert config_search(PARABOLA, (1.0, 30.0), big, "1/4").found
    try:
        config_search(PARABOLA, (1.0, 30.0), BoxSet([[("0", "1/2"), ("0", "1/2")]]), "1/4")
    except ValueError as exc:
        assert "(1.0, 30.0) at step 1/4 spans 42745898326087 parameters" in str(exc), exc
        assert "at most 100000" in str(exc), exc
    else:
        raise AssertionError("an unbounded scan ran")


def test_config_search_finds_a_witness_in_the_refinement_pass():
    # the only witness is x1 = F(7/2) = (7/2, 49/4) against x2 = 0: no
    # integer s in [e, e^2] hits it, the nearest miss is s = 3, and the
    # first refinement step probes 3 +- 1/2
    bs = BoxSet([[("0", "0"), ("0", "0")], [("7/2", "7/2"), ("49/4", "49/4")]])
    res = config_search(PARABOLA, (1.0, 2.0), bs, 1)
    assert res.found and res.s == Fraction(7, 2) and res.residual == 0.0
    assert res.x1 == (Fraction(7, 2), Fraction(49, 4)) and res.x2 == (0, 0)


def test_integer_inputs_are_never_truncated_and_no_number_is_a_bool():
    # [[1.5, 0], "1"] is not x_1, a box set of dim 2.5 or true is not 2-dim,
    # a point (true, true) is not (1.0, 1.0), and n = 7.9 is not 7
    f = lambda t: 2 + np.cos(2 * np.pi * np.asarray(t))
    oracle = curve_difference_oracle(PARABOLA)
    calls = [lambda e=e: multivariate_reduce([[[(e, 0), "1"]], [[(0, 1), "1"]]]) for e in (1.5, True)]
    calls += [lambda d=d: BoxSet([], dim=d) for d in (2.5, True)]
    calls += [lambda: CliqueInstance([(0, 0), (True, True)], oracle), lambda: periodic_coloring_verify(f, 7.9, 100)]
    for call in calls:
        try:
            call()
        except ValueError:
            pass
        else:
            raise AssertionError("a bool or a non-integral value was accepted")
    # what was read before reads the same: integral exponents, dims and n,
    # and any coordinate float() takes, as the same float
    reduced = multivariate_reduce([[[(1.0, "0"), "1"]], [[(0, 1), "1"]]])
    assert reduced.polys == multivariate_reduce([{(1, 0): 1}, {(0, 1): 1}]).polys
    assert BoxSet([], dim=2.0).dim == BoxSet([], dim="2").dim == 2
    assert periodic_coloring_verify(f, 7.0, 2_000, seed=5) == periodic_coloring_verify(f, 7, 2_000, seed=5)
    coords = (1, "2.5", Fraction(1, 3), 0.1, "-inf", np.float64(0.7))
    assert CliqueInstance([coords], oracle).points == [tuple(float(c) for c in coords)]


def test_multivariate_reduce_examples():
    fam = multivariate_reduce([{(1, 0): 1, (0, 1): 0}, {(0, 1): 1}], ell=2)
    assert [list(f.coeffs) for f in fam.polys] == [[0, 1], [0, 0, 1]]
    fam2 = multivariate_reduce([{(1, 1): 1}, {(1, 0): 1, (0, 1): 1}], ell=2)
    assert [list(f.coeffs) for f in fam2.polys] == [[0, 0, 0, 1], [0, 1, 1]]
    single = multivariate_reduce([{(1,): 1}])
    assert [list(f.coeffs) for f in single.polys] == [[0, 1]]
    assert independent_fraction([f.coeffs for f in fam2.polys])


def test_multivariate_reduce_pairs_form_and_default_ell():
    fam = multivariate_reduce([[[(2, 0), "1"]], [[(0, 1), "1"]]])  # x^2, y
    # default ell = 1 + max per-variable degree = 3: x -> t gives x^2 -> t^2, y -> t^3
    assert [list(f.coeffs) for f in fam.polys] == [[0, 0, 1], [0, 0, 0, 1]]
    assert independent_fraction([f.coeffs for f in fam.polys])
    for bad in ([], [{}], [{(0, 0): 1}]):
        try:
            multivariate_reduce(bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"multivariate_reduce accepted {bad}")


def test_multivariate_reduce_ell_must_be_an_integer():
    comps = [[[(1, 1), "1"]], [[(1, 0), "1"], [(0, 1), "1"]]]
    for bad in (3.9, "5/2", True):
        try:
            multivariate_reduce(comps, ell=bad)
        except ValueError as exc:
            assert "ell must be an integer" in str(exc), exc
        else:
            raise AssertionError(f"ell = {bad!r} accepted")
    want = [list(f.coeffs) for f in multivariate_reduce(comps, ell=3).polys]
    for ell in (3.0, "3", Fraction(3)):
        assert [list(f.coeffs) for f in multivariate_reduce(comps, ell=ell).polys] == want


def test_multivariate_reduce_random_independence():
    rng = random.Random(73)
    for _ in range(25):
        d = rng.randint(1, 3)
        anchors = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(6)]
        polys = []
        for i in range(rng.randint(1, 3)):
            # a unique anchor monomial per component keeps the input independent
            anchor = tuple((2 if j == i % d else 1) + (i // d) for j in range(d))
            poly = {anchor: Fraction(rng.randint(1, 5))}
            for _ in range(rng.randint(0, 3)):
                exps = tuple(rng.randint(0, 1) for _ in range(d))
                if any(exps) and exps not in poly:
                    poly[exps] = Fraction(rng.randint(-5, 5))
            polys.append({e: c for e, c in poly.items() if c != 0})
        fam = multivariate_reduce(polys)
        assert independent_fraction([f.coeffs for f in fam.polys]), polys
    # dependent input is a precondition violation, reported as such
    try:
        multivariate_reduce([{(1, 0): 1}, {(1, 0): 2}])
    except ValueError as exc:
        assert str(exc) == "independence violation: 1, f_1, ..., f_m are linearly dependent", exc
    else:
        raise AssertionError("dependent input accepted")


def test_curve_oracle_and_demo_clique():
    oracle = curve_difference_oracle(PARABOLA)
    assert oracle((1.0, 1.0)) and oracle((-1.0, -1.0))  # +-V both
    assert oracle((2.0, 4.0))
    assert not oracle((1.0, 3.0))
    assert not oracle((0.0, 0.0))  # 0 excluded: no self-loops
    try:
        oracle((1.0, 1.0, 0.0))
    except ValueError:
        pass
    else:
        raise AssertionError("dimension mismatch accepted")
    inst = CliqueInstance([(0, 0), (1, 1), (2, 4)], oracle)
    assert tuple(clique_search(inst)) == ((0.0, 0.0), (1.0, 1.0))
    assert len(clique_search(CliqueInstance([], oracle))) == 0


def test_curve_oracle_needs_a_finite_positive_tol():
    # at tol nan, -1 or inf no point was adjacent to another, so the search
    # reported a 1-clique on a sample holding a 2-clique
    pts = [(0, 0), (1, 1), (2, 4), (3, 9)]
    assert len(clique_search(CliqueInstance(pts, curve_difference_oracle(PARABOLA)))) == 2
    for tol in (math.nan, -1, math.inf, 0, True, None, "abc"):
        try:
            curve_difference_oracle(PARABOLA, tol=tol)
        except ValueError as exc:
            assert str(exc).startswith("tol must be a"), exc
        else:
            raise AssertionError(f"tol {tol!r} accepted")


def test_clique_monotone_in_sample():
    oracle = curve_difference_oracle(PARABOLA)
    rng = random.Random(79)
    pts = [(s, s * s) for s in (rng.uniform(-5, 5) for _ in range(12))]
    base = len(clique_search(CliqueInstance(pts[:8], oracle)))
    bigger = len(clique_search(CliqueInstance(pts, oracle)))
    assert bigger >= base


@st.composite
def _graphs_on_a_line(draw):
    """(n, edges): points 2^i, i < n, have pairwise distinct distances
    |2^j - 2^i|, so a set of those distances draws any graph on them."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, {2**j - 2**i for (i, j), k in zip(pairs, keep) if k}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_graphs_on_a_line())
def test_clique_search_matches_a_brute_force_maximum_clique(case):
    """clique_search returns a clique of the brute-force clique number
    omega, found over every vertex subset, and under max_size one of size
    min(max_size, omega)."""
    n, edges = case
    inst = CliqueInstance([(2**i,) for i in range(n)], lambda d: abs(d[0]) in edges)

    def is_clique(pts):
        return all(inst.adjacent(u, v) for u, v in itertools.combinations(pts, 2))

    omega = max(r for r in range(n + 1) for s in itertools.combinations(inst.points, r) if is_clique(s))
    for max_size, want in ((None, omega), (1, 1), (2, min(2, omega))):
        found = clique_search(inst, max_size=max_size)
        assert len(found) == want and is_clique(found), (n, sorted(edges), max_size, found)


def test_duplicate_points_are_never_adjacent():
    # under an oracle that admits every difference, two copies of one point
    # are still one vertex's worth of clique
    inst = CliqueInstance([(1, 1), (1, 1), (2, 2)], lambda d: True)
    assert not inst.adjacent((1.0, 1.0), (1.0, 1.0))
    assert clique_search(inst) == ((1.0, 1.0), (2.0, 2.0))


def test_parabola_triangle_free_sample():
    oracle = curve_difference_oracle(PARABOLA)
    rng = random.Random(83)
    for _ in range(40):
        ss = [rng.uniform(-10, 10) for _ in range(50)]
        pts = [(s, s * s) for s in ss]
        found = clique_search(CliqueInstance(pts, oracle), max_size=3)
        # (s+r)^2 = s^2 + r^2 forces sr = 0: no triangles off the degenerate case
        assert len(found) <= 2, (found,)


def test_coloring_threshold_demo():
    f = lambda t: 2 + np.cos(2 * np.pi * np.asarray(t))
    n_min, M, eps, delta = coloring_threshold(f)
    assert n_min == 6
    assert abs(M - 3.0) < 1e-9
    assert abs(eps - 0.9) < 1e-6
    assert delta == 0.5
    try:
        coloring_threshold(lambda t: np.cos(np.pi * np.asarray(t)))  # period 2
    except ValueError:
        pass
    else:
        raise AssertionError("period-2 function accepted")
    try:
        coloring_threshold(lambda t: np.sin(2 * np.pi * np.asarray(t)))  # f(0) = 0
    except ValueError:
        pass
    else:
        raise AssertionError("f(0) = 0 accepted")


def test_periodic_coloring_verify():
    f = lambda t: 2 + np.cos(2 * np.pi * np.asarray(t))
    assert periodic_coloring_verify(f, 7, 20_000, seed=11) == 0
    try:
        periodic_coloring_verify(f, 4, 100)
    except ValueError:
        pass
    else:
        raise AssertionError("sub-threshold n accepted")


def test_a_scalar_only_function_is_sampled_point_by_point():
    # math.cos raises TypeError on an array, so each sample is read alone;
    # the answers are the numpy twin's
    scalar = lambda t: 2 + math.cos(2 * math.pi * t)
    vector = lambda t: 2 + np.cos(2 * np.pi * np.asarray(t))
    try:
        scalar(np.zeros(2))
    except TypeError:
        pass
    else:
        raise AssertionError("math.cos read an array")
    assert coloring_threshold(scalar) == coloring_threshold(vector) == (6, 3.0, 0.9, 0.5)
    assert periodic_coloring_verify(scalar, 7, 2000, seed=3) == periodic_coloring_verify(vector, 7, 2000, seed=3)


def test_periodic_coloring_verify_reads_its_integers():
    # "3" edges used to fail in a comparison with a bare TypeError
    f = lambda t: 2 + np.cos(2 * np.pi * np.asarray(t))
    assert periodic_coloring_verify(f, "7", "300", seed="4") == periodic_coloring_verify(f, 7, 300, seed=4)
    assert periodic_coloring_verify(f, 7, "3") == periodic_coloring_verify(f, 7, 3.0) == periodic_coloring_verify(f, 7, 3)


def test_periodic_coloring_verify_needs_an_edge():
    # no edge checked is no evidence: 0 used to report 0 violations
    f = lambda t: 2 + np.cos(2 * np.pi * np.asarray(t))
    for edges in (0, -1):
        try:
            periodic_coloring_verify(f, 7, edges)
        except ValueError as exc:
            assert str(exc) == f"edge_samples must be at least 1; got {edges}", exc
        else:
            raise AssertionError(f"{edges} edges accepted")


def _cosine_series(c0, terms):
    def f(t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, c0)
        for k, a in terms:
            out = out + a * np.cos(2 * np.pi * k * t)
        return out

    return f


def test_periodic_coloring_verify_streams_the_bulk_draws():
    # the chunked count draws each edge's x, y and t exactly as one bulk
    # default_rng(seed) draw did: equal counts on both sides of every chunk
    # boundary, with and without violations.  1 + cos(2 pi 20000 t) and
    # 1/2 + 2 cos(2 pi 40000 t) sample as constants on the threshold's grid,
    # so their admitted n meets monochromatic edges
    chunk = cayleylab._EDGE_CHUNK
    cases = [
        (_cosine_series(2.0, [(1, 1.0)]), 7),
        (_cosine_series(1.0, [(20000, 1.0)]), 5),
        (_cosine_series(0.5, [(40000, 2.0)]), 8),
    ]
    counts = set()
    for f, n in cases:
        assert coloring_threshold(f)[0] <= n
        for seed in (0, 3, 12):
            for edges in (1, 7, chunk - 1, chunk, chunk + 1, 100_000, 250_001):
                got = periodic_coloring_verify(f, n, edges, seed=seed)
                assert got == coloring_violations_bulk(f, n, edges, seed), (n, seed, edges, got)
                counts.add(got)
    assert len(counts) > 10 and 0 in counts
    assert periodic_coloring_verify(cases[1][0], 5, 20_000, seed=0) == 510


def test_periodic_coloring_verify_memory_stays_flat_in_the_edges():
    # one bulk draw of 10**6 edges peaked at about 69 MB; a chunk's
    # temporaries stay near 1.3 MB whatever the edge count
    f = _cosine_series(2.0, [(1, 1.0)])
    periodic_coloring_verify(f, 7, 10)  # numpy.random's first use allocates outside the check
    tracemalloc.start()
    try:
        assert periodic_coloring_verify(f, 7, 10**6, seed=1) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_periodic_coloring_verify_n_must_square_into_int64():
    # n = 4e9 used to escape as "OverflowError: Python int too large to
    # convert to C long" from the colour class mod n*n
    f = _cosine_series(2.0, [(1, 1.0)])
    largest = 3_037_000_499
    assert largest**2 < 2**63 <= (largest + 1) ** 2
    for n in (largest + 1, 4_000_000_000, 10**30):
        try:
            periodic_coloring_verify(f, n, 1000)
        except ValueError as exc:
            assert f"n={n} is too large" in str(exc) and f"n <= {largest}" in str(exc), exc
        else:
            raise AssertionError(f"n={n} accepted")
    assert periodic_coloring_verify(f, largest, 1000) == coloring_violations_bulk(f, largest, 1000, 0)


def test_periodic_coloring_verify_refuses_a_colour_class_past_int64():
    # n * (y + f(t)) near 9.2e18 was cast to int64 regardless: a RuntimeWarning
    # under -W error, else a count over wrapped colour classes
    for f in (lambda t: 3037000490.0 + 0 * t, lambda t: -3037000490.0 + 0 * t):
        try:
            periodic_coloring_verify(f, 3_037_000_499, 1000)
        except ValueError as exc:
            assert str(exc).startswith("n*(y + f(t)) at n=3037000499 is nan or outside int64"), exc
        else:
            raise AssertionError("a colour class past int64 was counted")


def test_coloring_random_periodic_functions():
    rng = random.Random(89)
    for _ in range(10):
        c0 = rng.uniform(1.5, 4.0)
        amps = [rng.uniform(-0.4, 0.4) for _ in range(rng.randint(1, 3))]

        def f(t, c0=c0, amps=amps):
            t = np.asarray(t, dtype=float)
            out = np.full_like(t, c0)
            for k, a in enumerate(amps, start=1):
                out = out + a * np.cos(2 * np.pi * k * t)
            return out

        n_min = coloring_threshold(f)[0]
        assert periodic_coloring_verify(f, n_min, 5_000, seed=rng.randint(0, 99)) == 0


def _membership_by_polys(family, tol):
    """The membership test of curve_difference_oracle with every coordinate
    evaluated by RationalPoly.__call__ on the float root."""
    f1 = family.polys[0]

    def oracle(w):
        if all(abs(v) <= tol for v in w):
            return False
        for sign in (1.0, -1.0):
            ww = [sign * v for v in w]
            if f1.degree == 1:
                roots = [(ww[0] - float(f1.coeffs[0])) / float(f1.coeffs[1])]
            else:
                desc = [float(c) for c in reversed(f1.coeffs)]
                desc[-1] -= ww[0]
                roots = [float(z.real) for z in np.roots(desc) if abs(z.imag) <= 1e-9 * (1 + abs(z))]
            for s in roots:
                if all(abs(f(s) - t) <= tol for f, t in zip(family.polys[1:], ww[1:])):
                    return True
        return False

    return oracle


def test_curve_oracle_matches_direct_evaluation():
    rng = random.Random(97)
    for rows in (
        [["0", "1"], ["0", "0", "1"]],  # linear first component
        [["1/3", "-2", "1"], ["0", "-1", "0", "1/7"], ["2", "0", "0", "0", "-3/5"]],
    ):
        family = parse_curve_family(rows)
        oracle = curve_difference_oracle(family)
        direct = _membership_by_polys(family, 1e-9)
        answers = []
        for _ in range(1500):
            # a difference of two curve points, or a point of +-V
            s, r, sign = rng.uniform(-6, 6), rng.uniform(-6, 6), rng.choice((1.0, -1.0))
            w = [f(s) - f(r) for f in family.polys] if rng.random() < 0.3 else [sign * f(s) for f in family.polys]
            # nudge each coordinate by about the tolerance, or by much more
            w = tuple(v + rng.choice((0.0, 1e-9, -1e-9, 1e-3)) * rng.random() for v in w)
            answers.append(oracle(w))
            assert answers[-1] == direct(w), (rows, w)
        assert 100 < sum(answers) < len(answers) - 100


_curve_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _curve_differences(draw):
    """A family of m = 1..3 components with a linear or a nonlinear f_1, a
    tolerance, and a vector near +-V: a point F(s) of either sign, a
    difference F(s) - F(r) of two curve points, or the zero vector, each
    coordinate moved by 0, +-tol/10, +-tol or +-2 tol."""
    m = draw(st.integers(1, 3))
    rows = []
    for i in range(m):
        while True:  # until 1 and the rows are independent, as CurveFamily requires
            degree = draw(st.sampled_from((1, 2, 3)) if i == 0 else st.integers(1, 4))
            row = draw(st.lists(_curve_coeffs, min_size=degree, max_size=degree)) + [draw(_curve_coeffs.filter(bool))]
            if independent_fraction(rows + [row]):
                break
        rows.append(row)
    tol = draw(st.sampled_from((1e-9, 1e-6)))
    descs = [[float(c) for c in reversed(row)] for row in rows]
    s, r = draw(st.floats(-4, 4)), draw(st.floats(-4, 4))
    kind = draw(st.sampled_from(("point", "difference", "zero")))
    if kind == "point":
        sign = draw(st.sampled_from((1.0, -1.0)))
        base = [sign * horner_float(d, s) for d in descs]
    elif kind == "difference":
        base = [horner_float(d, s) - horner_float(d, r) for d in descs]
    else:
        base = [0.0] * m
    moves = draw(st.lists(st.sampled_from((0.0, 0.1, -0.1, 1.0, -1.0, 2.0, -2.0)), min_size=m, max_size=m))
    return rows, tol, tuple(v + k * tol for v, k in zip(base, moves))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_curve_differences())
@example(([[0, 1], [0, 0, 1]], 1e-9, (0.0, 0.0)))
@example(([[0, 1], [0, 0, 1]], 1e-9, (-2.0, -4.0)))
@example(([[0, 1], [0, 0, 1]], 2.0**-20, (1.0, 1.0 + 2.0**-20)))  # off by exactly tol
@example(([[-1, 1], [0, 0, 1]], 1e-9, (0.0, 1.0)))  # F(1): a point of V with f_1 = 0
@example(([[0, 0, 1], [0, 0, 0, 1]], 1e-9, (4.0, -8.0)))
@example(([[Fraction(1, 3), -2, 1], [0, -1, 0, Fraction(1, 7)], [2, 0, 0, 0, Fraction(-3, 5)]], 1e-9, (0.0, 0.0, 1e-10)))
def test_curve_oracle_matches_the_formula_oracle(case):
    # the library decides every finite difference as the plain formulas do,
    # to the bit: same roots, same Horner order, same comparison with tol
    rows, tol, w = case
    oracle = curve_difference_oracle(CurveFamily(rows), tol=tol)
    assert oracle(w) == curve_difference_member(rows, w, tol), case


def test_a_difference_that_is_not_finite_is_never_adjacent():
    # (x) admitted nan and inf as differences, so a sample holding a nan
    # point gave a 3-clique; for (x^2, x^3) np.roots raised LinAlgError
    for rows in ([["0", "1"]], [["0", "0", "1"], ["0", "0", "0", "1"]]):
        family = parse_curve_family(rows)
        oracle = curve_difference_oracle(family)
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(family.m):
                w = [1.0] * family.m
                w[i] = bad
                assert oracle(tuple(w)) is False, (rows, w)
        origin, one = (0,) * family.m, (1,) * family.m
        for bad in ("nan", "-inf"):
            inst = CliqueInstance([origin, (bad,) + origin[1:], one], oracle)
            assert clique_search(inst) == ((0.0,) * family.m, (1.0,) * family.m), (rows, bad)
