"""Array bisection against the scalar oracle kept in ``bisect_oracle``.

Each element must take exactly the oracle's steps, so roots are compared
bit for bit and iteration counts exactly.  The test equations
``g(x) = a/x + b - c*x`` use only +, -, * and /, which numpy evaluates with
the same IEEE operations as Python floats, so any difference is the
solver's.  With ``a, c >= 0`` each operation rounds monotonically, so the
float ``g`` is decreasing too and its sign changes between adjacent floats.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from bisect_oracle import bisect_decreasing as oracle_bisect
from lobeq.solvers import bisect_decreasing

INF = math.inf
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
equations = st.tuples(
    st.floats(0.0, 10.0),       # a
    st.floats(-10.0, 10.0),     # b
    st.floats(0.0, 10.0),       # c
    positive,                   # lo
    st.one_of(positive, st.just(INF)),      # hi
)


def scalar_g(a, b, c):
    return lambda x: a / x + b - c * x


def array_g(a, b, c, seen=None):
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))

    def g(x):
        if seen is not None:
            seen.append(x.copy())
        with np.errstate(all="ignore"):     # a/x and c*x overflow at the ends of the lattice
            return a / x + b - c * x
    return g


def check_against_oracle(a, b, c, lo, hi):
    """The array solve of the brackets equals the oracle's element by
    element, in a batch and alone, and ends within 63 steps."""
    want = [oracle_bisect(scalar_g(*abc), *bracket)
            for abc, bracket in zip(zip(a, b, c), zip(lo, hi))]
    got = bisect_decreasing(array_g(a, b, c), np.array(lo), np.array(hi))
    assert got.x.tolist() == [w.x for w in want]
    assert got.iterations == sum(w.iterations for w in want)
    assert isinstance(got.iterations, int)
    for i, w in enumerate(want):
        one = bisect_decreasing(array_g(a[i], b[i], c[i]), np.array(lo[i:i + 1]),
                                np.array(hi[i:i + 1]))
        assert one.iterations == w.iterations <= 63
    return got


class TestAgainstOracle:
    @settings(max_examples=200)
    @given(st.lists(equations, min_size=1, max_size=8))
    def test_elementwise_equal_to_oracle(self, cells):
        # any positive brackets, sign change or not, subnormal or infinite
        check_against_oracle(*(list(col) for col in zip(*cells)))

    def test_root_exactly_at_lo(self):
        # g(x) = 3 - x from lo = 3 keeps lo; its neighbours bisect
        a, b, c = [0.0, 0.0, 1.0], [3.0, 3.0, -1.0], [1.0, 1.0, 0.0]
        got = check_against_oracle(a, b, c, [3.0, 1.0, 0.5], [4.0, 8.0, 2.0])
        assert got.x.tolist() == [3.0, 3.0, 1.0]

    def test_finished_elements_stay_put(self):
        # roots 1 and 50 from brackets of very different widths finish some
        # steps apart; the earlier one must not move while the other bisects on
        a, b, c = [1.0, 1.0], [-1.0, -0.02], [0.0, 0.0]
        lo, hi = [0.5, 10.0], [2.0, 1e300]
        steps = [oracle_bisect(scalar_g(*abc), *bracket).iterations
                 for abc, bracket in zip(zip(a, b, c), zip(lo, hi))]
        assert steps[0] < steps[1]
        check_against_oracle(a, b, c, lo, hi)

    def test_subnormal_brackets(self):
        # g(x) = 1e-313 - x is exact on subnormals, so its root is that float
        got = check_against_oracle([0.0, 0.0], [1e-313, 1e-320], [1.0, 1.0],
                                   [5e-324, 5e-324], [1e-312, 2e-320])
        assert got.x.tolist() == [1e-313, 1e-320]

    def test_infinite_upper_bracket(self):
        # the widest positive bracket spans 2**63 - 2**52 - 1 patterns, so it
        # takes 62 or 63 steps; g(x) = 1/x - 1 keeps its root 1
        got = check_against_oracle([1.0], [-1.0], [0.0], [5e-324], [INF])
        assert got.x.tolist() == [1.0]
        assert got.iterations >= 62

    def test_upper_bracket_not_above_next_float(self):
        # hi at, below or just after lo: lo after no step, and g is not called
        lo = np.array([2.0, 2.0, 2.0])
        hi = np.array([2.0, 1.0, np.nextafter(2.0, INF)])
        seen = []
        got = bisect_decreasing(array_g(1.0, 0.0, 0.0, seen), lo, hi)
        assert got.x.tolist() == lo.tolist() and got.iterations == 0
        assert seen == []
        check_against_oracle([1.0] * 3, [0.0] * 3, [0.0] * 3, lo.tolist(), hi.tolist())


class TestLatticeRoot:
    @settings(max_examples=200)
    @given(st.lists(equations, min_size=1, max_size=8))
    def test_sign_change_to_the_next_float(self, cells):
        # where g(lo) >= 0 > g(hi), g(x) >= 0 > g(next float after x), and g
        # is evaluated only inside [lo, hi)
        cells = [cell for cell in cells
                 if cell[3] < cell[4] and scalar_g(*cell[:3])(cell[3]) >= 0.0
                 and scalar_g(*cell[:3])(cell[4]) < 0.0]
        assume(cells)
        a, b, c, lo, hi = (np.array(col) for col in zip(*cells))
        seen = []
        got = bisect_decreasing(array_g(a, b, c, seen), lo, hi)
        g = array_g(a, b, c)
        assert (g(got.x) >= 0.0).all()
        assert (g((got.x.view(np.int64) + 1).view(float)) < 0.0).all()    # may be inf
        assert (lo <= got.x).all() and (got.x < hi).all()
        for x in seen:
            assert (lo <= x).all() and (x < hi).all()
