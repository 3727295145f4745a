"""Array bisection against the scalar oracle kept in ``bisect_oracle``.

Each element must take exactly the oracle's steps, so roots are compared
bit for bit and iteration counts exactly.  The test equations
``g(x) = a/x + b - c*x`` use only +, -, * and /, which numpy evaluates with
the same IEEE operations as Python floats, so any difference is the
solver's.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bisect_oracle import bisect_decreasing as oracle_bisect
from lobeq import solvers
from lobeq.solvers import MAX_ITER, BracketError, bisect_decreasing

equations = st.tuples(
    st.floats(0.0, 10.0),       # a
    st.floats(-10.0, 10.0),     # b
    st.floats(0.0, 10.0),       # c
    st.floats(1e-6, 100.0),     # lo
)


def scalar_g(a, b, c):
    return lambda x: a / x + b - c * x


def array_g(a, b, c):
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    return lambda x: a / x + b - c * x


def oracle_outcome(a, b, c, lo, max_iter):
    try:
        return oracle_bisect(scalar_g(a, b, c), lo, max_iter)
    except (BracketError, ValueError) as exc:
        return exc


class TestAgainstOracle:
    @settings(max_examples=200)
    @given(st.lists(equations, min_size=1, max_size=8), st.sampled_from([MAX_ITER, 7]))
    def test_elementwise_equal_to_oracle(self, cells, max_iter):
        # max_iter 7 runs out before REL_TOL for most elements, which then fail
        outcomes = [oracle_outcome(*cell, max_iter) for cell in cells]
        ok = [i for i, o in enumerate(outcomes) if not isinstance(o, Exception)]
        a, b, c, lo = (np.array(col) for col in zip(*cells))
        with mock.patch.object(solvers, "MAX_ITER", max_iter):
            if ok:
                got = bisect_decreasing(array_g(a[ok], b[ok], c[ok]), lo[ok])
                assert got.x.tolist() == [outcomes[i].x for i in ok]
                assert got.iterations == sum(outcomes[i].iterations for i in ok)
                assert isinstance(got.iterations, int)
                for i in ok:
                    one = bisect_decreasing(array_g(a[i], b[i], c[i]), lo[i:i + 1])
                    assert one.iterations == outcomes[i].iterations
            # a failing element behind the solvable ones: same error, named
            for i, outcome in enumerate(outcomes):
                if not isinstance(outcome, Exception):
                    continue
                rows = ok + [i]
                with pytest.raises(type(outcome)) as info:
                    bisect_decreasing(array_g(a[rows], b[rows], c[rows]), lo[rows])
                assert info.value.index == len(ok)
                assert f"(element {len(ok)})" in str(info.value)

    def test_root_exactly_at_lo(self):
        # g(x) = 3 - x at lo = 3 returns lo after no steps; its neighbours bisect
        a, b, c = [0.0, 0.0, 1.0], [3.0, 3.0, -1.0], [1.0, 1.0, 0.0]
        lo = np.array([3.0, 1.0, 0.5])
        got = bisect_decreasing(array_g(a, b, c), lo)
        want = [oracle_bisect(scalar_g(*abc), x) for abc, x in zip(zip(a, b, c), lo.tolist())]
        assert want[0].x == 3.0 and want[0].iterations == 0
        assert got.x.tolist() == [w.x for w in want]
        assert got.iterations == sum(w.iterations for w in want)

    def test_bracket_expansion(self):
        # roots 1e3 and 1e-3 from a bracket a million times lower
        a, b, c = [0.0, 1.0], [1e3, -1e3], [1.0, 0.0]
        lo = np.array([1e-3, 1e-9])
        got = bisect_decreasing(array_g(a, b, c), lo)
        want = [oracle_bisect(scalar_g(*abc), x) for abc, x in zip(zip(a, b, c), lo.tolist())]
        assert got.x.tolist() == [w.x for w in want]
        assert got.x == pytest.approx([1e3, 1e-3], rel=1e-11)

    def test_finished_elements_stay_put(self):
        # roots 1 and 50 from brackets 1e-6 and 10 finish some steps apart;
        # the earlier one must not move while the other bisects on
        a, b, c = [1.0, 1.0], [-1.0, -0.02], [0.0, 0.0]
        lo = np.array([1e-6, 10.0])
        got = bisect_decreasing(array_g(a, b, c), lo)
        want = [oracle_bisect(scalar_g(*abc), x) for abc, x in zip(zip(a, b, c), lo.tolist())]
        assert want[0].iterations != want[1].iterations
        assert got.x.tolist() == [w.x for w in want]
        assert got.iterations == sum(w.iterations for w in want)

    def test_unconverged_element_names_element(self):
        # the root at lo needs no step; the other one cannot reach REL_TOL in 3
        a, b, c = [0.0, 1.0], [3.0, -1.0], [1.0, 0.0]
        with mock.patch.object(solvers, "MAX_ITER", 3):
            with pytest.raises(BracketError, match=r"did not converge to REL_TOL = 1e-12 in 3 "
                                                   r"steps: .*\(element 1\)") as info:
                bisect_decreasing(array_g(a, b, c), np.array([3.0, 0.5]))
        assert info.value.index == 1

    def test_nonpositive_bracket_names_element(self):
        g = array_g(1.0, -1.0, 0.0)
        with pytest.raises(ValueError, match=r"positive lower bracket \(element 1\)"):
            bisect_decreasing(g, np.array([0.5, 0.0, -1.0]))

    def test_negative_start_names_element(self):
        # g(x) = 1/x - 1 is negative above its root at 1
        with pytest.raises(BracketError, match=r"no root above lo \(element 2\)") as info:
            bisect_decreasing(array_g(1.0, -1.0, 0.0), np.array([0.5, 0.9, 2.0, 3.0]))
        assert info.value.index == 2

    def test_failed_expansion_names_element(self):
        # g(x) = 1/x + 1 never changes sign
        with pytest.raises(BracketError, match=r"expansion failed .*\(element 1\)") as info:
            bisect_decreasing(array_g([1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]),
                              np.array([0.5, 0.5]))
        assert info.value.index == 1
