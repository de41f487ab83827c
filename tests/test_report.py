# Standard libraries
import math

from conevol.report import abs_z


def test_abs_z_zero_standard_error_rule():
    # where se is 0: 0 for an exactly zero difference and inf for any other
    # (0/0 would give a NaN that every |z| >= worst comparison skips), with
    # no RuntimeWarning, which Tier-1 turns into an error
    z = abs_z([0.0, 5e-324, -2.0, 3.0, 0.0], [0.0, 0.0, 0.0, 1.5, 2.0])
    assert z.tolist() == [0.0, math.inf, math.inf, 2.0, 0.0]
    assert float(abs_z(-1.0, 0.5)) == 2.0
    assert float(abs_z(0.0, 0.0)) == 0.0
