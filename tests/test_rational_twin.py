"""Twists typed on the field with rational values, solved on their
rational twin, and the symmetry rows of ``der0_space`` on ints.

A twist T K T' carried along a catalog rotation T usually holds
ExtScalars whose values are rational.  ``quaddef.solve_F`` solves such a
K on ``as_rational_matrix(K)`` and lifts the answer's bound coordinates
to ExtScalars; the field elimination it skips is the oracle:
``linalg_reference.stacked_solve_F`` solves K's own rows, which are on
ExtScalars, and the spaces must agree in value and in entry type, as
``cubic_kernel``'s field elimination must agree with
``linalg_reference.kernel``.  ``_derivation_rows`` fills int rows from
the slot table, against ``linalg_reference.derivation_rows``;
``linclass.der0_space`` builds its rows on the forms, against the unit
matrices of ``linalg_reference.der0_rows``.
"""

import subprocess
import sys
from fractions import Fraction as F

import linalg_reference as ref
from conftest import SWEEP_FAMILIES, random_rational_invertible
from poisson_forge import exactnum, quaddef
from poisson_forge.exactnum import SQRT2, SQRT3, ExtScalar, Matrix
from poisson_forge.linclass import der0_space, standard_pair
from poisson_forge.quaddef import (
    _derivation_rows,
    cubic_kernel,
    enumerate_orbit_pairs,
    solve_F,
)


def _typed(vectors):
    return [[(type(v), v) for v in x] for x in vectors]


def _typed_space(space):
    if space.is_empty:
        return None
    return _typed((space.particular,) + space.basis)


def _on_field(rng, twist):
    """The twist with a random nonempty set of its nonzero entries wrapped
    in ``ExtScalar.of``: typed on the field, rational in value."""
    rows = [list(row) for row in twist.rows]
    cells = [(i, j) for i in range(3) for j in range(3) if rows[i][j]]
    for i, j in rng.sample(cells, rng.randint(1, len(cells))):
        rows[i][j] = ExtScalar.of(rows[i][j])
    return Matrix(rows)


def _conjugates(rng, shape, count):
    out = []
    for _ in range(count):
        t = random_rational_invertible(rng)
        out.append(t * shape * t.inverse())
    return out


def _twin_twists(rng):
    """Regular and singular rational twists typed on the field: random
    traceless draws, and conjugates of a repeated eigenvalue, the two
    nilpotent shapes and the eigenvalues 0 and +-mu."""
    twists = []
    for _ in range(10):
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                for _ in range(3)]
        rows[2][2] = -rows[0][0] - rows[1][1]
        twists.append(Matrix(rows))
    lam, mu = F(rng.randint(1, 4), rng.randint(1, 3)), F(rng.randint(1, 5))
    for shape in (Matrix.diagonal([lam, lam, -2 * lam]),
                  Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
                  Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                  Matrix.diagonal([mu, -mu, 0])):
        twists += [shape] + _conjugates(rng, shape, 3)
    return [_on_field(rng, twist) for twist in twists if not twist.is_zero()]


def _transported_twists():
    return [orbit.twist for family in SWEEP_FAMILIES
            for orbit in enumerate_orbit_pairs(family)]


def _kernel_entry_hit(field, values):
    """Whether ``_kernel_of(field, values)`` reads a kept entry."""
    hits = quaddef._kernel_of.cache_info().hits
    quaddef._kernel_of(field, values)
    return quaddef._kernel_of.cache_info().hits == hits + 1


def _check_against_the_field_elimination(twist):
    """K's kernel and its solves over the ten cases equal the eliminations
    of K's own rows, in values and entry types: (the kernel's dimension,
    the number of nonempty solves)."""
    quaddef._kernel_of.cache_clear()
    space = cubic_kernel(twist)
    assert _typed_space(space) == _typed_space(ref.kernel(twist))
    solved = 0
    for case in range(1, 11):
        lp = standard_pair(case)
        answer = solve_F(lp, twist)
        assert _typed_space(answer) == _typed_space(
            ref.stacked_solve_F(lp, twist)), case
        solved += not answer.is_empty
    return space.dim, solved


def test_rational_twists_on_the_field_solve_as_the_field_elimination(rng):
    dims, solved = set(), 0
    for twist in _twin_twists(rng):
        assert quaddef._rational_on_field(twist)
        dim, count = _check_against_the_field_elimination(twist)
        dims.add(dim)
        solved += count
        # solve_F solved on the twin's kernel, not on the field
        twin = exactnum.as_rational_matrix(twist)._form[1]
        assert _kernel_entry_hit(False, twin)
    assert {1, 2, 3} <= dims
    assert solved >= 10


def test_transported_twists_take_the_twin_or_the_field_path():
    """The catalog twists: the rational-valued ones on the field solve on
    their twin, the irrational ones on the field, the rest on ints."""
    kinds = {"twin": 0, "field": 0, "rational": 0}
    for twist in _transported_twists():
        if quaddef._rational_on_field(twist):
            kinds["twin"] += 1
            _check_against_the_field_elimination(twist)
            twin = exactnum.as_rational_matrix(twist)._form[1]
            assert _kernel_entry_hit(False, twin)
        elif twist._rational:
            kinds["rational"] += 1
        else:
            kinds["field"] += 1
            _check_against_the_field_elimination(twist)
            assert _kernel_entry_hit(True, twist._form[1])
    assert kinds == {"twin": 8, "field": 2, "rational": 13}


def test_irrational_twists_stay_on_the_field():
    for twist in (Matrix.diagonal([SQRT2, SQRT3, -SQRT2 - SQRT3]),
                  Matrix([[0, SQRT2, 0], [0, 0, 1], [0, 0, 0]]),
                  Matrix([[SQRT2, 1, 0], [0, -SQRT2, 0], [0, 0, 0]]),
                  Matrix([[ExtScalar.of(1), SQRT3, 0], [0, 2, 0],
                          [0, 0, -3]])):
        assert not quaddef._rational_on_field(twist)
        _check_against_the_field_elimination(twist)
        assert _kernel_entry_hit(True, twist._form[1])


def test_zero_extscalars_alone_keep_the_int_path():
    # a K whose ExtScalars are all zero is not typed on the field: its
    # kernel stays on Fractions
    twist = Matrix([[1, 0, 0], [0, -1, 0], [0, 0, ExtScalar.of(0)]])
    assert not quaddef._rational_on_field(twist)
    quaddef._kernel_of.cache_clear()
    assert _typed_space(cubic_kernel(twist)) == _typed_space(ref.kernel(twist))
    assert quaddef._kernel(twist)[0] is False


def test_a_twin_solve_is_one_solve_F_call(monkeypatch):
    """``solve_F`` on a twin runs its body once and does not call itself
    through the module, so a wrapper of ``quaddef.solve_F`` counts one
    call."""
    calls = []
    inner = quaddef.solve_F

    def counted(lp, k_matrix):
        calls.append(k_matrix)
        return inner(lp, k_matrix)

    monkeypatch.setattr(quaddef, "solve_F", counted)
    twist = Matrix([[ExtScalar.of(1), 0, 0], [0, 2, 0], [0, 0, -3]])
    assert not quaddef.solve_F(standard_pair(7), twist).is_empty
    assert calls == [twist]


def test_twin_recheck_survives_optimized_mode():
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('not optimized')\n"
        "from poisson_forge import quaddef\n"
        "from poisson_forge.exactnum import ExtScalar, Matrix\n"
        "from poisson_forge.linclass import standard_pair\n"
        "twist = Matrix([[ExtScalar.of(1), 0, 0], [0, 2, 0], [0, 0, -3]])\n"
        "assert quaddef._rational_on_field(twist)\n"
        "quaddef._deforms = lambda gram, qp, kform, rhs: False\n"
        "try:\n"
        "    quaddef.solve_F(standard_pair(7), twist)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('solve_F returned a cubic the bracket route rejects')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "bracket route rejects" in proc.stdout


def test_int_derivation_rows_fill_the_slot_table(rng):
    for _ in range(200):
        k = [rng.randint(-6, 6) if rng.random() < 0.7 else 0
             for _ in range(9)]
        got = _derivation_rows(k)
        want = ref.derivation_rows(Matrix._of_form(3, 1, k, False))
        assert [[type(v) for v in row] for row in got] == [[int] * 10] * 10
        assert got == want


def test_der0_space_solves_the_unit_matrix_rows():
    for case in range(1, 11):
        got = der0_space.__wrapped__(case)
        rows = ref.der0_rows(case)
        for want in (exactnum.solve_linear(rows, [0] * len(rows)),
                     ref.solve_linear(rows, [0] * len(rows))):
            assert _typed_space(got) == _typed_space(want), case
