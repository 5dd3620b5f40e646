"""Exact linear algebra over the rationals.

Matrices are lists of rows; entries are ints or Fractions and all arithmetic
is exact.  The library-wide convention is that vectors are rows and maps act
on the right: the image of v under M is v @ M (``vec_mat``).

All row elimination goes through one engine, ``RowSolver``: an incremental
echelon basis whose stored rows are each 1 at their pivot and 0 at the
pivots of the rows stored before them.  ``rref`` back-substitutes its rows
into the unique reduced form; ``rank``, ``det``, ``inverse`` and the
positive-definiteness test are read off one pass each, and a nullspace is
its ``kernel()``, from its record of the dependent rows.
"""

from fractions import Fraction


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def identity(n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    return m


def copy_matrix(a):
    return [row[:] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b, cols):
    """a b, cols wide (the caller's, as a b with no rows has none), skipping
    zero entries as ``vec_mat`` does; an entry with no term is int 0."""
    out = [[0] * cols for _ in a]
    for row, acc in zip(a, out):
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
    return out


def vec_mat(v, a):
    if not a:
        return []
    cols = len(a[0])
    out = [0] * cols
    for x, row in zip(v, a):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] += x * y
    return out


def mat_pow(a, k):
    n = len(a)
    result = identity(n)
    base = copy_matrix(a)
    while k:
        if k & 1:
            result = mat_mul(result, base, n)
        base = mat_mul(base, base, n)
        k >>= 1
    return result


class RowSolver:
    """Incremental echelon basis of the span of a list of rows.

    ``add`` reduces a row against the stored rows; a nonzero residue is
    scaled to 1 at its first nonzero column, its pivot, and stored.  Every
    row given counts as an original row, dependent or not.  Each reduction
    records the stored rows it subtracted, and from that history the
    transform of a stored row over the original rows is expanded only when
    ``coefficients`` or ``kernel`` first needs it.
    """

    def __init__(self, rows, ncols):
        self.ncols = ncols
        self.nrows = 0
        self.pivots = []  # pivot column of each stored row, in storing order
        self.independent = []  # original index of each stored row
        self._tails = []  # per stored row: its nonzero (column, value) after the pivot
        self._history = []  # per stored row: (subtracted (row, factor) pairs, pivot value)
        self._transforms = []  # per stored row: {original index: coefficient}
        self._dependent = []  # per dependent row: (original index, subtracted pairs)
        for row in rows:
            self.add(row)

    @property
    def rank(self):
        return len(self.pivots)

    def _eliminate(self, v):
        """(residue, [(stored row, factor)]) with v = residue + sum factor * row."""
        w = list(v)
        used = []
        for i, c in enumerate(self.pivots):
            f = w[c]
            if f:
                w[c] = 0
                for j, x in self._tails[i]:
                    w[j] -= f * x
                used.append((i, f))
        return w, used

    def add(self, v):
        """Appends v to the original rows; True when it was outside the span
        of the rows before it (and is stored)."""
        w, used = self._eliminate(v)
        self.nrows += 1
        nonzero = [(j, x) for j, x in enumerate(w) if x]  # the pivot, then the tail
        if not nonzero:
            self._dependent.append((self.nrows - 1, used))
            return False
        c, pv = nonzero[0]
        self.pivots.append(c)
        self.independent.append(self.nrows - 1)
        self._tails.append(_scaled(nonzero[1:], pv))
        self._history.append((used, pv))
        return True

    def rows(self):
        """The stored rows, dense, in storing order."""
        out = []
        for c, tail in zip(self.pivots, self._tails):
            row = [0] * self.ncols
            row[c] = 1
            for j, x in tail:
                row[j] = x
            out.append(row)
        return out

    def _combine(self, used):
        """Coefficients over the original rows of sum factor * stored row."""
        for k in range(len(self._transforms), self.rank):
            steps, pv = self._history[k]
            t = {self.independent[k]: 1}
            for i, f in steps:
                for j, x in self._transforms[i].items():
                    t[j] = t.get(j, 0) - f * x
            self._transforms.append(dict(_scaled([(j, x) for j, x in t.items() if x], pv)))
        coeffs = [0] * self.nrows
        for i, f in used:
            for j, x in self._transforms[i].items():
                coeffs[j] += f * x
        return coeffs

    def kernel(self):
        """Basis of the relations among the original rows: for each row that
        depends on the rows before it, 1 there less its coefficients over
        them."""
        out = []
        for k, used in self._dependent:
            v = [-x for x in self._combine(used)]
            v[k] = 1
            out.append(v)
        return out

    def reduce(self, v):
        """Returns (residue, coeffs) with v = coeffs @ rows + residue."""
        w, used = self._eliminate(v)
        return w, self._combine(used)

    def residue(self, v):
        """v less its elimination by the stored rows: 0 exactly on their span."""
        return self._eliminate(v)[0]

    def contains(self, v):
        return not any(self._eliminate(v)[0])

    def coefficients(self, v):
        """Coefficients of v over the original rows, or None if outside."""
        w, used = self._eliminate(v)
        return None if any(w) else self._combine(used)


def _scaled(pairs, pv):
    """[(j, x / pv)] for a list of pairs, exact; ints stay ints for pv = +-1."""
    if pv == 1:
        return pairs
    if pv == -1:
        return [(j, -x) for j, x in pairs]
    inv = 1 / Fraction(pv)
    return [(j, x * inv) for j, x in pairs]


def rref(a):
    """Reduced row echelon form.  Returns (R, pivot_columns); R has as many
    rows as a, the zero rows last, and every entry is a Fraction."""
    cols = len(a[0]) if a else 0
    echelon = RowSolver(a, cols)
    # back-substitution: stored by falling pivot, each echelon row is
    # reduced against the rows of larger pivot, which clears it there
    falling = sorted(zip(echelon.pivots, echelon.rows()), reverse=True)
    reduced = RowSolver([row for _, row in falling], cols).rows()[::-1]
    red = [[Fraction(x) for x in row] for row in reduced]
    red += [[Fraction(0)] * cols for _ in range(len(a) - len(red))]
    return red, sorted(echelon.pivots)


def rank(a):
    if not a or not a[0]:
        return 0
    return RowSolver(a, len(a[0])).rank


def det(a):
    """Determinant.  Each stored row is a row of a less earlier stored rows,
    divided by its pivot value, and is 1 at its pivot and 0 at the pivots
    stored before it; so det(a) is the product of the pivot values times
    the sign of the pivot order."""
    n = len(a)
    solver = RowSolver(a, n)
    if solver.rank < n:
        return Fraction(0)
    result = Fraction(1)
    for _, pv in solver._history:
        result *= pv
    piv = solver.pivots
    inversions = sum(piv[i] > piv[j] for i in range(n) for j in range(i + 1, n))
    return -result if inversions % 2 else result


def inverse(a):
    """a^-1, row i the coefficients of the unit row e_i over the rows of a
    (e_i = row i of a^-1 @ a)."""
    n = len(a)
    solver = RowSolver(a, n)
    if solver.rank < n:
        raise ValueError("matrix is singular")
    return [solver.coefficients(e) for e in identity(n)]


def is_positive_definite(a):
    """Sylvester criterion for a symmetric rational matrix, in one pass: the
    leading minors are all positive exactly when the rows meet the pivots
    0..n-1 in order, each pivot value the ratio of two successive minors
    and positive."""
    solver = RowSolver(a, len(a))
    return solver.pivots == list(range(len(a))) and all(pv > 0 for _, pv in solver._history)
