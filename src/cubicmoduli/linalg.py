"""Dense exact linear algebra over cyclotomic fields.

Sized for this project: matrices up to 35x35 (the space of cubic
monomials in five variables) and commutant systems on 5x5 unknowns.
Row reduction uses deterministic first-nonzero pivoting and inverts a
pivot entry once per pivot row, so exact divisions stay rare.
"""

from __future__ import annotations

from .cyclo import ZERO, ONE, Cyclotomic, cyclo


def _entry(value) -> Cyclotomic:
    if isinstance(value, Cyclotomic):
        return value
    return cyclo(value)


class Matrix:
    """Immutable matrix with Cyclotomic entries, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries):
        rows = [tuple(_entry(v) for v in row) for row in rows_of_entries]
        assert rows, "matrix needs at least one row"
        width = len(rows[0])
        assert all(len(r) == width for r in rows), "ragged rows"
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", tuple(v for row in rows for v in row))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def scalar(n: int, value) -> "Matrix":
        v = _entry(value)
        return Matrix([[v if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values) -> "Matrix":
        vals = [_entry(v) for v in values]
        n = len(vals)
        return Matrix([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, key) -> Cyclotomic:
        i, j = key
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple[Cyclotomic, ...]:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple[Cyclotomic, ...]:
        return self.data[j::self.cols]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            assert self.cols == other.rows, "shape mismatch"
            out = []
            for i in range(self.rows):
                lhs = self.row(i)
                row = []
                for j in range(other.cols):
                    acc = ZERO
                    for k, a in enumerate(lhs):
                        if a:
                            b = other.data[k * other.cols + j]
                            if b:
                                acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return Matrix(out)
        v = _entry(other)
        return Matrix([[x * v for x in self.row(i)] for i in range(self.rows)])

    def __rmul__(self, other):
        return self * other

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix([
            [a + b for a, b in zip(self.row(i), other.row(i))]
            for i in range(self.rows)
        ])

    def __sub__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix([
            [a - b for a, b in zip(self.row(i), other.row(i))]
            for i in range(self.rows)
        ])

    def __neg__(self):
        return Matrix([[-x for x in self.row(i)] for i in range(self.rows)])

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)])

    def trace(self) -> Cyclotomic:
        assert self.rows == self.cols
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self[i, j] == (ONE if i == j else ZERO)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def is_scalar(self) -> bool:
        if self.rows != self.cols:
            return False
        d = self[0, 0]
        return all(
            self[i, j] == (d if i == j else ZERO)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.data)

    def det(self) -> Cyclotomic:
        """Determinant by expansion along first columns (fine at 5x5)."""
        assert self.rows == self.cols
        n = self.rows

        def minor_det(rows_left, col):
            if len(rows_left) == 1:
                return self[rows_left[0], col]
            acc = ZERO
            for pos, i in enumerate(rows_left):
                a = self[i, col]
                if a:
                    rest = rows_left[:pos] + rows_left[pos + 1:]
                    sub = minor_det(rest, col + 1)
                    term = a * sub
                    acc = acc + (term if pos % 2 == 0 else -term)
            return acc

        return minor_det(tuple(range(n)), 0)

    def inverse(self) -> "Matrix":
        assert self.rows == self.cols
        n = self.rows
        aug = Matrix([
            list(self.row(i)) + [ONE if j == i else ZERO for j in range(n)]
            for i in range(n)
        ])
        rank, red, pivots = rref(aug)
        if pivots[:n] != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix([red.row(i)[n:] for i in range(n)])

    def __str__(self):
        cells = [[str(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = [
            "[" + ", ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols)) + "]"
            for i in range(self.rows)
        ]
        return "\n".join(lines)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (rank, reduced_matrix, pivot_columns).  Pivoting picks the
    first row with a nonzero entry in the current column, so the result
    is deterministic for a given input.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    rank = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(m.rows):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == m.rows:
            break
    return rank, Matrix(rows), tuple(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[0]


def nullspace(m: Matrix) -> list[tuple[Cyclotomic, ...]]:
    """Basis of the right kernel, one vector per free column, in column
    order.  Each vector has entry 1 at its free column."""
    r, red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [ZERO] * m.cols
        vec[free] = ONE
        for i, p in enumerate(pivots):
            vec[p] = -red[i, free]
        basis.append(tuple(vec))
    return basis


def solve_in_span(basis_rows: list, target) -> bool:
    """Whether target (a coefficient vector) lies in the row span of
    basis_rows; all entries Cyclotomic-coercible."""
    stacked = Matrix(list(basis_rows) + [list(target)])
    base = Matrix(basis_rows) if basis_rows else None
    base_rank = rank(base) if base is not None else 0
    return rank(stacked) == base_rank


def commutant_dimension(mats: list[Matrix]) -> int:
    """Dimension of the algebra of d x d matrices commuting with every
    given matrix: d*d minus the rank of the stacked linear system
    X*g - g*X = 0 over the entries of X."""
    assert mats, "need at least one matrix"
    d = mats[0].rows
    rows = []
    for g in mats:
        assert g.rows == g.cols == d
        for i in range(d):
            for j in range(d):
                row = [ZERO] * (d * d)
                # (X g)_{ij} contributes g[k, j] at unknown X[i, k]
                for k in range(d):
                    v = g[k, j]
                    if v:
                        row[i * d + k] = row[i * d + k] + v
                # (g X)_{ij} contributes -g[i, k] at unknown X[k, j]
                for k in range(d):
                    v = g[i, k]
                    if v:
                        row[k * d + j] = row[k * d + j] - v
                if any(row):
                    rows.append(row)
    if not rows:
        return d * d
    return d * d - rank(Matrix(rows))
