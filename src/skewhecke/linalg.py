"""Exact linear algebra over a scalar field: sparse sums and dense elimination.

Sparse vectors are key -> value dicts with no stored zeros, summed by
``add_into``, or in raw values by ``add_raw``.  Matrices are lists of rows;
rows are lists of field values.
``SpanBasis`` is the one Gaussian elimination: it reduces each incoming row
against the rows kept so far, divides by the pivot, and keeps its rows fully
reduced, all in exact arithmetic (fine at the dimensions this library works
at, the low hundreds).  ``rref`` is its rows ordered by leading column; a
matrix has one reduced row echelon form, so the result is reproducible.
"""

from __future__ import annotations


def add_raw(out: dict, coeffs: dict, c=None) -> dict:
    """out += c * coeffs in place (c None means 1) in raw values (see
    ``scalars``): Python's own ``*`` and ``+``, nothing reduced."""
    for l, x in coeffs.items():
        if c is not None:
            x = c * x
        out[l] = out[l] + x if l in out else x
    return out


def add_into(field, out: dict, coeffs: dict, c=None) -> dict:
    """out += c * coeffs in place (c None means 1); neither dict stores zeros.

    c == 0 returns at once and c == 1 costs no multiply.  The sums are raw
    (``add_raw``), and only the keys of coeffs are reduced, once, so a label
    new to ``out`` costs no field call and a cancelled one is dropped.
    """
    if c == field.zero:
        return out
    return field.reduce_into(add_raw(out, coeffs, None if c == field.one else c), coeffs)


def rref(field, rows):
    """Reduced row echelon form: the rows of the ``SpanBasis`` of ``rows``,
    ordered by leading column.  Returns (nonzero_rows, pivot_columns)."""
    if not rows:
        return [], []
    sb = SpanBasis(field, len(rows[0]))
    for r in rows:
        sb.insert(r)
    order = sorted(range(sb.dim), key=sb.lead.__getitem__)
    return [sb.rows[i] for i in order], [sb.lead[i] for i in order]


def rank(field, rows):
    return len(rref(field, rows)[1])


def solve(field, rows, rhs):
    """One solution x of rows @ x = rhs, or None if inconsistent."""
    if not rows:
        return None if any(not field.is_zero(b) for b in rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = rref(field, aug)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = m[i][ncols]
    return x


class SpanBasis:
    """Incrementally built echelon basis of a subspace of F^n, with membership
    tests."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.rows = []      # echelon rows, each with leading 1
        self.lead = []      # leading column of each row

    def _reduce(self, v):
        f = self.field
        v = list(v)
        for row, lc in zip(self.rows, self.lead):
            c = v[lc]
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v

    def insert(self, v):
        """Insert a vector; returns True if it enlarged the span."""
        f = self.field
        red = self._reduce(v)
        # red is 0 at every kept leading column, so only the others are tested
        taken = set(self.lead)
        lead = next((j for j in range(self.n)
                     if j not in taken and not f.is_zero(red[j])), None)
        if lead is None:
            return False
        inv = f.inv(red[lead])
        self.rows.append([f.mul(inv, x) for x in red])
        self.lead.append(lead)
        # keep echelon rows fully reduced against each other
        for i in range(len(self.rows) - 1):
            c = self.rows[i][lead]
            if not f.is_zero(c):
                self.rows[i] = [
                    f.sub(x, f.mul(c, y)) for x, y in zip(self.rows[i], self.rows[-1])
                ]
        return True

    def contains(self, v):
        return all(self.field.is_zero(x) for x in self._reduce(v))

    @property
    def dim(self):
        return len(self.rows)


class CoordinateSolver:
    """The kernel {v : rows @ v = 0} in F^ncols, with exact coordinates in its basis.

    One ``rref`` of ``rows`` splits the columns into pivot and free ones.
    Basis vector i is 1 at the free column free[i], 0 at every other free
    column, and minus the reduced entry of its column at each pivot column; the
    pivot entries of each basis vector are kept as a sparse {column: entry}.
    So a kernel vector's coordinates are its entries at the free columns, and
    v is in the kernel exactly when v - sum c_i basis_i, which is 0 at every
    free column, is 0 at the pivot columns too.
    """

    def __init__(self, field, rows, ncols):
        self.field = field
        red, pivots = rref(field, rows)
        pivot_set = set(pivots)
        self.free = [j for j in range(ncols) if j not in pivot_set]
        self.position = {j: i for i, j in enumerate(self.free)}
        self.pivot_entries = [
            {pc: field.neg(row[j]) for row, pc in zip(red, pivots)
             if not field.is_zero(row[j])}
            for j in self.free
        ]
        self.basis = []
        for j, entries in zip(self.free, self.pivot_entries):
            v = [field.zero] * ncols
            v[j] = field.one
            for pc, x in entries.items():
                v[pc] = x
            self.basis.append(v)

    def coordinates(self, terms):
        """The nonzero c_i of v = sum c_i basis_i as {i: c_i} (increasing i), or
        None if rows @ v != 0.  v is given by its (column, entry) pairs, in any
        order; zero entries are skipped, so a dense v may be passed as
        enumerate(v)."""
        f = self.field
        position = self.position
        coords: dict = {}
        residual: dict = {}  # v - sum c_i basis_i at the pivot columns
        for j, x in terms:
            if f.is_zero(x):
                continue
            i = position.get(j)
            if i is None:
                residual[j] = x
            else:
                coords[i] = x
        for i, c in coords.items():
            add_into(f, residual, self.pivot_entries[i], f.neg(c))
        if residual:
            return None
        return dict(sorted(coords.items()))
