"""Exact linear algebra over a scalar field, on coefficient maps.

A vector is a map {column: value} with no stored zeros, summed by ``add_into``,
or in raw values by ``add_raw``; a matrix is a list of them.  Columns must be
mutually comparable: ints, or the labels of one algebra.  ``SpanBasis`` is the
one Gaussian elimination, exact: a row's lead is its least column, and the
rows are kept fully reduced, so a row costs its support, not the width of the
space.  ``rref`` is its rows ordered by lead; a matrix has one reduced row
echelon form, so the result is reproducible.
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
    ordered by lead.  Returns (nonzero_rows, pivot_columns)."""
    sb = SpanBasis(field)
    for r in rows:
        sb.insert(r)
    order = sorted(range(sb.dim), key=sb.lead.__getitem__)
    return [sb.rows[i] for i in order], [sb.lead[i] for i in order]


def rank(field, rows):
    return len(rref(field, rows)[1])


def solve(field, rows, rhs):
    """One solution x of rows @ x = rhs as a map, or None if inconsistent; the
    columns are ints, and rhs is a map {row position: value}."""
    end = 1 + max((j for r in rows for j in r), default=-1)  # the rhs column
    aug = [{**r, end: rhs[i]} if i in rhs else r for i, r in enumerate(rows)]
    m, pivots = rref(field, aug)
    if end in pivots:
        return None
    return {pc: row[end] for row, pc in zip(m, pivots) if end in row}


class SpanBasis:
    """Incrementally built echelon basis of a span of maps, with membership
    tests.  Each row is 1 at its lead, its least column, and 0 at the others'."""

    def __init__(self, field):
        self.field = field
        self.rows = []      # echelon rows, each a {column: value}
        self.lead = []      # leading column of each row

    def _reduce(self, v):
        """v minus its combination of the rows, as a new map: 0 at every lead."""
        f = self.field
        red = dict(v)
        for row, lc in zip(self.rows, self.lead):
            c = red.get(lc)
            if c is not None:
                add_into(f, red, row, f.neg(c))
        return red

    def insert(self, v):
        """Insert a vector; returns True if it enlarged the span."""
        f = self.field
        red = self._reduce(v)
        if not red:
            return False
        # red is 0 at every kept lead, so its least column is a new one
        lead = min(red)
        inv = f.inv(red[lead])
        new = {j: f.mul(inv, x) for j, x in red.items()}
        # keep echelon rows fully reduced against each other
        for row in self.rows:
            c = row.get(lead)
            if c is not None:
                add_into(f, row, new, f.neg(c))
        self.rows.append(new)
        self.lead.append(lead)
        return True

    def contains(self, v):
        return not self._reduce(v)

    @property
    def dim(self):
        return len(self.rows)


class CoordinateSolver:
    """The kernel {v : rows @ v = 0} in F^ncols, with exact coordinates in its basis.

    One ``rref`` of ``rows`` (maps over the int columns 0..ncols-1) splits
    the columns into pivot and free ones.  Basis vector i is the map
    {free[i]: 1, pc: -entry of free[i] in pc's row} over the pivot columns
    pc, in column order; its pivot entries alone are ``pivot_entries[i]``.
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
        self.pivot_entries = [{} for _ in self.free]
        for row, pc in zip(red, pivots):
            for j, x in row.items():
                if j != pc:  # a free column: the row is 0 at the other pivots
                    self.pivot_entries[self.position[j]][pc] = field.neg(x)
        self.basis = [dict(sorted({j: field.one, **entries}.items()))
                      for j, entries in zip(self.free, self.pivot_entries)]

    def coordinates(self, terms):
        """The nonzero c_i of v = sum c_i basis_i as {i: c_i} (increasing i), or
        None if rows @ v != 0.  v is given by its (column, entry) pairs, in any
        order, such as a map's items(); zero entries are skipped."""
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
