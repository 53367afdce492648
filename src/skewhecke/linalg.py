"""Dense exact linear algebra over a scalar field.

Matrices are lists of rows; rows are lists of field values.  Everything here
uses fraction-free-ish Gaussian elimination with exact division, which is fine
at the problem sizes this library works at (dimensions in the low hundreds).
Pivoting is deterministic (first nonzero entry), so echelon bases are
reproducible.
"""

from __future__ import annotations


def rref(field, rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if not field.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = field.inv(m[r][c])
        m[r] = [field.mul(pv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(field, rows):
    return len(rref(field, rows)[1])


def nullspace(field, rows, ncols=None):
    """Basis of the right nullspace {x : rows @ x = 0} as a list of vectors."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if not rows:
        basis = []
        for j in range(ncols):
            v = [field.zero] * ncols
            v[j] = field.one
            basis.append(v)
        return basis
    m, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [field.zero] * ncols
        v[j] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(m[i][j])
        basis.append(v)
    return basis


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
    """Incrementally built echelon basis of a subspace of F^n.

    Tracks which inserted vectors were independent; supports membership tests
    and coordinates of a vector with respect to the stored (echelonised)
    basis vectors in their original form.
    """

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.rows = []      # echelon rows, each with leading 1
        self.lead = []      # leading column of each row
        self.originals = [] # independent vectors as originally inserted

    def _reduce(self, v):
        f = self.field
        v = list(v)
        coeffs = [f.zero] * len(self.rows)
        for i, (row, lc) in enumerate(zip(self.rows, self.lead)):
            c = v[lc]
            if not f.is_zero(c):
                coeffs[i] = c
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v, coeffs

    def insert(self, v):
        """Insert a vector; returns True if it enlarged the span."""
        f = self.field
        red, _ = self._reduce(v)
        lead = next((j for j in range(self.n) if not f.is_zero(red[j])), None)
        if lead is None:
            return False
        inv = f.inv(red[lead])
        self.rows.append([f.mul(inv, x) for x in red])
        self.lead.append(lead)
        self.originals.append(list(v))
        # keep echelon rows fully reduced against each other
        for i in range(len(self.rows) - 1):
            c = self.rows[i][lead]
            if not f.is_zero(c):
                self.rows[i] = [
                    f.sub(x, f.mul(c, y)) for x, y in zip(self.rows[i], self.rows[-1])
                ]
        return True

    def contains(self, v):
        red, _ = self._reduce(v)
        return all(self.field.is_zero(x) for x in red)

    @property
    def dim(self):
        return len(self.rows)


class CoordinateSolver:
    """Expresses vectors in a fixed independent spanning set.

    Given independent vectors b_1..b_m in F^n, ``coordinates(terms)`` returns
    the nonzero c_i of v = sum c_i b_i as {i: c_i} (increasing i), or None if v
    is outside the span; v is given by its nonzero (column, entry) pairs.
    """

    def __init__(self, field, vectors, n=None):
        self.field = field
        self.vectors = [list(v) for v in vectors]
        self.m = len(self.vectors)
        if n is None:
            n = len(self.vectors[0]) if self.vectors else 0
        self.n = n
        # rref of the augmented (n x (m+n)) matrix [B | I], B with columns
        # b_1..b_m; then T @ B = R with R in rref, T the right-hand block.
        aug = []
        for i in range(n):
            row = [self.vectors[j][i] for j in range(self.m)]
            row += [field.one if k == i else field.zero for k in range(n)]
            aug.append(row)
        red, pivots = rref(field, aug)
        self.pivots = [p for p in pivots if p < self.m]
        if len(self.pivots) != self.m:
            raise ValueError("spanning vectors are linearly dependent")
        # column j of T as its nonzero (row, entry) pairs
        self.columns = [
            [(i, row[self.m + j]) for i, row in enumerate(red)
             if not field.is_zero(row[self.m + j])]
            for j in range(n)
        ]

    def coordinates(self, terms):
        """w = T v over the (j, v_j) pairs of ``terms`` (zeros skipped; pass a
        dense v as enumerate(v)): rows of T below the pivot rows must give 0
        (else v is outside the span), pivot rows give coordinates."""
        f = self.field
        w: dict = {}
        for j, x in terms:
            if f.is_zero(x):
                continue
            for i, t in self.columns[j]:
                w[i] = f.add(w[i], f.mul(t, x)) if i in w else f.mul(t, x)
        npiv = len(self.pivots)
        coords = {}
        for i, x in sorted(w.items()):
            if f.is_zero(x):
                continue
            if i >= npiv:
                return None
            coords[self.pivots[i]] = x
        return coords
