"""Based algebras with exact structure constants, group actions, invariants.

An algebra here always has a distinguished basis: a finite label list, or a
graded label universe enumerable per degree.  Elements are sparse
label -> scalar maps with no stored zeros.  Actions are given per group
element on basis labels and extended linearly; polynomial actions are given
on exponent vectors directly (variable permutations send monomials to
monomials).
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field as dc_field
from operator import itemgetter

from . import linalg
from .groups import full_subgroup
from .linalg import add_into, add_raw
from .scalars import NotAUnitError


def _blocks(coeffs: dict) -> dict:
    """A tensor coefficient map {(l, b): c} as {b: {l: c}}, the A-blocks."""
    out: dict = {}
    for (l, b), c in coeffs.items():
        out.setdefault(b, {})[l] = c
    return out


class AlgebraElement:
    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: BasedAlgebra, coeffs: dict):
        self.alg = alg
        self.coeffs = coeffs

    def __add__(self, other):
        out = add_into(self.alg.field, dict(self.coeffs), other.coeffs)
        return type(self)(self.alg, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.alg.field
        return type(self)(self.alg, {l: f.neg(c) for l, c in self.coeffs.items()})

    def scale(self, c):
        f = self.alg.field
        if f.is_zero(c):
            return type(self)(self.alg, {})
        return type(self)(self.alg, {l: f.mul(c, x) for l, x in self.coeffs.items()})

    def __mul__(self, other):
        """The one element product; a factor from another algebra is NotImplemented."""
        alg = self.alg
        if not isinstance(other, AlgebraElement) or other.alg is not alg:
            return NotImplemented
        return alg.element_class(alg, alg.mul_into({}, self.coeffs, other.coeffs))

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def homogeneous_degree(self):
        """Degree if homogeneous (zero counts as any degree -> None), else None."""
        degs = {self.alg.degree(l) for l in self.coeffs}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __str__(self):
        if not self.coeffs:
            return "0"
        f = self.alg.field
        parts = []
        for l in sorted(self.coeffs, key=self.alg.label_sort_key):
            c = self.coeffs[l]
            ls = self.alg.label_str(l)
            cs = f.format(c)
            if ls == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(ls)
            else:
                parts.append(f"{cs}*{ls}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


class BasedAlgebra:
    """Base class; subclasses define labels/products for each algebra family."""

    graded = False
    # the class of this algebra's elements; A x| G and the matrix model name
    # empty AlgebraElement subclasses here, which multiply as every element does
    element_class = AlgebraElement
    # (left_key, right_key): the basis product l1 * l2 can be nonzero only if
    # left_key(l1) == right_key(l2).  None means any pair may multiply.
    product_keys = None

    def __init__(self, field):
        self.field = field
        self._product_cache = {}
        self._product_rows = {}  # l1 -> {l2: l1 l2 as an entry, see _entry}

    # -- basis interface ----------------------------------------------------

    def labels(self):
        raise NotImplementedError

    def degree(self, label) -> int:
        return 0

    def enumerate_degree(self, d):
        if d == 0:
            return list(self.labels())
        return []

    @property
    def dim(self) -> int:
        return len(self.labels())

    def basis_labels(self, degree=None):
        if self.graded:
            if degree is None:
                raise ValueError("graded algebra needs a degree for enumeration")
            return self.enumerate_degree(degree)
        return self.labels()

    def degrees(self, cap=None):
        """Degrees 0..cap of a graded algebra (cap None means 2); [None] if finite."""
        if not self.graded:
            return [None]
        return range((2 if cap is None else cap) + 1)

    def labels_up_to(self, cap=None):
        """Basis labels of all degrees up to ``cap``; every label if finite."""
        return [l for d in self.degrees(cap) for l in self.basis_labels(d)]

    # -- products -----------------------------------------------------------

    def product_on_basis(self, l1, l2) -> dict:
        raise NotImplementedError

    def product_cached(self, l1, l2) -> dict:
        key = (l1, l2)
        out = self._product_cache.get(key)
        if out is None:
            out = self.product_on_basis(l1, l2)
            self._product_cache[key] = out
        return out

    def _entry(self, l1, l2):
        """l1 l2 as an entry of l1's row: its label if it is one coefficient-one
        label, else its product_cached dict."""
        p = self.product_cached(l1, l2)
        return next(iter(p)) if len(p) == 1 and self.field.one in p.values() else p

    @functools.cached_property
    def _partners(self) -> dict:
        """right key -> its labels in label order (a keyed basis is finite)."""
        index: dict = {}
        for l2 in self.labels():
            index.setdefault(self.product_keys[1](l2), []).append(l2)
        return index

    def _row(self, l1) -> dict:
        """l1's new row: an entry for each l2 the product_keys allow, none without."""
        partners = self._partners.get(self.product_keys[0](l1), ()) if self.product_keys else ()
        row = self._product_rows[l1] = {l2: self._entry(l1, l2) for l2 in partners}
        return row

    def accumulate(self, out: dict, a: dict, b: dict, c=None) -> dict:
        """out += c * (a b) in place on coefficient maps (c None means 1), in raw
        values (see ``scalars``): the one loop that multiplies basis labels.
        With product_keys each l2 of l1's row is looked up in b, else each l2 of
        b in the row; a one-label entry costs one multiply and one add."""
        if c == self.field.zero:
            return out
        if c == self.field.one:
            c = None
        rows, keyed, get = self._product_rows, self.product_keys is not None, b.get
        for l1, c1 in a.items():
            if c is not None:
                c1 = c * c1
            row = rows.get(l1) or self._row(l1)  # an empty row is rebuilt, losing nothing
            for l2, v in (row.items() if keyed else b.items()):
                c2 = get(l2) if keyed else v
                if c2 is None:  # keyed, and l2 is not in b
                    continue
                p = v if keyed else row.get(l2)
                if p is None:  # not keyed: the pair's first product
                    p = row[l2] = self._entry(l1, l2)
                x = c1 * c2
                if type(p) is not dict:  # l1 l2 is the label p
                    out[p] = out[p] + x if p in out else x
                    continue
                for l3, k in p.items():
                    out[l3] = out[l3] + x * k if l3 in out else x * k
        return out

    def mul_into(self, out: dict, a: dict, b: dict, c=None) -> dict:
        """out += c * (a b) in place and canonical: ``accumulate``, then ``reduce_into``."""
        return self.field.reduce_into(self.accumulate(out, a, b, c))

    def one_coeffs(self) -> dict:
        raise NotImplementedError

    # -- element constructors ----------------------------------------------

    def element(self, coeffs) -> "AlgebraElement":
        """The element with these coefficients, brought to canonical form on a copy."""
        return self.element_class(self, self.field.reduce_into(dict(coeffs)))

    def zero(self) -> "AlgebraElement":
        return self.element_class(self, {})

    def one(self) -> "AlgebraElement":
        return self.element(self.one_coeffs())

    def basis_element(self, label) -> "AlgebraElement":
        return self.element_class(self, {label: self.field.one})

    def from_scalar(self, c) -> "AlgebraElement":
        return self.one().scale(c)

    def combination(self, terms) -> "AlgebraElement":
        """sum of c * x over the pairs (x, c) of ``terms`` (c None means 1),
        accumulated in raw values and reduced once."""
        out: dict = {}
        for x, c in terms:
            add_raw(out, x.coeffs, c)
        return self.element_class(self, self.field.reduce_into(out))

    # -- printing -----------------------------------------------------------

    def label_str(self, label) -> str:
        return str(label)

    def parse_label(self, s: str):
        """The label that ``label_str`` prints as ``s``; a family with a literal
        syntax overrides both."""
        raise ValueError(f"no literal syntax for {type(self).__name__}")

    def label_sort_key(self, label):
        return (self.degree(label), label)


# ---------------------------------------------------------------------------
# algebra families

# label literals, compiled once: parse_label runs once per term of a literal
_DELTA_RE = re.compile(r"delta\[(.*)\]")
_MONOMIAL_FACTOR_RE = re.compile(r"x(\d+)(\^(\d+))?")
_MATRIX_UNIT_RE = re.compile(r"E\[(\d+),(\d+)\]")


class GroupAlgebra(BasedAlgebra):
    """R[K]: basis indexed by group elements, product from the group table."""

    def __init__(self, field, K):
        super().__init__(field)
        self.K = K

    def labels(self):
        return list(range(self.K.order))

    def product_on_basis(self, l1, l2):
        return {self.K.mul(l1, l2): self.field.one}

    def one_coeffs(self):
        return {0: self.field.one}

    def label_str(self, label):
        n = self.K.name(label)
        return "1" if label == 0 else f"[{n}]"

    def parse_label(self, s):
        if s.startswith("[") and s.endswith("]"):
            s = s[1:-1]
        return self.K.element_by_name(s)


class FunctionAlgebra(BasedAlgebra):
    """R^G: indicator functions delta_g under the pointwise product."""

    product_keys = (lambda l: l, lambda l: l)

    def __init__(self, field, G):
        super().__init__(field)
        self.G = G

    def labels(self):
        return list(range(self.G.order))

    def product_on_basis(self, l1, l2):
        if l1 == l2:
            return {l1: self.field.one}
        return {}

    def one_coeffs(self):
        return {g: self.field.one for g in range(self.G.order)}

    def label_str(self, label):
        return f"delta[{self.G.name(label)}]"

    def parse_label(self, s):
        m = _DELTA_RE.fullmatch(s)
        if not m:
            raise ValueError(f"bad indicator-function label {s!r}")
        return self.G.element_by_name(m.group(1))


class PolynomialAlgebra(BasedAlgebra):
    """R[x_1..x_n], graded by total degree; labels are exponent tuples.

    Element arithmetic is exact and unbounded in degree; ``degree_cap`` only
    bounds basis enumeration requests.
    """

    graded = True

    def __init__(self, field, nvars, degree_cap):
        super().__init__(field)
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree_cap < 0:
            raise ValueError("degree_cap must be >= 0")
        self.nvars = nvars
        self.degree_cap = degree_cap

    def degree(self, label):
        return sum(label)

    def enumerate_degree(self, d):
        if d < 0:
            return []
        if d > self.degree_cap:
            raise ValueError(
                f"degree {d} beyond enumeration cap {self.degree_cap}"
            )
        variables = range(self.nvars)
        return sorted(  # lex-descending: x1^d first
            (tuple(map(c.count, variables))
             for c in itertools.combinations_with_replacement(variables, d)),
            reverse=True)

    def labels(self):
        raise ValueError("polynomial algebras have no finite basis; use enumerate_degree")

    def product_on_basis(self, l1, l2):
        return {tuple(a + b for a, b in zip(l1, l2)): self.field.one}

    def one_coeffs(self):
        return {(0,) * self.nvars: self.field.one}

    def variable(self, i) -> AlgebraElement:
        """x_i, 1-indexed."""
        e = [0] * self.nvars
        e[i - 1] = 1
        return self.basis_element(tuple(e))

    def label_str(self, label):
        if not any(label):
            return "1"
        parts = []
        for i, e in enumerate(label):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)

    def parse_label(self, s):
        exps = [0] * self.nvars
        for factor in s.split("*"):
            factor = factor.strip()
            m = _MONOMIAL_FACTOR_RE.fullmatch(factor)
            if not m:
                raise ValueError(f"bad monomial factor {factor!r}")
            i = int(m.group(1))
            if not 1 <= i <= self.nvars:
                raise ValueError(f"variable x{i} out of range")
            exps[i - 1] += int(m.group(3) or 1)
        return tuple(exps)

    def label_sort_key(self, label):
        return (sum(label), tuple(-e for e in label))


class MatrixAlgebra(BasedAlgebra):
    """M_n(R) on matrix units E[i,j] (labels are 0-indexed (i, j) pairs)."""

    product_keys = (itemgetter(1), itemgetter(0))

    def __init__(self, field, n):
        super().__init__(field)
        if n < 1:
            raise ValueError("n >= 1 required")
        self.n = n

    def labels(self):
        return [(i, j) for i in range(self.n) for j in range(self.n)]

    def product_on_basis(self, l1, l2):
        (i, j), (k, l) = l1, l2
        if j == k:
            return {(i, l): self.field.one}
        return {}

    def one_coeffs(self):
        return {(i, i): self.field.one for i in range(self.n)}

    def label_str(self, label):
        i, j = label
        return f"E[{i + 1},{j + 1}]"

    def parse_label(self, s):
        m = _MATRIX_UNIT_RE.fullmatch(s)
        if not m:
            raise ValueError(f"bad matrix-unit label {s!r}")
        i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"matrix-unit index out of range in {s!r}")
        return (i, j)


class TensorAlgebra(BasedAlgebra):
    """A (x) B on pair labels (a, b); degrees add.

    The product is (x (x) b)(y (x) c) = x twist(b, y) (x) bc.  ``twist`` is the
    identity here, giving the componentwise product; the skew group algebra
    A (x) R[G] twists by the action, twist(g, y) = alpha_g(y).
    """

    def __init__(self, A: BasedAlgebra, B: BasedAlgebra):
        if A.field != B.field:
            raise ValueError("tensor factors must share the scalar field")
        super().__init__(A.field)
        self.A = A
        self.B = B
        self.graded = A.graded or B.graded

    def twist(self, b, y: AlgebraElement) -> AlgebraElement:
        """b y = twist(b, y) b: y moved from the right of b to its left."""
        return y

    def accumulate(self, out, a, b, c=None):
        """out += c (a b) by A-blocks, in raw values: (sum_b x_b (x) b)(sum_e y_e (x) e)
        is the sum over b, e of x_b twist(b, y_e) (x) be, over the pairs of B's rows;
        x_b twist(b, y) is formed once per distinct block y and added to each target."""
        A, B, f, keyed = self.A, self.B, self.field, self.B.product_keys is not None
        if c == f.zero:
            return out
        blocks = _blocks(out)
        distinct: dict = {}  # a right block's items -> the first block with them
        right = {e: distinct.setdefault(frozenset(y.items()), A.element_class(A, y))
                 for e, y in _blocks(b).items()}
        for e1, x in _blocks(a).items():
            products = {}  # id of a distinct right block y -> x twist(e1, y)
            row = B._product_rows.get(e1) or B._row(e1)
            for e2, z in (row.items() if keyed else right.items()):
                y, be = (right.get(e2), z) if keyed else (z, row.get(e2))
                if y is None:  # keyed, and e2 is not in b
                    continue
                if be is None:
                    be = row[e2] = B._entry(e1, e2)
                xy = products.get(id(y))
                if xy is None:
                    xy = products[id(y)] = A.accumulate({}, x, self.twist(e1, y).coeffs)
                for d, k in be.items() if isinstance(be, dict) else ((be, f.one),):
                    k = k if c is None else c * k
                    add_raw(blocks.setdefault(d, {}), xy, None if k == f.one else k)
        out.clear()
        out.update(((l, d), v) for d, block in blocks.items() for l, v in block.items())
        return out

    def labels(self):
        return [(a, b) for a in self.A.labels() for b in self.B.labels()]

    def degree(self, label):
        return self.A.degree(label[0]) + self.B.degree(label[1])

    def enumerate_degree(self, d):
        out = []
        for da in range(d + 1):
            la = self.A.enumerate_degree(da)
            lb = self.B.enumerate_degree(d - da)
            out.extend((a, b) for a in la for b in lb)
        return out

    def product_on_basis(self, l1, l2):
        """The basis product label by label, independent of the block loop of accumulate."""
        A, B = self.A, self.B
        pb = B.product_cached(l1[1], l2[1])
        if not pb:
            return {}
        pa = A.basis_element(l1[0]) * self.twist(l1[1], A.basis_element(l2[0]))
        return self.pure(pa, B.element_class(B, pb)).coeffs

    def one_coeffs(self):
        return self.pure(self.A.one(), self.B.one()).coeffs

    def pure(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """x (x) y, the outer product of the two coefficient maps."""
        f = self.field
        return self.element(
            {
                (a, b): f.mul(ca, cb)
                for a, ca in x.coeffs.items()
                for b, cb in y.coeffs.items()
            }
        )

    # -- A-blocks -------------------------------------------------------------

    def components(self, x: AlgebraElement) -> dict:
        """x as {b: its A-block}; B-labels absent from x are omitted."""
        A = self.A
        return {b: A.element_class(A, coeffs) for b, coeffs in _blocks(x.coeffs).items()}

    def from_components(self, blocks) -> AlgebraElement:
        """sum over b of blocks[b] (x) b, for a map b -> element of A."""
        return self.element_class(
            self, {(l, b): c for b, x in blocks.items() for l, c in x.coeffs.items()})

    def label_str(self, label):
        return f"{self.A.label_str(label[0])}(x){self.B.label_str(label[1])}"


class OppositeAlgebra(BasedAlgebra):
    """A^op: same basis, reversed product."""

    def __init__(self, A: BasedAlgebra):
        super().__init__(A.field)
        self.A = A
        self.graded = A.graded
        if A.product_keys is not None:
            self.product_keys = A.product_keys[::-1]

    def labels(self):
        return self.A.labels()

    def degree(self, label):
        return self.A.degree(label)

    def enumerate_degree(self, d):
        return self.A.enumerate_degree(d)

    def product_on_basis(self, l1, l2):
        return self.A.product_cached(l2, l1)

    def one_coeffs(self):
        return self.A.one_coeffs()

    def label_str(self, label):
        return self.A.label_str(label)

    def to_op(self, x: AlgebraElement) -> AlgebraElement:
        return self.element_class(self, dict(x.coeffs))

    def from_op(self, x: AlgebraElement) -> AlgebraElement:
        return self.A.element_class(self.A, dict(x.coeffs))


class StructureConstantAlgebra(BasedAlgebra):
    """Finite-dimensional algebra given by an explicit structure-constant table."""

    def __init__(self, field, size, products, one_coeffs_, names=None):
        super().__init__(field)
        self.size = size
        # (i, j) -> {k: c}, missing means zero; each row is brought to
        # canonical form on a copy, as a product_cached dict is a coefficient map
        self._products = {key: field.reduce_into(dict(row)) for key, row in products.items()}
        self._one = dict(one_coeffs_)
        self.names = names or [f"b{i}" for i in range(size)]

    def labels(self):
        return list(range(self.size))

    def product_on_basis(self, l1, l2):
        return self._products.get((l1, l2), {})

    def one_coeffs(self):
        return dict(self._one)

    def label_str(self, label):
        return self.names[label]

    def parse_label(self, s):
        if s in self.names:
            return self.names.index(s)
        raise ValueError(f"unknown basis label {s!r}")


def scalar_algebra(field) -> StructureConstantAlgebra:
    """R itself as a one-dimensional based algebra."""
    return StructureConstantAlgebra(
        field, 1, {(0, 0): {0: field.one}}, {0: field.one}, names=["1"])


# ---------------------------------------------------------------------------
# group actions


@dataclass
class ActionReport:
    ok: bool
    failures: list = dc_field(default_factory=list)

    def __str__(self):
        if self.ok:
            return "action verification: PASS"
        lines = ["action verification: FAIL"]
        for check, witness in self.failures:
            lines.append(f"  {check}: witness {witness}")
        return "\n".join(lines)


class GroupAction:
    """An action of G on A by algebra automorphisms, given on basis labels."""

    def __init__(self, G, A: BasedAlgebra, on_label, name="action"):
        self.G = G
        self.A = A
        self._on_label = on_label
        self.name = name
        self._cache = {}
        self._labels, self._position, self._tables = [], {}, {}  # see _table

    def on_label(self, g: int, label) -> AlgebraElement:
        key = (g, label)
        out = self._cache.get(key)
        if out is None:
            out = self._on_label(g, label)
            self._cache[key] = out
        return out

    def _index_labels(self, labels):
        """Give each label not yet indexed the next position; a table built
        before may hold None for a label indexed now, so the tables go."""
        for l in labels:
            if l not in self._position:
                self._position[l] = len(self._labels)
                self._labels.append(l)
                self._tables.clear()

    def _table(self, g: int) -> tuple:
        """alpha_g's label table, built once: at the position of each indexed
        label l, the position of alpha_g(l) when that image is one
        coefficient-one label among the indexed labels, else None (zero
        included).  A finite A indexes its labels on first use, a graded A
        those that ``verify`` and ``permutation`` read.  Only an image that is
        not an indexed label is kept as an element, for ``on_label``.
        """
        table = self._tables.get(g)
        if table is None:
            if not self._labels and not self.A.graded:
                self._index_labels(self.A.labels())
            position, one = self._position, self.A.field.one
            entries = []
            for l in self._labels:
                x, j = self._on_label(g, l), None
                if len(x.coeffs) == 1:
                    [(m, c)] = x.coeffs.items()
                    j = position.get(m) if c == one else None
                if j is None:
                    self._cache[(g, l)] = x
                entries.append(j)
            table = self._tables[g] = tuple(entries)
        return table

    def permutation(self, g: int, labels):
        """alpha_g on ``labels``, read off alpha_g's table: at i the index in
        ``labels`` of alpha_g(labels[i]); None unless alpha_g permutes them."""
        self._index_labels(labels if self.A.graded else self.A.labels())
        table, position = self._table(g), self._position
        index = {position[l]: i for i, l in enumerate(labels)}  # position -> index
        images = [index.get(table[p]) for p in index]
        return None if None in images or len(set(images)) != len(labels) else images

    def apply(self, g: int, x: AlgebraElement) -> AlgebraElement:
        """alpha_g(x) = sum over labels l of x of c_l alpha_g(l).

        When alpha_g's table sends the labels of x to distinct labels, the
        sum is a relabelling of x's coefficients; a label the table does not
        send to one label (an image of several terms, a coefficient other
        than one, zero, a label outside the index), or two labels that
        collide, take the sum term by term.  The table is read in place: a
        ``permutation`` list per g would hold a second copy of every table.
        """
        if g == 0:
            return x
        coeffs, table, at, labels = x.coeffs, self._table(g), self._position.get, self._labels
        out = {}
        for l, c in coeffs.items():
            j = at(l)
            if j is None or table[j] is None:
                break
            out[labels[table[j]]] = c
        if len(out) != len(coeffs):  # a label not relabelled, or a collision
            f = self.A.field
            out = {}
            for l, c in coeffs.items():
                add_into(f, out, self.on_label(g, l).coeffs, c)
        return self.A.element_class(self.A, out)

    def moved_by(self, x: AlgebraElement, gens):
        """The first s of ``gens``, in order, with alpha_s(x) != x; None if x is
        fixed by every s, and so by the subgroup they generate."""
        for s in gens:
            if self.apply(s, x) != x:
                return s
        return None

    def verify(self, degree_cap=None) -> ActionReport:
        """Check that alpha is an action by unital, degree-preserving algebra maps.

        Only generators s of G are checked, against every k in G: alpha_e = id
        on labels, alpha_s alpha_k = alpha_{sk}, alpha_s(1) = 1, alpha_s
        multiplicative on label pairs and degree-preserving.  That suffices: by
        induction on a word g = s_1 ... s_m, alpha_g = alpha_{s_1} ... alpha_{s_m}
        (composition law with k = s_2 ... s_m, down to alpha_e = id), so every
        alpha_g is a composite of multiplicative, unital, degree-preserving
        maps, and alpha_g alpha_k = alpha_{gk} follows the same way.  In a
        graded algebra the labels up to ``degree_cap`` are checked, and the
        identity and composition checks also cover the labels of their pairwise
        products, the degrees that multiplicativity of a composite passes
        through.  Witnesses name the generator s; each label l1 records its
        first failing pair (s, l1, l2) in label order.

        Multiplicativity alpha_s(l1 l2) = alpha_s(l1) alpha_s(l2) is checked on
        every label pair when A has no ``product_keys``.  With keys, only the
        pairs where some left key of l1 or of a label of alpha_s(l1) meets some
        right key of l2 or of a label of alpha_s(l2) are visited
        (``_keyed_partners``); on any other pair l1 l2 = 0 and every label
        product in alpha_s(l1) alpha_s(l2) is 0, so both sides are 0.

        Identity and composition read the label tables by position (``_table``,
        indexed over the checked labels): alpha_e = id is T_e == (0, 1, ...,
        n-1), and alpha_s alpha_k = alpha_{sk} one tuple compose per (s, k),
        T_s[T_k[i]] == T_sk[i] at every position i.  Only for a k whose tables
        disagree or hold a None are images formed and compared as elements,
        label by label, so every failure and witness comes from that
        comparison.  The cost is |G| tables of |labels| entries, built once,
        and |S| |G| tuple composes, S the generators, plus, per visited pair,
        the cached basis product l1 l2 and one product of images: |S| |labels|^2
        pairs without keys, at most 3 |S| |labels| for R^G under translation.
        """
        A, G = self.A, self.G
        labels = A.labels_up_to(degree_cap)
        gens = full_subgroup(G).generators()
        checked = labels
        if A.graded:
            products = [l for l1 in labels for l2 in labels for l in A.product_cached(l1, l2)]
            checked = list(dict.fromkeys(labels + products))
        self._index_labels(checked)
        tables = [self._table(g) for g in range(G.order)]
        complete = [None not in t for t in tables]
        failures = []
        if tables[0] != tuple(range(len(tables[0]))):  # else alpha_e fixes every label
            failures = [("identity", l) for l in checked
                        if self.on_label(0, l) != A.basis_element(l)]
        for s in gens:  # never e, so apply(s, .) reads the table as this check does
            T_s = tables[s]
            for k in range(G.order):
                sk = G.mul(s, k)
                T_k, T_sk = tables[k], tables[sk]
                if complete[k] and complete[sk] and tuple(map(T_s.__getitem__, T_k)) == T_sk:
                    continue  # every alpha_s alpha_k(l) is the label alpha_sk(l)
                for l in checked:
                    if self.apply(s, self.on_label(k, l)).coeffs != self.on_label(sk, l).coeffs:
                        failures.append(("composition", (s, k, l)))
                        break
        one = A.one()
        for s in gens:
            if self.apply(s, one) != one:
                failures.append(("unit", s))
            images = [self.on_label(s, l) for l in labels]
            partners = _keyed_partners(A.product_keys, labels, images)
            for l1, x1, js in zip(labels, images, partners):
                for j in js:
                    lhs = self.apply(s, A.element_class(A, A.product_cached(l1, labels[j])))
                    if lhs.coeffs != (x1 * images[j]).coeffs:
                        failures.append(("multiplicativity", (s, l1, labels[j])))
                        break
            if A.graded:
                for l, img in zip(labels, images):
                    if not img.is_zero and img.homogeneous_degree() != A.degree(l):
                        failures.append(("degree", (s, l)))
        return ActionReport(ok=not failures, failures=failures)


def _keyed_partners(keys, labels, images):
    """For each label l1, the increasing indices j of the labels l2 with which
    l1 l2 or images[l1] images[l2] may be nonzero under ``keys``: every index
    when ``keys`` is None."""
    if keys is None:
        return [range(len(labels))] * len(labels)
    left_key, right_key = keys
    buckets: dict = {}
    for j, l2 in enumerate(labels):
        for k in {right_key(l2), *map(right_key, images[j].coeffs)}:
            buckets.setdefault(k, []).append(j)
    return [
        sorted({j for k in {left_key(l1), *map(left_key, images[i].coeffs)}
                for j in buckets.get(k, ())})
        for i, l1 in enumerate(labels)
    ]


def trivial_action(G, A) -> GroupAction:
    return GroupAction(G, A, lambda g, l: A.basis_element(l), name="trivial")


def permutation_variable_action(G, A: PolynomialAlgebra) -> GroupAction:
    """Variable-permuting action of a permutation group on R[x_1..x_n]."""
    if not isinstance(A, PolynomialAlgebra):
        raise ValueError("permuting variables needs a polynomial algebra")
    if G.perms is None:
        raise ValueError("group carries no permutation data")
    if len(G.perms[0]) != A.nvars:
        raise ValueError("permutation degree does not match variable count")

    def on_label(g, label):
        p = G.perms[g]
        out = [0] * A.nvars
        for i, e in enumerate(label):
            out[p[i]] = e
        return A.basis_element(tuple(out))

    return GroupAction(G, A, on_label, name="permute_variables")


def left_translation_action(G, A: FunctionAlgebra) -> GroupAction:
    """alpha_g delta_k = delta_{gk} on the function algebra of G."""
    if not isinstance(A, FunctionAlgebra) or A.G is not G:
        raise ValueError("left translation needs the function algebra of the acting group")
    return GroupAction(
        G, A, lambda g, k: A.basis_element(G.mul(g, k)), name="left_translation"
    )


def group_automorphism_action(G, A: GroupAlgebra, phi) -> GroupAction:
    """Linear extension of a G-action on the group K by automorphisms.

    phi(g, n) is the image of the K-element n under g.
    """
    return GroupAction(G, A, lambda g, n: A.basis_element(phi(g, n)), name="group_automorphism")


def conjugation_action(G, A: GroupAlgebra) -> GroupAction:
    if not isinstance(A, GroupAlgebra) or A.K is not G:
        raise ValueError("conjugation action needs A = R[G]")
    return group_automorphism_action(G, A, lambda g, n: G.conjugate(g, n))


def tensor_product_action(Gprod, project1, project2, act1: GroupAction, act2: GroupAction, A: TensorAlgebra) -> GroupAction:
    def on_label(g, label):
        x = act1.on_label(project1[g], label[0])
        y = act2.on_label(project2[g], label[1])
        return A.pure(x, y)

    return GroupAction(Gprod, A, on_label, name="tensor")


def opposite_action(act: GroupAction, A_op: OppositeAlgebra) -> GroupAction:
    def on_label(g, label):
        return A_op.to_op(act.on_label(g, label))

    return GroupAction(act.G, A_op, on_label, name=f"{act.name}^op")


def restricted_action(K, embed, act: GroupAction) -> GroupAction:
    """Restriction of an action to a subgroup-as-group K with embedding list."""
    return GroupAction(
        K, act.A, lambda k, l: act.on_label(embed[k], l), name=f"{act.name}|K"
    )


def _transpose(index, images):
    """The rows, as maps over the columns j, of the matrix whose column j is
    the j-th of ``images``; ``index`` numbers the labels, one row each."""
    rows = [{} for _ in index]
    for j, x in enumerate(images):
        for l, c in x.coeffs.items():
            rows[index[l]][j] = c
    return rows


def element_inverse(a: AlgebraElement) -> AlgebraElement:
    """Inverse of a unit, by exact linear solve over a finite basis.

    A graded A is solved over its degree-0 labels: if a has degree 0 and
    ab = 1 = ba, then a b_0 = 1 = b_0 a in degree 0, so b = (ba) b_0 = b_0.
    An element with a positive-degree term is refused, though it may be a unit.
    """
    A = a.alg
    if A.graded and any(A.degree(l) for l in a.coeffs):
        raise ValueError("a graded element is inverted only in degree 0")
    labels = A.basis_labels(0)
    index = {l: i for i, l in enumerate(labels)}
    # left-multiplication matrix: column j is a * e_j
    rows = _transpose(index, (a * A.basis_element(l) for l in labels))
    x = linalg.solve(A.field, rows, {index[l]: c for l, c in A.one().coeffs.items()})
    if x is None:
        raise NotAUnitError("element is not a unit")
    inv = A.element({labels[j]: c for j, c in x.items()})
    if a * inv != A.one() or inv * a != A.one():
        raise NotAUnitError("element has no two-sided inverse")
    return inv


def cocycle_perturbed_action(act: GroupAction, chi: dict) -> GroupAction:
    """beta_g a = chi(g) (alpha_g a) chi(g)^{-1} for a family of units chi."""
    A = act.A
    inverses = {g: element_inverse(u) for g, u in chi.items()}

    def on_label(g, label):
        return chi[g] * act.on_label(g, label) * inverses[g]

    return GroupAction(act.G, A, on_label, name=f"{act.name}^chi")


def action_make(spec: str, G, A) -> GroupAction:
    """Build one of the named actions from a text descriptor."""
    s = spec.strip().lower()
    if s == "trivial":
        return trivial_action(G, A)
    if s in ("permute_variables", "permutation"):
        return permutation_variable_action(G, A)
    if s == "left_translation":
        return left_translation_action(G, A)
    if s == "conjugation":
        return conjugation_action(G, A)
    raise ValueError(f"unknown action spec {spec!r}")


# ---------------------------------------------------------------------------
# invariants


def invariants_compute(A: BasedAlgebra, S_elements, action: GroupAction, degree=None):
    """Exact basis of the S-fixed subspace of A (or of its degree-d part).

    S_elements is an iterable of group-element indices; invariance is imposed
    for each of them, so pass generators (or the whole subgroup).
    """
    return InvariantSpace(A, S_elements, action, degree).basis


class InvariantSpace:
    """A^S in one degree (all of A if degree is None): basis and exact coordinates.

    ``index`` maps each label of the degree to its column.  ``coordinates(a)``,
    a a coefficient map, returns the nonzero {i: c} with part_d(a) = sum c
    basis[i], where part_d(a) keeps the terms of a whose labels lie in the
    degree, or None when that part is not S-fixed.  The data decides how:

    - When every s in S_elements permutes the labels of the degree
      (``GroupAction.permutation``), A^S is spanned by the orbit sums of the
      labels, in any characteristic.  ``orbits`` lists each orbit's labels in
      column order, the orbits ordered by their largest column (the basis an
      elimination finds: that column is each orbit's free one); the basis is
      their sums.  One successor map sends each label to the next of its
      orbit, cyclically, and to the orbit's index at that column, else None.
    - Otherwise the invariance conditions alpha_s(a) = a, one block of rows
      per s, are reduced once by a ``linalg.CoordinateSolver`` (``solver``),
      whose kernel basis is ``basis``.
    """

    def __init__(self, A: BasedAlgebra, S_elements, action: GroupAction, degree=None):
        labels = A.basis_labels(degree)  # a graded A refuses degree None
        self.index = {l: j for j, l in enumerate(labels)}
        self.solver = None
        self.orbits = _label_orbits(labels, self.index, S_elements, action)
        if self.orbits is not None:
            one = A.field.one
            self._successor = {l: (m, t if m == orbit[0] else None)  # m wraps after the last
                               for t, orbit in enumerate(self.orbits)
                               for l, m in zip(orbit, orbit[1:] + orbit[:1])}
            self.basis = [A.element_class(A, dict.fromkeys(orbit, one))
                          for orbit in self.orbits]
            return
        rows = []
        for s in S_elements:
            if s != 0:
                rows.extend(_transpose(self.index, (
                    action.on_label(s, l) - A.basis_element(l) for l in labels)))
        self.solver = linalg.CoordinateSolver(A.field, rows, len(labels))
        self.basis = [A.element({labels[j]: x for j, x in v.items()})
                      for v in self.solver.basis]

    def coordinates(self, a: dict):
        if self.solver is not None:
            index = self.index
            return self.solver.coordinates((index[l], x) for l, x in a.items() if l in index)
        # No zeros are stored, so by induction round an orbit's cycle, a is
        # constant on the orbit exactly when each of its labels there is followed
        # by an equal coefficient: the largest column then holds it too.
        successor, out = self._successor, []
        for l, c in a.items():
            step = successor.get(l)
            if step is not None:  # else a label outside the degree
                if a.get(step[0]) != c:
                    return None
                if step[1] is not None:
                    out.append((step[1], c))
        return dict(sorted(out))


def _label_orbits(labels, index, S_elements, action: GroupAction):
    """The orbits of the group generated by S_elements on ``labels``, each in
    column order and ordered by its largest column; None unless every s
    permutes the labels (``GroupAction.permutation``).
    """
    parent = list(range(len(labels)))

    def root(j):
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    for s in S_elements:
        if s == 0:
            continue
        images = action.permutation(s, labels)
        if images is None:
            return None
        for j, k in enumerate(images):
            parent[root(j)] = root(k)
    orbits: dict = {}
    for j, l in enumerate(labels):
        orbits.setdefault(root(j), []).append(l)
    return sorted(orbits.values(), key=lambda orbit: index[orbit[-1]])


class InvariantSubalgebra(BasedAlgebra):
    """A^S as a based algebra; labels are indices into an invariant basis.

    One lazy cache holds an ``InvariantSpace`` per degree, for the finite and
    the graded case alike: a finite A has the single degree None and labels
    0..m-1; a graded A has labels (d, i), each degree's space built on first
    use up to the underlying enumeration cap.
    """

    def __init__(self, A: BasedAlgebra, S_elements, action: GroupAction):
        super().__init__(A.field)
        self.A = A
        self.S_elements = list(S_elements)
        self.action = action
        self.graded = A.graded
        self._spaces = {}

    def space(self, d=None) -> InvariantSpace:
        """The invariant space of degree d (None for a finite A), cached."""
        space = self._spaces.get(d)
        if space is None:
            space = InvariantSpace(self.A, self.S_elements, self.action, d)
            self._spaces[d] = space
        return space

    def labels(self):
        if self.graded:
            raise ValueError("graded invariant subalgebra has no finite basis")
        return list(range(len(self.space().basis)))

    def degree(self, label):
        return label[0] if self.graded else 0

    def enumerate_degree(self, d):
        if not self.graded:
            return super().enumerate_degree(d)
        return [(d, i) for i in range(len(self.space(d).basis))]

    # -- inclusion / expression ---------------------------------------------

    def include_label(self, label) -> AlgebraElement:
        if self.graded:
            d, i = label
            return self.space(d).basis[i]
        return self.space().basis[label]

    def include(self, x: AlgebraElement) -> AlgebraElement:
        return self.A.combination((self.include_label(l), c) for l, c in x.coeffs.items())

    def express(self, a: AlgebraElement):
        """Express an invariant element of A in this basis; None if not invariant.

        Each degree part of a is solved in its own space; a finite A has the
        one part a itself.
        """
        graded = self.graded
        degrees = (None,)
        if graded:  # in order of first appearance
            degrees = dict.fromkeys(self.A.degree(l) for l in a.coeffs)
        out: dict = {}
        for d in degrees:
            coords = self.space(d).coordinates(a.coeffs)
            if coords is None:
                return None
            for i, c in coords.items():
                out[(d, i) if graded else i] = c
        return self.element_class(self, out)

    # -- algebra structure ---------------------------------------------------

    def product_on_basis(self, l1, l2):
        prod = self.include_label(l1) * self.include_label(l2)
        expr = self.express(prod)
        if expr is None:
            raise ArithmeticError("invariant subalgebra is not closed (bug)")
        return dict(expr.coeffs)

    def one_coeffs(self):
        expr = self.express(self.A.one())
        if expr is None:
            raise ArithmeticError("unit is not invariant (bug)")
        return dict(expr.coeffs)

    def label_str(self, label):
        coeffs = self.include_label(label).coeffs
        if len(coeffs) > 1:
            return f"inv<{self.A.label_str(max(coeffs, key=self.A.label_sort_key))}+..>"
        return self.A.label_str(next(iter(coeffs)))

    def induced_action(self, Q, lift) -> GroupAction:
        """Action of a group Q on A^S, where q acts as the G element lift[q].

        Each lift[q] must preserve the invariant subspace; express() failures
        surface as errors.
        """

        def on_label(q, label):
            img = self.action.apply(lift[q], self.include_label(label))
            expr = self.express(img)
            if expr is None:
                raise ArithmeticError("induced action does not preserve invariants")
            return expr

        return GroupAction(Q, self, on_label, name="induced")
