"""Skew Hecke algebras: H-invariant maps G/H -> A under convolution.

Elements are stored in the double-coset normal form: one value per H-orbit of
left cosets, each value fixed by the orbit's stabilizer H \\cap gHg^{-1}.  The
value at any coset is read in one place, ``HeckeElement.at``, by
phi(h xH) = alpha_h phi(xH) with h from the orbit's H-transversal; ``expand``
reads every coset through it.  Which coset pairs (kH, k^{-1}gH) meet at each
target orbit depends on (G, H) alone: the coset space records it once as a
product skeleton, whose entry for an orbit pair lists the (h, m) with values
v, w adding sum alpha_h(v) alpha_m(w) at a target orbit.  One helper,
``_skeleton_sum``, forms that sum from two image caches: ``convolve`` passes
those of one product, each alpha_h(v) formed once per call, and
``structure_constants`` those of a whole pair of basis blocks, each image
formed once per block pair.  An element's module coordinates are one map
{position: c}, solved only on the orbits the element is carried by, at offsets
laid out once per degree.  A linear combination sums each orbit's values with
``A.combination``, the algebra's one linear combination.
"""

from __future__ import annotations

import functools

from .algebras import (
    AlgebraElement,
    BasedAlgebra,
    GroupAction,
    InvariantSpace,
    scalar_algebra,
    trivial_action,
)
from .groups import CosetSpace, FiniteGroup, Subgroup


class StabilizerInvarianceError(ValueError):
    """A purported Hecke value is not fixed by its orbit stabilizer.

    ``witness_h`` is the index of a stabilizer generator that moves the value;
    the message names it as ``witness_name``.
    """

    def __init__(self, orbit, witness_h, witness_name):
        self.orbit = orbit
        self.witness_h = witness_h
        super().__init__(
            f"value at double-coset orbit {orbit} is not fixed by stabilizer "
            f"element {witness_name}"
        )


class HeckeContext:
    """The data (G, H, A, alpha) with its coset space and module basis."""

    def __init__(self, G: FiniteGroup, H: Subgroup, A: BasedAlgebra,
                 action: GroupAction, verify_action=True, degree_cap=None):
        if action.G is not G or action.A is not A:
            raise ValueError("action does not match (G, A)")
        self.G = G
        self.H = H
        self.A = A
        self.action = action
        self.field = A.field
        self.degree_cap = degree_cap
        if verify_action:
            report = action.verify(degree_cap=degree_cap)
            if not report.ok:
                raise ValueError(f"invalid group action:\n{report}")
        self.cosets = CosetSpace(G, H)
        self.orbits = self.cosets.double_cosets
        self._layouts = {}  # degree -> coordinate_layout(degree)

    # -- double-coset module structure ---------------------------------------

    @property
    def graded(self):
        return self.A.graded

    @functools.cached_property
    def matrix_model(self):
        """``isomorphisms.MatrixModel``, A (x) End_R(Ind_H^G R); built on first use."""
        from .isomorphisms import MatrixModel

        return MatrixModel(self)

    def orbit_space(self, oi, degree=None) -> InvariantSpace:
        """The values at orbit oi in one degree: A^{H cap gHg^-1}, g the
        orbit's representative; read from ``coordinate_layout(degree)``."""
        return self.coordinate_layout(degree)[oi][0]

    def coordinate_layout(self, degree=None):
        """(space, offset) for each orbit in one degree: the orbit's fixed
        space and the position of its first vector in module_basis(degree);
        built and laid out once per degree, the context's one cache of fixed
        spaces."""
        layout = self._layouts.get(degree)
        if layout is None:
            layout, offset = [], 0
            for orbit in self.orbits:
                space = InvariantSpace(self.A, orbit.stabilizer.generators(),
                                       self.action, degree)
                layout.append((space, offset))
                offset += len(space.basis)
            self._layouts[degree] = layout
        return layout

    def module_basis(self, degree=None):
        """List of (orbit_index, invariant AlgebraElement) pairs."""
        return [(oi, v) for oi, (space, _) in enumerate(self.coordinate_layout(degree))
                for v in space.basis]

    def basis_hecke_elements(self, degree=None):
        return [
            HeckeElement(self, {oi: v}) for oi, v in self.module_basis(degree)
        ]

    def dimension(self, degree=None) -> int:
        return len(self.module_basis(degree))

    def module_coordinates(self, phi: "HeckeElement", degree=None) -> dict:
        """Coordinates of phi in module_basis(degree) as {position: c}, nonzero,
        positions increasing; only the orbits phi is carried by are solved."""
        coords = {}
        for oi in sorted(phi.values):
            coords.update(self._value_terms(oi, phi.values[oi], degree))
        return coords

    def _value_terms(self, oi, v: AlgebraElement, degree=None):
        """The module coordinates of the element with the single value v at
        orbit oi, as (position, c) pairs."""
        space, offset = self.coordinate_layout(degree)[oi]
        c = space.coordinates(v.coeffs)
        if c is None:
            # raises, naming the stabilizer generator that moves v's part
            self.validate_value(oi, self.A.element(
                {l: x for l, x in v.coeffs.items() if l in space.index}))
            raise ArithmeticError(f"fixed value at orbit {oi} outside its basis (bug)")
        return [(offset + t, x) for t, x in c.items()]

    # -- element constructors -------------------------------------------------

    def validate_value(self, oi, value: AlgebraElement):
        s = self.action.moved_by(value, self.orbits[oi].stabilizer.generators())
        if s is not None:
            raise StabilizerInvarianceError(oi, s, self.G.name(s))

    def from_values(self, values: dict) -> "HeckeElement":
        """Build an element from a map orbit index -> value; checked."""
        vals = {}
        for oi, v in values.items():
            if v.is_zero:
                continue
            self.validate_value(oi, v)
            vals[oi] = v
        return HeckeElement(self, vals)

    def zero(self) -> "HeckeElement":
        return HeckeElement(self, {})

    def combination(self, terms) -> "HeckeElement":
        """sum of c * phi over the pairs (phi, c) of ``terms``: the values at
        each orbit summed by ``A.combination``."""
        by_orbit: dict = {}
        for phi, c in terms:
            for oi, v in phi.values.items():
                by_orbit.setdefault(oi, []).append((v, c))
        A = self.A
        return HeckeElement(self, {oi: A.combination(vc) for oi, vc in by_orbit.items()})

    def identity(self) -> "HeckeElement":
        """The unit: value 1_A at the identity coset H, zero elsewhere."""
        return HeckeElement(self, {0: self.A.one()})

    def embed_invariant(self, a: AlgebraElement) -> "HeckeElement":
        """A^H -> H, a |-> delta_{H,a}; requires a to be H-fixed."""
        s = self.action.moved_by(a, self.H.generators())
        if s is not None:
            raise ValueError(f"element is not H-invariant (moved by {self.G.name(s)})")
        if a.is_zero:
            return self.zero()
        return HeckeElement(self, {0: a})

    def embed_scalar_hecke(self, rho: "HeckeElement") -> "HeckeElement":
        """H_R(G,H) -> H_R(G,H,A,alpha) by composing with R -> A."""
        src = rho.ctx
        if src.G is not self.G or src.H != self.H:
            raise ValueError("classical element lives over a different (G, H)")
        one = self.A.one()
        vals = {}
        for oi, v in rho.values.items():
            c = v.coeffs.get(0, self.field.zero)
            if not self.field.is_zero(c):
                vals[oi] = one.scale(c)
        return HeckeElement(self, vals)

    def random_element(self, rng, degree=None, coeff_range=(-3, 3)) -> "HeckeElement":
        lo, hi = coeff_range
        degrees = [degree] if degree is not None else self.A.degrees(self.degree_cap)
        f = self.field
        return HeckeElement(self, {
            oi: self.A.combination((b, f.from_int(rng.randint(lo, hi)))
                                   for d in degrees for b in self.orbit_space(oi, d).basis)
            for oi in range(len(self.orbits))
        })

    def __repr__(self):
        return (
            f"HeckeContext(|G|={self.G.order}, |H|={self.H.order}, "
            f"cosets={self.cosets.n}, orbits={len(self.orbits)})"
        )


class _Images(dict):
    """g -> alpha_g(x), each image formed on its first lookup."""

    __slots__ = ("apply", "x")

    def __init__(self, apply, x):
        super().__init__()
        self.apply = apply
        self.x = x

    def __missing__(self, g):
        image = self[g] = self.apply(g, self.x)
        return image


def _skeleton_sum(A: BasedAlgebra, total: dict, terms, left: _Images, right: _Images) -> dict:
    """total += sum alpha_h(v) alpha_m(w) over the (h, m) of one skeleton entry
    (v, w the values whose images ``left``, ``right`` hold), in raw values: the
    caller reduces each total once, when it is complete."""
    for h, m in terms:
        A.accumulate(total, left[h].coeffs, right[m].coeffs)
    return total


class HeckeElement:
    __slots__ = ("ctx", "values")

    def __init__(self, ctx: HeckeContext, values: dict):
        self.ctx = ctx
        self.values = {oi: v for oi, v in values.items() if not v.is_zero}

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.values)
        for oi, v in other.values.items():
            s = out.get(oi)
            out[oi] = v if s is None else s + v
        return HeckeElement(self.ctx, out)

    def __neg__(self):
        return HeckeElement(self.ctx, {oi: -v for oi, v in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return HeckeElement(
            self.ctx, {oi: v.scale(c) for oi, v in self.values.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and other.ctx is self.ctx
            and other.values == self.values
        )

    def __hash__(self):
        return hash(frozenset((oi, v) for oi, v in self.values.items()))

    @property
    def is_zero(self):
        return not self.values

    def value(self, oi) -> AlgebraElement:
        return self.values.get(oi, self.ctx.A.zero())

    # -- expansion and convolution --------------------------------------------

    def at(self, g) -> AlgebraElement:
        """phi(gH) = alpha_h phi(xH), xH the representative coset of gH's
        orbit and h the orbit's transversal element at gH."""
        ctx = self.ctx
        ci = ctx.cosets.coset_of[g]
        oi = ctx.cosets.orbit_of_coset[ci]
        v = self.values.get(oi)
        if v is None:
            return ctx.A.zero()
        return ctx.action.apply(ctx.orbits[oi].transversal[ci], v)

    def expand(self):
        """Full assignment coset index -> value, read by ``at``."""
        return {ci: self.at(k) for ci, k in enumerate(self.ctx.cosets.reps)}

    def convolve(self, other: "HeckeElement") -> "HeckeElement":
        """(phi * psi)(gH) = sum over cosets kH of phi(kH) alpha_k psi(k^-1 gH).

        Values v of phi at orbit oi and w of psi at orbit oj add
        sum alpha_h(v) alpha_m(w) at each target orbit that the coset space's
        product skeleton lists for (oi, oj), summed by ``_skeleton_sum``; each
        alpha_h(v) is formed once per call and each alpha_m(w) once per pair
        (oi, oj), and every output value is checked against its orbit
        stabilizer.
        """
        self._check(other)
        ctx = self.ctx
        skeleton = ctx.cosets.product_skeleton()
        apply = ctx.action.apply
        totals: dict = {}
        for oi, v in self.values.items():
            left = _Images(apply, v)
            for oj, w in other.values.items():
                right = _Images(apply, w)
                for o, terms in skeleton.get((oi, oj), ()):
                    _skeleton_sum(ctx.A, totals.setdefault(o, {}), terms, left, right)
        vals = {}
        for o in sorted(totals):
            if ctx.A.field.reduce_into(totals[o]):
                value = ctx.A.element_class(ctx.A, totals[o])
                ctx.validate_value(o, value)
                vals[o] = value
        return HeckeElement(ctx, vals)

    def __mul__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.convolve(other)

    def expectation(self) -> AlgebraElement:
        """The conditional expectation phi |-> phi(H) in A^H."""
        return self.value(0)

    def homogeneous_degree(self):
        """Common degree of all values, or None if inhomogeneous.

        The zero element is homogeneous of every degree; reported as 0.
        """
        if not self.values:
            return 0
        degs = {v.homogeneous_degree() for v in self.values.values()}
        if len(degs) == 1 and None not in degs:
            return degs.pop()
        return None

    def _check(self, other):
        if other.ctx is not self.ctx:
            raise ValueError("elements live in different Hecke contexts")

    def __str__(self):
        ctx = self.ctx
        if not self.values:
            return "0"
        parts = []
        for oi in sorted(self.values):
            rep = ctx.orbits[oi].rep_element
            parts.append(f"{ctx.G.name(rep)}H -> {self.values[oi]}")
        return "; ".join(parts)

    def __repr__(self):
        return f"<Hecke {self}>"


def classical_context(field, G, H) -> HeckeContext:
    """H_R(G,H): the A = R, trivial-action context."""
    A = scalar_algebra(field)
    return HeckeContext(G, H, A, trivial_action(G, A), verify_action=False)


def structure_constants(ctx: HeckeContext):
    """Materialize the product on the double-coset module basis.

    Returns (basis, rows) where basis is the module-basis descriptor list and
    rows are (i, j, k, coeff) with basis_i * basis_j = sum_k c ... basis_k, in
    the order of i, then j, then k.  For graded contexts the basis covers
    degrees 0..ctx.degree_cap and outputs are expressed in the degree-(d_i + d_j)
    basis; a k past the basis is written ("deg", d, t), t the position in
    module_basis(d).  The rows are the blocks of ``structure_constant_blocks``,
    concatenated.
    """
    basis, blocks = structure_constant_blocks(ctx)
    return basis, [row for block in blocks for row in block]


def structure_constant_blocks(ctx: HeckeContext):
    """The table of ``structure_constants`` one left block at a time.

    Returns (basis, blocks): the basis descriptors, built before any product,
    and a generator that yields, for each left block in basis order, the list
    of its rows (i, j, k, coeff) in (i, j, k) order as soon as that block is
    complete.  A block whose products all vanish yields an empty list.  So a
    caller can write the table out block by block and never hold all of it.

    The basis falls into blocks, one per (orbit, degree).  For each pair of a
    left block at orbit oi and a right block at oj with a skeleton entry, each
    alpha_h of the entry is applied to every left basis value once, each
    alpha_m to every right basis value once, and the dim_i x dim_j products
    are summed from those images by ``_skeleton_sum``, as ``convolve`` sums
    one product; the images are dropped after the pair.  Every product value
    is solved, as a raw map, in its orbit space (looked up once per block
    pair; an orbit-sum space reads it in one pass of its successor map).  Only
    a value the orbit stabilizer moves is built as an element, to be refused
    by ``_value_terms`` (``StabilizerInvarianceError``, naming the generator).
    """
    if ctx.graded and ctx.degree_cap is None:
        raise ValueError("graded context needs a degree cap")
    basis = []
    blocks = []  # (index of its first basis vector, orbit, degree, values)
    start_of = {}
    for d in ctx.A.degrees(ctx.degree_cap):
        start_of[d] = len(basis)
        for oi, (space, _) in enumerate(ctx.coordinate_layout(d)):
            if space.basis:
                blocks.append((len(basis), oi, d, space.basis))
                basis.extend((oi, v, d or 0) for v in space.basis)

    def rows_by_block():
        skeleton = ctx.cosets.product_skeleton()
        apply, A, reduce_into = ctx.action.apply, ctx.A, ctx.field.reduce_into
        for start_i, oi, di, left_values in blocks:
            block_rows = [[] for _ in left_values]  # the rows of each i of the block
            for start_j, oj, dj, right_values in blocks:
                entries = skeleton.get((oi, oj))
                if entries is None:
                    continue
                dk = di + dj if ctx.graded else None
                start = start_of.get(dk)
                layout = ctx.coordinate_layout(dk)  # targets: (o, terms, space, first position)
                targets = [(o, terms, layout[o][0], (start or 0) + layout[o][1])
                           for o, terms in entries]
                left = [_Images(apply, v) for v in left_values]
                right = [_Images(apply, w) for w in right_values]
                for i, (images_v, out) in enumerate(zip(left, block_rows), start_i):
                    for j, images_w in enumerate(right, start_j):
                        for o, terms, space, base in targets:
                            total = reduce_into(_skeleton_sum(A, {}, terms, images_v, images_w))
                            if not total:
                                continue
                            coords = space.coordinates(total)
                            if coords is None:  # raises, naming the generator
                                ctx._value_terms(o, A.element_class(A, total), dk)
                            out.extend((i, j, ("deg", dk, base + t) if start is None else base + t, c)
                                       for t, c in coords.items())
            yield [row for out in block_rows for row in out]

    return basis, rows_by_block()


def hecke_as_based_algebra(ctx: HeckeContext):
    """Materialize a finite Hecke context as a StructureConstantAlgebra.

    Returns (B, to_hecke, from_hecke) where to_hecke maps B elements to
    HeckeElements and from_hecke inverts it on the nose.
    """
    from .algebras import StructureConstantAlgebra

    if ctx.graded:
        raise ValueError("a graded context has no finite table: its products pass the degree cap")
    basis, rows = structure_constants(ctx)
    products: dict = {}
    for i, j, k, c in rows:
        products.setdefault((i, j), {})[k] = c
    one = ctx.module_coordinates(ctx.identity())
    names = []
    for oi, v, _ in basis:
        rep = ctx.orbits[oi].rep_element
        names.append(f"[{ctx.G.name(rep)}H:{v}]")
    B = StructureConstantAlgebra(ctx.field, len(basis), products, one, names=names)
    elements = [HeckeElement(ctx, {oi: v}) for oi, v, _ in basis]

    def to_hecke(x):
        return ctx.combination((elements[i], c) for i, c in x.coeffs.items())

    def from_hecke(phi):
        return B.element(ctx.module_coordinates(phi))

    return B, to_hecke, from_hecke
