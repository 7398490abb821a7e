"""Finite regular cell complexes as graded posets with incidence signs.

A complex stores its cells (id -> dimension) and the codimension-1
incidence numbers; the full face order is the transitive closure of the
incidence pairs.  Product cells are identified by (id_a, id_b) tuples.
Each cell id is stored once and each codim-1 pair once, as one
(face, coface) tuple of the cell ids themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class CellComplexError(ValueError):
    pass


class CellComplex:
    """Graded poset of cells with +-1 incidence numbers (immutable).

    Every codim-1 pair is held once, as one (face, coface) tuple that is
    both its key in the sign table and its entry in face_pairs(), the key
    of a restriction of every sheaf built on base.face_pairs().  Both
    members of the tuple are the complex's own cell id objects, so a pair
    adds no copy of an id: the constructor maps every id it is given onto
    the equal key of cells."""

    def __init__(self, cells, incidence):
        """cells: id -> dim; incidence: (coface_id, face_id) -> +-1."""
        cells = dict(cells)
        own = {c: c for c in cells}
        pairs = {}  # (face, coface) -> sign, in the order of incidence
        for (tau, sigma), sign in incidence.items():
            if tau not in own or sigma not in own:
                raise CellComplexError("incidence pair (%r, %r) mentions unknown cell" % (tau, sigma))
            if sign not in (1, -1):
                raise CellComplexError("incidence sign must be +-1 at (%r, %r)" % (tau, sigma))
            pairs[(own[sigma], own[tau])] = sign
        self._store(cells, pairs, None)

    def _store(self, cells, pairs, product_of):
        """Keep cells (id -> dim) and pairs ((face, coface) -> +-1, both
        members keys of cells) as they are."""
        self._cells = cells
        self._incidence = pairs
        self.product_of = product_of  # (A, B) when built by product()
        cofaces = {c: [] for c in cells}
        for s, t in pairs:
            cofaces[s].append(t)
        self._cofaces = {c: tuple(cf) for c, cf in cofaces.items()}
        self._faces = None
        self._below = None
        self._face_pairs = None
        self._order = None
        self._coboundary = None

    # -- basic queries ------------------------------------------------------

    def cell_ids(self):
        return list(self._cells)

    def __contains__(self, cid):
        return cid in self._cells

    def __len__(self):
        return len(self._cells)

    def dim(self, cid) -> int:
        return self._cells[cid]

    def cells_of_dim(self, d):
        return [c for c, cd in self._cells.items() if cd == d]

    def faces(self, cid):
        """Codimension-1 faces, in the order of incidence_pairs."""
        return self._face_table()[cid]

    def cofaces(self, cid):
        """Codimension-1 cofaces, in the order of incidence_pairs."""
        return self._cofaces[cid]

    def incidence(self, tau, sigma) -> int:
        """Sign of the codim-1 pair (tau, sigma); 0 if not incident."""
        return self._incidence.get((sigma, tau), 0)

    def incidence_pairs(self):
        """A new dict (coface, face) -> sign, in the order the pairs came."""
        return {(t, s): sign for (s, t), sign in self._incidence.items()}

    def face_pairs(self):
        """The (face, coface) tuple of every codim-1 pair, in the order of
        incidence_pairs, built once: the tuples are the keys of the sign
        table themselves, and a sheaf on this complex keys its
        restrictions by them, so the sheaves on one base share them."""
        if self._face_pairs is None:
            self._face_pairs = tuple(self._incidence)
        return self._face_pairs

    def _face_table(self):
        """Per cell, its faces in the order of incidence_pairs, built once."""
        if self._faces is None:
            faces = {c: [] for c in self._cells}
            for s, t in self._incidence:
                faces[t].append(s)
            self._faces = {c: tuple(fs) for c, fs in faces.items()}
        return self._faces

    def cell_order(self):
        """Position of every cell in the (dim, str) order, built once: the
        order in which sections stacks its cells, validate reports and the
        CLI prints.  Cells of one dim and one str keep the order of
        cell_ids."""
        if self._order is None:
            cells = self._cells
            ranked = sorted(cells, key=lambda c: (cells[c], str(c)))
            self._order = {c: k for k, c in enumerate(ranked)}
        return self._order

    def coboundary(self):
        """Per cell c, its cofaces in the order of incidence_pairs, built
        once: a tuple of (coface, the face_pairs tuple (c, coface), the
        incidence sign)."""
        if self._coboundary is None:
            cob = {c: [] for c in self._cells}
            for pair, sign in zip(self.face_pairs(), self._incidence.values()):
                cob[pair[0]].append((pair[1], pair, sign))
            self._coboundary = {c: tuple(entries) for c, entries in cob.items()}
        return self._coboundary

    def _closure(self):
        if self._below is None:
            below = {c: set() for c in self._cells}
            faces = self._face_table()
            for c in sorted(self._cells, key=self._cells.get):
                for f in faces[c]:
                    below[c].add(f)
                    below[c] |= below[f]
            self._below = below
        return self._below

    def lt(self, a, b) -> bool:
        """Strict face relation a < b."""
        return a in self._closure()[b]

    def leq(self, a, b) -> bool:
        return a == b or self.lt(a, b)

    def star(self, cid):
        """Open star: all cofaces of cid, including cid (an up-set)."""
        out = {cid}
        frontier = [cid]
        while frontier:
            nxt = []
            for c in frontier:
                for cf in self._cofaces[c]:
                    if cf not in out:
                        out.add(cf)
                        nxt.append(cf)
            frontier = nxt
        return out

    def is_upset(self, cells) -> bool:
        cells = set(cells)
        return all(cf in cells for c in cells for cf in self._cofaces[c])

    def up_closure(self, cells):
        out = set()
        for c in cells:
            out |= self.star(c)
        return out

    def down_closure(self, cells):
        """The closed subcomplex generated by cells: each with all its faces."""
        below = self._closure()
        out = set()
        for c in cells:
            out.add(c)
            out |= below[c]
        return out

    def same_as(self, other) -> bool:
        """Structural equality of cells and incidence data."""
        return self._cells == other._cells and self._incidence == other._incidence

    def __repr__(self):
        counts = {}
        for d in self._cells.values():
            counts[d] = counts.get(d, 0) + 1
        return "CellComplex(%s)" % (", ".join("%d cells of dim %d" % (n, d)
                                              for d, n in sorted(counts.items())) or "empty")

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Report of every grading / d^2 violation (empty report = valid)."""
        problems = []
        for (sigma, tau) in self._incidence:
            if self._cells[tau] - self._cells[sigma] != 1:
                problems.append("incidence pair (%r, %r) is not codimension 1" % (tau, sigma))
        # d^2 = 0 over every codim-2 interval
        faces = self._face_table()
        for tau in self._cells:
            acc = {}
            for sigma in faces[tau]:
                s1 = self._incidence[(sigma, tau)]
                for rho in faces[sigma]:
                    acc[rho] = acc.get(rho, 0) + s1 * self._incidence[(rho, sigma)]
            for rho, total in acc.items():
                if total != 0:
                    problems.append("d^2 != 0 on interval (%r, %r): sum %d" % (rho, tau, total))
        return problems


POINT = CellComplex({"pt": 0}, {})


def cell_sort_key(base):
    """Sort key of the cells of base: their position in base.cell_order()."""
    return base.cell_order().__getitem__


def from_simplicial(simplices) -> CellComplex:
    """Complex generated by a list of simplices (sorted vertex lists).

    All faces are materialized; the incidence sign for deleting the i-th
    vertex is (-1)^i.  Cell ids are dot-joined vertex strings.
    """
    seen = set()
    for s in simplices:
        key = tuple(s)
        if list(key) != sorted(set(key)):
            raise CellComplexError("vertex list %r is not strictly sorted" % (s,))
        if key in seen:
            raise CellComplexError("duplicate simplex %r" % (s,))
        seen.add(key)
    all_simplices = set()
    stack = [tuple(s) for s in simplices]
    while stack:
        s = stack.pop()
        if s in all_simplices or not s:
            continue
        all_simplices.add(s)
        for i in range(len(s)):
            stack.append(s[:i] + s[i + 1:])
    ids = {s: simplex_id(s) for s in all_simplices}
    cells = {ids[s]: len(s) - 1 for s in all_simplices}
    incidence = {}
    for s in all_simplices:
        if len(s) == 1:
            continue
        for i in range(len(s)):
            incidence[(ids[s], ids[s[:i] + s[i + 1:]])] = (-1) ** i
    return CellComplex(cells, incidence)


def simplex_id(vertices):
    return ".".join(str(v) for v in vertices)


def simplex_vertices(cid):
    return cid.split(".")


# ---------------------------------------------------------------------------
# cellular maps

class CellularMapError(ValueError):
    pass


@dataclass
class CellularMap:
    """Order-preserving, dimension-nonincreasing map of cell complexes.

    orientation_sign is defined exactly on the cells whose dimension is
    preserved.
    """
    source: CellComplex
    target: CellComplex
    assignment: dict
    orientation_sign: dict = field(default_factory=dict)

    def __post_init__(self):
        src, tgt = self.source, self.target
        for c in src.cell_ids():
            if c not in self.assignment:
                raise CellularMapError("cell %r has no image" % (c,))
            img = self.assignment[c]
            if img not in tgt:
                raise CellularMapError("image %r of %r is not a target cell" % (img, c))
            if tgt.dim(img) > src.dim(c):
                raise CellularMapError("map raises dimension on cell %r" % (c,))
        for sigma, tau in src.face_pairs():
            if not tgt.leq(self.assignment[sigma], self.assignment[tau]):
                raise CellularMapError("map is not order-preserving on %r < %r" % (sigma, tau))
        preserved = {c for c in src.cell_ids() if src.dim(c) == tgt.dim(self.assignment[c])}
        if set(self.orientation_sign) != preserved:
            raise CellularMapError("orientation_sign must be defined exactly on "
                                   "dimension-preserving cells")
        for c, s in self.orientation_sign.items():
            if s not in (1, -1):
                raise CellularMapError("orientation sign must be +-1 on %r" % (c,))

    def __call__(self, cid):
        return self.assignment[cid]

    def sign(self, cid) -> int:
        return self.orientation_sign[cid]

    def is_endomorphism(self) -> bool:
        return self.source.same_as(self.target)

    def fixed_cells(self):
        return [c for c, img in self.assignment.items() if img == c]


def identity_map(x: CellComplex) -> CellularMap:
    return CellularMap(x, x, {c: c for c in x.cell_ids()},
                       {c: 1 for c in x.cell_ids()})


def collapse_to_point(x: CellComplex) -> CellularMap:
    return CellularMap(x, POINT, {c: "pt" for c in x.cell_ids()},
                       {c: 1 for c in x.cells_of_dim(0)})


def _perm_sign(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def simplicial_map(source: CellComplex, target: CellComplex, vertex_map) -> CellularMap:
    """Cellular map induced by a map of vertices.

    vertex_map keys/values are vertex names (as they appear in cell ids);
    every cell id of source must be a string of them.
    The image of every simplex must be a simplex of the target;
    orientation signs are permutation parities on nondegenerate cells.
    """
    vm = {str(k): str(v) for k, v in vertex_map.items()}
    assignment = {}
    signs = {}
    for c in source.cell_ids():
        if not isinstance(c, str):
            raise CellularMapError("cell %r is not a simplex of vertex names" % (c,))
        verts = simplex_vertices(c)
        try:
            imgs = [vm[v] for v in verts]
        except KeyError as e:
            raise CellularMapError("vertex %s has no image" % e)
        img_sorted = sorted(set(imgs), key=_vertex_key)
        img_id = ".".join(img_sorted)
        if img_id not in target:
            raise CellularMapError("image %r of simplex %r is not a target simplex"
                                   % (img_id, c))
        assignment[c] = img_id
        if len(img_sorted) == len(verts):
            order = [img_sorted.index(v) for v in imgs]
            signs[c] = _perm_sign(order)
    return CellularMap(source, target, assignment, signs)


def _vertex_key(v):
    try:
        return (0, int(v))
    except ValueError:
        return (1, v)


# ---------------------------------------------------------------------------
# products

def product(a: CellComplex, b: CellComplex):
    """Product complex with Leibniz incidence signs and its two projections.

    Cells are (id_a, id_b); [(s,t):(s',t)] = [s:s'] and
    [(s,t):(s,t')] = (-1)^{dim s} [t:t'].
    """
    p = _product_complex(a, b)
    return (p, *projections(p))


def _product_complex(a: CellComplex, b: CellComplex) -> CellComplex:
    """The complex of product(a, b), without its projections.  Its pairs
    are stored as built, from its (ca, cb) cell keys and the factors'
    stored pairs: valid factors need no check."""
    cell = {ca: {cb: (ca, cb) for cb in b._cells} for ca in a._cells}
    cells = {x: a._cells[x[0]] + b._cells[x[1]] for row in cell.values() for x in row.values()}
    pairs = {}
    for (sigma, tau), sign in a._incidence.items():
        for cb in b._cells:
            pairs[(cell[sigma][cb], cell[tau][cb])] = sign
    for (sigma, tau), sign in b._incidence.items():
        for ca, row in cell.items():
            pairs[(row[sigma], row[tau])] = sign if a._cells[ca] % 2 == 0 else -sign
    p = CellComplex.__new__(CellComplex)
    p._store(cells, pairs, (a, b))
    return p


def projections(p: CellComplex):
    """The two projections of a registered product complex."""
    ids = p.cell_ids()
    return tuple(CellularMap(p, factor, {c: c[k] for c in ids},
                             {c: 1 for c in ids if factor.dim(c[k]) == p.dim(c)})
                 for k, factor in enumerate(factors_of(p)))


def product_map(f: CellularMap, g: CellularMap,
                source: CellComplex = None, target: CellComplex = None) -> CellularMap:
    """f x g between product complexes (built if not supplied)."""
    if source is None:
        source = _product_complex(f.source, g.source)
    if target is None:
        target = _product_complex(f.target, g.target)
    assignment = {}
    signs = {}
    for (ca, cb) in source.cell_ids():
        img = (f(ca), g(cb))
        assignment[(ca, cb)] = img
        if target.dim(img) == source.dim((ca, cb)):
            signs[(ca, cb)] = f.sign(ca) * g.sign(cb)
    return CellularMap(source, target, assignment, signs)


def factors_of(x: CellComplex):
    if x.product_of is None:
        raise CellComplexError("complex is not a registered product")
    return x.product_of
