"""Finite simplicial and flag complexes with exact reduced homology.

The empty simplex is a first-class face of every complex and reduced
homology is the default convention throughout: the profile of a complex
starts in degree -1, and the empty complex has reduced Betti number 1
there.  A global vertex order is fixed at construction and every face,
boundary sign, and matrix layout derives from it, so all outputs are
deterministic.

A face is stored as its vertex mask, bit i standing for the i-th vertex,
and the faces of each dimension are kept in the lexicographic order of
their index tuples (`lex_order`).  Labels appear only where faces are
read or written: the views ``faces`` and ``faces_of_dim``, ``sort_face``,
``link``'s argument, JSON, chains and the witnesses of the finiteness
checks.  A boundary is read off a mask: dropping bit i of a face f gives
the facet f ^ (1 << i), with sign (-1) to the number of bits of f below i.

Flag complexes are built by one clique walk over vertex masks: it pops
the lowest vertex of a candidate mask and extends by the candidates
adjacent to it, so it lists the cliques inside a mask per dimension,
already in the order faces are kept in.  Clique completion, full
subcomplexes and links of a flag complex, barycentric subdivisions and
the flag test itself run this walk.  A complex given by its faces reads
each listed face once: its mask is the sum of its vertex bits, and it is
ORed into the neighbour mask of each of its vertices, so the 1-skeleton
comes straight from the facets.  The faces are closed downward only to
triangles, and the walk runs once, limited to the face count, with the
edges counted from the neighbour masks: every face is a clique, so when
the walk stays within the limit the complex is flag, the walk's lists
are its faces in order, and the flag verdict is taken there.  Only a
face list that is not flag turns its neighbour masks into edges and is
sorted (`lex_order`).  Full subcomplexes of a complex that is not flag
keep the parent's faces inside the mask.

Each complex carries one memo, keyed by vertex masks over its own vertex
order: full subcomplexes by mask, the reduced Betti profile per field,
and the Smith form per boundary degree.  A complex never changes after
construction, so nothing in the memo goes stale, and it is freed with
the complex.  For a flag complex the link of a face s is the full
subcomplex on the common neighbours CN(s) of its vertices, so links are
memo lookups by mask, and each face's CN mask is listed once
(``cn_masks``).  The living links of an Artin kernel are the full
subcomplexes on CN(s) intersected with the living vertices, and
``is_n_acyclic_on`` tests them by mask: degrees -1 and 0 come from the
mask itself (nonempty, connected), higher degrees from the mask's core
(``reduced_betti_on``).  In the same way ``link_core`` reads the homology
of a vertex link from the subcomplex on the core of CN(v), found in the
parent's masks before anything is built.

Homology is read from a core.  In a flag complex a vertex u of a mask U
is dominated when another v in U is adjacent to every vertex of U that u
is adjacent to; removing u is then a strong collapse, which keeps the
homotopy type and so the homology over every ring.  ``core(mask)``
removes dominated vertices until none is left, and the full subcomplex
on the core has one integral Smith form per boundary degree.  Those of
d_0 and d_1 are all 1s, counted from the vertices and the components of
the 1-skeleton.  A degree k >= 2 in which each (k-1)-face lies in at
most two k-faces, such as the top degree of a pseudomanifold, is read
from the signed graph those k-faces form across their shared (k-1)-faces
(`_dual_graph_form`): rank and divisors 1 or 2 per component.  Only the
other degrees are eliminated, once each.  Every ring's homology is read
from those forms (the universal coefficient theorem): rank d_k over Q is
the number of elementary divisors and over F_p the number prime to p,
which gives ``reduced_betti`` over every field, padded with zeros to the
complex's own degrees, and the torsion of ``integral_homology``.
Callers that look up ``subcomplex(core(mask))`` share one Smith form per
degree among all masks with one core.  A core with no triangle is a
graph, whose homology over every ring is free and fixed by its numbers
of vertices, edges and components, so ``reduced_betti_on`` reads such a
core from those counts and builds no subcomplex for it.

A d_2 that is eliminated goes without the rows of the edges of a
spanning forest of the 1-skeleton ("clearing"), which keeps its
elementary divisors: the forest's fundamental cycles are a Z-basis of
ker d_1, a direct summand of C_1, so dropping the forest coordinates
maps ker d_1, which holds im d_2, isomorphically onto the coordinates
left.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .exact import FieldSpec, IntMatrix, Record, Scalar, SmithForm, smith_normal_form

Label = Hashable
Face = tuple
_LABEL_TYPES = {str, int}  # of a vertex label read from a file; bool is not int here


class SimplicialComplex:
    """A finite simplicial complex on an ordered vertex list.

    Faces, downward closed and the empty face included, are stored as
    vertex masks, bit i standing for ``vertices[i]``, per dimension in the
    lexicographic order of their index tuples (`lex_order`).  ``faces``
    and ``faces_of_dim`` give them as tuples of labels in vertex order.
    The constructor closes its face list downward, so the facets are
    enough.
    """

    __slots__ = ("vertices", "_index", "_by_dim", "_hash", "_memo")

    def __init__(self, vertices: Sequence[Label], faces: Iterable[Iterable[Label]] = ()) -> None:
        self.vertices: tuple = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self._index = index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        bit = {v: 1 << i for v, i in index.items()}
        adjacency = [0] * n
        by_size: dict[int, set[int]] = {}  # the faces of 3 vertices and more
        for face in faces:
            face = tuple(face)
            try:
                m = sum(map(bit.__getitem__, face))
            except KeyError:
                m = 0
            if m.bit_count() != len(face):  # an unknown label, or a repeated one, which carries
                self._face_mask(face)  # raises the ValueError that names the label or the face
            if len(face) > 2:
                by_size.setdefault(len(face), set()).add(m)
            for i in map(index.__getitem__, face):
                adjacency[i] |= m
        adjacency = [a & ~(1 << i) for i, a in enumerate(adjacency)]  # the 1-skeleton of the faces
        for size in range(max(by_size, default=0), 3, -1):  # closed downward to the triangles
            below = by_size.setdefault(size - 1, set())
            for m in by_size[size]:
                below.update(m ^ b for b in mask_bits(m))
        n_edges = sum(a.bit_count() for a in adjacency) // 2
        count = 1 + n + n_edges + sum(map(len, by_size.values()))
        # every face is a clique, so the walk lists the faces, in order, unless it finds more cliques
        walk = _clique_walk(adjacency, (1 << n) - 1, limit=count)
        if walk is None:
            key = lex_order(n)
            # each edge from its lower end i, whose neighbours above i are a & -(2 << i), in order
            edge_list = [1 << i | b for i, a in enumerate(adjacency) for b in mask_bits(a & -(2 << i))]
            by_dim = {-1: [0], 0: [1 << i for i in range(n)], 1: edge_list}
            by_dim.update((size - 1, sorted(by_size[size], key=key)) for size in sorted(by_size))
            self._by_dim = {k: fs for k, fs in by_dim.items() if fs}
        else:
            self._by_dim = walk
        self._hash: Optional[int] = None
        # int mask -> full subcomplex, FieldSpec -> HomologyProfile,
        # ("smith", k) -> SmithForm of d_k, "faces" -> the label view,
        # "face set", "cn", "adjacency" -> neighbour masks (read off the
        # listed faces here), "flag", "core" -> core mask
        self._memo: dict = {"flag": walk is not None, "adjacency": adjacency}

    @classmethod
    def _of_masks(cls, vertices: Sequence[Label], by_dim: dict[int, list[int]], **memo) -> "SimplicialComplex":
        """The complex whose face masks per dimension are listed in order, taken as they are."""
        K = cls.__new__(cls)
        K.vertices = tuple(vertices)
        K._index = {v: i for i, v in enumerate(K.vertices)}
        K._by_dim = by_dim
        K._hash = None
        K._memo = memo
        return K

    # -- basic queries -------------------------------------------------------

    def index(self, v: Label) -> int:
        return self._index[v]

    def _face_mask(self, verts: Iterable[Label]) -> int:
        """The mask of a face given by labels; an unknown or repeated vertex raises ValueError."""
        vs = tuple(verts)
        m = 0
        for v in vs:
            i = self._index.get(v)
            if i is None:
                raise ValueError(f"unknown vertex {v!r}")
            m |= 1 << i
        if m.bit_count() != len(vs):
            raise ValueError(f"repeated vertex in face {vs!r}")
        return m

    def _face_of(self, verts: Iterable[Label]) -> int:
        """The mask of a face given by labels; ValueError when it is no face of this complex."""
        s = self._face_mask(verts)
        if not self._is_face(s):
            raise ValueError(f"{self.labels(s)!r} is not a face")
        return s

    def labels(self, m: int) -> Face:
        """The labels of a mask's vertices, in vertex order."""
        return tuple(self.vertices[bit.bit_length() - 1] for bit in mask_bits(m))

    def _is_face(self, m: int) -> bool:
        face_set = self._memo.get("face set")
        if face_set is None:
            face_set = self._memo["face set"] = frozenset(chain.from_iterable(self._by_dim.values()))
        return m in face_set

    def sort_face(self, verts: Iterable[Label]) -> Face:
        return self.labels(self._face_mask(verts))

    @property
    def faces(self) -> frozenset[Face]:
        """Every face as a tuple of labels in vertex order, built on first use."""
        view = self._memo.get("faces")
        if view is None:
            view = self._memo["faces"] = frozenset(map(self.labels, chain.from_iterable(self._by_dim.values())))
        return view

    @property
    def dim(self) -> int:
        return max(self._by_dim)

    def faces_of_dim(self, k: int) -> list[Face]:
        return [self.labels(m) for m in self._by_dim.get(k, ())]

    def masks_of_dim(self, k: int) -> Sequence[int]:
        """The k-faces as masks, in order; the complex's own list, which callers leave as it is."""
        return self._by_dim.get(k, ())

    def n_faces(self, k: int) -> int:
        return len(self._by_dim.get(k, ()))

    def has_face(self, verts: Iterable[Label]) -> bool:
        try:
            return self._is_face(self._face_mask(verts))
        except ValueError:
            return False

    def adjacent(self, u: Label, v: Label) -> bool:
        return u != v and self._is_face(self._face_mask((u, v)))

    def edges(self) -> list[Face]:
        return self.faces_of_dim(1)

    def mask(self, verts: Iterable[Label]) -> int:
        """The bitmask of a set of vertices of this complex."""
        m = 0
        for v in verts:
            m |= 1 << self._index[v]
        return m

    def _adjacency(self) -> list[int]:
        """Per vertex index, the mask of its neighbours."""
        adjacency = self._memo.get("adjacency")
        if adjacency is None:
            adjacency = self._memo["adjacency"] = _adjacency_of(self._by_dim.get(1, ()), len(self.vertices))
        return adjacency

    def common_neighbours(self, verts: Iterable[Label]) -> int:
        """Mask of the vertices adjacent to all of verts (every vertex for none)."""
        adjacency = self._adjacency()
        m = (1 << len(self.vertices)) - 1
        for v in verts:
            m &= adjacency[self._index[v]]
        return m

    def cn_masks(self) -> dict[int, int]:
        """Each face's mask mapped to the mask of its common neighbours, faces in order; built once.

        A face's CN mask is that of the face without its last vertex, cut
        down to that vertex's neighbours.
        """
        cn = self._memo.get("cn")
        if cn is None:
            adjacency = self._adjacency()
            cn = self._memo["cn"] = {0: (1 << len(self.vertices)) - 1}
            for k in range(self.dim + 1):
                for f in self._by_dim[k]:
                    last = f.bit_length() - 1
                    cn[f] = cn[f ^ 1 << last] & adjacency[last]
        return cn

    def core(self, mask: int) -> int:
        """The mask left after removing dominated vertices from a mask U.

        In a flag complex, u in U is dominated by another v in U when
        N[u] & U lies inside N[v], with N[.] the closed neighbourhood.  The
        link of u in the full subcomplex on U is then a cone on v, so
        removing u is a strong collapse and keeps the homotopy type
        (Barmak-Minian).  Vertices are removed in index order until none is
        dominated.  A complex that is not flag keeps every vertex: its
        links need not be the full subcomplexes that make this test work.
        """
        return _core(self._adjacency(), mask) if self.is_flag() else mask

    def euler_characteristic_reduced(self) -> int:
        """Alternating face count with the empty face contributing -1."""
        return sum(len(fs) if k % 2 == 0 else -len(fs) for k, fs in self._by_dim.items())

    # -- derived complexes -----------------------------------------------------

    def full_subcomplex(self, verts: Iterable[Label]) -> "SimplicialComplex":
        keep = set(verts)
        return self.subcomplex(self.mask(v for v in self.vertices if v in keep))

    def subcomplex(self, mask: int) -> "SimplicialComplex":
        """The full subcomplex on the vertices in a mask, built once per mask.

        In a flag complex it is the clique complex on the mask, listed by
        the clique walk over the neighbour masks cut down to the mask; any
        other complex keeps its faces inside the mask.
        """
        if mask == (1 << len(self.vertices)) - 1:
            return self
        sub = self._memo.get(mask)
        if sub is None:
            bits = mask_bits(mask)
            sub_vertices = [self.vertices[bit.bit_length() - 1] for bit in bits]
            if self.is_flag():
                adjacency = self._adjacency()
                sub_adjacency = _squeeze([adjacency[bit.bit_length() - 1] & mask for bit in bits], mask)
                walk = _clique_walk(sub_adjacency, (1 << len(bits)) - 1)
                sub = SimplicialComplex._of_masks(sub_vertices, walk, flag=True, adjacency=sub_adjacency)
            else:
                sub = SimplicialComplex._of_masks(sub_vertices, _restrict(self._by_dim, mask))
            self._memo[mask] = sub
        return sub

    def link(self, simplex: Iterable[Label]) -> "SimplicialComplex":
        """The link {t : t disjoint from s, t union s a face} of a face s."""
        s = self._face_of(simplex)
        if not s:
            return self
        if self.is_flag():
            return self.subcomplex(self.cn_masks()[s])
        lk = {k: [f for f in fs if not f & s and self._is_face(f | s)] for k, fs in self._by_dim.items()}
        keep = sum(lk[0])
        return SimplicialComplex._of_masks(self.labels(keep), _restrict(lk, keep))

    def is_flag(self) -> bool:
        """True when every pairwise-adjacent vertex set spans a face.

        Every face is a clique of the 1-skeleton, so the complex is flag
        exactly when the clique walk over all vertices finds no more
        cliques than there are faces; it stops at the first one beyond.
        The constructor and the clique walks of flag complexes take the
        verdict as they build; only a subcomplex or link of a complex that
        is not flag runs the walk here.
        """
        flag = self._memo.get("flag")
        if flag is None:
            full = (1 << len(self.vertices)) - 1
            count = sum(map(len, self._by_dim.values()))
            flag = self._memo["flag"] = _clique_walk(self._adjacency(), full, limit=count) is not None
        return flag

    # -- equality / hashing ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self._by_dim == other._by_dim

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vertices, tuple(tuple(fs) for _, fs in sorted(self._by_dim.items()))))
        return self._hash

    def __repr__(self) -> str:
        counts = [self.n_faces(k) for k in range(self.dim + 1)] if self.dim >= 0 else []
        return f"SimplicialComplex(vertices={len(self.vertices)}, f_vector={counts})"

    # -- serialisation ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "faces": [list(self.labels(f)) for k in sorted(self._by_dim) if k >= 0 for f in self._by_dim[k]],
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> "SimplicialComplex":
        """A flag complex from ``edges`` or a complex from ``faces``, never both.

        The only keys read are ``vertices``, ``edges`` and ``faces``, each a
        list, with every edge and face a nonempty list of vertex labels.  A
        vertex label is a string or an integer, booleans excluded.  Any other
        key, type or label, and two vertex labels with one string form (``1``
        and ``"1"``), raise ValueError, since reports key vertices by ``str``.
        """
        keys = ("vertices", "edges", "faces")
        obj = json_object(obj, keys, "an object with only 'vertices', 'edges' and 'faces'")
        if "edges" in obj and "faces" in obj:
            raise ValueError("give either 'edges' or 'faces', not both")
        vertices = obj.get("vertices")
        if not isinstance(vertices, list):
            raise ValueError("'vertices' must be a list")
        if not set(map(type, vertices)) <= _LABEL_TYPES:
            raise ValueError("vertex labels must be strings or integers")
        if len(set(map(str, vertices))) != len(vertices):
            raise ValueError("vertex labels must be distinct as strings")
        key = "edges" if "edges" in obj else "faces"
        cells = obj.get(key, [])
        if not isinstance(cells, list):
            raise ValueError(f"'{key}' must be a list")
        # set operations over the whole list cost less than a loop per entry; a
        # label that is no vertex is left to the constructors, which name it
        labels = chain.from_iterable(cells) if set(map(type, cells)) <= {list} else [None]
        if not (all(cells) and set(map(type, labels)) <= _LABEL_TYPES):
            cell = next(c for c in cells if type(c) is not list or not c or not set(map(type, c)) <= _LABEL_TYPES)
            raise ValueError(f"'{key}' entry {cell!r} is not a nonempty list of strings or integers")
        if key == "edges":
            return flag_completion(vertices, cells)
        return cls(vertices, cells)


# -- JSON input -----------------------------------------------------------------
# The readers of complex, character and quotient files share these rules.


def json_int(value: object, where: str) -> int:
    """A JSON integer, booleans excluded; anything else raises ValueError naming ``where``."""
    if type(value) is not int:
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def json_object(value: object, keys: tuple[str, ...], what: str) -> dict:
    """An object with no key outside ``keys``, since a misspelt key would read as absent.

    Anything else raises ValueError saying it expected ``what``.
    """
    if not isinstance(value, dict):
        raise ValueError(f"expected {what}")
    unknown = sorted(map(str, set(value) - set(keys)))
    if unknown:
        raise ValueError(f"unknown keys {unknown}: expected {what}")
    return value


def json_vertex_map(
    K: SimplicialComplex, value: object, name: str, item: str, read: Callable[[object, str], object]
) -> dict:
    """The object ``name``, keyed by the string forms of K's vertex labels, as a dict keyed by vertex.

    Each value is ``read(value, f"{item} of {label!r}")``; an unknown label
    or a value that is not an object raises ValueError.
    """
    if not isinstance(value, dict):
        raise ValueError(f"'{name}' must be an object keyed by vertex")
    lookup = {str(v): v for v in K.vertices}
    out = {}
    for label, x in value.items():
        if label not in lookup:
            raise ValueError(f"{name}: unknown vertex {label!r}")
        out[lookup[label]] = read(x, f"{item} of {label!r}")
    return out


def lex_order(n: int) -> Callable[[int], str]:
    """The sort key that puts masks of one size over n vertices in the order of their index tuples.

    Two such masks first differ at the lowest bit of their xor, and the one
    holding it comes first: that is ascending order of the complemented
    n-digit binary form read from bit 0 on.
    """
    full, digits = (1 << n) - 1, f"0{n}b"
    return lambda m: format(m ^ full, digits)[::-1]


def mask_bits(m: int) -> list[int]:
    """The set bits of a mask, lowest first."""
    out = []
    while m:
        bit = m & -m
        out.append(bit)
        m ^= bit
    return out


def _adjacency_of(edges: Iterable[int], n: int) -> list[int]:
    """Per vertex index of n, the mask of its neighbours along the edge masks."""
    adjacency = [0] * n
    for e in edges:
        low = e & -e
        adjacency[low.bit_length() - 1] |= e ^ low
        adjacency[e.bit_length() - 1] |= low
    return adjacency


def _squeeze(masks: Iterable[int], keep: int) -> list[int]:
    """The masks, each inside ``keep``, with the bits of ``keep`` renumbered 0, 1, ... in order.

    A bit of ``keep`` moves to the number of bits of ``keep`` below it.
    """
    out = []
    for m in masks:
        squeezed = 0
        while m:
            bit = m & -m
            m ^= bit
            squeezed |= 1 << (keep & (bit - 1)).bit_count()
        out.append(squeezed)
    return out


def _restrict(by_dim: dict[int, list[int]], mask: int) -> dict[int, list[int]]:
    """The faces inside a mask per dimension, in the mask's own vertex numbering.

    Renumbering keeps the order of the vertices, so it keeps the order of
    the faces; dimensions left without a face are dropped.
    """
    out = {}
    for k, fs in by_dim.items():
        inside = [f for f in fs if not f & ~mask]
        if inside:
            out[k] = _squeeze(inside, mask)
    return out


def _clique_walk(
    adjacency: Sequence[int], mask: int, limit: Optional[int] = None
) -> Optional[dict[int, list[int]]]:
    """The cliques inside a vertex mask per dimension, as masks, each list in order.

    A clique grows only by candidates after its last vertex: popping the
    lowest bit i leaves the higher candidates, and those adjacent to i
    extend the new clique, so only the bits above i of ``adjacency[i]``
    are read.  Each dimension is grown from the ordered one below, so it
    comes out in lexicographic order.  The empty clique is included.
    With a limit the walk returns None as soon as it has found more
    cliques than that.
    """
    by_dim: dict[int, list[int]] = {-1: [0]}
    faces, candidates = [0], [mask]
    found = 1
    while True:
        grown: list[int] = []
        grown_candidates: list[int] = []
        for face, cand in zip(faces, candidates):
            while cand:
                bit = cand & -cand
                cand ^= bit
                grown.append(face | bit)
                grown_candidates.append(cand & adjacency[bit.bit_length() - 1])
            if limit is not None and found + len(grown) > limit:
                return None
        if not grown:
            return by_dim
        by_dim[len(by_dim) - 1] = faces = grown
        candidates = grown_candidates
        found += len(grown)


def _core(adjacency: Sequence[int], mask: int) -> int:
    """`SimplicialComplex.core` of a flag complex with these neighbour masks."""
    shrunk = True
    while shrunk:
        shrunk = False
        rest = mask
        while rest:
            u_bit = rest & -rest
            rest ^= u_bit
            u = u_bit.bit_length() - 1
            closed = (adjacency[u] | u_bit) & mask
            others = adjacency[u] & mask
            while others:
                v_bit = others & -others
                others ^= v_bit
                if not closed & ~(adjacency[v_bit.bit_length() - 1] | v_bit):
                    mask ^= u_bit
                    shrunk = True
                    break
    return mask


def flag_completion(vertices: Sequence[Label], edges: Iterable[Iterable[Label]]) -> SimplicialComplex:
    """The clique complex of a simple graph: faces are exactly the cliques."""
    verts = tuple(vertices)
    index = {v: i for i, v in enumerate(verts)}
    if len(index) != len(verts):
        raise ValueError("duplicate vertex labels")
    adjacency = [0] * len(verts)
    for e in edges:
        pair = tuple(e)
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValueError(f"not a simple edge: {pair!r}")
        u, v = pair
        if u not in index or v not in index:
            raise ValueError(f"edge {pair!r} uses unknown vertex")
        adjacency[index[u]] |= 1 << index[v]
        adjacency[index[v]] |= 1 << index[u]
    walk = _clique_walk(adjacency, (1 << len(verts)) - 1)
    return SimplicialComplex._of_masks(verts, walk, flag=True, adjacency=adjacency)


def barycentric_subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """Vertices are the nonempty faces of K, faces are chains under inclusion.

    The chains are the cliques of the comparability graph of K's faces.
    Cells are K's faces in their order, by dimension first, so every
    proper superset of a cell comes after it and the walk needs only the
    supersets.  A cell is labelled by its tuple of K's labels.  The result
    is always flag, which is how flag triangulations of arbitrary
    complexes are produced here.
    """
    cells = [f for k in range(K.dim + 1) for f in K.masks_of_dim(k)]
    position = {f: i for i, f in enumerate(cells)}
    supersets = [0] * len(cells)
    for j, g in enumerate(cells):
        f = (g - 1) & g
        while f:  # every nonempty proper submask of g
            supersets[position[f]] |= 1 << j
            f = (f - 1) & g
    walk = _clique_walk(supersets, (1 << len(cells)) - 1)
    return SimplicialComplex._of_masks([K.labels(f) for f in cells], walk, flag=True)


def boundary_matrix(K: SimplicialComplex, k: int, augmented: bool = True) -> IntMatrix:
    """The degree-k simplicial boundary in the global vertex order.

    Rows are (k-1)-faces, columns are k-faces.  With ``augmented`` the
    degree-0 matrix maps each vertex to the empty face with coefficient 1;
    without it the degree-0 matrix has no rows.  Dropping bit i of a face
    f gives the row f ^ (1 << i), with sign (-1) to the number of bits of
    f below i, its position in the face.
    """
    if not 0 <= k <= K.dim + 1:
        raise ValueError(f"degree {k} out of range for a complex of dimension {K.dim}")
    rows = ([0] if augmented else []) if k == 0 else K.masks_of_dim(k - 1)
    return _boundary(rows, K.masks_of_dim(k))


def _boundary(rows: Sequence[int], cols: Sequence[int]) -> IntMatrix:
    """The boundary from the faces ``cols`` to the faces ``rows``; a facet not in ``rows`` is left out."""
    row_pos = {f: i for i, f in enumerate(rows)}
    m = IntMatrix(len(rows), len(cols))
    for j, f in enumerate(cols):  # the entries are in bounds and +-1, so they go straight in
        for i, bit in enumerate(mask_bits(f)):
            row = row_pos.get(f ^ bit)
            if row is not None:
                m.entries[(row, j)] = (-1) ** i
    return m


class HomologyProfile(Record):
    """Reduced Betti numbers b~_{-1}, b~_0, ..., b~_dim over one field; immutable."""

    __slots__ = ("field", "reduced_betti")

    def __init__(self, field: FieldSpec, reduced_betti: tuple[int, ...]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "reduced_betti", reduced_betti)

    def betti(self, degree: int) -> int:
        """b~_degree, with degrees outside the stored range equal to 0."""
        i = degree + 1
        if 0 <= i < len(self.reduced_betti):
            return self.reduced_betti[i]
        return 0

    def to_json_dict(self) -> dict:
        return {"field": self.field.token(), "reduced_betti": list(self.reduced_betti)}


def _core_complex(K: SimplicialComplex) -> SimplicialComplex:
    """The full subcomplex on K's core, K itself when no vertex is dominated.

    The core mask is memoised on K, so the domination loop runs once per complex.
    """
    mask = K._memo.get("core")
    if mask is None:
        mask = K._memo["core"] = K.core((1 << len(K.vertices)) - 1)
    return K.subcomplex(mask)


def reduced_betti(K: SimplicialComplex, field: FieldSpec) -> HomologyProfile:
    """Reduced Betti numbers of K's core, padded to K's degrees and memoised on K.

    Rank d_k over the field is read from the core's memoised Smith form of
    the augmented boundary: over Q it is the number of elementary divisors,
    over F_p the number of them prime to p.  Degrees 0 and 1 are counted
    from the vertices and components, and a degree k >= 2 whose
    (k-1)-faces each lie in at most two k-faces is read from their signed
    dual graph (see `_smith_form`), so only a degree with a (k-1)-face in
    three k-faces or more is eliminated.  The profile is memoised on the
    core; strong collapses leave it unchanged, so every complex with that
    core pads the same one, and every field shares one Smith form per
    degree.
    """
    profile = K._memo.get(field)
    if profile is None:
        core = _core_complex(K)
        profile = core._memo.get(field)
        if profile is None:
            p = field.char
            ranks = [sum(1 for d in _smith_form(core, k).elementary_divisors if not p or d % p)
                     for k in range(core.dim + 1)]
            ranks.append(0)
            values = []
            for k in range(-1, core.dim + 1):
                n_k = 1 if k == -1 else core.n_faces(k)
                b = n_k - (ranks[k] if k >= 0 else 0) - ranks[k + 1]
                assert b >= 0
                values.append(b)
            profile = core._memo[field] = HomologyProfile(field=field, reduced_betti=tuple(values))
        padded = profile.reduced_betti + (0,) * (K.dim - core.dim)
        profile = K._memo[field] = HomologyProfile(field=field, reduced_betti=padded)
    return profile


def _smith_form(K: SimplicialComplex, k: int) -> SmithForm:
    """Smith form of the augmented degree-k boundary, memoised on K.

    Degrees 0 and 1 have a closed form on every simplicial complex (the
    universal coefficient theorem): the augmented d_0 is onto Z when K has
    a vertex, and coker d_1 = H_0(K; Z) is free on the components of the
    1-skeleton.  So both forms are all 1s, of rank 1 (0 without a vertex)
    and |V| - #components.

    A degree k >= 2 in which every (k-1)-face lies in at most two k-faces
    has a closed form too (`_dual_graph_form`): d_k^T is then the
    incidence matrix of a signed graph, and each component of that graph
    gives its rank and at most one elementary divisor 2.  Only a degree
    with a (k-1)-face in three k-faces or more is eliminated, d_2 without
    the rows of the edges of a spanning forest (`_spanning_forest`), which
    keeps its elementary divisors (see the module docstring).
    """
    sf = K._memo.get(("smith", k))
    if sf is None:
        if k >= 2:
            sf = _dual_graph_form(K.masks_of_dim(k))
            if sf is None:
                rows = K.masks_of_dim(k - 1)
                if k == 2:  # clearing: the rows of a spanning forest's edges go, which keeps the form
                    forest = _spanning_forest(K)
                    rows = [e for e in rows if e not in forest]
                sf = smith_normal_form(_boundary(rows, K.masks_of_dim(k)))
        else:
            full = (1 << len(K.vertices)) - 1
            r = min(len(K.vertices), 1) if k == 0 else len(K.vertices) - _component_count(K, full)
            sf = SmithForm(rank=r, elementary_divisors=(1,) * r)
        K._memo[("smith", k)] = sf
    return sf


def _dual_graph_form(faces: Sequence[int]) -> Optional[SmithForm]:
    """The Smith form of the boundary of ``faces``, None if a facet is in three of them.

    When each facet (a (k-1)-face) lies in at most two of the k-faces,
    d_k^T is the incidence matrix of a signed graph (Zaslavsky, "Signed
    graphs", 1982).  Its nodes are the k-faces; a facet of two k-faces is
    an edge between them, with entries their two boundary signs, and a
    facet of one k-face is a half-edge, one entry in its column; a
    (k-1)-face in no k-face is a zero column, which changes nothing.  A
    matrix and its transpose have one Smith form, and the matrix is block
    diagonal by the graph's components, so each component of t nodes
    contributes its own divisors:
    - with a half-edge: rank t, all 1s.  A spanning tree and a half-edge
      give a t x t minor +-1: a leaf that is not the half-edge's node has
      one entry in its row, so the minor is +-1 times that of the tree
      without the leaf, down to the half-edge's node alone.
    - closed and orientable: rank t - 1, all 1s.  An orientation e_j = +-1
      with e_i s_i + e_j s_j = 0 on every edge makes sum e_j (row j) = 0,
      and a spanning tree without one node's row is a (t - 1) x (t - 1)
      minor +-1, as above.
    - closed and not orientable: rank t, divisors 1, ..., 1, 2.  The
      tree minor gives d_1 = ... = d_{t-1} = 1.  Every column has two
      entries, so the rows sum to 0 mod 2 and every t x t minor is even;
      the tree and an edge that closes a cycle no orientation fits give
      one, and after peeling the leaves off it is the determinant of that
      cycle, which is +-2 (and 0 for a cycle an orientation fits).  So
      d_t, the gcd of the t x t minors, is 2.
    The orientation is tried by a walk over each component, and the pass
    that builds the graph stops at the first facet met a third time.
    """
    first: dict[int, tuple] = {}  # facet -> (its first k-face, sign there), then () once met twice
    links: list[list[tuple[int, int]]] = [[] for _ in faces]
    for j, f in enumerate(faces):
        sign = 1  # (-1) to the number of bits of f below the one dropped
        rest = f
        while rest:
            bit = rest & -rest
            rest ^= bit
            g = f ^ bit
            other = first.get(g)
            if other is None:
                first[g] = (j, sign)
            elif other:  # an edge, whose sign is the product of its two entries
                i, edge = other[0], other[1] * sign
                links[i].append((j, edge))
                links[j].append((i, edge))
                first[g] = ()
            else:
                return None
            sign = -sign
    open_nodes = {other[0] for other in first.values() if other}
    orientation = [0] * len(faces)
    rank = twos = 0
    for root in range(len(faces)):
        if orientation[root]:
            continue
        orientation[root] = 1
        stack = [root]
        size, has_half_edge, orientable = 0, False, True
        while stack:
            j = stack.pop()
            size += 1
            has_half_edge = has_half_edge or j in open_nodes
            flipped = -orientation[j]
            for i, edge in links[j]:  # e_i s_i + e_j s_j = 0, so e_i = -e_j times the edge's sign
                want = flipped * edge
                if not orientation[i]:
                    orientation[i] = want
                    stack.append(i)
                elif orientation[i] != want:
                    orientable = False
        if has_half_edge or not orientable:
            rank += size
            twos += not has_half_edge
        else:
            rank += size - 1
    return SmithForm(rank=rank, elementary_divisors=(1,) * (rank - twos) + (2,) * twos)


def _component_count(K: SimplicialComplex, mask: int) -> int:
    """The number of components of the 1-skeleton of K's full subcomplex on a mask.

    It is a walk over adjacency masks, restricted to the mask.
    """
    adjacency = K._adjacency()
    unseen = mask
    count = 0
    while unseen:
        count += 1
        stack = unseen & -unseen  # the lowest unseen vertex starts a component
        unseen ^= stack
        while stack:
            bit = stack & -stack
            stack ^= bit
            reached = adjacency[bit.bit_length() - 1] & unseen
            unseen ^= reached
            stack |= reached
    return count


def _spanning_forest(K: SimplicialComplex) -> set[int]:
    """The edge masks of a breadth-first spanning forest of K's 1-skeleton.

    Each component is walked from its lowest vertex, and every vertex
    reached adds the edge it is first reached by, so the forest has
    |V| - #components edges.
    """
    adjacency = K._adjacency()
    unseen = (1 << len(K.vertices)) - 1
    forest = set()
    while unseen:
        root = unseen & -unseen
        unseen ^= root
        queue = [root]
        for bit in queue:  # the queue grows while it is read
            reached = adjacency[bit.bit_length() - 1] & unseen
            unseen ^= reached
            for other in mask_bits(reached):
                forest.add(bit | other)
                queue.append(other)
    return forest


def integral_homology(K: SimplicialComplex, k: int) -> tuple[int, list[int]]:
    """Reduced integral homology in degree k: (free rank, torsion divisors > 1).

    It is read from the Smith forms of K's core, memoised on the core:
    counted or read from the signed dual graph where `_smith_form` can,
    so only a degree with a (k-1)-face in three k-faces or more is
    eliminated.
    """
    core = _core_complex(K)
    if k < -1 or k > core.dim:
        return 0, []
    n_k = 1 if k == -1 else core.n_faces(k)
    r_k = 0 if k == -1 else _smith_form(core, k).rank
    if k == core.dim:
        return n_k - r_k, []
    sf_next = _smith_form(core, k + 1)
    return n_k - r_k - sf_next.rank, list(sf_next.torsion_divisors)


def is_n_acyclic(K: SimplicialComplex, n: int, field: FieldSpec) -> bool:
    """True when b~_i(K; field) = 0 for all -1 <= i <= n.

    For n >= -1 this forces the complex to be nonempty; for n < -1 the
    condition is vacuous.  The profile stops at dim K, above which there
    is no homology, so only degrees up to min(n, dim K) are read.
    """
    if n < -1:
        return True
    return not any(reduced_betti(K, field).reduced_betti[: n + 2])


def is_n_acyclic_on(K: SimplicialComplex, mask: int, n: int, field: FieldSpec) -> bool:
    """True when the full subcomplex on a mask is n-acyclic over a field.

    Degrees -1 and 0 are read from the mask over every field: b~_{-1}
    vanishes when the mask is nonempty, and b~_0 too when its 1-skeleton
    is connected.  From n = 1 on, `reduced_betti_on` the mask is read,
    from the vertex, edge and component counts when the mask's core has no
    triangle.  K must be flag, which the callers check once.
    """
    if n < 0:
        return n < -1 or mask != 0
    if n == 0:
        return _component_count(K, mask) == 1
    return not any(reduced_betti_on(K, mask, field).reduced_betti[: n + 2])


def reduced_betti_on(K: SimplicialComplex, mask: int, field: FieldSpec) -> HomologyProfile:
    """`reduced_betti` of the full subcomplex on a mask's core, K being flag.

    The core has the homology of the full subcomplex on the mask.  One scan
    of the core's neighbour masks counts its V vertices and E edges and
    stops at the first triangle, a vertex with two adjacent neighbours.  A
    core with no triangle is a graph, whose homology over every field is
    b~_0 = C - 1 and b~_1 = E - V + C with C components, so it is read
    from those counts, profile length included, and nothing is built or
    memoised.  A core with a triangle is built, and masks with one core
    share one entry of K's memo.  K must be flag, which the callers check
    once, where `core` checks it on every call.
    """
    adjacency = K._adjacency()
    core = _core(adjacency, mask)
    if not core:
        return HomologyProfile(field=field, reduced_betti=(1,))
    edges = 0
    rest = core
    while rest:  # u is the lowest vertex of rest, and each edge is counted at its lower end
        u = rest & -rest
        rest ^= u
        neighbours = adjacency[u.bit_length() - 1] & core
        later = neighbours & rest
        edges += later.bit_count()
        while later:
            v = later & -later
            later ^= v
            if adjacency[v.bit_length() - 1] & neighbours:
                return reduced_betti(K.subcomplex(core), field)
    c = _component_count(K, core)
    betti = (0, c - 1, edges - core.bit_count() + c) if edges else (0, c - 1)
    return HomologyProfile(field=field, reduced_betti=betti)


def link_core(K: SimplicialComplex, v: Label) -> SimplicialComplex:
    """A complex with the homology of the link of the vertex v over every ring.

    For a flag K it is the full subcomplex on the core of CN(v): lk(v) is
    the full subcomplex on CN(v), so its core is found in K's neighbour
    masks, as in `reduced_betti_on`, and only the core is built.  Any other
    K gives ``K.link((v,))``.
    """
    if not K.is_flag():
        return K.link((v,))
    adjacency = K._adjacency()
    return K.subcomplex(_core(adjacency, adjacency[K.index(v)]))


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


class ChainVector:
    """A formal field-linear combination of faces of a fixed degree."""

    __slots__ = ("degree", "field", "coefficients")

    def __init__(
        self,
        degree: int,
        field: FieldSpec,
        coefficients: Mapping[Face, Scalar] = (),
    ) -> None:
        self.degree = degree
        self.field = field
        clean: dict[Face, Scalar] = {}
        items = coefficients.items() if isinstance(coefficients, Mapping) else coefficients
        for f, v in items:
            if len(f) != degree + 1:
                raise ValueError(f"face {f!r} has the wrong degree for a {degree}-chain")
            fv = field.of(v)
            if fv != 0:
                clean[tuple(f)] = fv
        self.coefficients = clean

    @classmethod
    def zero(cls, degree: int, field: FieldSpec) -> "ChainVector":
        return cls(degree, field, {})

    def support(self) -> list[Face]:
        return sorted(self.coefficients)

    def is_zero(self) -> bool:
        return not self.coefficients

    def add(self, other: "ChainVector") -> "ChainVector":
        if (self.degree, self.field) != (other.degree, other.field):
            raise ValueError("chain degree/field mismatch")
        out = dict(self.coefficients)
        for f, v in other.coefficients.items():
            out[f] = out.get(f, 0) + v
        return ChainVector(self.degree, self.field, out)

    def scale(self, c: Scalar) -> "ChainVector":
        return ChainVector(self.degree, self.field, {f: v * c for f, v in self.coefficients.items()})

    def sub(self, other: "ChainVector") -> "ChainVector":
        return self.add(other.scale(-1))

    def supported_in(self, K: SimplicialComplex) -> bool:
        """True when every face of the chain is a face of K with its labels in K's vertex order.

        Each face is tested by its mask; one with an unknown label, a
        repeated vertex or its labels out of order is not supported.
        """
        return all(K.has_face(f) and K.sort_face(f) == f for f in self.coefficients)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainVector):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.field == other.field
            and self.coefficients == other.coefficients
        )

    def __repr__(self) -> str:
        return f"ChainVector(degree={self.degree}, terms={len(self.coefficients)})"


def chain_boundary(chain: ChainVector) -> ChainVector:
    """Augmented simplicial boundary: vertices map to the empty face."""
    out: dict[Face, Scalar] = {}
    for f, coef in chain.coefficients.items():
        for i in range(len(f)):
            sub = f[:i] + f[i + 1 :]
            out[sub] = out.get(sub, 0) + (-1) ** i * coef
    return ChainVector(chain.degree - 1, chain.field, out)  # reduces the sums
