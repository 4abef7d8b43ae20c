"""Exact breadth-first enumeration of Cayley-graph balls.

Every group represents each element one way, so ``==`` on elements is
group equality and a key depends only on the element.  Expansion is
level-synchronous.  Within a level, products are taken in parent x
generator order, the order ``Ball.graph`` uses.  Each new element keeps its
least edge by (witness weight, parent index, generator index) and is keyed
once; new elements are inserted in key order.  Balls and all their
witnesses are therefore reproducible bit for bit across runs.  A ball
indexes its elements by value.  Records are added in bulk, one level at a
time.  A cache file is checked record by record for its framing before any
key decodes, and a key that does not decode refuses the file.

Sphere pairs, inside paths and witness checks read one integer-indexed
Cayley graph per ball (``Ball.graph``), grown a sphere at a time with each
edge multiplied once, to full rows of B(n) for the search at n and of
B(n + ceil(m/2) - 1) for the pair walks; parent edges are seeded, not
multiplied.  Pairs are found by index walks over that graph, with no
multiply per pair.  The length-only walk counts, per sphere vertex and
distance, the pairs joined by a geodesic inside B(n) and lists the rest for
``inside_distance``.  ``inside_distance`` and ``inside_path`` share one
bidirectional search through B(n), which stops at the first meeting; the
distance is its length, the path the word read back from the meeting edge.
Walks and searches keep visit marks and parents in two lists per ball, each
walk and search side with a fresh token; walks finish before they yield.
"""

from __future__ import annotations

import itertools
import os
import struct
from typing import Iterator, Optional

from .groups import GroupInterface
from .words import Word


class RadiusUnavailable(ValueError):
    pass


class ElementAbsent(KeyError):
    pass


# a Cayley-graph entry whose product was never computed
UNKNOWN = -1

_MAGIC = b"CAYB"
_VERSION = 2
# the fields after a record's key: length, parent index, generator, weight
_RECORD = struct.Struct(">IiiI")


class Ball:
    """All elements of length <= radius, with lengths, parent edges and
    minimal witness weights."""

    def __init__(self, group: GroupInterface, radius: int):
        self.group = group
        self.radius = radius
        self.gen_names: tuple[str, ...] = tuple(group.alphabet.names)
        self.elements: list = []
        self.keys: list[bytes] = []
        self.lengths: list[int] = []
        self.parents: list[tuple[int, int]] = []  # (parent index, generator index)
        self.weights: list[int] = []
        self.index: dict = {}  # element -> index
        self.sphere_offsets: list[int] = [0]
        # inverse_gens[g] is the generator index of the inverse of generator g
        alphabet = group.alphabet
        self.inverse_gens = [alphabet.index(alphabet.inverse(name))
                             for name in self.gen_names]
        # the Cayley graph grown by ``graph``: rows complete for
        # B(_complete), and the outermost halo sphere's element -> id
        self._rows: list[list[int]] = []
        self._complete = -1
        self._halo: dict = {}
        # the walks' visit tokens and parents: a slot per graph vertex and
        # a spare last one, which UNKNOWN (-1) indexes
        self._mark = [0]
        self._parent = [0]
        self._tokens = itertools.count(1)

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def sphere(self, n: int) -> range:
        if n < 0 or n > self.radius:
            raise RadiusUnavailable(f"sphere {n} of a radius-{self.radius} ball")
        lo = self.sphere_offsets[n]
        hi = self.sphere_offsets[n + 1] if n + 1 < len(self.sphere_offsets) else len(self.elements)
        return range(lo, hi)

    def _recompute_offsets(self) -> None:
        offsets = [0] * (self.radius + 2)
        for L in self.lengths:
            offsets[L + 1] += 1
        for n in range(1, self.radius + 2):
            offsets[n] += offsets[n - 1]
        self.sphere_offsets = offsets

    def _extend(self, elements: list, keys: list[bytes], lengths: list[int],
                parents: list[tuple[int, int]], weights: list[int]) -> None:
        """Add records in bulk, indexed in order after the present ones."""
        start = len(self.elements)
        self.index.update(zip(elements, range(start, start + len(elements))))
        self.elements += elements
        self.keys += keys
        self.lengths += lengths
        self.parents += parents
        self.weights += weights

    def sphere_sizes(self) -> list[int]:
        return [len(self.sphere(n)) for n in range(self.radius + 1)]

    def locate(self, elem) -> Optional[int]:
        """Index of an element, or None when it lies outside the ball."""
        return self.index.get(elem)

    def find(self, elem) -> int:
        """Index of an element; raises ElementAbsent outside the ball."""
        idx = self.locate(elem)
        if idx is None:
            raise ElementAbsent(repr(elem))
        return idx

    def __contains__(self, elem) -> bool:
        try:
            self.find(elem)
            return True
        except ElementAbsent:
            return False

    def length_of(self, elem) -> int:
        return self.lengths[self.find(elem)]

    def geodesic_witness(self, elem_or_index) -> Word:
        """Word of length l(g) evaluating to g, read off the parent edges."""
        idx = elem_or_index if isinstance(elem_or_index, int) else self.find(elem_or_index)
        letters: list[str] = []
        while idx is not None:
            parent, gen = self.parents[idx]
            if parent < 0:
                break
            letters.append(self.gen_names[gen])
            idx = parent
        return tuple(reversed(letters))

    def graph(self, depth: int = 0) -> list[list[int]]:
        """The Cayley graph as rows of neighbour ids, one entry per
        generator: rows[v][g] is the id of (element v) * (generator g).

        Ids below len(self) are ball indices; halo ids follow them, sphere
        after sphere.  With r = radius + depth >= 0, every vertex of B(r)
        has a full row, each vertex of sphere r+1 holds its edges back into
        B(r), and all other entries are UNKNOWN (rows past sphere r+1 may
        be missing).  A consumer that reads B(r) asks for r - radius.  The
        graph grows one sphere at a time; each edge is multiplied once."""
        while self._complete < self.radius + depth:
            self._grow()
        return self._rows

    def _grow(self) -> None:
        """Complete the rows of the next sphere.  Each product is looked up
        in the ball's index inside the ball, in the outermost halo sphere
        past it; a product found in neither is a new vertex of the sphere
        beyond.  Each product also fills the edge back, so a filled entry is
        never multiplied, nor is a parent edge of the next ball sphere,
        seeded both ways.  Products come in vertex order x generator order,
        as in ``build_ball``, which numbers the halo."""
        group = self.group
        images = [group.generator_images[name] for name in self.gen_names]
        inverse = self.inverse_gens
        rows = self._rows
        s = self._complete + 1
        if s <= self.radius:
            ids = self.sphere(s)
            vertices = zip(ids, self.elements[ids.start:ids.stop])
            known = self.index
            # rows up to the next ball sphere, which takes the back edges
            top = self.sphere(min(s + 1, self.radius)).stop
            start = len(rows)
            rows.extend([UNKNOWN] * len(images) for _ in range(start, top))
            for v in range(max(start, 1), top):  # the identity has no parent
                p, gi = self.parents[v]
                rows[p][gi] = v
                rows[v][inverse[gi]] = p
        else:
            known = self._halo
            vertices = ((v, elem) for elem, v in known.items())
        fresh: dict = {}  # new element -> id
        for v, elem in vertices:
            row = rows[v]
            for gi, img in enumerate(images):
                if row[gi] != UNKNOWN:
                    continue
                child = group.multiply(elem, img)
                j = known.get(child)
                if j is None:
                    j = fresh.get(child)
                    if j is None:
                        j = fresh[child] = len(rows)
                        rows.append([UNKNOWN] * len(images))
                row[gi] = j
                rows[j][inverse[gi]] = v
        self._halo = fresh
        self._complete = s
        slots = [0] * (len(rows) + 1 - len(self._mark))
        self._mark += slots
        self._parent += slots

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """adj[i] = [(generator index, target index)] restricted to the
        ball: a view of the Cayley graph's rows, built on each call."""
        size = len(self)
        return [[(gi, j) for gi, j in enumerate(row) if j < size]
                for row in self.graph()[:size]]

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += _MAGIC
        # the last header byte is a format constant, always 1
        out += struct.pack(">HIIHB", _VERSION, self.radius, len(self.elements),
                           len(self.gen_names), 1)
        for key, length, (parent, gen), weight in zip(
            self.keys, self.lengths, self.parents, self.weights
        ):
            out += struct.pack(">H", len(key))
            out += key
            out += _RECORD.pack(length, parent, gen, weight)
        return bytes(out)

    def write(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(self.to_bytes())
        os.replace(tmp, path)

    @classmethod
    def from_bytes(cls, data: bytes, group: GroupInterface) -> "Ball":
        """Decode a ball written by ``to_bytes``.  Raises ValueError when the
        data is truncated or over-long, of another format version, with a
        last header byte other than 1, or for a generating set of another
        size, all checked before the first key decodes, or for a key that
        does not decode."""
        if data[:4] != _MAGIC:
            raise ValueError("not a ball cache file")
        if len(data) < 17:
            raise ValueError("truncated ball cache header")
        version, radius, count, genc, flag = struct.unpack(">HIIHB", data[4:17])
        if version != _VERSION:
            raise ValueError(f"cache version {version} unsupported")
        if flag != 1:
            raise ValueError(f"cache header flag byte is {flag}, not 1")
        if genc != len(group.alphabet.names):
            raise ValueError(f"cache has {genc} generators, the group has "
                             f"{len(group.alphabet.names)}")
        # the framing of every record is checked before any key decodes
        keys: list[bytes] = []
        key_ends: list[int] = []
        pos, size = 17, len(data)
        for _ in range(count):
            # a record is a 2-byte key length, the key and 16 bytes
            if pos + 18 > size:
                raise ValueError("truncated ball cache record")
            key_end = pos + 2 + (data[pos] << 8 | data[pos + 1])
            if key_end + 16 > size:
                raise ValueError("truncated ball cache record")
            keys.append(data[pos + 2 : key_end])
            key_ends.append(key_end)
            pos = key_end + 16
        if pos != size:
            raise ValueError(f"{size - pos} bytes after the last ball cache record")
        fields = list(map(_RECORD.unpack_from, itertools.repeat(data, count), key_ends))
        elements = list(map(group.decode_key, keys))
        ball = cls(group, radius)
        ball._extend(elements, keys,
                     [length for length, _, _, _ in fields],
                     [(parent, gen) for _, parent, gen, _ in fields],
                     [weight for _, _, _, weight in fields])
        ball._recompute_offsets()
        return ball

    @classmethod
    def read(cls, path: str, group: GroupInterface) -> "Ball":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), group)


def build_ball(group: GroupInterface, radius: int) -> Ball:
    """Complete deduplicated ball of the given radius; raises
    RadiusUnavailable for a negative radius."""
    if radius < 0:
        raise RadiusUnavailable(f"ball radius {radius} is negative")
    ball = Ball(group, radius)
    images = [group.generator_images[name] for name in ball.gen_names]
    gweights = [group.generator_weight(name) for name in ball.gen_names]
    index = ball.index
    inverse = ball.inverse_gens

    ident = group.identity
    ball._extend([ident], [group.key(ident)], [0], [(-1, -1)], [0])
    level = range(1)
    for depth in range(1, radius + 1):
        # the least (weight, parent index, generator) edge of each new element
        best: dict = {}
        for pi in level:
            parent = ball.elements[pi]
            pw = ball.weights[pi]
            # the parent edge read backwards leads to the grandparent
            back = inverse[ball.parents[pi][1]] if pi else UNKNOWN
            for gi, img in enumerate(images):
                if gi == back:
                    continue
                child = group.multiply(parent, img)
                if child in index:
                    continue
                edge = (pw + gweights[gi], pi, gi)
                prev = best.get(child)
                if prev is None or edge < prev:
                    best[child] = edge
        # keys are injective, so sorting never compares past the key
        keyed = sorted(zip(map(group.key, best), best))
        elems = [elem for _, elem in keyed]
        edges = list(map(best.__getitem__, elems))
        start = len(ball)
        ball._extend(elems, [key for key, _ in keyed], [depth] * len(elems),
                     [(pi, gi) for _, pi, gi in edges], [w for w, _, _ in edges])
        level = range(start, len(ball))
    ball._recompute_offsets()
    return ball


def cached_ball(group: GroupInterface, radius: int, cache_dir: Optional[str] = None) -> Ball:
    """Build a ball, reusing and refreshing the disk cache when a directory
    is configured.  A cache file that does not decode is rebuilt."""
    if cache_dir is None:
        return build_ball(group, radius)
    os.makedirs(cache_dir, exist_ok=True)
    name = f"{group.fingerprint()}__{group.gens_fingerprint()}__r{radius}.ball"
    path = os.path.join(cache_dir, name)
    if os.path.exists(path):
        try:
            return Ball.read(path, group)
        except ValueError:
            pass  # truncated, over-long or stale: rebuild and rewrite it
    ball = build_ball(group, radius)
    ball.write(path)
    return ball


def _pair_graph(ball: Ball, n: int, m: int) -> list[list[int]]:
    """The Cayley graph with the full rows of B(n + ceil(m/2) - 1) that
    every walk of length <= m between sphere-n vertices reads."""
    if n > ball.radius:
        raise RadiusUnavailable(f"sphere {n} of a radius-{ball.radius} ball")
    return ball.graph(n + (m + 1) // 2 - 1 - ball.radius)


def sphere_pairs(ball: Ball, n: int, m: int) -> Iterator[tuple[int, int, Word]]:
    """Unordered pairs of sphere-n elements at distance <= m, each exactly
    once as (i, j, q) with i < j, where q is the shortlex-least word with
    g_i q = g_j.  Pairs come in order of i, then of q.

    From each g_i the words of length 1..m are walked breadth-first over
    the Cayley graph, each level extending the previous level's first
    arrivals in order by each generator in order.  That visits words in
    shortlex order, and a prefix of a shortlex-least word is itself
    shortlex-least, so the first word that reaches a vertex is its least
    one.  A walk of length <= m between two sphere-n vertices stays in
    B(n + floor(m/2)), and each of its edges touches B(n + ceil(m/2) - 1),
    the ball whose full rows the walks ask the graph for."""
    rows = _pair_graph(ball, n, m)
    names = ball.gen_names
    stop = ball.sphere(n).stop
    mark = ball._mark
    for i in ball.sphere(n):
        token = mark[i] = mark[UNKNOWN] = next(ball._tokens)  # UNKNOWN: no vertex
        found = []  # yielded once the walk is done, so it keeps its marks
        level: list[tuple[int, Word]] = [(i, ())]
        for _ in range(m):
            nxt = []
            for u, word in level:
                for gi, v in enumerate(rows[u]):
                    if mark[v] == token:
                        continue
                    mark[v] = token
                    q = word + (names[gi],)
                    nxt.append((v, q))
                    if i < v < stop:
                        found.append((i, v, q))
            level = nxt
        yield from found


def sphere_pair_counts(
    ball: Ball, n: int, m: int,
) -> Iterator[tuple[int, list[int], list[tuple[int, int]]]]:
    """The pairs of ``sphere_pairs`` by length only, one sphere-n vertex at
    a time: (i, counts, undecided) for each i in S(n) in order, where
    counts[d - 1] is the number of j > i in S(n) at distance d from i that
    are joined to it by a path of length d with every vertex in B(n), and
    undecided lists the other pairs (j, d), j > i at distance d <= m, in
    the order the walk meets them.

    One breadth-first walk of depth m from each g_i over the same graph
    builds no words.  Each level is split into the vertices that end a
    geodesic from g_i inside B(n) (inside) and the rest (outside).  The
    inside vertices are expanded first: a new vertex they reach is inside
    when it lies in B(n).  A vertex first reached from an outside vertex
    has no geodesic from an inside one, so it is outside too."""
    rows = _pair_graph(ball, n, m)
    stop = ball.sphere(n).stop
    mark = ball._mark
    for i in ball.sphere(n):
        token = mark[i] = mark[UNKNOWN] = next(ball._tokens)  # UNKNOWN: no vertex
        inside, outside = [i], []
        counts: list[int] = []
        undecided: list[tuple[int, int]] = []
        for d in range(1, m + 1):
            next_inside, next_outside = [], []
            count = 0
            for u in inside:
                for v in rows[u]:
                    if mark[v] != token:
                        mark[v] = token
                        if v < stop:
                            next_inside.append(v)
                            if v > i:
                                count += 1
                        else:
                            next_outside.append(v)
            for u in outside:
                for v in rows[u]:
                    if mark[v] != token:
                        mark[v] = token
                        next_outside.append(v)
                        if i < v < stop:
                            undecided.append((v, d))
            counts.append(count)
            inside, outside = next_inside, next_outside
        yield i, counts, undecided


def _inside_search(
    ball: Ball, i: int, j: int, n: int, cap: Optional[int],
) -> Optional[tuple[int, int, int]]:
    """Bidirectional level-synchronous search from elements i and j through
    B(n), expanding the smaller frontier.  Returns (length, a, b) at the
    first meeting, where a -> b is the meeting edge and ``ball._parent``
    leads from a back to i and from b back to j; None when the length
    would exceed the cap (default 4n + 64).

    Until the first meeting the two visited sets are disjoint, and every
    node of the other side at less than its frontier depth has been
    expanded, so its neighbours in B(n) are already on that side.  A new
    node that the expanding side meets therefore lies on the other side's
    frontier, and every meeting of that level gives the same total: the
    first one is a shortest path."""
    if n > ball.radius:
        raise RadiusUnavailable(f"ball radius {ball.radius} < {n}")
    if cap is None:
        cap = 4 * n + 64
    if i == j:
        return 0, i, j
    rows = ball.graph(n - ball.radius)
    stop = ball.sphere(n).stop  # ids below it are exactly B(n)
    mark, parent = ball._mark, ball._parent
    f_token = mark[i] = next(ball._tokens)
    b_token = mark[j] = next(ball._tokens)
    f_frontier, b_frontier = [i], [j]
    depth = 0  # forward depth + backward depth
    while f_frontier or b_frontier:
        if depth >= cap:
            return None
        forward = bool(f_frontier) and (len(f_frontier) <= len(b_frontier)
                                        or not b_frontier)
        frontier, token, other = ((f_frontier, f_token, b_token) if forward
                                  else (b_frontier, b_token, f_token))
        depth += 1
        new = []
        for u in frontier:
            for v in rows[u]:
                if v < stop and mark[v] != token:
                    if mark[v] == other:
                        return (depth, u, v) if forward else (depth, v, u)
                    mark[v] = token
                    parent[v] = u
                    new.append(v)
        if forward:
            f_frontier = new
        else:
            b_frontier = new
    # both searches exhausted their components: the induced subgraph on the
    # ball would have to be disconnected, which cannot happen (parent chains
    # connect everything to the identity)
    raise RuntimeError(f"ball subgraph disconnected between {i} and {j}")


def inside_path(ball: Ball, i: int, j: int, n: int,
                cap: Optional[int] = None) -> Optional[Word]:
    """Shortest word labelling a path from element i to element j all of
    whose vertices satisfy l <= n; None when no such path exists within the
    cap (default 4n + 64).  The word is read back from the meeting edge of
    the bidirectional search."""
    found = _inside_search(ball, i, j, n, cap)
    if found is None:
        return None
    if i == j:
        return ()
    _length, a, b = found
    rows = ball.graph(n - ball.radius)
    parent = ball._parent
    names = ball.gen_names
    word: list[str] = []
    v = a
    while v != i:  # back toward i
        u = parent[v]
        word.append(names[rows[u].index(v)])
        v = u
    word.reverse()
    word.append(names[rows[a].index(b)])
    u = b
    while u != j:  # on toward j
        v = parent[u]
        word.append(names[rows[u].index(v)])
        u = v
    return tuple(word)


def inside_distance(ball: Ball, i: int, j: int, n: int,
                    cap: Optional[int] = None) -> Optional[int]:
    """Length of ``inside_path(ball, i, j, n, cap)``, by the same search
    with no readback."""
    found = _inside_search(ball, i, j, n, cap)
    return None if found is None else found[0]
