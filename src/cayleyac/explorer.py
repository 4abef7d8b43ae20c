"""Exact breadth-first enumeration of Cayley-graph balls.

Expansion is level-synchronous; within a level, elements are inserted in
canonical-key order and parent edges are chosen by the tie-break
(witness weight, parent key, generator index), which makes balls and all
their witnesses reproducible bit for bit across runs.  Every lookup of an
element in a ball goes through ``Ball.locate``.
"""

from __future__ import annotations

import os
import struct
from typing import Iterator, Optional

from .groups import GroupInterface
from .words import Word


class BudgetExceeded(RuntimeError):
    """The exploration budget was hit; the partial ball is unusable for
    convexity checks and is flagged as such."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class RadiusUnavailable(ValueError):
    pass


class ElementAbsent(KeyError):
    pass


_MAGIC = b"CAYB"
_VERSION = 2


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
        self.index: dict = {}
        self.sphere_offsets: list[int] = [0]
        self.complete = True
        self._adjacency: Optional[list[list[tuple[int, int]]]] = None

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

    def sphere_sizes(self) -> list[int]:
        return [len(self.sphere(n)) for n in range(self.radius + 1)]

    def locate(self, elem) -> Optional[int]:
        """Index of an element, or None when it lies outside the ball.  The
        element is resolved through the group's normal form and looked up by
        its dedup key; this is the one place that knows the index format."""
        return self.index.get(self.group.dedup_key(self.group.resolve(elem)))

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

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """adj[i] = [(generator index, target index)] restricted to the ball."""
        if self._adjacency is None:
            group = self.group
            images = [group.generator_images[name] for name in self.gen_names]
            adj: list[list[tuple[int, int]]] = []
            for elem in self.elements:
                row = []
                for gi, img in enumerate(images):
                    j = self.locate(group.multiply(elem, img))
                    if j is not None:
                        row.append((gi, j))
                adj.append(row)
            self._adjacency = adj
        return self._adjacency

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += _MAGIC
        out += struct.pack(">HIIHB", _VERSION, self.radius, len(self.elements),
                           len(self.gen_names), 1 if self.complete else 0)
        for key, length, (parent, gen), weight in zip(
            self.keys, self.lengths, self.parents, self.weights
        ):
            out += struct.pack(">H", len(key))
            out += key
            out += struct.pack(">IiiI", length, parent, gen, weight)
        return bytes(out)

    def write(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(self.to_bytes())
        os.replace(tmp, path)

    @classmethod
    def from_bytes(cls, data: bytes, group: GroupInterface) -> "Ball":
        """Decode a ball written by ``to_bytes``.  Raises ValueError when the
        data is truncated or over-long, of another format version, or for a
        generating set of another size."""
        if data[:4] != _MAGIC:
            raise ValueError("not a ball cache file")
        if len(data) < 17:
            raise ValueError("truncated ball cache header")
        version, radius, count, genc, complete = struct.unpack(">HIIHB", data[4:17])
        if version != _VERSION:
            raise ValueError(f"cache version {version} unsupported")
        if genc != len(group.alphabet.names):
            raise ValueError(f"cache has {genc} generators, the group has "
                             f"{len(group.alphabet.names)}")
        ball = cls(group, radius)
        ball.complete = bool(complete)
        pos = 17
        for _ in range(count):
            # a cut inside the 2-byte length field also fails this check
            key_end = pos + 2 + int.from_bytes(data[pos : pos + 2], "big")
            if key_end + 16 > len(data):
                raise ValueError("truncated ball cache record")
            key = data[pos + 2 : key_end]
            length, parent, gen, weight = struct.unpack_from(">IiiI", data, key_end)
            pos = key_end + 16
            elem = group.decode_key(key)
            idx = len(ball.elements)
            ball.elements.append(elem)
            ball.keys.append(key)
            ball.lengths.append(length)
            ball.parents.append((parent, gen))
            ball.weights.append(weight)
            ball.index[group.dedup_key(elem)] = idx
        if pos != len(data):
            raise ValueError(f"{len(data) - pos} bytes after the last ball cache record")
        ball._recompute_offsets()
        return ball

    @classmethod
    def read(cls, path: str, group: GroupInterface) -> "Ball":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), group)


def build_ball(group: GroupInterface, radius: int,
               max_elements: Optional[int] = None) -> Ball:
    """Complete deduplicated ball of the given radius."""
    ball = Ball(group, radius)
    gen_names = ball.gen_names
    images = [group.generator_images[name] for name in gen_names]
    gweights = [group.generator_weight(name) for name in gen_names]

    ident = group.resolve(group.identity)
    ball.elements.append(ident)
    ball.keys.append(group.canonical_key(ident))
    ball.lengths.append(0)
    ball.parents.append((-1, -1))
    ball.weights.append(0)
    ball.index[group.dedup_key(ident)] = 0

    level = [0]
    for depth in range(1, radius + 1):
        # a child whose unresolved key is indexed is a registered
        # representative already in the ball, so it needs no resolve
        raw: list[tuple] = []
        for pi in level:
            parent = ball.elements[pi]
            pw = ball.weights[pi]
            pkey = ball.keys[pi]
            for gi, img in enumerate(images):
                child = group.multiply(parent, img)
                if group.dedup_key(child) not in ball.index:
                    raw.append((child, pw + gweights[gi], pkey, gi, pi))

        # canonical merge: resolve in presort order, keep the best parent edge
        raw.sort(key=lambda item: (group.presort_key(item[0]), item[1], item[2], item[3]))
        cands: dict = {}
        for child, w, pkey, gi, pi in raw:
            resolved = group.resolve(child)
            dk = group.dedup_key(resolved)
            if dk in ball.index:
                continue
            prev = cands.get(dk)
            if prev is None or (w, pkey, gi) < (prev[1], prev[2], prev[3]):
                cands[dk] = (resolved, w, pkey, gi, pi)
        newbies = sorted(cands.items(), key=lambda kv: group.canonical_key(kv[1][0]))

        level = []
        for dk, (elem, w, pkey, gi, pi) in newbies:
            idx = len(ball.elements)
            if max_elements is not None and idx >= max_elements:
                ball.complete = False
                raise BudgetExceeded(
                    f"ball exceeded {max_elements} elements at radius {depth}", partial=ball
                )
            ball.elements.append(elem)
            ball.keys.append(group.canonical_key(elem))
            ball.lengths.append(depth)
            ball.parents.append((pi, gi))
            ball.weights.append(w)
            ball.index[dk] = idx
            level.append(idx)
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


def _connectors(group: GroupInterface, m: int) -> list[tuple[object, Word]]:
    """The distinct non-identity elements h of B(m), each with its
    shortlex-least word in generator-index order, listed in the shortlex
    order of those words.  Extending the level-(k-1) words in order by each
    generator in order visits words of length k in lexicographic order, and
    a prefix of a shortlex-least word is itself shortlex-least, so the first
    word that reaches an element is its least one."""
    names = tuple(group.alphabet.names)
    images = [group.generator_images[name] for name in names]
    ident = group.resolve(group.identity)
    seen = {group.dedup_key(ident)}
    table: list[tuple[object, Word]] = []
    level = [(ident, ())]
    for _ in range(m):
        nxt = []
        for elem, word in level:
            for gi, img in enumerate(images):
                child = group.resolve(group.multiply(elem, img))
                dk = group.dedup_key(child)
                if dk not in seen:
                    seen.add(dk)
                    nxt.append((child, word + (names[gi],)))
        table.extend(nxt)
        level = nxt
    return table


def sphere_pairs(ball: Ball, n: int, m: int) -> Iterator[tuple[int, int, Word]]:
    """Unordered pairs of sphere-n elements at distance <= m, each exactly
    once as (i, j, q) with i < j, where q is the shortlex-least word with
    g_i q = g_j.  Pairs come in order of i, then of q."""
    if n > ball.radius:
        raise RadiusUnavailable(f"sphere {n} of a radius-{ball.radius} ball")
    group = ball.group
    table = _connectors(group, m)
    for i in ball.sphere(n):
        g = ball.elements[i]
        for h, q in table:
            j = ball.locate(group.multiply(g, h))
            if j is not None and j > i and ball.lengths[j] == n:
                yield (i, j, q)


def inside_path(ball: Ball, i: int, j: int, n: int,
                cap: Optional[int] = None) -> Optional[Word]:
    """Shortest word labelling a path from element i to element j all of
    whose vertices satisfy l <= n; None when no such path exists within the
    cap (default 4n + 64).  Bidirectional level-synchronous search with
    deterministic readback."""
    if n > ball.radius:
        raise RadiusUnavailable(f"ball radius {ball.radius} < {n}")
    if cap is None:
        cap = 4 * n + 64
    if i == j:
        return ()
    adj = ball.adjacency()
    lengths = ball.lengths
    names = ball.gen_names
    alphabet = ball.group.alphabet
    inv_gen = [alphabet.index(alphabet.inverse(name)) for name in names]

    fwd = {i: (None, None, 0)}  # node -> (prev node, edge generator, depth)
    bwd = {j: (None, None, 0)}
    f_frontier, b_frontier = [i], [j]
    df = db = 0
    capped = False
    best: Optional[tuple[int, int]] = None  # (total length, meet node)

    def expand(frontier, visited, other):
        nonlocal best
        new = []
        for u in frontier:
            du = visited[u][2]
            for gi, v in adj[u]:
                if lengths[v] > n or v in visited:
                    continue
                visited[v] = (u, gi, du + 1)
                new.append(v)
                hit = other.get(v)
                if hit is not None:
                    cand = (du + 1 + hit[2], v)
                    if best is None or cand < best:
                        best = cand
        return new

    while f_frontier or b_frontier:
        if best is not None and best[0] <= df + db:
            break
        if df + db >= cap:
            capped = True
            break
        if (len(f_frontier) <= len(b_frontier) and f_frontier) or not b_frontier:
            f_frontier = expand(f_frontier, fwd, bwd)
            df += 1
        else:
            b_frontier = expand(b_frontier, bwd, fwd)
            db += 1

    if best is None or best[0] > cap:
        if not capped and best is None:
            # both searches exhausted their components: the induced subgraph
            # on the ball would have to be disconnected, which cannot happen
            # (parent chains connect everything to the identity)
            raise RuntimeError(f"ball subgraph disconnected between {i} and {j}")
        return None
    meet = best[1]
    left: list[str] = []
    u = meet
    while fwd[u][0] is not None:
        prev, gi, _ = fwd[u]
        left.append(names[gi])
        u = prev
    left.reverse()
    right: list[str] = []
    u = meet
    while bwd[u][0] is not None:
        prev, gi, _ = bwd[u]
        right.append(names[inv_gen[gi]])
        u = prev
    return tuple(left) + tuple(right)
