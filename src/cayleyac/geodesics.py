"""Standard geodesics for the Heisenberg lattices in the plain generating
sets {x,y} (square) and {x,y,t} (hexagonal).

Square case: closed-form construction.  For a first-quadrant target (a,b)
with fiber t = e*A, the minimal word has length a+b+2k where k is least with
A inside the reachable interval; the witness first wraps a staircase around
the extremal rectangle of the previous shell, crosses, and finishes along
the extremal of its own shell.  Targets in other quadrants and below the
base interval reduce to this by the lattice symmetries.

Hexagonal case: the reachable fiber set over each base point is an interval;
a length-indexed interval recurrence over the generator images of the
hexagonal ``NilGroup`` determines minimal length exactly and a backtrack
through it produces a witness word.

Witness paths: ``witness_path_hex`` joins two sphere-n elements at distance
<= 2 inside B(n) by the paper's recipe (back up, cross, correct the centre,
run forward), evaluating every word in that same group.
"""

from __future__ import annotations

from .convexity import PreconditionViolated
from .lattice import loop_enclosing_area
from .nil import NilElement, NilGenSet, NilGroup
from .words import Word, word_inverse


class UnreachableElement(ValueError):
    """The element lies outside the subgroup the plain set generates
    (fiber coordinate not a multiple of e)."""


_MIRROR_X = {"x": "x-", "x-": "x", "y": "y", "y-": "y-"}
_MIRROR_Y = {"x": "x", "x-": "x-", "y": "y-", "y-": "y"}
_SWAP_XY = {"x": "y", "y": "x", "x-": "y-", "y-": "x-"}


def _substitute(word, table) -> Word:
    return tuple(table[letter] for letter in word)


# ---------------------------------------------------------------------------
# Square case.


def _shell_max(a: int, b: int, k: int) -> int:
    """Largest reachable fiber value (in area units) over (a,b), a,b >= 0,
    among words of length a+b+2k: max over i+j=k of j(a+i) + i*b."""
    if k == 0:
        return 0
    return max((k - i) * (a + i) + i * b for i in range(k + 1))


def _staircase_depths(count: int, cap: int, total: int) -> list[int]:
    """Nondecreasing integers d_1 <= ... <= d_count in [0, cap] with the given
    sum, filled greedily from the end."""
    assert 0 <= total <= count * cap
    depths = [0] * count
    rem = total
    limit = cap
    for idx in range(count - 1, -1, -1):
        d = min(limit, rem)
        depths[idx] = d
        rem -= d
        limit = d
    assert rem == 0
    return depths


def _first_quadrant_word(a: int, b: int, A: int) -> Word:
    """Geodesic word for (a, b, e*A) with a, b >= 0 and A >= -a*b."""
    if -a * b <= A <= 0:
        # base shell: a monotone staircase; y-steps at x-positions x_1<=..<=x_b
        # with sum a*b + A
        positions = _staircase_depths(b, a, a * b + A) if b else []
        if b == 0:
            assert A == 0
            return ("x",) * a
        word: list[str] = []
        cur = 0
        for pos in positions:
            word += ["x"] * (pos - cur)
            word.append("y")
            cur = pos
        word += ["x"] * (a - cur)
        return tuple(word)

    # high side: wrap below the axis and around the right edge
    k = 1
    while _shell_max(a, b, k) < A:
        k += 1
    best = None
    for i in range(k + 1):
        j = k - i
        value = j * (a + i) + i * b
        if best is None or value > best[0]:
            best = (value, i, j)
    _, i, j = best
    p = a + i
    u1 = max(0, A - i * b)  # area collected below the axis
    h2 = A - u1  # area collected along the left-moving stretch
    assert 0 <= u1 <= p * j and 0 <= h2 <= i * b

    word = []
    # phase 1: down/right staircase from (0,0) to (p,-j)
    depths = _staircase_depths(p, j, u1) if p else []
    cur = 0
    for d in depths:
        word += ["y-"] * (d - cur)
        word.append("x")
        cur = d
    word += ["y-"] * (j - cur)
    # phase 2: up/left staircase from (p,-j) to (a,b)
    heights = [g - j for g in _staircase_depths(i, b + j, h2 + i * j)] if i else []
    cur = -j
    for h in heights:
        word += ["y"] * (h - cur)
        word.append("x-")
        cur = h
    word += ["y"] * (b - cur)
    return tuple(word)


def square_geodesic(g: NilElement, e: int = 1) -> Word:
    """A word over {x,y} of minimal length evaluating to g in N^e."""
    a, b, t = g
    if t % e:
        raise UnreachableElement(f"fiber {t} is not a multiple of e={e}")
    A = t // e
    ops = []
    if a < 0:
        a, A = -a, -A
        ops.append(_MIRROR_X)
    if b < 0:
        b, A = -b, -A
        ops.append(_MIRROR_Y)
    if A < -a * b:
        a, b, A = b, a, -A - a * b
        ops.append(_SWAP_XY)
    word = _first_quadrant_word(a, b, A)
    for table in reversed(ops):
        word = _substitute(word, table)
    return word


def square_length(g: NilElement, e: int = 1) -> int:
    """Minimal {x,y}-length of g in N^e, from the shell formula."""
    a, b, t = g
    if t % e:
        raise UnreachableElement(f"fiber {t} is not a multiple of e={e}")
    A = t // e
    if a < 0:
        a, A = -a, -A
    if b < 0:
        b, A = -b, -A
    if A > 0:
        pass
    elif A >= -a * b:
        return a + b
    else:
        a, b, A = b, a, -A - a * b
    k = 1
    while _shell_max(a, b, k) < A:
        k += 1
    return a + b + 2 * k


# ---------------------------------------------------------------------------
# Hexagonal case: interval recurrence over (position, length).


class HexGeodesicTable:
    """Reachable fiber intervals for every base point, indexed by word length.

    layers[L] maps (a, b) -> (lo, hi): the fiber values (in area units)
    reachable from the origin by {x,y,t}-words of length <= L.  The interval
    property is inherited from the geometry; the backtracking would fail
    loudly if it broke.

    The moves are the generator images (da, db, dt) of ``group``, taken in
    alphabet order; the backtrack takes the first move that fits, so the
    order fixes the word.  A move arriving at height b multiplies
    (a, b - db, t) by its image, which adds (dt/e + da*db) - da*b to the
    fiber in area units.
    """

    def __init__(self, e: int = 1):
        self.e = e
        self.group = NilGroup(e, NilGenSet("hexagonal", include_z=False))
        images = self.group.generator_images
        # (letter, da, db, fiber constant in area units)
        self.moves = tuple((name, da, db, dt // e + da * db)
                           for name in self.group.alphabet.names
                           for da, db, dt in (images[name],))
        self.layers: list[dict[tuple[int, int], tuple[int, int]]] = [{(0, 0): (0, 0)}]

    def grow_to(self, length: int):
        while len(self.layers) <= length:
            prev = self.layers[-1]
            nxt: dict[tuple[int, int], tuple[int, int]] = dict(prev)
            for (a, b), (lo, hi) in prev.items():
                for _letter, da, db, const in self.moves:
                    pos = (a + da, b + db)
                    d = const - da * pos[1]
                    cand = (lo + d, hi + d)
                    old = nxt.get(pos)
                    if old is None:
                        nxt[pos] = cand
                    else:
                        nxt[pos] = (min(old[0], cand[0]), max(old[1], cand[1]))
            self.layers.append(nxt)

    def length(self, g: NilElement, limit: int = 256) -> int:
        a, b, t = g
        if t % self.e:
            raise UnreachableElement(f"fiber {t} is not a multiple of e={self.e}")
        A = t // self.e
        for L in range(limit + 1):
            self.grow_to(L)
            iv = self.layers[L].get((a, b))
            if iv and iv[0] <= A <= iv[1]:
                return L
        raise UnreachableElement(f"{g} not reached within length {limit}")

    def geodesic(self, g: NilElement, limit: int = 256) -> Word:
        L = self.length(g, limit)
        a, b, t = g
        A = t // self.e
        letters: list[str] = []
        pos = (a, b)
        val = A
        for budget in range(L, 0, -1):
            found = False
            for letter, da, db, const in self.moves:
                prev_pos = (pos[0] - da, pos[1] - db)
                iv = self.layers[budget - 1].get(prev_pos)
                if iv is None:
                    continue
                d = const - da * pos[1]
                if iv[0] <= val - d <= iv[1]:
                    letters.append(letter)
                    pos = prev_pos
                    val -= d
                    found = True
                    break
            if not found:
                raise AssertionError(f"interval recurrence broke at {pos}, {val}")
        assert pos == (0, 0) and val == 0
        return tuple(reversed(letters))


def standard_geodesic(g: NilElement, kind: str = "square", e: int = 1,
                      table: HexGeodesicTable | None = None) -> Word:
    """Minimal-length word for g over the plain square or hexagonal set."""
    if kind == "square":
        return square_geodesic(g, e)
    if kind == "hexagonal":
        return (table or HexGeodesicTable(e)).geodesic(g)
    raise ValueError(f"unknown kind: {kind}")


# ---------------------------------------------------------------------------
# Witness path between nearby sphere elements (hexagonal set).


def hex_z2_geodesic(start: tuple[int, int], end: tuple[int, int]) -> Word:
    """A geodesic in Z^2 with the hexagonal step set, from start to end."""
    da = end[0] - start[0]
    db = end[1] - start[1]
    word: list[str] = []
    if da * db > 0:
        diag = min(abs(da), abs(db))
        word += ["t" if da > 0 else "t-"] * diag
        da -= diag if da > 0 else -diag
        db -= diag if db > 0 else -diag
    word += (["x"] * da) if da > 0 else (["x-"] * -da)
    word += (["y"] * db) if db > 0 else (["y-"] * -db)
    return tuple(word)


def witness_path_hex(g: NilElement, g_prime: NilElement, r: Word, n: int,
                     e: int = 1, split: int = 900,
                     table: HexGeodesicTable | None = None) -> Word:
    """A word labelling a path from g to g_prime whose vertices all stay in
    the ball of radius n, for sphere-n elements at distance <= 2.

    Below the split threshold the connection goes through the identity along
    standard geodesics.  Above it, the path backs up a length-``split`` tail,
    crosses between the truncated geodesics, inserts a central correction
    loop for the enclosed area, and runs forward again.  Words are evaluated
    in the table's hexagonal group.
    """
    table = table or HexGeodesicTable(e)
    group = table.group
    if table.length(g) != n or table.length(g_prime) != n:
        raise PreconditionViolated("endpoints must lie on the sphere of radius n")
    if len(r) > 2:
        raise PreconditionViolated("connector longer than 2")
    if group.multiply(g, group.evaluate(r)) != g_prime:
        raise PreconditionViolated("g' != g * eval(r)")
    if g == g_prime:
        return ()

    w = table.geodesic(g)
    w_prime = table.geodesic(g_prime)
    if n <= split:
        return word_inverse(w, group.alphabet) + w_prime

    u, v = w[:-split], w[-split:]
    u_p, v_p = w_prime[:-split], w_prime[-split:]
    ubar, ubar_p = group.evaluate(u), group.evaluate(u_p)
    q = hex_z2_geodesic((ubar[0], ubar[1]), (ubar_p[0], ubar_p[1]))
    if len(q) > 50:
        raise PreconditionViolated(f"crossing path too long ({len(q)})")
    # central correction: gamma evaluates to qbar^-1 ubar^-1 ubar'
    resid = group.multiply(group.invert(group.evaluate(q)),
                           group.multiply(group.invert(ubar), ubar_p))
    assert resid[0] == 0 and resid[1] == 0
    assert resid[2] % group.e == 0
    gamma = loop_enclosing_area(resid[2] // group.e)
    path = word_inverse(v, group.alphabet) + q + gamma + v_p
    assert group.multiply(g, group.evaluate(path)) == g_prime
    return path
