"""Almost-convexity measurement: K(m,n) profiles, higher-m consistency
reports, generating-set transfer checks, and the check of constructive
witness paths on the ball's Cayley graph, next to the inside optimum."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from operator import add
from typing import Callable, Optional, Sequence

from .explorer import Ball, inside_distance, sphere_pair_counts, sphere_pairs


class ConstructionEscapedBall(AssertionError):
    """A constructive witness path left the ball it must stay inside."""


class PreconditionViolated(ValueError):
    """A witness construction was asked for a pair outside its hypotheses."""


@dataclass(frozen=True)
class ProfileRow:
    n: int
    pairs: int
    k_max: int  # -1 when no pairs exist at this radius
    total_len: int
    absent_under_cap: int

    @property
    def mean(self) -> float:
        return self.total_len / self.pairs if self.pairs else 0.0


_CSV_HEADER = ["group", "gens", "m", "n", "pairs", "K", "mean", "absent_under_cap"]


def _profile_row(n, pairs, k_max, mean, absent) -> ProfileRow:
    """A row from the fields of a profile file, with the total length
    recovered from the mean; ValueError for a field that is not a number."""
    try:
        count = int(pairs)
        return ProfileRow(n=int(n), pairs=count, k_max=int(k_max),
                          total_len=round(float(mean) * count),
                          absent_under_cap=int(absent))
    except (TypeError, ValueError):
        raise ValueError(f"profile row field is not a number: "
                         f"{[n, pairs, k_max, mean, absent]}") from None


@dataclass
class ConvexityProfile:
    group: str
    gens: str
    m: int
    cap_rule: str
    rows: list[ProfileRow] = field(default_factory=list)

    def k_values(self) -> list[int]:
        return [r.k_max for r in self.rows]

    def bounded_verdict(self, window: int = 4) -> bool:
        """Operational boundedness: the maximum of K(m,n) is attained before
        the last ``window`` radii and K is constant on them, and no pair was
        lost to the search cap."""
        if any(r.absent_under_cap for r in self.rows):
            return False
        ks = [r.k_max for r in self.rows if r.pairs]
        if len(ks) < window:
            return False
        peak = max(ks)
        return all(k == peak for k in ks[-window:])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for r in self.rows:
            writer.writerow(
                [self.group, self.gens, self.m, r.n, r.pairs, r.k_max,
                 f"{r.mean:.6f}", r.absent_under_cap]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "group": self.group,
            "gens": self.gens,
            "m": self.m,
            "cap_rule": self.cap_rule,
            "rows": [
                {
                    "n": r.n,
                    "pairs": r.pairs,
                    "K": r.k_max,
                    "mean": round(r.mean, 6),
                    "absent_under_cap": r.absent_under_cap,
                }
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ConvexityProfile":
        """Inverse of ``to_csv``; ValueError names what is malformed."""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise ValueError("empty profile file")
        header, body = rows[0], rows[1:]
        if header != _CSV_HEADER:
            raise ValueError(f"bad profile header: {header}")
        if not body:
            raise ValueError("empty profile")
        for rec in body:
            if len(rec) != len(_CSV_HEADER):
                raise ValueError(f"profile row has {len(rec)} fields, not "
                                 f"{len(_CSV_HEADER)}: {rec}")
        prof = cls(group=body[0][0], gens=body[0][1], m=int(body[0][2]), cap_rule="")
        prof.rows = [_profile_row(*rec[3:]) for rec in body]
        return prof

    @classmethod
    def from_json(cls, text: str) -> "ConvexityProfile":
        """Inverse of ``to_json``; ValueError names what is malformed."""
        payload = json.loads(text)
        try:
            prof = cls(group=payload["group"], gens=payload["gens"], m=payload["m"],
                       cap_rule=payload.get("cap_rule", ""))
            prof.rows = [_profile_row(rec["n"], rec["pairs"], rec["K"], rec["mean"],
                                      rec["absent_under_cap"])
                         for rec in payload["rows"]]
        except KeyError as exc:
            raise ValueError(f"profile JSON has no field {exc}") from None
        except TypeError:
            raise ValueError("a profile JSON is an object with a list of row "
                             "objects") from None
        return prof


def ac_profile(ball: Ball, m: int, n_max: Optional[int] = None,
               name: Optional[str] = None) -> ConvexityProfile:
    """K(m,n) for every n up to n_max, measured on a prebuilt ball.

    One walk per sphere vertex (``sphere_pair_counts``) counts, by distance
    d, the pairs joined by a geodesic inside B(n): their inside distance is
    exactly d, since no path is shorter than d, so a row adds up these
    counts with no work per pair (one with d over the cap counts as
    absent).  Only the other pairs run the bidirectional search
    (``inside_distance``), capped at 4n + 64.  Raises ValueError for
    m < 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n_max is None:
        n_max = ball.radius
    if n_max > ball.radius:
        raise ValueError("profile radius exceeds ball radius")
    profile = ConvexityProfile(
        group=name or ball.group.fingerprint(),
        gens=" ".join(ball.gen_names),
        m=m,
        cap_rule="4n+64",
    )
    for n in range(n_max + 1):
        cap = 4 * n + 64
        inside = [0] * m  # inside[d - 1]: pairs at distance d joined inside B(n)
        pairs, k_max, total, absent = 0, -1, 0, 0
        for i, counts, undecided in sphere_pair_counts(ball, n, m):
            inside = list(map(add, inside, counts))
            pairs += len(undecided)
            for j, _d in undecided:
                dist = inside_distance(ball, i, j, n, cap=cap)
                if dist is None:
                    absent += 1
                else:
                    k_max = max(k_max, dist)
                    total += dist
        for d, count in enumerate(inside, start=1):
            pairs += count
            if d > cap:
                absent += count
            elif count:
                k_max = max(k_max, d)
                total += d * count
        profile.rows.append(
            ProfileRow(n=n, pairs=pairs, k_max=k_max,
                       total_len=total, absent_under_cap=absent)
        )
    return profile


def ac2_consistency_report(profiles: dict[int, ConvexityProfile], window: int = 4) -> dict:
    """Observational corroboration that bounded K(2) forces bounded K(m):
    reports the boundedness verdict of each measured m and whether the higher
    profiles stay within the coarse chaining bound (m-1)*(K(2)+2)."""
    if 2 not in profiles:
        raise ValueError("a profile for m=2 is required")
    base = profiles[2]
    base_bounded = base.bounded_verdict(window)
    k2 = max((r.k_max for r in base.rows if r.pairs), default=0)
    report = {
        "k2_bounded": base_bounded,
        "k2_max": k2,
        "hypothesis_met": base_bounded,
        "per_m": {},
        "consistent": True,
    }
    for m, prof in sorted(profiles.items()):
        if m == 2:
            continue
        km = max((r.k_max for r in prof.rows if r.pairs), default=0)
        bound = (m - 1) * (k2 + 2)
        entry = {
            "k_max": km,
            "bounded": prof.bounded_verdict(window),
            "chain_bound": bound,
            "within_chain_bound": km <= bound,
        }
        report["per_m"][m] = entry
        if base_bounded and not (entry["bounded"] and entry["within_chain_bound"]):
            report["consistent"] = False
    if not base_bounded:
        report["consistent"] = None  # hypothesis fails; nothing to corroborate
    return report


def length_comparison_check(ball_a: Ball, ball_b: Ball) -> tuple[int, dict]:
    """Max length discrepancy over the elements of ball_a, both generating
    sets; elements of ball_a must be found in ball_b (else reported)."""
    k = 0
    missing = 0
    for idx in range(len(ball_a)):
        elem = ball_a.elements[idx]
        try:
            other = ball_b.length_of(elem)
        except KeyError:
            missing += 1
            continue
        k = max(k, abs(ball_a.lengths[idx] - other))
    details = {"elements": len(ball_a), "missing_in_other": missing}
    return k, details


def transfer_verdict(profile_a: ConvexityProfile, profile_b: ConvexityProfile,
                     window: int = 4) -> dict:
    a = profile_a.bounded_verdict(window)
    b = profile_b.bounded_verdict(window)
    return {"first_bounded": a, "second_bounded": b, "transfer_holds": a == b}


def compare_witness(ball: Ball, n: int, m: int,
                    witness: Callable[[int, int, Sequence[str]], Sequence[str]]) -> dict:
    """Drive a constructive witness-path operation over every sphere-n pair
    (i, j, q) of ``sphere_pairs`` and check on the Cayley graph's rows that
    each word it returns runs from i to j inside B(n); raises
    ConstructionEscapedBall otherwise.  Reports the number of pairs and the
    worst witness length next to the worst inside optimum.  The optimum is
    len(q) when the connector q stays inside B(n), and the length the
    bidirectional search ``inside_distance`` finds otherwise."""
    stop = ball.sphere(n).stop  # ids below it are exactly B(n)
    rows = ball.graph(n - ball.radius)
    gen_index = {name: gi for gi, name in enumerate(ball.gen_names)}
    report = {"n": n, "pairs": 0, "max_constructive": 0, "max_optimal": 0}
    for i, j, q in sphere_pairs(ball, n, m):
        word = tuple(witness(i, j, q))
        v = i
        for pos, letter in enumerate(word):
            v = rows[v][gen_index[letter]]
            if v >= stop:
                raise ConstructionEscapedBall(
                    f"witness for pair ({i},{j}) left B({n}) after {pos + 1} letters"
                )
        if v != j:
            raise ConstructionEscapedBall(
                f"witness for pair ({i},{j}) ends at the wrong element"
            )
        optimal = len(q)
        v = i
        for letter in q[:-1]:
            v = rows[v][gen_index[letter]]
            if v >= stop:
                optimal = inside_distance(ball, i, j, n)
                assert optimal is not None
                break
        assert len(word) >= optimal
        report["pairs"] += 1
        report["max_constructive"] = max(report["max_constructive"], len(word))
        report["max_optimal"] = max(report["max_optimal"], optimal)
    return report
