"""Almost-convexity measurement: K(m,n) profiles, higher-m consistency
reports, generating-set transfer checks, and validation of constructive
witness paths against the breadth-first optimum."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .explorer import Ball, inside_path, sphere_pairs


class ConstructionEscapedBall(AssertionError):
    """A constructive witness path left the ball it must stay inside."""


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
        writer.writerow(["group", "gens", "m", "n", "pairs", "K", "mean", "absent_under_cap"])
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
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        expected = ["group", "gens", "m", "n", "pairs", "K", "mean", "absent_under_cap"]
        if header != expected:
            raise ValueError(f"bad profile header: {header}")
        if not body:
            raise ValueError("empty profile")
        prof = cls(group=body[0][0], gens=body[0][1], m=int(body[0][2]), cap_rule="")
        for rec in body:
            pairs = int(rec[4])
            mean = float(rec[6])
            prof.rows.append(
                ProfileRow(
                    n=int(rec[3]),
                    pairs=pairs,
                    k_max=int(rec[5]),
                    total_len=round(mean * pairs),
                    absent_under_cap=int(rec[7]),
                )
            )
        return prof

    @classmethod
    def from_json(cls, text: str) -> "ConvexityProfile":
        payload = json.loads(text)
        prof = cls(group=payload["group"], gens=payload["gens"], m=payload["m"],
                   cap_rule=payload.get("cap_rule", ""))
        for rec in payload["rows"]:
            prof.rows.append(
                ProfileRow(
                    n=rec["n"],
                    pairs=rec["pairs"],
                    k_max=rec["K"],
                    total_len=round(rec["mean"] * rec["pairs"]),
                    absent_under_cap=rec["absent_under_cap"],
                )
            )
        return prof


def ac_profile(ball: Ball, m: int, n_max: Optional[int] = None,
               cap: Optional[Callable[[int], int]] = None,
               name: Optional[str] = None) -> ConvexityProfile:
    """K(m,n) for every n up to n_max, measured on a prebuilt ball."""
    if n_max is None:
        n_max = ball.radius
    if n_max > ball.radius:
        raise ValueError("profile radius exceeds ball radius")
    cap_fn = cap or (lambda n: 4 * n + 64)
    profile = ConvexityProfile(
        group=name or ball.group.fingerprint(),
        gens=" ".join(ball.gen_names),
        m=m,
        cap_rule="4n+64" if cap is None else "custom",
    )
    ball.adjacency()  # resolves every ball edge first: word groups register in call order
    for n in range(n_max + 1):
        pairs, k_max, total, absent = 0, -1, 0, 0
        for i, j, _q in sphere_pairs(ball, n, m):
            pairs += 1
            path = inside_path(ball, i, j, n, cap=cap_fn(n))
            if path is None:
                absent += 1
            else:
                k_max = max(k_max, len(path))
                total += len(path)
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
                    witness: Callable[[int, int, Sequence[str]], Sequence[str]],
                    bound: Optional[int] = None) -> dict:
    """Drive a constructive witness-path operation over every sphere-n pair
    and hard-check it never leaves the ball; record its worst length against
    the breadth-first optimum and an optional declared bound."""
    group = ball.group
    report = {"n": n, "pairs": 0, "max_constructive": 0, "max_optimal": 0,
              "bound": bound, "bound_ok": True}
    for i, j, q in sphere_pairs(ball, n, m):
        word = tuple(witness(i, j, q))
        elem = ball.elements[i]
        for pos, letter in enumerate(word):
            elem = group.multiply(elem, group.generator_images[letter])
            idx = ball.locate(elem)
            if idx is None or ball.lengths[idx] > n:
                raise ConstructionEscapedBall(
                    f"witness for pair ({i},{j}) left B({n}) after {pos + 1} letters"
                )
        if ball.locate(elem) != j:
            raise ConstructionEscapedBall(
                f"witness for pair ({i},{j}) ends at the wrong element"
            )
        optimal = inside_path(ball, i, j, n)
        assert optimal is not None and len(word) >= len(optimal)
        report["pairs"] += 1
        report["max_constructive"] = max(report["max_constructive"], len(word))
        report["max_optimal"] = max(report["max_optimal"], len(optimal))
    if bound is not None and report["max_constructive"] > bound:
        report["bound_ok"] = False
    return report
