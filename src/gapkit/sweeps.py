"""The desk-scale experiment suite behind the acceptance criteria.

The dichotomy sweep builds certified approximation pairs from convergents
(and their p-adic lattice analogues), runs every combination through the
gap dichotomy with desk-mode constants (height floor lowered to 1, honest
values recorded in provenance), and tallies verdicts.  Each (number, pair)
quality hypothesis is certified once per instance, and each pair1's gap
threshold built once, however many pairs2 it meets.  The theorems predict
zero Violations; abstentions come only from undecidable enclosures and stay
far below the tolerated rate because every verdict comparison here is
exact, between integer cross powers.
"""

from __future__ import annotations

from fractions import Fraction

from .algnum import AlgNum
from .gap import (AbstainError, ApproxPair, GapConstants, HypothesisError,
                  MobiusRelation, archimedean_constants, certify_hypotheses,
                  dichotomy_verdict, gap_threshold, mobius_relation,
                  nonarchimedean_constants, thue_siegel_params)
from .minpair import find_pair
from .padic import good_padic_approximations, hensel_root
from .parse import parse_poly
from .record import Record
from .rounding import compact_str
from .thue import convergents


class SweepInstance(Record):
    __slots__ = ("name", "metric", "alpha", "beta", "mu", "c0", "constants", "relation",
                 "pairs_alpha", "pairs_beta")

    def __init__(self, name: str, metric: str, alpha: object, beta: object,  # AlgNum | PadicAlgNum
                 mu: Fraction, c0: Fraction, constants: GapConstants,
                 relation: MobiusRelation | None, pairs_alpha: list[ApproxPair],
                 pairs_beta: list[ApproxPair]):
        self._init(name, metric, alpha, beta, mu, c0, constants, relation, pairs_alpha, pairs_beta)


# the standing desk instances: the quartic pair of the minimal-pair example
# (no Moebius relation), a Moebius-linked cubic pair, and their p-adic twins
F_QUARTIC = parse_poly("x^4 - x^3 - 4*x^2 + 4*x + 1")
F_CUBIC = parse_poly("x^3 - 3*x - 1")
G_CUBIC = parse_poly("x^3 - 3*x + 1")


def _derived(rel: MobiusRelation | None, pairs: list[ApproxPair]) -> list[ApproxPair]:
    """The images under ``rel`` of the pairs that do not map to zero; none
    without a relation."""
    if rel is None:
        return []
    derived = []
    for p in pairs:
        try:
            derived.append(rel.image(p))
        except ZeroDivisionError:
            continue
    return derived


def _arch_instance(name, f_alpha, near_alpha, f_beta, near_beta, mu, c0) -> SweepInstance:
    alpha = AlgNum.near(f_alpha, near_alpha)
    beta = AlgNum.near(f_beta, near_beta)
    pair = find_pair(alpha, beta)
    rel = mobius_relation(alpha, beta, rep=pair.rep)
    constants = archimedean_constants(alpha, beta, mu, c0,
                                      pair=pair, rep=pair.rep).desk_mode()
    pa = convergents(alpha, 14)
    pb = convergents(beta, 14) + _derived(rel, pa)
    return SweepInstance(name, "archimedean", alpha, beta, mu, c0, constants,
                         rel, pa, pb)


def _padic_instance(name, f_alpha, near_alpha, prime, r_alpha, f_beta,
                    near_beta, r_beta, mu, c0) -> SweepInstance:
    alg_alpha = AlgNum.near(f_alpha, near_alpha)
    alg_beta = AlgNum.near(f_beta, near_beta)
    xi_alpha = hensel_root(f_alpha, prime, r_alpha)
    xi_beta = hensel_root(f_beta, prime, r_beta)
    pair = find_pair(alg_alpha, alg_beta)
    rel = mobius_relation(alg_alpha, alg_beta, rep=pair.rep)
    constants = nonarchimedean_constants(xi_alpha, pair, mu, c0).desk_mode()
    pa = [ApproxPair.reduced(x, y)
          for x, y in good_padic_approximations(xi_alpha, 16)]
    pb = [ApproxPair.reduced(x, y)
          for x, y in good_padic_approximations(xi_beta, 16)] + _derived(rel, pa)
    return SweepInstance(name, "p-adic", xi_alpha, xi_beta, mu, c0, constants,
                         rel, pa, pb)


def default_instances() -> list[SweepInstance]:
    return [
        _arch_instance("quartic-2cos2pi15-no-relation",
                       F_QUARTIC, Fraction(1827, 1000),
                       F_QUARTIC, Fraction(1338, 1000),
                       Fraction(7, 2), Fraction(10 ** 5)),
        _arch_instance("cubic-moebius-relation",
                       F_CUBIC, Fraction(1879, 1000),
                       G_CUBIC, Fraction(1532, 1000),
                       Fraction(11, 4), Fraction(10 ** 4)),
        _padic_instance("padic17-cubic-moebius",
                        F_CUBIC, Fraction(1879, 1000), 17, 3,
                        G_CUBIC, Fraction(1532, 1000), 7,
                        Fraction(11, 4), Fraction(10 ** 4)),
        _padic_instance("padic29-quartic-no-relation",
                        F_QUARTIC, Fraction(1827, 1000), 29, 4,
                        F_QUARTIC, Fraction(1338, 1000), 14,
                        Fraction(7, 2), Fraction(10 ** 5)),
    ]


def dichotomy_sweep(min_pairs: int = 200) -> dict:
    """Run the gap dichotomy on every qualifying approximation pair of every
    default instance, as ``check_gap_dichotomy`` does pair by pair; the
    theorems say Violation never appears."""
    totals = {"checked": 0, "violations": 0, "abstentions": 0,
              "skipped_hypothesis": 0}
    verdicts: dict[str, int] = {}
    per_instance = []
    for inst in default_instances():
        counts = {"checked": 0, "violations": 0, "abstentions": 0,
                  "skipped_hypothesis": 0, "verdicts": {}}
        memo = {}   # the instance's quality certificates (``certify_hypotheses``)
        for p1 in inst.pairs_alpha:
            threshold = gap_threshold(inst.constants, p1.height)
            for p2 in inst.pairs_beta:
                if p2.height < p1.height:
                    continue
                try:
                    certify_hypotheses(inst.alpha, inst.beta, inst.mu, inst.c0, p1, p2,
                                       inst.constants, memo)
                except HypothesisError:
                    counts["skipped_hypothesis"] += 1
                    continue
                except AbstainError:
                    counts["abstentions"] += 1
                    continue
                v = dichotomy_verdict(p1, p2, inst.constants, threshold, inst.relation)
                counts["checked"] += 1
                counts["verdicts"][v.verdict] = counts["verdicts"].get(v.verdict, 0) + 1
                if v.verdict == "Violation":
                    counts["violations"] += 1
        for k in ("checked", "violations", "abstentions", "skipped_hypothesis"):
            totals[k] += counts[k]
        for k, n in counts["verdicts"].items():
            verdicts[k] = verdicts.get(k, 0) + n
        per_instance.append({
            "instance": inst.name, "metric": inst.metric,
            "mu": str(inst.mu), "C0": str(inst.c0),
            "honest_C_small": next(
                (v for k, v in inst.constants.provenance
                 if k.startswith("desk-mode")), None),
            "C_big": compact_str(inst.constants.c_big, True),
            **counts,
        })
    denom = totals["checked"] + totals["abstentions"]
    rate = totals["abstentions"] / denom if denom else 0.0
    return {
        "instances": per_instance,
        "totals": totals,
        "verdicts": verdicts,
        "abstention_rate": rate,
        "enough_pairs": totals["checked"] >= min_pairs,
        "zero_violations": totals["violations"] == 0,
    }


def thue_siegel_range_check(d_max: int = 1000) -> dict:
    """Certified lambda and delta bounds plus interval membership for every
    degree 3 <= d <= d_max (the parameter constructor asserts internally)."""
    for d in range(3, d_max + 1):
        thue_siegel_params(d)
    return {"range": [3, d_max], "all_certified": True}


def counting_reproduction() -> dict:
    """The headline counting arithmetic."""
    from .gap import count_bound, f_floor

    f3 = f_floor(3)
    f14 = f_floor(10 ** 14)
    return {
        "floor_f_3": f3,
        "bound_24_f3": 24 * f3,
        "floor_f_1e14": f14,
        "bound_24_f1e14": 24 * f14,
        "count_bound_d3_gamma12_doubled": 2 * count_bound(3, Fraction(11, 4), 12),
    }


def full_sweep(min_pairs: int = 200, d_max: int = 1000) -> dict:
    return {
        "dichotomy": dichotomy_sweep(min_pairs=min_pairs),
        "thueSiegelParams": thue_siegel_range_check(d_max),
        "counting": counting_reproduction(),
    }
