"""The dichotomy sweep against the per-pair dichotomy check."""

from gapkit import gap, sweeps
from gapkit.gap import (AbstainError, HypothesisError, certify_quality_below,
                        check_gap_dichotomy)


def _outcome(check) -> str:
    """The verdict of ``check()``, or "skipped" or "abstained"."""
    try:
        return check().verdict
    except HypothesisError:
        return "skipped"
    except AbstainError:
        return "abstained"


def test_the_sweep_decides_each_pair_as_the_per_pair_check(monkeypatch):
    # the sweep's outcome of each pair, in the sweep's order, read off its
    # hypothesis and verdict calls, against check_gap_dichotomy on the same
    # pair, which certifies both hypotheses afresh
    instances, swept = [], []
    real_instances = sweeps.default_instances

    def hypotheses(alpha, beta, mu, c0, pair1, pair2, constants, memo):
        try:
            gap.certify_hypotheses(alpha, beta, mu, c0, pair1, pair2, constants, memo)
        except HypothesisError:
            swept.append((constants, pair1, pair2, "skipped"))
            raise
        except AbstainError:
            swept.append((constants, pair1, pair2, "abstained"))
            raise
        swept.append((constants, pair1, pair2, None))

    def verdict(pair1, pair2, constants, threshold, relation):
        assert swept[-1] == (constants, pair1, pair2, None)
        v = gap.dichotomy_verdict(pair1, pair2, constants, threshold, relation)
        swept[-1] = (constants, pair1, pair2, v.verdict)
        return v

    monkeypatch.setattr(sweeps, "default_instances",
                        lambda: instances.extend(real_instances()) or instances)
    monkeypatch.setattr(sweeps, "certify_hypotheses", hypotheses)
    monkeypatch.setattr(sweeps, "dichotomy_verdict", verdict)
    rpt = sweeps.dichotomy_sweep()
    want = [(inst.constants, p1, p2, _outcome(lambda: check_gap_dichotomy(
                inst.alpha, inst.beta, inst.mu, inst.c0, p1, p2, inst.constants, inst.relation)))
            for inst in instances for p1 in inst.pairs_alpha for p2 in inst.pairs_beta
            if p2.height >= p1.height]
    assert swept == want
    outcomes = [w[-1] for w in want]
    assert {"skipped", "GapHolds", "Both"} <= set(outcomes)
    assert rpt["totals"] == {"checked": len(want) - outcomes.count("skipped")
                             - outcomes.count("abstained"),
                             "violations": outcomes.count("Violation"),
                             "abstentions": outcomes.count("abstained"),
                             "skipped_hypothesis": outcomes.count("skipped")}


def test_the_sweep_certifies_each_number_and_pair_once(monkeypatch):
    # the hypothesis checks of the sweep's pairs need 126 distinct (number,
    # pair) certificates; alpha and beta share the pairs 1/1 (and 2/1),
    # which each certify apart
    calls = []
    monkeypatch.setattr(gap, "certify_quality_below",
                        lambda number, pair, mu, c0: calls.append((number, pair))
                        or certify_quality_below(number, pair, mu, c0))
    sweeps.dichotomy_sweep()
    assert len(calls) == len(set(calls)) == 126


def test_each_instance_lists_each_pair_once():
    # beta's pairs are its own and the Moebius images of alpha's, each once:
    # the two linked instances listed 13 and 7 pairs twice
    instances = sweeps.default_instances()
    for inst in instances:
        for pairs in (inst.pairs_alpha, inst.pairs_beta):
            assert len(pairs) == len(set(pairs)), inst.name
        assert set(sweeps._derived(inst.relation, inst.pairs_alpha)) <= set(inst.pairs_beta)
    assert [len(i.pairs_beta) for i in instances] == [14, 15, 25, 16]
