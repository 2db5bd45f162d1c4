"""Correctness checks on the program's outputs.

Every check compares against an independent computation or a property
of the method, never against a stored copy of earlier output, and
returns a list of problems (empty when the output passes).  The checks
take plain numbers and tuples so that ``selftest.py`` can hand them
doctored outputs and show that each one can fail.
"""

from __future__ import annotations

import math

#: Largest relative gap allowed between a Monte-Carlo mean and the
#: Appendix C recursion, on top of the sampling error.  The recursion
#: models acceptance slightly pessimistically: 20 000-run fast samples
#: sit 0.03-2.6 % below it, drum furthest.
MODEL_REL_TOL = 0.03
#: Standard errors of sampling noise allowed on top of the model gap for
#: a 1000-run sweep cell, whose mean is close to normal.  With the gap
#: above, no correct cell comes within 4 standard errors of the bound,
#: and a 10 % shift of any cell falls outside it.
MODEL_Z = 3.0
#: The same for a 20-run exact mean, which is skewed by push's and
#: pull's heavy tails; its resolution is in README.md.
EXACT_Z = 4.0
#: Standard errors allowed between the fast and mega means of one point.
ENGINES_Z = 4.5
#: Variance of rounding a continuous propagation time to whole rounds;
#: keeps the fast/mega bound from collapsing when both samples of a
#: two-run point happen to agree.
ROUNDING_VAR = 1.0 / 12.0
#: Drum's Fig 3a row may vary by at most this factor over x > 0.
DRUM_FLAT_RATIO = 1.15


def model_tolerance(runs, analytic, analytic_sd, z):
    """How far a mean of ``runs`` runs may lie from the recursion.

    The sampling error comes from the recursion's own standard
    deviation, not the sample's: pull's propagation time is heavy-tailed
    and 20 runs rarely sample the tail.
    """
    return MODEL_REL_TOL * analytic + z * analytic_sd / math.sqrt(runs)


def model_problems(label, mean, runs, analytic, analytic_sd, z=MODEL_Z):
    """``mean`` of ``runs`` runs against the Appendix C expectation."""
    tol = model_tolerance(runs, analytic, analytic_sd, z)
    if abs(mean - analytic) > tol:
        return [
            f"{label}: mean {mean:.4f} over {runs} runs is "
            f"{mean - analytic:+.4f} from Appendix C's {analytic:.4f} "
            f"(allowed ±{tol:.4f})"
        ]
    return []


def fig3a_shape_problems(rows):
    """Drum stays flat in x while push and pull grow.

    ``rows`` maps protocol -> {x: mean rounds}.
    """
    problems = []
    attacked = {p: [v for x, v in sorted(r.items()) if x > 0]
                for p, r in rows.items()}
    drum = attacked["drum"]
    if max(drum) > DRUM_FLAT_RATIO * min(drum):
        problems.append(f"drum is not flat in x: {drum}")
    for protocol in ("push", "pull"):
        values = [v for _, v in sorted(rows[protocol].items())]
        if any(b <= a for a, b in zip(values, values[1:])):
            problems.append(f"{protocol} does not grow with x: {values}")
        if values[-1] <= drum[-1]:
            problems.append(
                f"{protocol} at the largest x ({values[-1]}) is not slower "
                f"than drum ({drum[-1]})"
            )
    return problems


def same_values_problems(label, expected, got):
    """Exact equality, e.g. a warm store re-read against the cold run."""
    if list(expected) != list(got):
        return [f"{label}: {list(got)} != {list(expected)}"]
    return []


def engines_problems(label, fast, mega):
    """Fast and mega means of one point agree within sampling error.

    ``fast`` and ``mega`` are ``(mean, sd, runs)``.
    """
    (m1, s1, r1), (m2, s2, r2) = fast, mega
    se = math.sqrt((s1 * s1 + ROUNDING_VAR) / r1
                   + (s2 * s2 + ROUNDING_VAR) / r2)
    if abs(m1 - m2) > ENGINES_Z * se:
        return [
            f"{label}: fast mean {m1:.4f} and mega mean {m2:.4f} differ by "
            f"{abs(m1 - m2):.4f} > {ENGINES_Z} standard errors ({se:.4f})"
        ]
    return []


def stream_problems(label, deliveries, sent, members):
    """Delivery-log properties of one streamed experiment.

    ``deliveries`` is a list of ``(receiver, msg_id)`` (the source's own
    record included), ``sent`` the message ids the source multicast,
    and ``members`` the correct processes that may deliver.
    """
    problems = []
    sent = set(sent)
    members = set(members)
    foreign = [d for d in deliveries if d[1] not in sent]
    if foreign:
        problems.append(
            f"{label}: {len(foreign)} deliveries of ids the source never "
            f"sent, e.g. {foreign[0]}"
        )
    outsiders = [d for d in deliveries if d[0] not in members]
    if outsiders:
        problems.append(
            f"{label}: {len(outsiders)} deliveries at processes outside "
            f"the correct group, e.g. {outsiders[0]}"
        )
    if len(set(deliveries)) != len(deliveries):
        problems.append(
            f"{label}: {len(deliveries) - len(set(deliveries))} duplicate "
            f"(receiver, message) deliveries"
        )
    if len(deliveries) > len(members) * len(sent):
        problems.append(
            f"{label}: {len(deliveries)} deliveries exceed "
            f"{len(members)} processes x {len(sent)} messages"
        )
    return problems


def at_least_problems(label, value, floor):
    if not value >= floor:
        return [f"{label}: {value:.4f} is below {floor:.4f}"]
    return []


def reconcile_problems(label, mismatches):
    """``ObsCounters.reconcile_*`` output, which lists mismatches."""
    return [f"{label}: {m}" for m in mismatches]
