"""Prediction-error measures.

Three candidate measures are exposed: the plain sum of per-edge
discrepancies, a min/max optimum gap, and the measure actually used to
analyze the algorithms: the sum of the ``n-1`` largest discrepancies,
normalized by the true optimum cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import WmstInstance


def eta1(instance: WmstInstance) -> Fraction:
    """Total absolute discrepancy over all edges."""
    prepared = instance.prepared
    gaps = (abs(p - a) for p, a in zip(prepared.predicted_scaled, prepared.actual_scaled))
    return Fraction(sum(gaps), prepared.scale)


def eta2(instance: WmstInstance) -> Fraction:
    """Gap between the optima of the pointwise-upper and lower weight maps.

    The upper map keeps whichever of the predicted/actual weight is larger
    on each edge, the lower map whichever is smaller, and the result is the
    difference of the two minimum spanning tree costs (never negative).
    Only the costs matter, so tie-breaking inside ``mst`` cannot affect it.
    """
    prepared = instance.prepared
    pairs = list(zip(prepared.predicted_scaled, prepared.actual_scaled))
    upper = [max(p, a) for p, a in pairs]
    lower = [min(p, a) for p, a in pairs]
    return prepared.mst_cost(upper) - prepared.mst_cost(lower)


def eta(instance: WmstInstance) -> Fraction:
    """Sum of the ``n-1`` largest per-edge discrepancies.

    ``n-1`` is the size of any spanning tree, which caps the damage dense
    graphs can accumulate.  Computed by ``PreparedInstance.eta`` on integer
    weights of one common scale.
    """
    return instance.prepared.eta


@dataclass(frozen=True)
class ErrorReport:
    """All error measures of one instance, plus both optimum costs."""

    eta1: Fraction
    eta2: Fraction
    eta: Fraction
    opt_actual: Fraction
    opt_predicted: Fraction
    epsilon: Fraction


def error_report(instance: WmstInstance) -> ErrorReport:
    """Bundle every measure with OPT under both weight maps.

    ``epsilon`` is the headline error normalized by the true optimum,
    reported as an exact rational.  Both optima and all three measures come
    from ``instance.prepared``, which a run or an estimate on the same
    instance shares; the predicted optimum is its ``tree``.
    """
    prepared = instance.prepared
    return ErrorReport(
        eta1=eta1(instance),
        eta2=eta2(instance),
        eta=prepared.eta,
        opt_actual=prepared.opt,
        opt_predicted=Fraction(sum(map(prepared.predicted_scaled.__getitem__, prepared.tree)),
                               prepared.scale),
        epsilon=prepared.eta / prepared.opt,
    )
