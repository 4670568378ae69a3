"""Canned environment builders shared by experiments, examples, and tests.

Each builder assembles one of the paper's hypothesis bundles (detector
class + contention manager + channel behaviour) with explicit
stabilization rounds, so termination measurements can be taken relative
to a known CST.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..adversary.churn import ChurnAdversary, NoChurn
from ..adversary.crash import CrashAdversary, NoCrashes
from ..adversary.loss import (
    EventualCollisionFreedom,
    IIDLoss,
    LossAdversary,
    SilenceLoss,
)
from ..contention.services import NoContentionManager, WakeUpService
from ..core.environment import Environment
from ..core.types import ProcessId
from ..detectors.classes import DetectorClass, MAJ_OAC, ZERO_AC, ZERO_OAC
from ..detectors.detector import ParametricCollisionDetector
from ..detectors.policy import DetectorPolicy, SpuriousUntilPolicy
from ..detectors.properties import AccuracyMode


def ecf_detector(
    detector_class: DetectorClass,
    cst: int = 1,
    policy: Optional[DetectorPolicy] = None,
) -> ParametricCollisionDetector:
    """The member of ``detector_class`` that :func:`ecf_environment` runs.

    An eventually-accurate class is accurate from ``cst``; without a
    ``policy``, every free choice before ``cst`` is a spurious collision
    (:class:`SpuriousUntilPolicy`).  Both E19 topologies build their
    detector here, so a class that admits no such member (NoCD, whose
    one detector takes no policy) is refused alike on each.
    """
    if policy is None and cst > 1:
        policy = SpuriousUntilPolicy(cst)
    if detector_class.accuracy is AccuracyMode.EVENTUAL:
        return detector_class.make(r_acc=cst, policy=policy)
    return detector_class.make(policy=policy)


def ecf_environment(
    n: int,
    detector_class: DetectorClass = ZERO_OAC,
    cst: int = 1,
    loss_rate: float = 0.3,
    seed: int = 0,
    crash: Optional[CrashAdversary] = None,
    detector_policy: Optional[DetectorPolicy] = None,
    indices: Optional[Sequence[ProcessId]] = None,
    churn: Optional[ChurnAdversary] = None,
) -> Environment:
    """The standard upper-bound setting: WS + ECF + chosen detector class.

    All three stabilization rounds (``r_wake``, ``r_acc``, ``r_cf``)
    coincide at ``cst``; before it, the channel drops messages IID, the
    detector may produce spurious collisions (for eventually-accurate
    classes), and the wake-up service lets everyone talk at once.
    """
    idx = tuple(indices) if indices is not None else tuple(range(n))
    return Environment(
        indices=idx,
        detector=ecf_detector(detector_class, cst, detector_policy),
        contention=WakeUpService(stabilization_round=cst),
        loss=EventualCollisionFreedom(
            IIDLoss(loss_rate, seed=seed), r_cf=cst
        ),
        crash=crash or NoCrashes(),
        churn=churn or NoChurn(),
    )


def maj_oac_environment(n: int, cst: int = 1, seed: int = 0, **kwargs) -> Environment:
    """Algorithm 1's hypothesis bundle."""
    return ecf_environment(n, MAJ_OAC, cst=cst, seed=seed, **kwargs)


def zero_oac_environment(n: int, cst: int = 1, seed: int = 0, **kwargs) -> Environment:
    """Algorithm 2's hypothesis bundle."""
    return ecf_environment(n, ZERO_OAC, cst=cst, seed=seed, **kwargs)


def nocf_environment(
    n: int,
    crash: Optional[CrashAdversary] = None,
    loss: Optional[LossAdversary] = None,
    indices: Optional[Sequence[ProcessId]] = None,
) -> Environment:
    """Algorithm 3's hypothesis bundle: 0-AC, NoCM, unrestricted loss.

    The default channel is total silence — the harshest legal behaviour.
    """
    idx = tuple(indices) if indices is not None else tuple(range(n))
    return Environment(
        indices=idx,
        detector=ZERO_AC.make(),
        contention=NoContentionManager(),
        loss=loss or SilenceLoss(),
        crash=crash or NoCrashes(),
    )
