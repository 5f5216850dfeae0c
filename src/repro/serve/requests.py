"""The request record and its terminal outcomes.

A request is born when a closed-loop client issues it and dies exactly
once, with one of the :data:`OUTCOMES`.  The zero-drop accounting
identity the regression suite pins — ``issued == sum(outcome counts)`` —
falls out of that single-death discipline: every admission decision,
retry, failover re-home, and brownout steer is a *transfer* of a live
request, never a fork or a silent drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Terminal outcomes; every issued request ends in exactly one.
#:
#: ``ok``
#:     Served; latency recorded (a late success additionally bumps the
#:     soft ``serve.deadline_miss`` counter).
#: ``shed``
#:     Rejected by admission control on a full queue (``shed`` mode).
#: ``deadline``
#:     Abandoned: its deadline passed while queued/waiting, or the next
#:     retry backoff could not finish inside the budget.
#: ``error``
#:     Failed every attempt of its bounded retry budget (the serving
#:     analogue of :class:`repro.errors.ReadRetriesExhausted`).
#: ``failed``
#:     Hit a dead shard under the ``fail-stop`` policy, or the whole
#:     array was lost.
OUTCOMES: Tuple[str, ...] = ("ok", "shed", "deadline", "error", "failed")


@dataclass
class Request:
    """One in-flight service request (mutable: attempts accumulate)."""

    #: Globally unique id, in issue order.
    rid: int
    #: Issuing client (responses re-arm this client's think timer).
    client: int
    #: Global block address (decoded to a shard at admission time).
    address: int
    is_write: bool
    #: Virtual tick the client issued it.
    issued_at: int
    #: Absolute virtual-tick deadline.
    deadline: int
    #: Failed attempts so far (stalls and breaker fast-fails).
    attempts: int = 0
    #: True while this request is the breaker's half-open probe.
    probe: bool = False


__all__ = ["Request", "OUTCOMES"]
