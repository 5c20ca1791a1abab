"""Message-passing simulation of the dynamics as a distributed protocol.

The introduction of the paper observes that the learning dynamics "can inform
novel, low-memory, low-communication, distributed implementations of the MWU
algorithm in the stochastic setting; perhaps appropriate for low-power devices
in distributed settings such as sensor networks or the internet-of-things."

This subpackage makes that interpretation concrete.  Each group member is a
:class:`ProtocolNode` holding O(1) state (its current option and its
``(alpha, beta)`` parameters).  A round of the protocol exchanges two messages
per node over a :class:`LossyTransport` (which can drop or delay messages) —
a ``ChoiceQuery`` to one uniformly chosen peer and the corresponding
``ChoiceReply`` — after which the node locally observes the fresh quality
signal of the option it is considering and runs the adopt step.  A
:class:`CrashFailureModel` can permanently crash a fraction of nodes at chosen
rounds.

Two engines simulate the protocol's round law:

* :class:`DistributedLearningProtocol` — the explicit message-passing loop
  (one Python object per node and per message), which returns a
  :class:`ProtocolResult`; the reference semantics, and the only engine
  that models per-message *delay*; and
* :class:`BatchedProtocol` — ``R`` replicates advancing as ``(R, N)``
  choice/alive matrices per round (uniform peer sampling as one integer
  draw, query/reply loss as Bernoulli masks, crash-stop failures as a
  boolean alive mask), so a loss-rate x crash-fraction grid collapses into a
  few launches; it returns a :class:`BatchedProtocolResult` with
  per-replicate ``(R,)`` metrics, and ``R = 1`` runs a single replicate from
  its own seed.

The loop engine is the reference behind experiment E10 cross-validation; the
batched engine powers the E10 benchmark and the ``sensor_network.py``
example at scales the loop cannot reach.
"""

from repro.distributed.messages import ChoiceQuery, ChoiceReply, Message
from repro.distributed.transport import LossyTransport, TransportStats
from repro.distributed.node import ProtocolNode
from repro.distributed.failures import CrashFailureModel, FailureModel, NoFailures
from repro.distributed.protocol import DistributedLearningProtocol, ProtocolResult
from repro.distributed.vectorized import BatchedProtocol, BatchedProtocolResult

__all__ = [
    "Message",
    "ChoiceQuery",
    "ChoiceReply",
    "LossyTransport",
    "TransportStats",
    "ProtocolNode",
    "CrashFailureModel",
    "FailureModel",
    "NoFailures",
    "DistributedLearningProtocol",
    "ProtocolResult",
    "BatchedProtocol",
    "BatchedProtocolResult",
]
