"""The closed-loop simulator: attackers and defense in the same loop.

The batch generator writes a whole access log, then the detectors read
it.  The :class:`ClosedLoopSimulator` instead advances a population of
:class:`~repro.traffic.stepping.SteppedActor` objects one request at a
time through a single global event queue: the earliest pending request is
emitted, pushed through the :class:`~repro.mitigation.gateway.EnforcementGateway`,
and the resulting :class:`~repro.traffic.stepping.Feedback` is delivered
to the emitting actor *before* it schedules its next request.  Adaptive
attackers can therefore rotate identities, back off or give up in direct
response to the defense -- and humans can bounce off a challenge they
failed.

The run is fully deterministic given the seed (one child random
generator per actor, exactly like the batch
:class:`~repro.traffic.generator.TrafficGenerator`), and produces both a
labelled :class:`~repro.logs.dataset.Dataset` of every *attempted*
request and the gateway's enforcement log, so one simulation feeds the
Tables 1-4 analysis and the Table-5-style mitigation report alike.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from repro.logs.dataset import Dataset, DatasetMetadata, GroundTruth
from repro.logs.record import LogRecord, RequestMethod
from repro.mitigation.gateway import EnforcementGateway, EnforcementOutcome, GatewayResult
from repro.mitigation.log import EnforcementLog
from repro.stream.engine import StreamResult
from repro.traffic.actors import RequestEvent, TimeWindow
from repro.traffic.labels import actor_label
from repro.traffic.stepping import Feedback, SteppedActor, SteppedPopulation


@dataclass
class SimulationResult:
    """Everything one closed-loop run produced."""

    #: Every *attempted* request, labelled with ground truth (what the
    #: edge logged; denied requests are included, as an edge log would).
    dataset: Dataset
    #: The streaming engine's detection output over the attempted stream.
    stream_result: StreamResult
    #: The gateway's action-by-action account.
    log: EnforcementLog
    #: Per request id: the actor that sent it.
    actor_ids: dict[str, str]
    #: Per request id: the actor class that sent it.
    actor_classes: dict[str, str]
    #: The population that produced the traffic (post-run state intact,
    #: so adaptive-attacker cost counters can be read off the actors).
    population: SteppedPopulation
    window: TimeWindow

    @property
    def total_requests(self) -> int:
        """Total number of attempted requests."""
        return len(self.dataset)


def _event_to_record(request_id: str, event: RequestEvent) -> LogRecord:
    """One request event as a validated log record: the gateway judges records one at a time."""
    return LogRecord(
        request_id=request_id,
        timestamp=event.timestamp,
        client_ip=event.client_ip,
        method=RequestMethod.from_string(event.method),
        path=event.path,
        protocol=event.protocol,
        status=event.status,
        response_size=event.response_size,
        referrer=event.referrer,
        user_agent=event.user_agent,
    )


def _outcome_feedback(outcome: EnforcementOutcome) -> Feedback:
    """Translate a gateway outcome into actor-visible feedback."""
    return Feedback(
        action=outcome.decision.action.value,
        served=outcome.served,
        delay_seconds=outcome.decision.delay_seconds,
        challenge_passed=outcome.challenge_passed,
    )


class ClosedLoopSimulator:
    """Couple a stepped population to an enforcement gateway."""

    def __init__(
        self,
        population: SteppedPopulation,
        window: TimeWindow,
        gateway: EnforcementGateway,
        *,
        seed: int = 2018,
    ) -> None:
        self.population = population
        self.window = window
        self.gateway = gateway
        self.seed = seed

    def run(self, *, dataset_name: str = "closed_loop") -> SimulationResult:
        """Run the simulation to completion."""
        master = random.Random(self.seed)
        rngs: dict[SteppedActor, random.Random] = {}
        # (timestamp, sequence, actor): the sequence breaks timestamp ties
        # deterministically, since actors are not orderable.
        queue: list[tuple[object, int, SteppedActor]] = []
        sequence = 0
        for actor in self.population:
            rngs[actor] = random.Random(master.randrange(2**63))
            actor.begin(self.window, rngs[actor])
            upcoming = actor.peek()
            if upcoming is not None:
                heapq.heappush(queue, (upcoming, sequence, actor))
                sequence += 1

        self.gateway.reset()
        records = []
        truth = GroundTruth()
        actor_ids: dict[str, str] = {}
        actor_classes: dict[str, str] = {}
        counter = 0
        while queue:
            _, _, actor = heapq.heappop(queue)
            rng = rngs[actor]
            event = actor.emit()
            record = _event_to_record(f"r{counter}", event)
            counter += 1
            outcome = self.gateway.handle(
                record, challenge_solver=lambda _record: actor.solve_challenge(rng)
            )
            actor.feedback(event, _outcome_feedback(outcome), rng)
            records.append(record)
            truth.set(record.request_id, actor_label(event.actor_class), event.actor_class)
            actor_ids[record.request_id] = event.actor_id
            actor_classes[record.request_id] = event.actor_class
            upcoming = actor.peek()
            if upcoming is not None and self.window.contains(upcoming):
                heapq.heappush(queue, (upcoming, sequence, actor))
                sequence += 1

        gateway_result: GatewayResult = self.gateway.finish()
        metadata = DatasetMetadata(
            name=dataset_name,
            description="closed-loop simulation (attempted requests, incl. denied)",
            source="repro.mitigation",
            seed=self.seed,
        )
        dataset = Dataset(records, ground_truth=truth, metadata=metadata)
        return SimulationResult(
            dataset=dataset,
            stream_result=gateway_result.stream_result,
            log=gateway_result.log,
            actor_ids=actor_ids,
            actor_classes=actor_classes,
            population=self.population,
            window=self.window,
        )
