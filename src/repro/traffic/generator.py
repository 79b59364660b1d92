"""The traffic generator.

The generator takes an :class:`~repro.traffic.actors.ActorPopulation`, a
:class:`~repro.traffic.actors.TimeWindow` and a seed, simulates every
actor independently (each with its own deterministic child random
generator), merges the resulting request events in time order and
builds a labelled :class:`~repro.columns.RecordFrame` straight from
them.  The :class:`~repro.logs.dataset.Dataset` it returns is backed by
that frame: the batch pipeline and the trace writer take the frame as it
is, and :class:`~repro.logs.record.LogRecord` objects and the ground
truth are built only for consumers that ask for records (the stream
sources, the log writer of ``repro generate``).

The output of the generator is indistinguishable, format-wise, from a
parsed production access log: the records hold what an access log holds
and the labels live apart from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.columns.frame import RecordFrame
from repro.logs.dataset import Dataset, DatasetMetadata
from repro.traffic.actors import ActorPopulation, RequestEvent, TimeWindow
from repro.traffic.labels import actor_label


@dataclass
class GenerationResult:
    """The outcome of one generator run (dataset plus per-actor accounting)."""

    dataset: Dataset
    events_per_class: dict[str, int]

    @property
    def total_requests(self) -> int:
        """Total number of generated requests."""
        return len(self.dataset)


class TrafficGenerator:
    """Simulate an actor population over a time window."""

    def __init__(self, population: ActorPopulation, window: TimeWindow, *, seed: int = 2018):
        self.population = population
        self.window = window
        self.seed = seed

    def run(self, *, dataset_name: str = "synthetic", scenario_name: str = "", scale: float = 1.0) -> GenerationResult:
        """Simulate every actor and build the labelled data set."""
        events: list[RequestEvent] = []
        events_per_class: dict[str, int] = {}
        master = random.Random(self.seed)
        for actor in self.population:
            # One child generator per actor keeps actors independent and the
            # whole run reproducible regardless of actor iteration details.
            child = random.Random(master.randrange(2**63))
            actor_events = actor.generate(self.window, child)
            for event in actor_events:
                if self.window.contains(event.timestamp):
                    events.append(event)
            events_per_class[actor.actor_class] = events_per_class.get(actor.actor_class, 0) + len(actor_events)

        events.sort(key=lambda event: event.timestamp)
        metadata = DatasetMetadata(
            name=dataset_name,
            description="synthetic e-commerce access log",
            source="repro.traffic",
            scenario=scenario_name,
            scale=scale,
            seed=self.seed,
        )
        return GenerationResult(
            dataset=_events_frame(events, metadata).to_dataset(),
            events_per_class=events_per_class,
        )


def _events_frame(events: list[RequestEvent], metadata: DatasetMetadata) -> RecordFrame:
    """The sorted events as a labelled frame, with request ids ``r0, r1, ...``.

    Events were just sorted, so the frame is marked time-ordered and
    replay never needs a sorted copy.
    """
    actor_classes = [event.actor_class for event in events]
    label_of = {actor_class: actor_label(actor_class) for actor_class in set(actor_classes)}
    unset = ["-"] * len(events)
    return RecordFrame.from_columns(
        [f"r{index}" for index in range(len(events))],
        [event.timestamp for event in events],
        {
            "client_ip": [event.client_ip for event in events],
            "method": [event.method for event in events],
            "path": [event.path for event in events],
            "protocol": [event.protocol for event in events],
            "referrer": [event.referrer for event in events],
            "user_agent": [event.user_agent for event in events],
            "ident": unset,
            "auth_user": unset,
        },
        [event.status for event in events],
        [event.response_size for event in events],
        labels=[label_of[actor_class] for actor_class in actor_classes],
        actor_classes=actor_classes,
        metadata=metadata,
        time_ordered=True,
    )


def generate_dataset(scenario, *, seed: int | None = None) -> Dataset:
    """Generate the data set described by a :class:`~repro.traffic.scenarios.Scenario`.

    This is the main convenience entry point used by the examples,
    benchmarks and the CLI::

        from repro.traffic import amadeus_march_2018, generate_dataset
        dataset = generate_dataset(amadeus_march_2018(scale=0.02))
    """
    effective_seed = scenario.seed if seed is None else seed
    population = scenario.build_population(random.Random(effective_seed))
    generator = TrafficGenerator(population, scenario.window, seed=effective_seed)
    result = generator.run(dataset_name=scenario.name, scenario_name=scenario.name, scale=scenario.scale)
    return result.dataset
