"""Tests for the botnet builder, the generator and the scenario presets."""

from __future__ import annotations

import random

import pytest

from repro.columns import RecordFrame
from repro.exceptions import ScenarioError
from repro.runspec import RunSpec, TrafficSpec, execute
from repro.trace import write_trace
from repro.traffic.actors import TimeWindow
from repro.traffic.botnet import BotnetCampaign
from repro.traffic.generator import TrafficGenerator, generate_dataset
from repro.traffic.ipspace import IPSpace
from repro.traffic.labels import actor_label
from repro.traffic.scenarios import (
    DEFAULT_MIX,
    PAPER_TOTAL_REQUESTS,
    Scenario,
    amadeus_march_2018,
    balanced_small,
    get_scenario,
    list_scenarios,
    stealth_heavy,
)
from repro.traffic.site import SiteModel
from repro.traffic.useragents import UserAgentCatalog


class TestBotnetCampaign:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown campaign family"):
            BotnetCampaign(name="x", family="weird", total_requests=10, nodes=1)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            BotnetCampaign(name="x", family="aggressive", total_requests=10, nodes=0)

    def test_builds_requested_node_count(self):
        campaign = BotnetCampaign(name="camp", family="aggressive", total_requests=1000, nodes=4)
        actors = campaign.build_actors(SiteModel(), IPSpace(), UserAgentCatalog(), random.Random(3))
        assert len(actors) == 4
        assert all(actor.actor_class == "aggressive_scraper" for actor in actors)

    def test_stealth_nodes_use_proxy_pool(self):
        campaign = BotnetCampaign(name="camp", family="stealth", total_requests=500, nodes=3)
        space = IPSpace()
        actors = campaign.build_actors(SiteModel(), space, UserAgentCatalog(), random.Random(3))
        for actor in actors:
            for ip in actor.client_ips:
                assert space.proxy.contains(ip)

    def test_aggressive_nodes_use_datacenter_pool(self):
        campaign = BotnetCampaign(name="camp", family="aggressive", total_requests=500, nodes=3)
        space = IPSpace()
        actors = campaign.build_actors(SiteModel(), space, UserAgentCatalog(), random.Random(3))
        assert all(space.datacenter.contains(actor.client_ip) for actor in actors)


class TestTrafficGenerator:
    def test_generation_is_deterministic(self):
        scenario = balanced_small(total_requests=1500, seed=11)
        first = generate_dataset(scenario)
        second = generate_dataset(scenario)
        assert len(first) == len(second)
        assert [r.path for r in first][:50] == [r.path for r in second][:50]
        assert [r.client_ip for r in first][:50] == [r.client_ip for r in second][:50]

    def test_different_seeds_differ(self):
        first = generate_dataset(balanced_small(total_requests=1500, seed=1))
        second = generate_dataset(balanced_small(total_requests=1500, seed=2))
        assert [r.path for r in first][:100] != [r.path for r in second][:100]

    def test_records_sorted_by_time_with_unique_ids(self, small_dataset):
        timestamps = [r.timestamp for r in small_dataset]
        assert timestamps == sorted(timestamps)
        assert len(set(small_dataset.request_ids)) == len(small_dataset)

    def test_every_record_labelled(self, small_dataset):
        assert small_dataset.is_labelled

    def test_labels_match_actor_classes(self, small_dataset):
        truth = small_dataset.ground_truth
        for record in list(small_dataset)[:500]:
            actor_class = truth.actor_class_of(record.request_id)
            assert truth.label_of(record.request_id) == actor_label(actor_class)

    def test_total_request_budget_roughly_met(self):
        dataset = generate_dataset(balanced_small(total_requests=3000, seed=5))
        assert 0.7 * 3000 <= len(dataset) <= 1.3 * 3000

    def test_generation_result_accounting(self):
        scenario = balanced_small(total_requests=1000, seed=3)
        population = scenario.build_population(random.Random(scenario.seed))
        generator = TrafficGenerator(population, scenario.window, seed=scenario.seed)
        result = generator.run(dataset_name="demo")
        assert result.total_requests == len(result.dataset)
        assert set(result.events_per_class) <= {
            "human",
            "search_crawler",
            "monitoring_bot",
            "aggressive_scraper",
            "stealth_scraper",
            "probing_scraper",
        }


class TestFrameBackedDataset:
    """Generated traffic is a frame; records and ground truth come on demand."""

    def test_batch_and_trace_paths_build_no_record(self, tmp_path, monkeypatch):
        dataset = generate_dataset(balanced_small(total_requests=1500, seed=3))

        def forbidden(*_args, **_kwargs):
            raise AssertionError("records or ground truth were built")

        monkeypatch.setattr(RecordFrame, "iter_records", forbidden)
        monkeypatch.setattr(RecordFrame, "ground_truth", forbidden)
        assert len(dataset) == len(dataset.frame) > 0
        assert dataset.metadata.scenario == "balanced_small"
        assert dataset.is_labelled and dataset.is_time_ordered
        assert RecordFrame.from_dataset(dataset) is dataset.frame
        info = write_trace(dataset, str(tmp_path / "t.trace"))
        assert info.records == len(dataset) and info.labelled and info.time_ordered
        traffic = TrafficSpec(scenario="balanced_small", seed=3, params={"total_requests": 1500})
        assert execute(RunSpec(mode="tables", traffic=traffic)).total_requests == len(dataset)

    def test_records_and_labels_are_built_once_on_first_use(self):
        dataset = generate_dataset(balanced_small(total_requests=1500, seed=3))
        records = dataset.records
        assert [record.request_id for record in records] == [f"r{i}" for i in range(len(dataset))]
        assert dataset.records is records
        truth = dataset.ground_truth
        assert dataset.ground_truth is truth
        assert {truth.actor_class_of(rid) for rid in dataset.request_ids} <= set(
            dataset.frame.actor_table
        )
        for rid in dataset.request_ids:
            assert truth.label_of(rid) == actor_label(truth.actor_class_of(rid))


class TestScenarioValidation:
    def test_mix_must_sum_to_one(self):
        window = TimeWindow(start=amadeus_march_2018().window.start, days=1)
        with pytest.raises(ScenarioError, match="sum to 1.0"):
            Scenario(name="bad", window=window, total_requests=100, mix={"human": 0.5})

    def test_unknown_class_rejected(self):
        window = TimeWindow(start=amadeus_march_2018().window.start, days=1)
        with pytest.raises(ScenarioError, match="unknown traffic classes"):
            Scenario(name="bad", window=window, total_requests=100, mix={"human": 0.5, "aliens": 0.5})

    def test_positive_budget_required(self):
        window = TimeWindow(start=amadeus_march_2018().window.start, days=1)
        with pytest.raises(ScenarioError, match="positive request budget"):
            Scenario(name="bad", window=window, total_requests=0)

    def test_budget_for(self):
        scenario = amadeus_march_2018(scale=0.01)
        assert scenario.budget_for("aggressive") == int(round(scenario.total_requests * DEFAULT_MIX["aggressive"]))
        assert scenario.budget_for("unknown") == 0


class TestScenarioPresets:
    def test_amadeus_scenario_shape(self):
        scenario = amadeus_march_2018(scale=0.01)
        assert scenario.window.days == 8
        assert scenario.window.start.year == 2018 and scenario.window.start.month == 3 and scenario.window.start.day == 11
        assert scenario.total_requests == int(round(PAPER_TOTAL_REQUESTS * 0.01))

    def test_amadeus_scale_must_be_positive(self):
        with pytest.raises(ScenarioError):
            amadeus_march_2018(scale=0)

    def test_scenario_listing_and_lookup(self):
        names = list_scenarios()
        assert {"amadeus_march_2018", "balanced_small", "stealth_heavy"} <= set(names)
        scenario = get_scenario("stealth_heavy", total_requests=2000)
        assert scenario.name == "stealth_heavy"

    def test_unknown_scenario_raises(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("nope")

    def test_calibrated_scenario_is_bot_dominated(self, calibrated_dataset):
        assert calibrated_dataset.malicious_fraction() > 0.7

    def test_balanced_scenario_is_more_even(self, small_dataset):
        fraction = small_dataset.malicious_fraction()
        assert 0.3 < fraction < 0.75

    def test_stealth_heavy_has_more_stealth_than_aggressive(self):
        dataset = generate_dataset(stealth_heavy(total_requests=4000, seed=23))
        counts = dataset.ground_truth.actor_class_counts()
        assert counts.get("stealth_scraper", 0) > counts.get("aggressive_scraper", 0)

    def test_calibrated_statuses_include_paper_codes(self, calibrated_dataset):
        statuses = set(calibrated_dataset.status_counts())
        assert {200, 302, 204, 400} <= statuses

    def test_population_contains_all_classes(self):
        scenario = amadeus_march_2018(scale=0.01)
        population = scenario.build_population(random.Random(1))
        counts = population.class_counts()
        assert {"aggressive_scraper", "stealth_scraper", "probing_scraper", "human", "search_crawler", "monitoring_bot"} <= set(counts)

    def test_eight_days_of_traffic(self, calibrated_dataset):
        assert len(calibrated_dataset.day_counts()) == 8
