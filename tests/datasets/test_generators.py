"""Unit tests for the dataset simulators."""

from __future__ import annotations

import pytest

from repro.datasets import (
    BurstModel,
    NycTaxiGenerator,
    RidesharingGenerator,
    SmartHomeGenerator,
    StockGenerator,
)
from repro.datasets.nyc_taxi import NYC_TAXI_TYPES, nyc_taxi_schemas
from repro.datasets.ridesharing import RIDESHARING_TYPES, ridesharing_schemas
from repro.datasets.smart_home import SMART_HOME_TYPES, smart_home_schemas
from repro.datasets.stock import STOCK_TYPES, stock_schemas
from repro.errors import DatasetError

GENERATORS = [
    (RidesharingGenerator, RIDESHARING_TYPES, ridesharing_schemas),
    (NycTaxiGenerator, NYC_TAXI_TYPES, nyc_taxi_schemas),
    (SmartHomeGenerator, SMART_HOME_TYPES, smart_home_schemas),
    (StockGenerator, STOCK_TYPES, stock_schemas),
]


class TestAllGenerators:
    @pytest.mark.parametrize("generator_class, type_names, schemas", GENERATORS)
    def test_events_conform_to_schema(self, generator_class, type_names, schemas):
        generator = generator_class(events_per_minute=600, seed=3)
        stream = generator.generate(10.0)
        registry = schemas()
        assert len(stream) > 0
        for event in stream:
            assert event.event_type in type_names
            registry.get(event.event_type).validate(event.payload)

    @pytest.mark.parametrize("generator_class, type_names, schemas", GENERATORS)
    def test_deterministic_given_seed(self, generator_class, type_names, schemas):
        first = generator_class(events_per_minute=300, seed=5).generate(10.0)
        second = generator_class(events_per_minute=300, seed=5).generate(10.0)
        assert [(e.event_type, e.time) for e in first] == [(e.event_type, e.time) for e in second]
        different = generator_class(events_per_minute=300, seed=6).generate(10.0)
        assert [(e.event_type, e.time) for e in first] != [
            (e.event_type, e.time) for e in different
        ]

    @pytest.mark.parametrize("generator_class, type_names, schemas", GENERATORS)
    def test_event_count_tracks_rate(self, generator_class, type_names, schemas):
        generator = generator_class(events_per_minute=1200, seed=3)
        stream = generator.generate(30.0)
        assert len(stream) == pytest.approx(600, rel=0.05)
        assert stream.start_time >= 0.0
        assert stream.end_time <= 30.0 * 2  # spacing jitter stays bounded

    @pytest.mark.parametrize("value", (float("nan"), float("inf")))
    @pytest.mark.parametrize("generator_class, type_names, schemas", GENERATORS)
    def test_non_finite_rate_and_duration_rejected(
        self, generator_class, type_names, schemas, value
    ):
        with pytest.raises(DatasetError, match="events_per_minute"):
            generator_class(events_per_minute=value)
        generator = generator_class(events_per_minute=100, seed=1)
        with pytest.raises(DatasetError, match="duration_seconds"):
            generator.generate(value)
        with pytest.raises(DatasetError, match="duration_seconds"):
            generator.generate_block(value)

    @pytest.mark.parametrize("generator_class, type_names, schemas", GENERATORS)
    def test_generate_events_helper(self, generator_class, type_names, schemas):
        stream = generator_class(events_per_minute=600, seed=4).generate_events(100)
        assert len(stream) == pytest.approx(100, rel=0.1)


class TestBurstiness:
    def test_burst_model_validation(self):
        with pytest.raises(DatasetError):
            BurstModel(mean_burst_length=0.5)
        with pytest.raises(DatasetError):
            BurstModel(burstiness=1.5)

    def test_bursty_streams_have_longer_runs(self):
        smooth = RidesharingGenerator(
            events_per_minute=3000, seed=9, burst_model=BurstModel(mean_burst_length=1.0)
        ).generate(20.0)
        bursty = RidesharingGenerator(
            events_per_minute=3000, seed=9, burst_model=BurstModel(mean_burst_length=25.0)
        ).generate(20.0)

        def average_run_length(stream):
            runs, current = [], 1
            events = list(stream)
            for previous, current_event in zip(events, events[1:]):
                if current_event.event_type == previous.event_type:
                    current += 1
                else:
                    runs.append(current)
                    current = 1
            runs.append(current)
            return sum(runs) / len(runs)

        assert average_run_length(bursty) > 2 * average_run_length(smooth)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(DatasetError):
            RidesharingGenerator(events_per_minute=0)
        generator = RidesharingGenerator(events_per_minute=100)
        with pytest.raises(DatasetError):
            generator.generate(0.0)
        with pytest.raises(DatasetError):
            generator.generate_events(0)

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), 10**400))
    def test_non_finite_parameters_rejected(self, value):
        with pytest.raises(DatasetError, match="events_per_minute"):
            RidesharingGenerator(events_per_minute=value)
        with pytest.raises(DatasetError, match="mean_burst_length"):
            BurstModel(mean_burst_length=value)
        generator = RidesharingGenerator(events_per_minute=100)
        with pytest.raises(DatasetError, match="duration_seconds"):
            generator.generate(value)
        with pytest.raises(DatasetError, match="duration_seconds"):
            generator.generate_block(value)


class TestDomainSpecifics:
    def test_ridesharing_travel_speed_split(self):
        generator = RidesharingGenerator(events_per_minute=3000, seed=3, slow_traffic_fraction=0.5)
        stream = generator.generate(20.0).of_type("Travel")
        slow = sum(1 for event in stream if event["speed"] < 10.0)
        assert 0 < slow < len(stream)

    def test_stock_prices_form_random_walk(self):
        generator = StockGenerator(events_per_minute=2000, seed=3, companies=5)
        stream = generator.generate(30.0)
        prices = [event["price"] for event in stream if event["company"] == 0]
        assert prices, "expected at least one event for company 0"
        assert all(price >= 1.0 for price in prices)

    def test_smart_home_house_range(self):
        generator = SmartHomeGenerator(events_per_minute=2000, seed=3, houses=4)
        stream = generator.generate(10.0)
        assert {event["house"] for event in stream} <= set(range(4))

    def test_nyc_zone_range(self):
        generator = NycTaxiGenerator(events_per_minute=2000, seed=3, zones=6)
        stream = generator.generate(10.0)
        assert {event["pickup_zone"] for event in stream} <= set(range(6))
