from fractions import Fraction

import pytest

from fairalloc import Allocation, Instance, InvalidAllocation, InvalidInstance, solve_efr
from fairalloc.files import (
    GenSpec,
    allocation_from_json,
    allocation_to_json,
    generate_instance,
    instance_from_json,
    instance_to_json,
    random_instances,
    trace_from_lines,
    trace_to_lines,
)


class TestInstanceFiles:
    def test_round_trip_integers(self, two_by_five):
        assert instance_from_json(instance_to_json(two_by_five)) == two_by_five

    def test_round_trip_fractions(self):
        instance = Instance.from_rows([[Fraction(1, 3), 2], ["7/2", 0]])
        text = instance_to_json(instance)
        assert '"1/3"' in text and '"7/2"' in text
        assert instance_from_json(text) == instance

    def test_parse_plain_strings(self):
        instance = instance_from_json(
            '{"n": 1, "m": 2, "valuations": [["3", "1/2"]]}'
        )
        assert instance.valuations == ((Fraction(3), Fraction(1, 2)),)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInstance):
            instance_from_json('{"n": 2, "m": 2, "valuations": [[1, 2]]}')

    def test_negative_and_malformed_rejected(self):
        with pytest.raises(InvalidInstance):
            instance_from_json('{"valuations": [[-1]]}')
        with pytest.raises(InvalidInstance):
            instance_from_json('{"valuations": [[0.5]]}')
        with pytest.raises(InvalidInstance):
            instance_from_json('{"valuations": [["1/-2"]]}')
        with pytest.raises(InvalidInstance):
            instance_from_json('{"valuations": [["1/0"]]}')
        with pytest.raises(InvalidInstance):
            instance_from_json("not json")


class TestAllocationFiles:
    def test_round_trip(self, two_by_five):
        alloc = Allocation.of([[0, 2], [3]], 5)
        parsed = allocation_from_json(allocation_to_json(alloc), two_by_five)
        assert parsed == alloc

    def test_remaining_is_optional_but_checked(self, two_by_five):
        parsed = allocation_from_json('{"bundles": [[0], [1]]}', two_by_five)
        assert parsed.remaining == {2, 3, 4}
        with pytest.raises(InvalidAllocation):
            allocation_from_json(
                '{"bundles": [[0], [1]], "remaining": [2, 3]}', two_by_five
            )

    def test_out_of_range_item_rejected(self, two_by_five):
        with pytest.raises(InvalidAllocation):
            allocation_from_json('{"bundles": [[0], [7]]}', two_by_five)

    def test_overlap_rejected(self, two_by_five):
        with pytest.raises(InvalidAllocation):
            allocation_from_json('{"bundles": [[0, 1], [1]]}', two_by_five)

    def test_wrong_agent_count_rejected(self, two_by_five):
        with pytest.raises(InvalidAllocation):
            allocation_from_json('{"bundles": [[0]]}', two_by_five)

    @pytest.mark.parametrize("remaining", ["5", '[2, "a"]', "[2, true]", '"234"', "{}"])
    def test_malformed_remaining_rejected(self, two_by_five, remaining):
        with pytest.raises(InvalidAllocation):
            allocation_from_json(
                '{"bundles": [[0], [1]], "remaining": %s}' % remaining, two_by_five
            )

    @pytest.mark.parametrize("bundles", ["[[0, 0], [1]]", "[[0], [1, 2, 1]]"])
    def test_repeated_item_in_a_bundle_rejected(self, two_by_five, bundles):
        with pytest.raises(InvalidAllocation, match="repeats"):
            allocation_from_json('{"bundles": %s}' % bundles, two_by_five)

    def test_non_list_bundle_rejected(self, two_by_five):
        with pytest.raises(InvalidAllocation):
            allocation_from_json('{"bundles": [[0], 1]}', two_by_five)


class TestTraceFiles:
    def test_round_trip_through_lines(self, four_by_four):
        _, trace = solve_efr(four_by_four)
        text = trace_to_lines(trace)
        assert trace_from_lines(text) == trace
        assert all(line.startswith("{") for line in text.splitlines())


class TestGeneration:
    def test_same_seed_same_bytes(self):
        spec = GenSpec(3, 6, 0, 100, Fraction(1, 10), seed=42)
        first = instance_to_json(generate_instance(spec), generator=spec)
        second = instance_to_json(generate_instance(spec), generator=spec)
        assert first == second

    def test_constant_range(self):
        spec = GenSpec(2, 4, 5, 5, Fraction(0), seed=1)
        instance = generate_instance(spec)
        assert all(v == 5 for row in instance.valuations for v in row)

    def test_zero_probability_one_gives_zeros(self):
        spec = GenSpec(2, 4, 1, 9, Fraction(1), seed=1)
        instance = generate_instance(spec)
        assert all(v == 0 for row in instance.valuations for v in row)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(0, 3, 0, 10, Fraction(0), seed=0)
        with pytest.raises(ValueError):
            GenSpec(2, 3, 5, 4, Fraction(0), seed=0)
        with pytest.raises(ValueError):
            GenSpec(2, 3, 0, 10, Fraction(3, 2), seed=0)
        with pytest.raises(ValueError):
            GenSpec(2, 3, 0, 10, Fraction(0), seed=2**64)

    def test_random_instances_respect_agent_floor(self):
        for _, instance in random_instances(50, (2, 6), (2, 12), 0, 100, (Fraction(0),), seed=3):
            assert instance.item_count >= instance.agent_count

    def test_random_instances_stream_is_deterministic(self):
        kwargs = dict(
            count=10, agents=(2, 4), items=(2, 8), low=0, high=50,
            zero_probabilities=(Fraction(0), Fraction(1, 10)), seed=99,
        )
        first = [inst for _, inst in random_instances(**kwargs)]
        second = [inst for _, inst in random_instances(**kwargs)]
        assert first == second

    def test_impossible_item_range_rejected(self):
        with pytest.raises(ValueError):
            list(random_instances(5, (4, 6), (2, 3), 0, 10, (Fraction(0),), seed=1))
