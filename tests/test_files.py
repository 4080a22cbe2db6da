import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from fairalloc import (
    INF,
    Allocation,
    FairnessNotion,
    Instance,
    InvalidAllocation,
    InvalidInstance,
    InvariantChecked,
    MatchingDone,
    Pick,
    solve_efr,
    solve_efx,
)
from fairalloc.algorithms import AgentGroups, CycleRotated, SourcePick
from fairalloc.files import (
    GenSpec,
    _event_to_dict,
    allocation_from_json,
    allocation_to_json,
    format_rational,
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

    @pytest.mark.parametrize(
        "field, raw", [("n", "true"), ("n", "1.0"), ("n", '"1"'), ("m", "2.0"), ("m", "[2]")]
    )
    def test_declared_sizes_must_be_json_integers(self, field, raw):
        sizes = {"n": "1", "m": "2", field: raw}
        text = f'{{"n": {sizes["n"]}, "m": {sizes["m"]}, "valuations": [[3, 1]]}}'
        with pytest.raises(InvalidInstance, match=f"declared {field} must be an integer"):
            instance_from_json(text)

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

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("[[-1]]", "negative valuation -1"),
            ("[[2, -1, -3]]", "negative valuation -1"),
            ("[[1, true]]", "expected an integer or 'p/q' string, got True"),
            ("[[0.5]]", "expected an integer or 'p/q' string, got 0.5"),
            ('[["1/0"]]', "bad rational '1/0': Fraction(1, 0)"),
            ("[[1, 2], [1]]", "valuation rows have unequal lengths"),
            ("[]", "need at least one agent and one item"),
            ("[[]]", "need at least one agent and one item"),
            ('[[1, "1/2", -3]]', "negative valuation -3"),
            ('[[1, "-1/2"]]', "negative valuation -1/2"),
            ("[[-1], [true]]", "expected an integer or 'p/q' string, got True"),
        ],
    )
    def test_bad_rows_raise_the_same_errors(self, rows, message):
        # every value is read before any row is checked, as for p/q rows
        with pytest.raises(InvalidInstance) as raised:
            instance_from_json(f'{{"valuations": {rows}}}')
        assert str(raised.value) == message

    def test_integer_rows_stay_ints_and_other_rows_become_fractions(self):
        """Every row is stored as ints over one scale: an integer row over
        1, any other row over the LCM of its denominators."""
        instance = instance_from_json('{"valuations": [[3, 0, 2], [1, "1/2", 4]]}')
        assert instance.rows == ((3, 0, 2), (2, 1, 8))
        assert instance.scales == (1, 2)
        assert all(type(x) is int for row in instance.rows for x in row)
        assert instance.valuations == ((3, 0, 2), (1, Fraction(1, 2), 4))
        assert all(type(v) is Fraction for row in instance.valuations for v in row)

    def test_integer_rows_equal_and_hash_as_fraction_rows(self):
        """Ints, "p/q" strings and `Fraction`s of equal values give equal
        instances with equal hashes, in files as in `from_rows`."""
        forms = [
            Instance.from_rows([[1, 2], [1, 3]]),
            Instance.from_rows([[Fraction(1), Fraction(2)], ["2/2", "6/2"]]),
            Instance.from_rows([["1", Fraction(4, 2)], [Fraction(1), 3]]),
            instance_from_json('{"valuations": [["1", "2/1"], [1, "3"]]}'),
        ]
        halves = [
            Instance.from_rows([[Fraction(1, 2), 1]]),
            Instance.from_rows([["1/2", "2/2"]]),
            Instance.from_rows([[Fraction(2, 4), Fraction(1)]]),
            instance_from_json('{"valuations": [["2/4", 1]]}'),
        ]
        for equal in (forms, halves):
            assert len(set(equal)) == 1 and len({hash(i) for i in equal}) == 1
            assert all(instance == equal[0] for instance in equal)
        assert forms[0].scales == (1, 1) and halves[0] == Instance(((1, 2),), (2,))
        assert forms[0] != halves[0]

    def test_a_bool_takes_the_fraction_path(self):
        """A bool is not an int entry, so its row is read value by value
        through `parse_rational`, which refuses it as instance files do."""
        with pytest.raises(InvalidInstance, match="expected an integer or 'p/q' string, got True"):
            Instance.from_rows([[True, 2]])
        with pytest.raises(InvalidInstance, match="valuation True is not an int"):
            Instance(((True, 2),), (1,))

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "expected an integer or 'p/q' string, got True"),
            (1.5, "expected an integer or 'p/q' string, got 1.5"),
            (Decimal("0.5"), "expected an integer or 'p/q' string, got Decimal('0.5')"),
            ("abc", "bad rational 'abc': Invalid literal for Fraction: 'abc'"),
            ("1/0", "bad rational '1/0': Fraction(1, 0)"),
            (None, "expected an integer or 'p/q' string, got None"),
        ],
        ids=["bool", "float", "decimal", "no-number", "zero-denominator", "none"],
    )
    def test_from_rows_reads_values_as_instance_files_do(self, value, message):
        with pytest.raises(InvalidInstance) as raised:
            Instance.from_rows([[1, value]])
        assert str(raised.value) == message
        if not isinstance(value, Decimal):  # JSON has no decimal type
            with pytest.raises(InvalidInstance) as raised:
                instance_from_json(json.dumps({"valuations": [[1, value]]}))
            assert str(raised.value) == message

    @pytest.mark.parametrize(
        "rows, scales, message",
        [
            (((2, 4),), (2,), "scale 2 is not the LCM of the denominators"),
            (((0, 0),), (3,), "scale 3 is not the LCM of the denominators"),
            (((1, 2),), (0,), "scale 0 is not a positive int"),
            (((1, 2),), (-1,), "scale -1 is not a positive int"),
            (((1, 2),), (True,), "scale True is not a positive int"),
            (((1, 2), (3, 4)), (1,), "1 scales for 2 rows"),
            (((1, 2),), (1, 1), "2 scales for 1 rows"),
            (((1, Fraction(1, 2)),), (1,), "valuation Fraction(1, 2) is not an int"),
            (((1, "2"),), (1,), "valuation '2' is not an int"),
            (((1, 2.0),), (1,), "valuation 2.0 is not an int"),
            (((1, -1),), (2,), "negative valuation -1/2"),
        ],
    )
    def test_the_stored_form_is_refused_unless_canonical(self, rows, scales, message):
        with pytest.raises(InvalidInstance) as raised:
            Instance(rows, scales)
        assert str(raised.value) == message

    def test_the_fraction_table_shares_one_fraction_per_distinct_value(self):
        instance = Instance.from_rows([[5, 0, 5], [0, 5, 7]])
        values = [v for row in instance.valuations for v in row]
        assert len({id(v) for v in values}) == 3
        assert instance.valuations is instance.valuations

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_written_as_json_dumps_writes_each_row(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 12)
        rows = [
            [rng.choice([0, rng.randrange(101), rng.randrange(10**30)]) for _ in range(m)]
            for _ in range(rng.randint(1, 5))
        ]
        rows.append([Fraction(rng.randrange(10**30), rng.choice([1, 7, 10**20])) for _ in range(m)])
        instance = Instance.from_rows(rows)
        assert instance.scales[:-1] == (1,) * (len(rows) - 1)
        written = [json.dumps([format_rational(Fraction(v)) for v in row]) for row in rows]
        valuations = ",\n".join("    " + row for row in written)
        expected = (
            f'{{\n  "n": {len(rows)},\n  "m": {m},\n  "valuations": [\n{valuations}\n  ]\n}}\n'
        )
        assert instance_to_json(instance) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_files_are_written_back_byte_for_byte(self, seed):
        spec = GenSpec(1 + seed, 2 + 3 * seed, 0, 10**seed, Fraction(seed % 3, 4), seed)
        text = instance_to_json(generate_instance(spec))
        assert instance_to_json(instance_from_json(text)) == text


def random_allocation(rng: random.Random, n: int, m: int) -> Allocation:
    """Each item held by a random agent or left in the pool."""
    holders = [rng.randrange(n + 1) for _ in range(m)]  # n: left in the pool
    return Allocation.of(([g for g in range(m) if holders[g] == i] for i in range(n)), m)


class TestAllocationFiles:
    @pytest.mark.parametrize("seed", range(10))
    def test_written_as_json_dumps_writes_each_list(self, seed):
        rng = random.Random(seed)
        allocation = random_allocation(rng, rng.randint(1, 8), rng.randint(1, 40))
        bundles = ",\n".join("    " + json.dumps(sorted(b)) for b in allocation.bundles)
        remaining = json.dumps(sorted(allocation.remaining))
        expected = f'{{\n  "bundles": [\n{bundles}\n  ],\n  "remaining": {remaining}\n}}\n'
        assert allocation_to_json(allocation) == expected

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


def reference_lines(trace) -> str:
    """The trace writer's reference: `json.dumps` of each event's dict."""
    return "".join(json.dumps(_event_to_dict(e)) + "\n" for e in trace)


# quotes, backslashes, every control character, DEL, non-ASCII text, a line
# separator and a character outside the Basic Multilingual Plane
TEXT_ALPHABET = ['"', "\\", "/", *map(chr, range(32)), "\x7f", "é", "漢", "\u2028", "😀", "a", "-"]


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randrange(12)))


def random_event(rng: random.Random, n: int, m: int):
    kind = rng.randrange(6)
    if kind == 0:
        allocation = random_allocation(rng, n, m)
        ranks = tuple(
            INF if rng.randrange(4) == 0 else Fraction(rng.randrange(100), rng.randrange(1, 9))
            for _ in range(n)
        )
        return MatchingDone(allocation, ranks)
    if kind == 1:
        mode = rng.choice([FairnessNotion.EFR, FairnessNotion.EFX])
        groups = [set(), set(), set()]
        for agent in range(n):
            groups[rng.randrange(3 if mode is FairnessNotion.EFR else 2)].add(agent)
        return AgentGroups(mode, *map(frozenset, groups))
    if kind == 2:
        return Pick(rng.randrange(n), rng.randrange(m), random_text(rng))
    if kind == 3:
        return CycleRotated(tuple(rng.sample(range(n), rng.randrange(2, n + 1))))
    if kind == 4:
        return SourcePick(rng.randrange(n), rng.randrange(m))
    return InvariantChecked(random_text(rng), rng.random() < 0.5)


class TestTraceFiles:
    def test_round_trip_through_lines(self, four_by_four):
        _, trace = solve_efr(four_by_four)
        text = trace_to_lines(trace)
        assert trace_from_lines(text) == trace
        assert all(line.startswith("{") for line in text.splitlines())

    @pytest.mark.parametrize("seed", range(20))
    def test_lines_match_json_dumps_byte_for_byte(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(2, 12), rng.randint(2, 1000)
        trace = [random_event(rng, n, m) for _ in range(60)]
        assert {type(e) for e in trace} == {
            MatchingDone, AgentGroups, Pick, CycleRotated, SourcePick, InvariantChecked
        }
        text = trace_to_lines(trace)
        assert text.encode() == reference_lines(trace).encode()
        assert trace_from_lines(text) == trace

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1]", "expected a JSON object, got [1]"),
            ('"x"', 'expected a JSON object, got "x"'),
            ('{"event": "pick"}', "missing field 'agent'"),
            ('{"event": "rotate", "cycle": 5}', "'int' object is not iterable"),
        ],
        ids=["list", "string", "missing-field", "number-for-a-list"],
    )
    def test_a_malformed_line_names_its_number(self, line, message):
        """Line 3, after a good line and a blank one."""
        text = '{"event": "source-pick", "agent": 0, "item": 1}\n\n' + line + "\n"
        with pytest.raises(ValueError) as raised:
            trace_from_lines(text)
        assert str(raised.value) == f"trace line 3: {message}"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"event": "rotate", "cycle": "ab"}, "field 'cycle' must list integers, got 'ab'"),
            (
                {"event": "pick", "agent": "x", "item": [2], "pass": 7},
                "field 'agent' must be int, got 'x'",
            ),
            (
                {"event": "pick", "agent": 0, "item": [2], "pass": "g2"},
                "field 'item' must be int, got [2]",
            ),
            (
                {"event": "pick", "agent": 0, "item": 2, "pass": 7},
                "field 'pass' must be str, got 7",
            ),
            ({"event": "invariant", "name": 3, "passed": "no"}, "field 'name' must be str, got 3"),
            (
                {"event": "invariant", "name": "x", "passed": "no"},
                "field 'passed' must be bool, got 'no'",
            ),
            (
                {"event": "source-pick", "agent": True, "item": 1},
                "field 'agent' must be int, got True",
            ),
            (
                {"event": "rotate", "cycle": [0, True]},
                "field 'cycle' must list integers, got [0, True]",
            ),
            (
                {"event": "groups", "mode": 1, "g1": [], "g2": []},
                "field 'mode' must be str, got 1",
            ),
            (
                {"event": "matching", "items": 2, "bundles": [[0], [False]], "ranks": ["1", "1"]},
                "a 'bundles' entry must be a list of integer item indices: [False]",
            ),
            (
                {"event": "matching", "items": 2.0, "bundles": [[0], [1]], "ranks": ["1", "1"]},
                "field 'items' must be int, got 2.0",
            ),
        ],
        ids=[
            "string-cycle", "string-agent", "list-item", "number-pass", "number-name",
            "string-passed", "true-agent", "true-in-cycle", "number-mode", "false-in-bundle",
            "float-items",
        ],
    )
    def test_a_field_of_the_wrong_json_type_names_the_field(self, doc, message):
        """Fields are checked for their JSON type, not only for their
        presence: true is not an integer and 7 is not a string. Line 3,
        after a good line and a blank one."""
        text = '{"event": "source-pick", "agent": 0, "item": 1}\n\n' + json.dumps(doc) + "\n"
        with pytest.raises(ValueError) as raised:
            trace_from_lines(text)
        assert str(raised.value) == f"trace line 3: {message}"

    def test_solver_traces_match_json_dumps(self):
        for _, instance in random_instances(40, (2, 6), (2, 12), 0, 100, (Fraction(1, 10),), 5):
            for solve in (solve_efr, solve_efx):
                _, trace = solve(instance)
                assert trace_to_lines(trace) == reference_lines(trace)


def drawn_with_randrange(spec: GenSpec) -> tuple[tuple[int, ...], ...]:
    """The rows of `spec` drawn value by value with `randrange(denominator) <
    numerator` for a zero, else `randint(low, high)`: the generator's draws."""
    rng = random.Random(spec.seed)
    p = spec.zero_probability
    return tuple(
        tuple(
            0 if rng.randrange(p.denominator) < p.numerator else rng.randint(spec.low, spec.high)
            for _ in range(spec.items)
        )
        for _ in range(spec.agents)
    )


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

    def test_one_fraction_per_distinct_value(self):
        spec = GenSpec(40, 120, 0, 100, Fraction(1, 10), seed=16)
        values = [v for row in generate_instance(spec).valuations for v in row]
        assert len({id(v) for v in values}) <= 102
        assert values == [v for row in drawn_with_randrange(spec) for v in row]

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(6, 20, 0, 100, zero, seed)
            for zero in map(Fraction, ("0", "1", "1/4", "1/10", "3/7"))
            for seed in (0, 16)
        ]
        + [
            GenSpec(3, 9, 5, 5, Fraction(1, 4), 1),
            GenSpec(3, 9, 0, 0, Fraction(0), 2),
            GenSpec(4, 12, 0, 2**31 - 1, Fraction(1, 10), 3),
            GenSpec(4, 12, 0, 2**32, Fraction(3, 7), 4),
            GenSpec(4, 12, 0, 10**30 - 1, Fraction(1, 10), 5),
            GenSpec(4, 12, 10**9, 10**9 + 2**32, Fraction(0), 6),
            GenSpec(4, 12, 17, 10**30, Fraction(1, 4), 2**64 - 1),
        ],
        ids=lambda s: f"{s.agents}x{s.items}-{s.low}..{s.high}-p{s.zero_probability}-s{s.seed}",
    )
    def test_values_are_the_randrange_and_randint_draws(self, spec):
        instance = generate_instance(spec)
        assert instance.rows == drawn_with_randrange(spec)
        assert all(type(v) is int for row in instance.rows for v in row)

    def test_draws_never_go_through_randrange(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("generation called randrange or randint")

        spec = GenSpec(4, 12, 3, 90, Fraction(1, 10), seed=8)
        expected = drawn_with_randrange(spec)
        monkeypatch.setattr(random.Random, "randrange", refuse)
        monkeypatch.setattr(random.Random, "randint", refuse)
        assert generate_instance(spec).rows == expected

    def test_a_huge_range_builds_at_once(self):
        spec = GenSpec(2, 3, 0, 10**30, Fraction(1, 10), seed=7)
        assert generate_instance(spec).valuations == (
            (823562765158501830932765822436, 0, 403598562939208673953046267940),
            (277887688554896545928674083957, 0, 243219004536618414012314642266),
        )

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(0, 3, 0, 10, Fraction(0), seed=0)
        with pytest.raises(ValueError):
            GenSpec(2, 3, 5, 4, Fraction(0), seed=0)
        with pytest.raises(ValueError):
            GenSpec(2, 3, 0, 10, Fraction(3, 2), seed=0)
        with pytest.raises(ValueError):
            GenSpec(2, 3, 0, 10, Fraction(0), seed=2**64)

    @pytest.mark.parametrize("zero", [0.1, 0.0, True, False])
    def test_a_float_or_bool_zero_probability_raises(self, zero):
        """A float has no exact numerator to draw against, and True would
        read as 1, zeroing every value."""
        with pytest.raises(ValueError, match=f"zero_probability {zero!r} is not an int"):
            GenSpec(2, 3, 0, 10, zero, 1)

    @pytest.mark.parametrize(
        "field, value",
        [("agents", True), ("items", 3.0), ("low", False), ("high", 10.0), ("seed", 1.5),
         ("seed", True)],
    )
    def test_an_integer_field_that_is_not_an_int_raises(self, field, value):
        """True would read as 1 agent, a float seed would be hashed, and a
        float high would fail only inside `generate_instance`."""
        fields = dict(agents=2, items=3, low=0, high=10, zero_probability=Fraction(0), seed=1)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} {value!r} is not an int"):
            GenSpec(**fields)

    def test_an_int_zero_probability_draws_as_its_fraction(self):
        for zero in (0, 1):
            assert generate_instance(GenSpec(2, 3, 0, 10, zero, 1)) == generate_instance(
                GenSpec(2, 3, 0, 10, Fraction(zero), 1)
            )

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
