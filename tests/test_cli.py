import json

import pytest

from fairalloc.cli import main
from fairalloc.files import allocation_from_json, instance_from_json

EXAMPLE_2X5 = '{"n": 2, "m": 5, "valuations": [[3, 3, 1, 1, 1], [5, 5, 1, 4, 3]]}\n'
EXAMPLE_4X4 = (
    '{"n": 4, "m": 4, "valuations": '
    "[[8, 2, 4, 3], [4, 2, 0, 2], [0, 3, 2, 2], [1, 6, 3, 9]]}\n"
)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(EXAMPLE_2X5)
    return path


@pytest.fixture
def nsw_allocation_file(tmp_path):
    path = tmp_path / "alloc.json"
    path.write_text('{"bundles": [[0, 1, 2], [3, 4]]}\n')
    return path


class TestSolve:
    def test_efr_run(self, tmp_path, example_file, capsys):
        out = tmp_path / "out.json"
        trace = tmp_path / "trace.jsonl"
        code = main([
            "solve", "--algorithm", "efr",
            "--input", str(example_file),
            "--output", str(out),
            "--trace", str(trace),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "efr factor: 3/2" in printed
        instance = instance_from_json(EXAMPLE_2X5)
        allocation = allocation_from_json(out.read_text(), instance)
        assert allocation.is_complete
        assert all(json.loads(line) for line in trace.read_text().splitlines())

    def test_too_few_items_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"valuations": [[1, 2], [2, 1], [3, 3]]}')
        code = main([
            "solve", "--algorithm", "efr",
            "--input", str(bad), "--output", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "InstanceTooSmall" in capsys.readouterr().err

    def test_single_agent_efx_reports_unbounded(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        one.write_text('{"valuations": [[2, 1, 5]]}')
        code = main([
            "solve", "--algorithm", "efx",
            "--input", str(one), "--output", "-",
        ])
        assert code == 0
        assert "unbounded" in capsys.readouterr().out

    def test_check_off_still_solves(self, tmp_path, example_file, capsys):
        code = main([
            "solve", "--algorithm", "efr", "--check", "off",
            "--input", str(example_file), "--output", "-",
        ])
        assert code == 0

    def test_solve_and_verify_agree_on_the_factor(self, tmp_path, example_file, capsys):
        out = tmp_path / "out.json"
        assert main([
            "solve", "--algorithm", "efr",
            "--input", str(example_file), "--output", str(out),
        ]) == 0
        solve_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert main([
            "verify", "--input", str(example_file),
            "--allocation", str(out), "--notion", "efr",
            "--threshold", "sqrt3-1",
        ]) == 0
        verify_line = capsys.readouterr().out.splitlines()[0]
        assert solve_line.split("factor:")[1] == verify_line.split("factor:")[1]


class TestVerify:
    def test_threshold_one_fails_on_nsw_allocation(self, example_file, nsw_allocation_file, capsys):
        code = main([
            "verify", "--input", str(example_file),
            "--allocation", str(nsw_allocation_file), "--notion", "efr",
        ])
        assert code == 1
        printed = capsys.readouterr().out
        assert "21/22" in printed
        assert "envier 1, envied 0" in printed

    def test_sqrt3_threshold_passes(self, example_file, nsw_allocation_file):
        code = main([
            "verify", "--input", str(example_file),
            "--allocation", str(nsw_allocation_file),
            "--notion", "efr", "--threshold", "sqrt3-1",
        ])
        assert code == 0

    def test_decimal_threshold(self, example_file, nsw_allocation_file):
        assert main([
            "verify", "--input", str(example_file),
            "--allocation", str(nsw_allocation_file),
            "--notion", "efr", "--threshold", "0.9",
        ]) == 0

    def test_golden_ratio_threshold(self, example_file, nsw_allocation_file, capsys):
        code = main([
            "verify", "--input", str(example_file),
            "--allocation", str(nsw_allocation_file),
            "--notion", "efx", "--threshold", "phi-1",
        ])
        assert code == 0
        assert "threshold phi-1: met" in capsys.readouterr().out

    @pytest.mark.parametrize("threshold", ["sqrt5-1", "1/0", ""])
    def test_malformed_threshold_is_usage_error(
        self, example_file, nsw_allocation_file, threshold, capsys
    ):
        code = main([
            "verify", "--input", str(example_file),
            "--allocation", str(nsw_allocation_file),
            "--notion", "efr", "--threshold", threshold,
        ])
        assert code == 2
        assert "bad threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document", ['{"bundles": [[0], [1]], "remaining": 5}', '{"bundles": [[0, 0], [1]]}']
    )
    def test_malformed_allocation_is_input_error(
        self, tmp_path, example_file, document, capsys
    ):
        bad = tmp_path / "bad_alloc.json"
        bad.write_text(document)
        code = main([
            "verify", "--input", str(example_file),
            "--allocation", str(bad), "--notion", "efx",
        ])
        assert code == 2
        assert "InvalidAllocation" in capsys.readouterr().err

    def test_out_of_range_allocation_is_input_error(self, tmp_path, example_file):
        bad = tmp_path / "bad_alloc.json"
        bad.write_text('{"bundles": [[0], [9]]}')
        code = main([
            "verify", "--input", str(example_file),
            "--allocation", str(bad), "--notion", "ef1",
        ])
        assert code == 2


class TestGen:
    def test_same_seed_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([
                "gen", "--agents", "3", "--items", "7",
                "--low", "0", "--high", "50",
                "--zero-probability", "1/10",
                "--seed", "42", "--output", str(path),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_constant_values(self, tmp_path, capsys):
        assert main([
            "gen", "--agents", "2", "--items", "3",
            "--low", "5", "--high", "5", "--seed", "1", "--output", "-",
        ]) == 0
        instance = instance_from_json(capsys.readouterr().out)
        assert all(v == 5 for row in instance.valuations for v in row)

    def test_solver_bound_flag(self, tmp_path, capsys):
        code = main([
            "gen", "--agents", "3", "--items", "2", "--seed", "0",
            "--solver-bound", "--output", str(tmp_path / "x.json"),
        ])
        assert code == 2

    def test_bad_zero_probability_is_usage_error(self, tmp_path):
        assert main([
            "gen", "--agents", "2", "--items", "3", "--seed", "0",
            "--zero-probability", "3/2", "--output", str(tmp_path / "x.json"),
        ]) == 2

    def test_generator_header_is_echoed(self, tmp_path):
        out = tmp_path / "g.json"
        main([
            "gen", "--agents", "2", "--items", "4", "--seed", "7",
            "--output", str(out),
        ])
        doc = json.loads(out.read_text())
        assert doc["generator"]["seed"] == 7
        assert doc["generator"]["agents"] == 2


class TestBench:
    def test_small_run(self, capsys):
        code = main([
            "bench", "--count", "25", "--agents-range", "2:4",
            "--items-range", "2:8", "--seed", "11", "--algorithm", "efr",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "instances: 25" in printed
        assert "violations: 0" in printed
        assert "min factor:" in printed

    def test_count_zero_empty_summary(self, capsys):
        code = main(["bench", "--count", "0", "--seed", "1", "--algorithm", "efx"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "instances: 0" in printed
        assert "min factor" not in printed

    def test_bad_range_is_usage_error(self, capsys):
        assert main([
            "bench", "--count", "1", "--agents-range", "6:2",
            "--seed", "1", "--algorithm", "efr",
        ]) == 2


class TestOracleCommand:
    def test_nsw_matching_product(self, tmp_path, capsys):
        path = tmp_path / "four.json"
        path.write_text(EXAMPLE_4X4)
        assert main(["oracle", "--input", str(path), "--check", "nsw-matching"]) == 0
        printed = capsys.readouterr().out
        assert "product: 432" in printed

    def test_improving_cycle_needs_allocation(self, tmp_path, capsys):
        path = tmp_path / "four.json"
        path.write_text(EXAMPLE_4X4)
        assert main(["oracle", "--input", str(path), "--check", "improving-cycle"]) == 2

    def test_improving_cycle_on_identity(self, tmp_path, capsys):
        inst = tmp_path / "four.json"
        inst.write_text(EXAMPLE_4X4)
        alloc = tmp_path / "ident.json"
        alloc.write_text('{"bundles": [[0], [1], [2], [3]]}')
        code = main([
            "oracle", "--input", str(inst),
            "--check", "improving-cycle", "--allocation", str(alloc),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "cycle: 0 -> 2 -> 1 -> 0" in printed
        assert "product: 3/2" in printed

    def test_envy_rank_listing(self, tmp_path, capsys):
        inst = tmp_path / "four.json"
        inst.write_text(EXAMPLE_4X4)
        alloc = tmp_path / "ident.json"
        alloc.write_text('{"bundles": [[0], [1], [2], [3]]}')
        code = main([
            "oracle", "--input", str(inst),
            "--check", "envy-rank", "--allocation", str(alloc),
        ])
        assert code == 0
        assert "agent 0: 3" in capsys.readouterr().out

    def test_best_efr_on_tiny_instance(self, tmp_path, capsys):
        inst = tmp_path / "tiny.json"
        inst.write_text('{"valuations": [[1, 1], [1, 1]]}')
        assert main(["oracle", "--input", str(inst), "--check", "best-efr"]) == 0

    def test_limit_exceeded_is_input_error(self, tmp_path, capsys):
        inst = tmp_path / "big.json"
        rows = json.dumps([[1] * 8 for _ in range(8)])
        inst.write_text(f'{{"valuations": {rows}}}')
        code = main(["oracle", "--input", str(inst), "--check", "nsw-matching"])
        assert code == 2
        assert "LimitExceeded" in capsys.readouterr().err

    def test_matching_needs_enough_items(self, tmp_path, capsys):
        inst = tmp_path / "narrow.json"
        inst.write_text('{"valuations": [[1], [2]]}')
        assert main(["oracle", "--input", str(inst), "--check", "nsw-matching"]) == 2


class TestStdio:
    def test_stdin_input(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE_2X5))
        code = main(["solve", "--algorithm", "efr", "--input", "-", "--output", "-"])
        assert code == 0
        printed = capsys.readouterr().out
        assert '"bundles"' in printed
