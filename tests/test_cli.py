import csv
import json

import pytest

from trifree_efx import cli
from trifree_efx.cli import main
from trifree_efx.errors import InternalSolverError, StateError
from trifree_efx.generate import GenSpec, gen_instance, gen_triangle_instance, suite_spec
from trifree_efx.phase3 import solve_state
from trifree_efx.serialize import dump_json, instance_from_json, instance_to_json, load_json

from helpers import two_agent_parallel


@pytest.fixture
def instance_file(tmp_path):
    inst = gen_instance(GenSpec(seed=21, n=6, m=11, topology="c4_girth", v_max=20))
    path = tmp_path / "instance.json"
    dump_json(instance_to_json(inst), str(path))
    return path


def run(args):
    return main([str(a) for a in args])


def test_solve_then_verify_round(tmp_path, instance_file):
    out = tmp_path / "allocation.json"
    assert run(["solve", instance_file, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["bundles", "metrics", "sigma"]
    assert run(["verify", instance_file, out, "--require-complete"]) == 0
    # sigma travels with the allocation, so property checks work off the file
    assert run(["verify", instance_file, out, "--properties", "1-7"]) == 0


def test_verify_flags_bad_allocation(tmp_path):
    inst = two_agent_parallel([5, 3, 3])
    ipath = tmp_path / "i.json"
    dump_json(instance_to_json(inst), str(ipath))
    apath = tmp_path / "a.json"
    dump_json({"bundles": [[1], [0, 2]]}, str(apath))  # strong envy at agent 0
    assert run(["verify", ipath, apath]) == 3


def test_verify_incomplete_allocation(tmp_path):
    inst = two_agent_parallel([5, 3, 3])
    ipath = tmp_path / "i.json"
    dump_json(instance_to_json(inst), str(ipath))
    apath = tmp_path / "a.json"
    dump_json({"bundles": [[0], []]}, str(apath))
    assert run(["verify", ipath, apath]) == 0  # EFX alone is fine
    assert run(["verify", ipath, apath, "--require-complete"]) == 3


def test_verify_properties_need_sigma(tmp_path):
    inst = two_agent_parallel([5, 3, 3])
    ipath = tmp_path / "i.json"
    dump_json(instance_to_json(inst), str(ipath))
    apath = tmp_path / "a.json"
    dump_json({"bundles": [[0], [1, 2]]}, str(apath))
    assert run(["verify", ipath, apath, "--properties", "1-4"]) == 1
    assert run(["verify", ipath, apath, "--properties", "1-4", "--sigma", "1,0"]) == 0


def test_solve_rejects_triangle_with_exit_2(tmp_path, capsys):
    inst = gen_triangle_instance(5)
    path = tmp_path / "triangle.json"
    dump_json(instance_to_json(inst), str(path))
    assert run(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "triangle" in err and "0" in err and "1" in err and "2" in err


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["solve", path]) == 1
    # a file that is not UTF-8 text, or nests past the parser's recursion
    # limit, is malformed JSON too, not a traceback
    for text in (b"\xff{}", b"[" * 100_000):
        path.write_bytes(text)
        capsys.readouterr()
        assert run(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid JSON" in err
        assert len(err.strip().splitlines()) == 1


def test_invalid_payload_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    dump_json({"n": 2, "goods": []}, str(path))
    assert run(["solve", path]) == 1


def test_solve_trace_and_metrics_and_config(tmp_path, instance_file):
    out = tmp_path / "a.json"
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    config = tmp_path / "cuts.json"
    assert (
        run(
            [
                "solve",
                instance_file,
                "--out",
                out,
                "--trace",
                trace,
                "--metrics-out",
                metrics,
                "--dump-config",
                config,
            ]
        )
        == 0
    )
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows and all(row["phase"] in (1, 2, 3) for row in rows)
    written = json.loads(metrics.read_text())
    assert "augment_calls" in written
    assert {"phase1_s", "phase2_s", "phase3_s"} <= set(written)
    cuts = json.loads(config.read_text())["configurations"]
    assert cuts and all(
        set(c) == {"pair", "cutter", "first", "second"} for c in cuts
    )
    # the dumped splits are the solver's own, one row per skeleton edge
    inst = instance_from_json(load_json(str(instance_file)))
    _, state = solve_state(inst)
    expected = []
    for a, b in inst.skeleton_edges():
        cut = state.cuts.cut(a, b, state.order.later(a, b))
        expected.append(
            {
                "pair": [a, b],
                "cutter": cut.cutter,
                "first": sorted(cut.first),
                "second": sorted(cut.second),
            }
        )
    assert cuts == expected


@pytest.fixture
def cycle4_solved(tmp_path):
    # a 4-agent even cycle and its solved allocation (which carries sigma)
    ipath = tmp_path / "cycle4.json"
    apath = tmp_path / "cycle4-alloc.json"
    assert run(["gen", "--seed", 3, "--n", 4, "--m", 8, "--topology", "cycle_even", "--out", ipath]) == 0
    assert run(["solve", ipath, "--out", apath]) == 0
    return ipath, apath


def test_verify_reports_stage_three_dumps_under_properties_1_and_2(tmp_path, capsys):
    # stage three hands agent 2 a good of pair (3,4), outside her incidence:
    # a complete EFX allocation that is no orientation, reported as failed
    # properties rather than as an error
    ipath = tmp_path / "instance.json"
    apath = tmp_path / "allocation.json"
    dump_json(instance_to_json(gen_instance(suite_spec("cycle_even", 4))), str(ipath))
    assert run(["solve", ipath, "--out", apath]) == 0
    capsys.readouterr()
    assert run(["verify", ipath, apath, "--require-complete", "--properties", "1-7"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    efx, complete, props = json.loads(captured.out)["checks"]
    assert efx["ok"] and complete["ok"]
    assert props["failures"] == {"1": [[2, 0]], "2": [[3, 4, "held-outside-pair", 0]]}


@pytest.mark.parametrize(
    "sigma, properties",
    [
        *(
            pytest.param(sigma, ["--properties", "1-7"], id=sigma)
            for sigma in ["0,1", "0,1,2,3,3", "0,1,2,4", "0,x,2,3"]
        ),
        # a --sigma is checked even when no property check would read it
        pytest.param("9,9", [], id="9,9-without-properties"),
    ],
)
def test_verify_rejects_sigma_that_is_not_a_permutation(
    cycle4_solved, capsys, sigma, properties
):
    ipath, apath = cycle4_solved
    capsys.readouterr()
    assert run(["verify", ipath, apath, *properties, "--sigma", sigma]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --sigma")
    assert captured.err.count("\n") == 1


# "3-1" and "," would otherwise check nothing and pass, "1,3-1" only (1)
@pytest.mark.parametrize("properties", ["x", "1-x", "2,,y", "3-1", ",", "1,3-1"])
def test_verify_rejects_unparsable_properties(cycle4_solved, capsys, properties):
    ipath, apath = cycle4_solved
    capsys.readouterr()
    assert run(["verify", ipath, apath, "--properties", properties]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: properties")
    assert captured.err.count("\n") == 1


def test_envy_graph_command(tmp_path, instance_file, capsys):
    out = tmp_path / "a.json"
    run(["solve", instance_file, "--out", out])
    assert run(["envy-graph", instance_file, out]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph envy {")


def test_oracle_command(tmp_path, capsys):
    inst = two_agent_parallel([1])
    path = tmp_path / "i.json"
    dump_json(instance_to_json(inst), str(path))
    assert run(["oracle", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_oracle_guard_exit(tmp_path, capsys):
    inst = two_agent_parallel([1, 1, 1])
    path = tmp_path / "i.json"
    dump_json(instance_to_json(inst), str(path))
    assert run(["oracle", path, "--guard", "2"]) == 1


def test_oracle_limit_flag(tmp_path, capsys):
    inst = two_agent_parallel([1, 1, 1, 1])
    path = tmp_path / "i.json"
    dump_json(instance_to_json(inst), str(path))
    assert run(["oracle", path, "--limit", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_oracle_limit_zero_prints_no_allocation(tmp_path, capsys):
    path = tmp_path / "i.json"
    dump_json(instance_to_json(two_agent_parallel([1, 1])), str(path))
    assert run(["oracle", path, "--limit", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 0, "allocations": []}


def test_oracle_rejects_negative_limit(tmp_path, capsys):
    path = tmp_path / "i.json"
    dump_json(instance_to_json(two_agent_parallel([1])), str(path))
    assert run(["oracle", path, "--limit", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_exit_matches_checker_on_perturbed_allocations(tmp_path):
    from trifree_efx import Allocation, check_efx

    moved = 0
    for seed in range(6):
        inst = gen_instance(GenSpec(seed=seed, n=5, m=9, topology="tree", v_max=9))
        ipath = tmp_path / f"i{seed}.json"
        dump_json(instance_to_json(inst), str(ipath))
        out = tmp_path / f"a{seed}.json"
        assert run(["solve", ipath, "--out", out]) == 0
        bundles = [set(b) for b in json.loads(out.read_text())["bundles"]]
        # move the first good to the next agent
        holder = next(i for i, b in enumerate(bundles) if 0 in b)
        bundles[holder].discard(0)
        bundles[(holder + 1) % inst.n].add(0)
        perturbed = tmp_path / f"p{seed}.json"
        dump_json({"bundles": [sorted(b) for b in bundles]}, str(perturbed))
        alloc = Allocation.from_bundles(inst.n, bundles)
        expected = 0 if check_efx(inst, alloc).ok else 3
        assert run(["verify", ipath, perturbed]) == expected
        moved += expected == 3
    assert moved >= 1  # at least one perturbation must break EFX


def test_gen_command_round_trips(tmp_path):
    out = tmp_path / "gen.json"
    assert (
        run(
            [
                "gen",
                "--seed",
                7,
                "--n",
                5,
                "--m",
                9,
                "--topology",
                "tree",
                "--out",
                out,
            ]
        )
        == 0
    )
    assert run(["solve", out]) == 0


def test_gen_inconsistent_spec_exits_1():
    assert run(["gen", "--seed", 1, "--n", 5, "--m", 2, "--topology", "cycle_even"]) == 1


@pytest.mark.parametrize("max_degree", ["0", "-5"])
def test_gen_rejects_degree_cap_below_one(capsys, max_degree):
    args = ["gen", "--seed", 3, "--n", 3, "--m", 1, "--topology", "path"]
    assert run(args + ["--max-degree", max_degree]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bench_empty_suite_writes_header(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text("[]")
    out = tmp_path / "bench.csv"
    assert run(["bench", suite, "--out", out]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows == [
        [
            "id",
            "n",
            "m",
            "topology",
            "augment_calls",
            "phase2_iterations",
            "phase3_dumps",
            "pr_moves",
            "wall_s",
        ]
    ]


def test_bench_small_sweep(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(
        json.dumps(
            [
                {"seed": 1, "n": 4, "m": 6, "topology": "path"},
                {"seed": 2, "n": 6, "m": 9, "topology": "star"},
            ]
        )
    )
    out = tmp_path / "bench.csv"
    assert run(["bench", suite, "--out", out]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["id"] for row in rows] == ["0", "1"]
    assert all(float(row["wall_s"]) >= 0 for row in rows)


@pytest.mark.parametrize(
    "entry",
    [
        7,
        [4, 6, "path"],
        {"seed": 1, "n": 6, "topology": "tree"},
        {"seed": 1, "m": 6, "topology": "tree"},
        {"seed": 1, "n": 6, "m": 6},
        {"n": "6", "m": 6, "topology": "tree"},
        {"seed": "x", "n": 6, "m": 6, "topology": "tree"},
        {"seed": 1, "n": 6, "m": 6, "topology": "tree", "max_parallel": True},
        {"seed": 1, "n": 6, "m": 6.5, "topology": "tree"},
        {"seed": 1, "n": 6, "m": 6, "topology": "tree", "max_degree": "3"},
        {"seed": 1, "n": 6, "m": 6, "topology": "triangle"},
        {"seed": 1, "n": 6, "m": 6, "topology": "tree", "valuation_clas": "monotone_table"},
    ],
)
def test_bench_rejects_malformed_entry(tmp_path, capsys, entry):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"seed": 1, "n": 4, "m": 6, "topology": "path"}, entry]))
    assert run(["bench", suite]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bench entry 1 ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag",
    [
        ("solve", "--out"),
        ("solve", "--trace"),
        ("solve", "--metrics-out"),
        ("solve", "--dump-config"),
        ("verify", "--report-out"),
        ("envy-graph", "--out"),
        ("oracle", "--out"),
        ("gen", "--out"),
        ("bench", "--out"),
    ],
)
def test_unwritable_output_path_exits_1(tmp_path, capsys, command, flag):
    ipath = tmp_path / "instance.json"
    apath = tmp_path / "allocation.json"
    suite = tmp_path / "suite.json"
    dump_json(instance_to_json(two_agent_parallel([5, 3, 3])), str(ipath))
    dump_json({"bundles": [[0], [1, 2]], "sigma": [1, 0]}, str(apath))
    suite.write_text(json.dumps([{"seed": 1, "n": 4, "m": 6, "topology": "path"}]))
    args = {
        "solve": ["solve", ipath],
        "verify": ["verify", ipath, apath, "--properties", "1-7"],
        "envy-graph": ["envy-graph", ipath, apath],
        "oracle": ["oracle", ipath],
        "gen": ["gen", "--seed", 1, "--n", 4, "--m", 6, "--topology", "path"],
        "bench": ["bench", suite],
    }[command]
    bad = tmp_path / "no-such-dir" / "out"
    assert run(args + [flag, bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_broken_guarantee_exits_4(tmp_path, capsys, monkeypatch, instance_file, command):
    def broken(*args, **kwargs):
        raise InternalSolverError("stage-three output is not EFX")

    monkeypatch.setattr(cli, "solve_state", broken)
    monkeypatch.setattr(cli, "solve", broken)
    if command == "solve":
        args = ["solve", instance_file]
    else:
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps([{"seed": 1, "n": 4, "m": 6, "topology": "path"}]))
        args = ["bench", suite]
    assert run(args) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "internal error: stage-three output is not EFX\n"


def test_other_library_errors_keep_exit_1(monkeypatch, capsys, instance_file):
    def caller_error(*args, **kwargs):
        raise StateError("relative order of agents 1 and 3 is not determined yet")

    monkeypatch.setattr(cli, "solve_state", caller_error)
    assert run(["solve", instance_file]) == 1
    assert capsys.readouterr().err.startswith("error: relative order")
