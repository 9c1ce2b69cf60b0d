import json
import math

import pytest

from fcndp.cli import main
from fcndp.instance import load_instance, save_instance
from fcndp.oracle import solve_exact

WORKED_TEXT = """\
nodes 3
edges 3
commodities 1
e 0 1 1 5 1
e 1 2 1 5 1
e 0 2 3 8 1
k 0 2 2
"""


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.txt"
    path.write_text(WORKED_TEXT)
    return path


def read_json(path):
    return json.loads(path.read_text())


def test_generate_names_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["generate", "--nodes", "10", "--density", "0.3",
                 "--commodities", "5", "--seed", "1"])
    assert code == 0
    out = tmp_path / "10-0.3-5-1.txt"
    assert out.exists()
    inst = load_instance(out)
    assert inst.nodes == 10 and inst.num_edges == 13 and inst.num_commodities == 5


def test_generate_respects_env_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FCNDP_SEED", "9")
    assert main(["generate", "--nodes", "6", "--density", "0.5",
                 "--commodities", "2"]) == 0
    assert (tmp_path / "6-0.5-2-9.txt").exists()


def test_solve_writes_solution_and_record(worked_file, tmp_path):
    out = tmp_path / "sol.json"
    code = main(["solve", "--instance", str(worked_file), "--seed", "7",
                 "--gamma", "0.85", "--delta", "auto", "--output", str(out)])
    assert code == 0
    data = read_json(out)
    assert data["cost"] == 10.0
    assert data["gap"] >= 0.0
    assert data["seed"] == 7
    assert data["open_edges"] == [2]
    record = read_json(tmp_path / "sol.run.json")
    assert record["seed"] == 7
    assert record["cost"] == 10.0


def test_solve_deterministic_bytes_modulo_walltime(worked_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["solve", "--instance", str(worked_file), "--seed", "3",
                     "--output", str(out)]) == 0
        data = read_json(out)
        data.pop("wall_time_s")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_solve_then_verify_round_trip(worked_file, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(worked_file), "--output", str(out)]) == 0
    assert main(["verify", "--instance", str(worked_file), "--solution", str(out)]) == 0


def test_verify_rejects_tampered_cost(worked_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    main(["solve", "--instance", str(worked_file), "--output", str(out)])
    data = read_json(out)
    data["cost"] = data["cost"] - 1
    out.write_text(json.dumps(data))
    code = main(["verify", "--instance", str(worked_file), "--solution", str(out)])
    assert code == 3
    assert "cost mismatch" in capsys.readouterr().out


def test_verify_rejects_closed_edge_path(worked_file, tmp_path, capsys):
    bad = {
        "cost": 12.0,
        "lower_bound": 0.0,
        "open_edges": [0, 1],  # direct edge 2 closed
        "paths": {"0": [0, 2]},  # but the path drives through it
        "gap": 12.0,
        "wall_time_s": 0.0,
        "seed": 0,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["verify", "--instance", str(worked_file), "--solution", str(path)])
    assert code == 3
    assert "closed-edge" in capsys.readouterr().out


@pytest.mark.parametrize(
    "open_edges, paths",
    [([-1], {"0": [0, 2]}), ([2], {"-1": [0, 2]}), ([7], {"0": [0, 2]}), ([2], {"3": [0, 2]})],
    ids=["edge-1", "commodity-1", "edge7", "commodity3"],
)
def test_verify_rejects_out_of_range_ids(worked_file, tmp_path, capsys, open_edges, paths):
    """Edge ids outside [0, 3) and commodity ids outside [0, 1) of the
    worked instance are refused, not wrapped around or left to crash."""
    data = {"cost": 10.0, "lower_bound": 0.0, "open_edges": open_edges, "paths": paths,
            "gap": 10.0, "wall_time_s": 0.0, "seed": 0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["verify", "--instance", str(worked_file), "--solution", str(path)])
    assert code == 3
    assert "cannot reconstruct solution" in capsys.readouterr().err


GOOD = {"cost": 10.0, "lower_bound": 10.0, "open_edges": [2], "paths": {"0": [0, 2]},
        "gap": 0.0, "wall_time_s": 0.0, "seed": 0}


@pytest.mark.parametrize(
    "data",
    [
        {**GOOD, "paths": {"0": [0, 1.7, 2]}},
        {**GOOD, "paths": {"0": [0, True, 2]}},
        {**GOOD, "paths": {"0": "02"}},
        {**GOOD, "paths": {"0.0": [0, 2]}},
        {**GOOD, "paths": {" 0": [0, 2]}},
        {**GOOD, "paths": [[0, 2]]},
        {**GOOD, "open_edges": 5},
        {**GOOD, "open_edges": [2.0]},
        {**GOOD, "open_edges": [True]},
        {**GOOD, "cost": None},
        {**GOOD, "cost": "10"},
        {**GOOD, "cost": math.nan},
        {**GOOD, "cost": 10**400},
        {k: v for k, v in GOOD.items() if k != "open_edges"},
        [GOOD],
    ],
    ids=["float-node", "bool-node", "string-path", "float-key", "padded-key", "list-paths",
         "int-open-edges", "float-edge", "bool-edge", "null-cost", "string-cost", "nan-cost", "huge-int-cost",
         "no-open-edges", "top-level-list"],
)
def test_verify_rejects_malformed_solution(worked_file, tmp_path, capsys, data):
    """Ids must be ints (never bools or floats), commodity keys decimal
    strings, and every field the schema's type: anything else is refused
    with exit 3, not truncated into a passing design or left to crash."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["verify", "--instance", str(worked_file), "--solution", str(path)])
    assert code == 3
    assert "cannot reconstruct solution" in capsys.readouterr().err


def test_verify_accepts_well_formed_solution(worked_file, tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(GOOD))
    assert main(["verify", "--instance", str(worked_file), "--solution", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_oracle_command(worked_file, tmp_path):
    out = tmp_path / "oracle.json"
    code = main(["oracle", "--instance", str(worked_file), "--output", str(out)])
    assert code == 0
    data = read_json(out)
    assert data["cost"] == 10.0
    assert data["gap"] == 0.0
    # the oracle output verifies cleanly on its own instance
    assert main(["verify", "--instance", str(worked_file), "--solution", str(out)]) == 0


def test_bench_ttt_writes_csv(worked_file, tmp_path):
    code = main(["bench", "--ttt", "--instance", str(worked_file),
                 "--target-ratio", "1.22", "--reps", "3",
                 "--output", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "ttt.csv").read_text().splitlines()
    assert lines[0] == "target,run,seed,time_s,hit"
    assert len(lines) == 4
    assert all(line.split(",")[0] == "12.2" for line in lines[1:])


def test_bench_compare_writes_outputs(worked_file, tmp_path):
    code = main(["bench", "--instance", str(worked_file), "--reps", "2",
                 "--output", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "vfhlb"
    records = (tmp_path / "records.ndjson").read_text().splitlines()
    assert len(records) == 2


def test_bench_compare_without_known_optimum(tmp_path):
    """An instance the oracle cannot enumerate (a non-integer length) is
    still benched, with NaN gap columns."""
    path = tmp_path / "fractional.txt"
    path.write_text(WORKED_TEXT.replace("e 0 1 1 5 1", "e 0 1 1.5 5 1"))
    code = main(["bench", "--instance", str(path), "--reps", "2", "--output", str(tmp_path)])
    assert code == 0
    header, row = (tmp_path / "compare.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert math.isnan(float(values["avg_gap"])) and math.isnan(float(values["gap"]))


def test_missing_instance_is_io_error(tmp_path):
    assert main(["solve", "--instance", str(tmp_path / "nope.txt")]) == 1


def test_invalid_instance_is_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nodes 2\nedges 1\ncommodities 0\ne 0 0 1 1 1\n")
    assert main(["solve", "--instance", str(bad)]) == 1


def test_time_limit_that_is_not_a_number_is_error(worked_file):
    assert main(["solve", "--instance", str(worked_file), "--time-limit", "nan"]) == 1


def test_usage_error_exit_code():
    assert main(["solve"]) == 1  # missing required --instance
    assert main(["--help"]) == 0


def test_bench_without_instances_fails(capsys, tmp_path):
    assert main(["bench", "--output", str(tmp_path)]) == 1
