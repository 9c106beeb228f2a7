"""End-to-end command-line behavior with the oracle backend."""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from clear_ga import cli
from clear_ga.backends import (
    HttpTransport,
    OracleEvaluator,
    SchemaGenerationError,
    TransportError,
)
from clear_ga.cli import main
from clear_ga.engine import EvolutionRun, RunConfig, load_checkpoint_file
from clear_ga.schema import DataItem, load_schema_file

from conftest import write_manifest

SCHEMA = {
    "data_item": "energy",
    "region": "UK",
    "categories": [
        {"name": "cat0", "cues": ["c0_0", "c0_1", "c0_2", "c0_3"]},
        {"name": "cat1", "cues": ["c1_0", "c1_1", "c1_2", "c1_3"]},
        {"name": "cat2", "cues": ["c2_0", "c2_1", "c2_2", "c2_3"]},
    ],
}

LANDSCAPE = {
    "seed": 5,
    "base_error": 7.0,
    "distractor_penalty": 1.0,
    "noise_scale": 0.3,
    "planted": [
        {"category": 0, "cue": "c0_1", "benefit": 3.0},
        {"category": 1, "cue": "c1_2", "benefit": 3.0},
    ],
}


def make_workspace(
    tmp_path: Path, item: str = "energy", energies=(60, 90, 150, 160, 210, 300)
) -> dict[str, str]:
    schema = dict(SCHEMA, data_item=item)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    landscape_path = tmp_path / "landscape.json"
    landscape_path.write_text(json.dumps(LANDSCAPE), encoding="utf-8")
    entries = []
    for i, energy in enumerate(energies):
        entries.append(
            {
                "id": f"b{i}",
                "region": "UK",
                "truth": {
                    "age": "1990-2020",
                    "lighting_pct": 40,
                    "heating": "water_radiators",
                    "windows": "double",
                    "energy_kwh_m2": energy,
                },
            }
        )
    manifest_path = write_manifest(tmp_path / "data.json", entries)
    return {
        "schema": str(schema_path),
        "dataset": str(manifest_path),
        "landscape": str(landscape_path),
    }


def run_args(ws: dict[str, str], out_dir: Path, *extra: str) -> list[str]:
    return [
        "run",
        "--mode", "variable",
        "--backend", "oracle",
        "--schema", ws["schema"],
        "--dataset", ws["dataset"],
        "--landscape", ws["landscape"],
        "--seed", "3",
        "--population-size", "8",
        "--generations", "5",
        "--out-dir", str(out_dir),
        *extra,
    ]


class TestRunCommand:
    def test_produces_log_checkpoint_and_best(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        assert (out_dir / "run.log.jsonl").is_file()
        assert (out_dir / "checkpoint.json").is_file()
        best = json.loads((out_dir / "best.json").read_text(encoding="utf-8"))
        assert best["data_item"] == "energy"
        assert best["seed"] == 3
        assert isinstance(best["best_error"], float)
        assert "best error" in capsys.readouterr().out

    def test_rerun_is_idempotent(self, tmp_path):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        first = {
            name: (out_dir / name).read_bytes()
            for name in ("run.log.jsonl", "checkpoint.json", "best.json")
        }
        assert main(run_args(ws, out_dir)) == 0
        for name, content in first.items():
            assert (out_dir / name).read_bytes() == content

    def test_fixed_mode_keeps_one_cue_per_chromosome(self, tmp_path):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "fixed"
        args = run_args(ws, out_dir)
        args[args.index("--mode") + 1] = "fixed"
        assert main(args) == 0
        best = json.loads((out_dir / "best.json").read_text(encoding="utf-8"))
        assert all(len(ch) == 1 for ch in best["chromosomes"])

    def test_uvalue_item(self, tmp_path):
        ws = make_workspace(tmp_path, item="windows_uvalue")
        out_dir = tmp_path / "uv"
        assert main(run_args(ws, out_dir)) == 0
        best = json.loads((out_dir / "best.json").read_text(encoding="utf-8"))
        assert best["data_item"] == "windows_uvalue"

    def test_seeds_range_loop(self, tmp_path):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "sweep"
        args = run_args(ws, out_dir)
        del args[args.index("--seed") : args.index("--seed") + 2]
        assert main(args + ["--seeds", "0..1", "--generations", "2"]) == 0
        assert (out_dir / "seed0" / "best.json").is_file()
        assert (out_dir / "seed1" / "best.json").is_file()

    def test_config_file_with_flag_override(self, tmp_path):
        ws = make_workspace(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"population_size": 6, "generations": 9}), encoding="utf-8"
        )
        out_dir = tmp_path / "cfg"
        args = run_args(ws, out_dir)
        del args[args.index("--population-size") : args.index("--population-size") + 2]
        args += ["--config", str(config_path), "--generations", "2"]
        assert main(args) == 0
        header = json.loads(
            (out_dir / "run.log.jsonl").read_text(encoding="utf-8").splitlines()[0]
        )
        assert header["config"]["population_size"] == 6  # from file
        assert header["config"]["generations"] == 2  # flag wins

    def test_missing_seed_for_oracle_is_usage_error(self, tmp_path):
        ws = make_workspace(tmp_path)
        args = run_args(ws, tmp_path / "x")
        del args[args.index("--seed") : args.index("--seed") + 2]
        assert main(args) == 1

    def test_config_file_seed_is_the_runs_seed(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        assert main(run_args(ws, tmp_path / "flag")) == 0  # --seed 3
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 3}), encoding="utf-8")
        args = run_args(ws, tmp_path / "file", "--config", str(config_path))
        del args[args.index("--seed") : args.index("--seed") + 2]
        capsys.readouterr()
        assert main(args) == 0
        assert "seed 3: best error" in capsys.readouterr().out
        flag, file = tmp_path / "flag", tmp_path / "file"
        assert (file / "best.json").read_bytes() == (flag / "best.json").read_bytes()
        # A run log's first line is its config, which names the output paths.
        flag_rows = (flag / "run.log.jsonl").read_bytes().splitlines()[1:]
        assert (file / "run.log.jsonl").read_bytes().splitlines()[1:] == flag_rows

    @pytest.mark.parametrize("seed", ["3", True])
    def test_config_file_seed_that_is_not_an_integer_is_config_error(self, tmp_path, capsys, seed):
        ws = make_workspace(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": seed}), encoding="utf-8")
        args = run_args(ws, tmp_path / "x", "--config", str(config_path))
        del args[args.index("--seed") : args.index("--seed") + 2]
        assert main(args) == 2
        assert "is not a JSON integer" in capsys.readouterr().err
        assert not (tmp_path / "x" / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("elites", 1.5),
            ("population_size", 6.0),
            ("generations", 2.5),
            ("current_year", "2025"),
            ("mutation_ops_per_child", True),
            ("evaluation_concurrency", 2.0),
            ("parent_fraction", "0.5"),
        ],
    )
    def test_config_value_of_the_wrong_json_type_is_config_error(
        self, tmp_path, capsys, field, value
    ):
        ws = make_workspace(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({field: value}), encoding="utf-8")
        out_dir = tmp_path / "x"
        args = run_args(ws, out_dir, "--config", str(config_path))
        for flag in ("--population-size", "--generations"):  # the file's value must count
            del args[args.index(flag) : args.index(flag) + 2]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: {field} {value!r} is not a JSON " in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "extra, seed",
        [((), 9), (("--seed", "3"), 3), (("--seed", "3", "--seeds", "5..5"), 5)],
    )
    def test_seeds_value_over_seed_flag_over_config_file(self, tmp_path, capsys, extra, seed):
        ws = make_workspace(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 9}), encoding="utf-8")
        out_dir = tmp_path / "x"
        args = run_args(ws, out_dir, "--config", str(config_path), *extra)
        del args[args.index("--seed") : args.index("--seed") + 2]
        assert main(args) == 0
        assert f"seed {seed}: best error" in capsys.readouterr().out
        best = out_dir / f"seed{seed}" if "--seeds" in extra else out_dir
        assert json.loads((best / "best.json").read_text(encoding="utf-8"))["seed"] == seed

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"x"'])
    def test_config_file_that_is_not_an_object_is_config_error(self, tmp_path, capsys, text):
        ws = make_workspace(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(text, encoding="utf-8")
        assert main(run_args(ws, tmp_path / "x", "--config", str(config_path))) == 2
        assert f"config file {config_path} must be a JSON object" in capsys.readouterr().err

    def test_config_file_data_item_must_be_the_schemas(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"data_item": "heating"}), encoding="utf-8")
        assert main(run_args(ws, tmp_path / "x", "--config", str(config_path))) == 2
        assert "schema is for 'energy', run wants 'heating'" in capsys.readouterr().err
        config_path.write_text(json.dumps({"data_item": "energy"}), encoding="utf-8")
        assert main(run_args(ws, tmp_path / "y", "--config", str(config_path))) == 0

    def test_config_file_schema_names_the_item(self, tmp_path):
        ws = make_workspace(tmp_path, item="heating")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"schema_path": ws["schema"]}), encoding="utf-8")
        args = run_args(ws, tmp_path / "x", "--config", str(config_path))
        del args[args.index("--schema") : args.index("--schema") + 2]
        assert main(args) == 0
        best = json.loads((tmp_path / "x" / "best.json").read_text(encoding="utf-8"))
        assert best["data_item"] == "heating"

    def test_config_schema_path_that_is_not_a_string_is_config_error(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"schema_path": 5}), encoding="utf-8")
        args = run_args(ws, tmp_path / "x", "--config", str(config_path))
        del args[args.index("--schema") : args.index("--schema") + 2]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "schema_path 5 is not a JSON string" in err and "Traceback" not in err

    def test_schema_and_dataset_are_required_before_the_schema_is_read(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        args = run_args(ws, tmp_path / "x")
        args[args.index("--schema") + 1] = str(tmp_path / "missing.json")
        del args[args.index("--dataset") : args.index("--dataset") + 2]
        assert main(args) == 1
        assert "--schema and --dataset are required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, named",
        [
            ({"seed": "7"}, "seed '7'"),
            ({"seed": 5.0}, "seed 5.0"),
            ({"noise_scale": "0.4"}, "noise_scale '0.4'"),
            ({"distractor_penalty": True}, "distractor_penalty True"),
            ({"base_error": float("nan")}, "base_error nan"),
            ({"base_error": float("inf")}, "base_error inf"),
            ({"base_error": 10**400}, f"base_error {10**400}"),
            ({"planted": [{"category": 0, "cue": 5, "benefit": 3.0}]}, "planted[0].cue 5"),
            ({"planted": [{"category": 1.9, "cue": "c1_2", "benefit": 3.0}]},
             "planted[0].category 1.9"),
            ({"planted": [{"category": 0, "cue": "c0_1", "benefit": "3"}]},
             "planted[0].benefit '3'"),
        ],
        ids=["seed-string", "seed-float", "noise-string", "penalty-bool", "base-nan",
             "base-infinity", "base-huge", "cue-number", "category-float", "benefit-string"],
    )
    def test_landscape_value_of_the_wrong_json_type_is_config_error(
        self, tmp_path, capsys, edit, named
    ):
        ws = make_workspace(tmp_path)
        Path(ws["landscape"]).write_text(json.dumps({**LANDSCAPE, **edit}), encoding="utf-8")
        out_dir = tmp_path / "x"
        assert main(run_args(ws, out_dir)) == 2
        assert capsys.readouterr().err.startswith(
            f"error: invalid landscape document: {named} is not a "
        )
        assert not out_dir.exists()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["run", "--frobnicate"]) == 1

    def test_unreadable_schema_is_config_error(self, tmp_path):
        ws = make_workspace(tmp_path)
        args = run_args(ws, tmp_path / "x")
        args[args.index("--schema") + 1] = str(tmp_path / "missing.json")
        assert main(args) == 2

    def test_image_path_that_is_not_a_string_is_config_error(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        entries = json.loads(Path(ws["dataset"]).read_text(encoding="utf-8"))
        entries[0]["image_sets"] = {"building": [5]}
        write_manifest(Path(ws["dataset"]), entries)
        assert main(run_args(ws, tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert err == "error: buildings[0].building: must be an array of file paths\n"
        assert not (tmp_path / "x").exists()

    def test_llm_backend_without_credentials_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CLEAR_LLM_API_KEY", raising=False)
        ws = make_workspace(tmp_path)
        args = run_args(ws, tmp_path / "x")
        args[args.index("--backend") + 1] = "llm"
        assert main(args) == 2


    @pytest.mark.parametrize("interval", ["inf", "nan", "-1"])
    def test_min_interval_that_is_not_a_finite_count_of_seconds_is_config_error(
        self, tmp_path, monkeypatch, capsys, interval
    ):
        monkeypatch.setenv("CLEAR_LLM_API_KEY", "test-key")
        sent = []
        monkeypatch.setattr(HttpTransport, "send", lambda self, prompt, images: sent.append(prompt))
        ws = make_workspace(tmp_path)
        args = run_args(ws, tmp_path / "x", f"--min-interval={interval}")
        args[args.index("--backend") + 1] = "llm"
        assert main(args) == 2
        assert "llm_min_interval must be a finite number >= 0" in capsys.readouterr().err
        assert sent == []
        assert not (tmp_path / "x").exists()


class _Answer120(BaseHTTPRequestHandler):
    """Chat-completions stub that records each request's prompt and answers ``###120###``."""

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.prompts.append(request["messages"][0]["content"][0]["text"])
        data = json.dumps({"choices": [{"message": {"content": "###120###"}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def two_endpoints():
    """Two localhost chat-completions stubs, as (base URL, prompts received) pairs."""
    servers = [ThreadingHTTPServer(("127.0.0.1", 0), _Answer120) for _ in range(2)]
    threads = [threading.Thread(target=httpd.serve_forever, daemon=True) for httpd in servers]
    for httpd, thread in zip(servers, threads):
        httpd.prompts = []
        thread.start()
    yield [(f"http://127.0.0.1:{httpd.server_address[1]}", httpd.prompts) for httpd in servers]
    for httpd, thread in zip(servers, threads):
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def checkpoint_state(path: Path) -> dict:
    """A checkpoint's document without its config, which names output paths."""
    doc = dict(load_checkpoint_file(path))
    del doc["config"]
    return doc


class TestResumeCommand:
    def test_pause_resume_reproduces_log_bytes(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        reference = (out_dir / "run.log.jsonl").read_bytes()
        best_reference = (out_dir / "best.json").read_bytes()

        assert main(run_args(ws, out_dir, "--stop-after", "2")) == 0
        assert "paused after generation 2" in capsys.readouterr().out
        partial = (out_dir / "run.log.jsonl").read_bytes()
        assert partial != reference

        assert main(["resume", "--checkpoint", str(out_dir / "checkpoint.json")]) == 0
        assert (out_dir / "run.log.jsonl").read_bytes() == reference
        assert (out_dir / "best.json").read_bytes() == best_reference

    def test_resume_draws_no_random_genotype(self, tmp_path, monkeypatch):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        names = ("run.log.jsonl", "best.json", "checkpoint.json")
        reference = [(out_dir / name).read_bytes() for name in names]
        assert main(run_args(ws, out_dir, "--stop-after", "2")) == 0

        def refuse_to_draw(*args):
            raise AssertionError("resume drew a random genotype")

        monkeypatch.setattr("clear_ga.engine.random_genotype", refuse_to_draw)
        assert main(["resume", "--checkpoint", str(out_dir / "checkpoint.json")]) == 0
        assert [(out_dir / name).read_bytes() for name in names] == reference

    @staticmethod
    def score_every_member_99(doc):
        doc["log"][-1]["errors"] = [99.0] * 8

    @staticmethod
    def claim_a_best_ever_of_one_half(doc):
        doc["log"][-1]["best_ever_error"] = 0.5

    @staticmethod
    def say_it_was_not_evaluated(doc):
        doc["evaluated"] = "no"

    @pytest.mark.parametrize("damage", ["score_every_member_99", "claim_a_best_ever_of_one_half",
                                        "say_it_was_not_evaluated"])
    def test_restated_field_other_than_the_state_gives_is_config_error(
        self, tmp_path, capsys, damage
    ):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir, "--stop-after", "2")) == 0
        path = out_dir / "checkpoint.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        getattr(self, damage)(doc)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        (out_dir / "run.log.jsonl").unlink()
        (out_dir / "best.json").unlink(missing_ok=True)
        written = path.read_bytes()
        capsys.readouterr()
        assert main(["resume", "--checkpoint", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: corrupt checkpoint document: ")
        assert path.read_bytes() == written
        assert sorted(p.name for p in out_dir.iterdir()) == ["checkpoint.json"]

    def test_best_key_row_holding_another_genotype_is_config_error(self, tmp_path, capsys):
        # The best key's genotype row given the next row's chromosomes once
        # resumed and named that other genotype in best.json.
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir, "--generations", "10", "--stop-after", "3")) == 0
        path = out_dir / "checkpoint.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        worst = [row["worst_error"] for row in doc["ledger"]]
        best = worst.index(min(worst))
        other = doc["genotypes"][best + 1 if best + 1 < len(worst) else best - 1]
        doc["genotypes"][best]["chromosomes"] = other["chromosomes"]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        (out_dir / "best.json").unlink(missing_ok=True)
        capsys.readouterr()
        assert main(["resume", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: corrupt checkpoint document: the genotype row of the best key "
                       f"{doc['ledger'][best]['key']} holds the genotype of {other['key']}\n")
        assert not (out_dir / "best.json").exists()

    def test_negative_stop_after_is_config_error_and_writes_nothing(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir, "--stop-after", "-1")) == 2
        assert "stop_after_generation must be >= 0" in capsys.readouterr().err
        assert not out_dir.exists()
        assert main(run_args(ws, out_dir, "--stop-after", "1")) == 0
        checkpoint = out_dir / "checkpoint.json"
        paused = checkpoint.read_bytes()
        assert main(["resume", "--checkpoint", str(checkpoint), "--stop-after", "-1"]) == 2
        assert checkpoint.read_bytes() == paused

    def test_negative_stop_after_on_a_finished_run_is_config_error(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        names = ("run.log.jsonl", "checkpoint.json", "best.json")
        reference = {name: (out_dir / name).read_bytes() for name in names}
        capsys.readouterr()
        checkpoint = str(out_dir / "checkpoint.json")
        assert main(["resume", "--checkpoint", checkpoint, "--stop-after", "-1"]) == 2
        assert "stop_after_generation must be >= 0" in capsys.readouterr().err
        for name, content in reference.items():
            assert (out_dir / name).read_bytes() == content

    def test_resume_completed_run_is_noop(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        capsys.readouterr()
        assert main(["resume", "--checkpoint", str(out_dir / "checkpoint.json")]) == 0
        assert "already complete" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["deleted", "emptied"])
    def test_resume_of_a_finished_run_repairs_best_json(self, tmp_path, capsys, damage):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        best = out_dir / "best.json"
        reference = best.read_bytes()
        if damage == "deleted":
            best.unlink()
        else:
            best.write_bytes(b"")
        capsys.readouterr()
        assert main(["resume", "--checkpoint", str(out_dir / "checkpoint.json")]) == 0
        assert "already complete" in capsys.readouterr().out
        assert best.read_bytes() == reference
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "best.json", "checkpoint.json", "run.log.jsonl",
        ]

    def test_resume_with_missing_schema_file(self, tmp_path):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir, "--stop-after", "1")) == 0
        Path(ws["schema"]).unlink()
        assert main(["resume", "--checkpoint", str(out_dir / "checkpoint.json")]) == 2

    def test_resume_with_edited_dataset_refused(self, tmp_path):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir, "--stop-after", "1")) == 0
        dataset = Path(ws["dataset"])
        records = json.loads(dataset.read_text(encoding="utf-8"))
        records[0]["truth"]["energy_kwh_m2"] = 999
        dataset.write_text(json.dumps(records), encoding="utf-8")
        assert main(["resume", "--checkpoint", str(out_dir / "checkpoint.json")]) == 2

    def test_resume_keeps_the_runs_train_fraction(self, tmp_path):
        # Five buildings per stratum: 0.5 trains on two of each, 0.6 on three.
        ws = make_workspace(tmp_path, energies=(60, 70, 80, 90, 95, 150, 160, 170, 180, 190))
        out_dir = tmp_path / "out"
        names = ("run.log.jsonl", "checkpoint.json", "best.json")
        assert main(run_args(ws, out_dir, "--train-fraction", "0.5")) == 0
        reference = {name: (out_dir / name).read_bytes() for name in names}

        assert main(run_args(ws, out_dir, "--train-fraction", "0.5", "--stop-after", "2")) == 0
        assert main(["resume", "--checkpoint", str(out_dir / "checkpoint.json")]) == 0
        for name, content in reference.items():
            assert (out_dir / name).read_bytes() == content
        best = json.loads(reference["best.json"])
        assert best["train_fraction"] == 0.5

    @pytest.mark.parametrize(
        "edit",
        [
            lambda landscape: landscape.update(seed=6),
            lambda landscape: landscape["planted"][0].update(cue="c0_2"),
        ],
        ids=["seed", "planted-cue"],
    )
    def test_resume_with_edited_landscape_refused(self, tmp_path, capsys, edit):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir, "--stop-after", "1")) == 0
        landscape = json.loads(Path(ws["landscape"]).read_text(encoding="utf-8"))
        edit(landscape)
        Path(ws["landscape"]).write_text(json.dumps(landscape), encoding="utf-8")
        capsys.readouterr()
        assert main(["resume", "--checkpoint", str(out_dir / "checkpoint.json")]) == 2
        assert "landscape file differs" in capsys.readouterr().err

    def test_resume_from_another_directory_after_relative_paths(
        self, tmp_path, monkeypatch
    ):
        work = tmp_path / "work"
        work.mkdir()
        ws = make_workspace(work)
        relative = {name: str(Path(path).relative_to(work)) for name, path in ws.items()}
        monkeypatch.chdir(work)
        assert main(run_args(relative, Path("full"))) == 0
        assert main(run_args(relative, Path("part"), "--stop-after", "2")) == 0

        monkeypatch.chdir(tmp_path)
        assert main(["resume", "--checkpoint", str(Path("work/part/checkpoint.json"))]) == 0
        assert (work / "part" / "best.json").read_bytes() == (work / "full" / "best.json").read_bytes()
        # A run log's first line is its config, which names the output paths.
        full_rows = (work / "full" / "run.log.jsonl").read_bytes().splitlines()[1:]
        assert (work / "part" / "run.log.jsonl").read_bytes().splitlines()[1:] == full_rows

    def test_resume_writes_next_to_a_moved_checkpoint(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        moved = tmp_path / "moved"
        assert main(run_args(ws, moved)) == 0
        names = ("run.log.jsonl", "checkpoint.json", "best.json")
        reference = {name: (moved / name).read_bytes() for name in names}
        shutil.rmtree(moved)

        first = tmp_path / "first"
        assert main(run_args(ws, first, "--stop-after", "2")) == 0
        first.rename(moved)
        checkpoint = str(moved / "checkpoint.json")
        capsys.readouterr()
        assert main(["resume", "--checkpoint", checkpoint, "--stop-after", "3"]) == 0
        assert f"resume with: clear-ga resume --checkpoint {checkpoint}" in capsys.readouterr().out
        assert not first.exists()
        doc = json.loads((moved / "checkpoint.json").read_text(encoding="utf-8"))
        assert doc["generation"] == 3

        assert main(["resume", "--checkpoint", checkpoint]) == 0
        assert not first.exists()
        for name, content in reference.items():
            assert (moved / name).read_bytes() == content

    def test_resume_of_a_moved_directory_continues_its_journal(self, tmp_path, monkeypatch):
        ws = make_workspace(tmp_path)
        moved = tmp_path / "moved"
        assert main(run_args(ws, moved)) == 0
        names = ("run.log.jsonl", "checkpoint.json", "best.json")
        reference = {name: (moved / name).read_bytes() for name in names}
        shutil.rmtree(moved)

        class Interrupt(Exception):
            pass

        write_checkpoint = EvolutionRun.write_checkpoint

        def interrupt_after(generation):
            def write_then_stop(run, *args, **kwargs):
                write_checkpoint(run, *args, **kwargs)
                if run.generation == generation:
                    raise Interrupt

            return write_then_stop

        first = tmp_path / "first"
        monkeypatch.setattr(EvolutionRun, "write_checkpoint", interrupt_after(2))
        with pytest.raises(Interrupt):
            main(run_args(ws, first))
        first.rename(moved)
        checkpoint = moved / "checkpoint.json"
        before = checkpoint.read_bytes()

        monkeypatch.setattr(EvolutionRun, "write_checkpoint", interrupt_after(4))
        with pytest.raises(Interrupt):
            main(["resume", "--checkpoint", str(checkpoint)])
        assert not first.exists()
        after = checkpoint.read_bytes()
        assert after.startswith(before) and after.count(b"\n") == before.count(b"\n") + 2
        doc = load_checkpoint_file(checkpoint)
        assert doc["generation"] == 4 and doc["config"]["checkpoint_path"] == str(checkpoint)

        monkeypatch.setattr(EvolutionRun, "write_checkpoint", write_checkpoint)
        assert main(["resume", "--checkpoint", str(checkpoint)]) == 0
        assert not first.exists()
        for name, content in reference.items():
            assert (moved / name).read_bytes() == content

    def test_resume_keeps_the_runs_endpoint_unless_given_one(
        self, tmp_path, monkeypatch, two_endpoints
    ):
        (first, to_first), (second, to_second) = two_endpoints
        monkeypatch.setenv("CLEAR_LLM_API_KEY", "test-key")
        monkeypatch.setenv("CLEAR_LLM_ENDPOINT", second)
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        args = run_args(ws, out_dir, "--endpoint", first, "--stop-after", "0")
        args[args.index("--backend") + 1] = "llm"
        assert main(args) == 0
        checkpoint = out_dir / "checkpoint.json"
        paused = len(to_first)
        assert paused > 0 and to_second == []

        # CLEAR_LLM_ENDPOINT names an endpoint only for runs that were given none.
        assert main(["resume", "--checkpoint", str(checkpoint), "--stop-after", "2"]) == 0
        assert len(to_first) > paused and to_second == []
        assert load_checkpoint_file(checkpoint)["config"]["llm_endpoint"] == first

        sent_to_first = len(to_first)
        assert main(["resume", "--checkpoint", str(checkpoint), "--endpoint", second]) == 0
        assert len(to_first) == sent_to_first and len(to_second) > 0
        doc = load_checkpoint_file(checkpoint)
        assert doc["generation"] == 5 and doc["config"]["llm_endpoint"] == second
        assert (out_dir / "best.json").exists()

    def test_checkpoint_without_an_endpoint_field_resumes(self, tmp_path, monkeypatch):
        # A checkpoint written before RunConfig held the LLM endpoint.
        ws = make_workspace(tmp_path)
        full = tmp_path / "full"
        assert main(run_args(ws, full)) == 0

        class Interrupt(Exception):
            pass

        write_checkpoint = EvolutionRun.write_checkpoint

        def write_then_stop(run, *args, **kwargs):
            write_checkpoint(run, *args, **kwargs)
            if run.generation == 3:
                raise Interrupt

        out_dir = tmp_path / "out"
        monkeypatch.setattr(EvolutionRun, "write_checkpoint", write_then_stop)
        with pytest.raises(Interrupt):
            main(run_args(ws, out_dir))
        monkeypatch.setattr(EvolutionRun, "write_checkpoint", write_checkpoint)
        checkpoint = out_dir / "checkpoint.json"
        lines = []
        for line in checkpoint.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            del obj["config"]["llm_endpoint"]
            lines.append(json.dumps(obj) + "\n")
        assert len(lines) > 1  # the snapshot and at least one record
        checkpoint.write_text("".join(lines), encoding="utf-8")

        assert main(["resume", "--checkpoint", str(checkpoint)]) == 0
        log_rows = (out_dir / "run.log.jsonl").read_bytes().splitlines()[1:]
        assert log_rows == (full / "run.log.jsonl").read_bytes().splitlines()[1:]
        assert (out_dir / "best.json").read_bytes() == (full / "best.json").read_bytes()
        assert checkpoint_state(checkpoint) == checkpoint_state(full / "checkpoint.json")
        assert load_checkpoint_file(checkpoint)["config"]["llm_endpoint"] is None

    def test_resume_with_another_concurrency_matches_the_uninterrupted_run(self, tmp_path):
        ws = make_workspace(tmp_path)
        full, out_dir = tmp_path / "full", tmp_path / "out"
        assert main(run_args(ws, full)) == 0
        assert main(run_args(ws, out_dir, "--stop-after", "2")) == 0
        checkpoint = out_dir / "checkpoint.json"
        assert main(["resume", "--checkpoint", str(checkpoint), "--concurrency", "3"]) == 0
        log_lines = (out_dir / "run.log.jsonl").read_bytes().splitlines()
        assert log_lines[1:] == (full / "run.log.jsonl").read_bytes().splitlines()[1:]
        assert (out_dir / "best.json").read_bytes() == (full / "best.json").read_bytes()
        assert checkpoint_state(checkpoint) == checkpoint_state(full / "checkpoint.json")
        assert load_checkpoint_file(checkpoint)["config"]["evaluation_concurrency"] == 3
        assert json.loads(log_lines[0])["config"]["evaluation_concurrency"] == 3

    @pytest.mark.parametrize(
        "doc",
        [
            [1],
            "x",
            {"config": 5},
            {"config": {}},
            {"config": {"data_item": "energy", "population_size": "x"}},
            {"format": "clear-ga/checkpoint/1", "config": 5},
            {"format": "clear-ga/checkpoint/1", "config": {"data_item": "energy", "elites": "x"}},
        ],
    )
    def test_malformed_checkpoint_is_config_error(self, tmp_path, capsys, doc):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["resume", "--checkpoint", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    def test_checkpoint_min_interval_that_is_not_a_finite_count_is_config_error(
        self, tmp_path, capsys
    ):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir, "--stop-after", "2")) == 0
        path = out_dir / "checkpoint.json"
        # The interval is outside the digest, so only the range check refuses it.
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["config"]["llm_min_interval"] = -1.0
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        written = path.read_bytes()
        capsys.readouterr()
        assert main(["resume", "--checkpoint", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: corrupt checkpoint document: llm_min_interval must be a finite number >= 0"
        )
        assert path.read_bytes() == written

    def test_checkpoint_without_the_best_keys_genotype_is_config_error(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir, "--stop-after", "2")) == 0
        path = out_dir / "checkpoint.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        best = min(doc["ledger"], key=lambda row: row["worst_error"])["key"]
        doc["genotypes"] = [row for row in doc["genotypes"] if row["key"] != best]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["resume", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt checkpoint document: ledger and genotype rows")

class PairsOnly:
    """Delegates ``evaluate`` and ``describe`` alone, as a wrapping evaluator
    does, so the run scores its oracle through (member, building) pairs."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, request):
        return self.inner.evaluate(request)

    def describe(self) -> dict:
        return self.inner.describe()


class TestSplitScoring:
    """An oracle run scores each member's split in one call on the run's thread;
    wrapped to offer only ``evaluate``, it is scored pair by pair through the
    pool, and writes the same files."""

    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    @pytest.mark.parametrize("stop_after", [None, "2"])
    def test_pair_path_writes_the_same_files(self, tmp_path, monkeypatch, mode, stop_after):
        ws = make_workspace(tmp_path)
        open_run = cli._open_run
        outputs = {}
        for path, wrap in (("split", None), ("pairs", PairsOnly)):
            if wrap is not None:
                def wrapped(config, schema):
                    splits, evaluator, digests = open_run(config, schema)
                    return splits, wrap(evaluator), digests

                monkeypatch.setattr(cli, "_open_run", wrapped)
            for concurrency in ("1", "3"):
                out_dir = tmp_path / f"{path}{concurrency}"
                args = run_args(ws, out_dir, "--mode", mode, "--concurrency", concurrency)
                if stop_after is None:
                    assert main(args) == 0
                else:
                    assert main([*args, "--stop-after", stop_after]) == 0
                    assert main(["resume", "--checkpoint", str(out_dir / "checkpoint.json")]) == 0
                outputs[path, concurrency] = (
                    (out_dir / "run.log.jsonl").read_bytes().split(b"\n", 1)[1],
                    (out_dir / "best.json").read_bytes(),
                    checkpoint_state(out_dir / "checkpoint.json"),
                )
        reference = outputs["split", "1"]
        assert reference[0].count(b"\n") == 6
        for key, output in outputs.items():
            assert output == reference, key


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCheckpointBytePins:
    """The bytes a run writes are pinned: ``checkpoint.json`` after every
    generation's commit (the snapshot line and each record line) and the final
    ``run.log.jsonl``, uninterrupted and paused after generations 2 and 3. The
    run works in its own directory with relative paths, so every byte,
    config lines included, is the same wherever it runs."""

    FIXED_LOG = "e613533f5bfa94bae65413a544b683f88db9bf265e1cc8edc133310110bcff36"
    VARIABLE_LOG = "2102e84f70229e978e77fc74bd6246079f0f2a053900e4f21a45e2e18d7bb7fa"
    # Generation 0 commits the first snapshot and generation 5 the final one;
    # the generations between append record lines, but the paused run rewrites
    # its snapshot whole at its pauses after generations 2 and 3. So its files
    # differ from generation 2 on and meet the uninterrupted run's at the end.
    PINS = {
        ("fixed", False): [
            "534450ed83b5f3f29d2f69c074eede5534407af37a1bea1b96779cea36f5d28e",
            "dc9614e6d98dd25d3a0f46acd18f01988d129048fd8d72d1d284157f041c6df2",
            "274fc06130de46772109d433ce6f45752c6a14970638606b79ff8ab1ebb33f59",
            "cf95b0c3576cb31894df5750d3e07d0b1ac22045a78c1d1949d8ea57f2b36dff",
            "608c7525c094fa73f63562a6c620996b02616552d2d70372b2f7f0a8300cc5a1",
            "b40b34dd8452b9a8d7867a6218e24f71bc9e96172eb7fe261302bbcb85215e9b",
        ],
        ("fixed", True): [
            "534450ed83b5f3f29d2f69c074eede5534407af37a1bea1b96779cea36f5d28e",
            "dc9614e6d98dd25d3a0f46acd18f01988d129048fd8d72d1d284157f041c6df2",
            "847d58816ec6053efd478a319a89796695edd6342226f45294c663d2d7676651",
            "08c51e10a734659a5cdf0dcad7f1e46be0d91ed8a01f2d829e4f9341bd63b67d",
            "6f3e45b8939bacae4c87de435ab5bb00d6fabe4fb47221b62f6a3982b7589525",
            "b40b34dd8452b9a8d7867a6218e24f71bc9e96172eb7fe261302bbcb85215e9b",
        ],
        ("variable", False): [
            "faaaa075f6db7eda43cb4ac42510ae807b023bdbe34fb6a1ce1eb600b663fcac",
            "c81ece3ac031585b93bc00376790b44010173d8b8b7cdc8dfc9c75357d3fcf27",
            "e6476619920935e5d2ce05266f6a4ebca9a5980786bbb006ea29e79de945e6cd",
            "b4103c5b05dfd2ce229905958d9bb1369a0e3e38d538f3785a5a86de2ba707dd",
            "6717cfb2aae58f081466a8980e583060860ebcdec3dc248b5f59146b3accbf56",
            "03233f8ca44013ee82d1d36ca974b58a66b6383fc4d9f37535d8348bad65361f",
        ],
        ("variable", True): [
            "faaaa075f6db7eda43cb4ac42510ae807b023bdbe34fb6a1ce1eb600b663fcac",
            "c81ece3ac031585b93bc00376790b44010173d8b8b7cdc8dfc9c75357d3fcf27",
            "d5839b358bc93639890307cfbcded709d6da6f301996da45c7d3c3f86509c46f",
            "621c7a4d60357e66a10833e97d31d8317705b78abba7ea6179a19e3a98f363fc",
            "fb4efb9219b205a854401c85ff017fedc1ef252695eaa70819cfe2eaf9e05c0f",
            "03233f8ca44013ee82d1d36ca974b58a66b6383fc4d9f37535d8348bad65361f",
        ],
    }

    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    @pytest.mark.parametrize("paused", [False, True], ids=["uninterrupted", "paused"])
    def test_written_bytes_are_pinned(self, tmp_path, monkeypatch, mode, paused):
        monkeypatch.chdir(tmp_path)
        ws = make_workspace(Path("."))
        commits = []
        write_checkpoint = EvolutionRun.write_checkpoint

        def hashed_write(run, journal=False):
            write_checkpoint(run, journal)
            commits.append(sha256_of(Path(run.config.checkpoint_path)))

        monkeypatch.setattr(EvolutionRun, "write_checkpoint", hashed_write)
        config = RunConfig(
            data_item="energy", mode=mode, seed=3, population_size=8, generations=5,
            schema_path=ws["schema"], dataset_path=ws["dataset"], landscape_path=ws["landscape"],
        )
        cli._run_one(config, load_schema_file(ws["schema"]), Path("out"), 2 if paused else None)
        if paused:
            assert main(["resume", "--checkpoint", "out/checkpoint.json", "--stop-after", "3"]) == 0
            assert main(["resume", "--checkpoint", "out/checkpoint.json"]) == 0
        assert commits == self.PINS[mode, paused]
        log = self.FIXED_LOG if mode == "fixed" else self.VARIABLE_LOG
        assert sha256_of(Path("out/run.log.jsonl")) == log

    # A categorical item's bytes: windows in fixed mode, read out as the oracle's
    # quantized class. The base error is lowered to the total benefit, so the
    # planted optimum's scores straddle the first band and its errors vary.
    WINDOWS_LOG = "e19ee639369b4347048e438aa230e98f11d21516632fd96e314fe236e1bf23e1"
    WINDOWS_PINS = {
        False: [
            "c281072867c997e76c59f81dba388390098061b9477d1e8492b340a376af73ad",
            "f369de9645faaac64e572e8a0cdda1e24301b3f460fd34eba8c5e7ad66d86965",
            "5b2ead000173ebba68422e1a61b1fd9d2d6ab8c00863a4a382d6472d3f28c107",
            "b4c4d3ee267c7e35b2198cc5c797bdc8476d3f7ef929661517e88fdb369a042f",
            "e7b010fc83b037b7096f310fc2391e1ecd02be06b0d674c900388c0ed600c880",
            "a590642bda660ec201cf453a561faa81a4625371426d1e1edd4a8d87796afb24",
        ],
        True: [
            "c281072867c997e76c59f81dba388390098061b9477d1e8492b340a376af73ad",
            "f369de9645faaac64e572e8a0cdda1e24301b3f460fd34eba8c5e7ad66d86965",
            "15cd3492cd4045f7c601d05cb85554c4164c4668a06e90ac0fdd86c61ba051e1",
            "e31a44e3057c632f4a2142085174bfb7f0104f04c0535a64e10a9e15bc6a654c",
            "f0b371141cb81d22460106b14d2ba37ba246b8cefd27f30468d03018a88cee5f",
            "a590642bda660ec201cf453a561faa81a4625371426d1e1edd4a8d87796afb24",
        ],
    }

    @pytest.mark.parametrize("paused", [False, True], ids=["uninterrupted", "paused"])
    def test_windows_bytes_are_pinned(self, tmp_path, monkeypatch, paused):
        monkeypatch.chdir(tmp_path)
        ws = make_workspace(Path("."), item="windows")
        Path(ws["landscape"]).write_text(json.dumps({**LANDSCAPE, "base_error": 6.0}),
                                         encoding="utf-8")
        commits = []
        write_checkpoint = EvolutionRun.write_checkpoint

        def hashed_write(run, journal=False):
            write_checkpoint(run, journal)
            commits.append(sha256_of(Path(run.config.checkpoint_path)))

        monkeypatch.setattr(EvolutionRun, "write_checkpoint", hashed_write)
        config = RunConfig(
            data_item="windows", mode="fixed", seed=8, population_size=8, generations=5,
            schema_path=ws["schema"], dataset_path=ws["dataset"], landscape_path=ws["landscape"],
        )
        cli._run_one(config, load_schema_file(ws["schema"]), Path("out"), 2 if paused else None)
        if paused:
            assert main(["resume", "--checkpoint", "out/checkpoint.json", "--stop-after", "3"]) == 0
            assert main(["resume", "--checkpoint", "out/checkpoint.json"]) == 0
        assert commits == self.WINDOWS_PINS[paused]
        assert sha256_of(Path("out/run.log.jsonl")) == self.WINDOWS_LOG


class TestAnalysisCommands:
    def test_ablate_writes_csv(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        report_path = tmp_path / "ablation.csv"
        status = main(
            [
                "ablate",
                "--genotype", str(out_dir / "best.json"),
                "--schema", ws["schema"],
                "--dataset", ws["dataset"],
                "--landscape", ws["landscape"],
                "--split", "test",
                "--out", str(report_path),
            ]
        )
        assert status == 0
        lines = report_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cue,category,new_error,delta,failed"
        assert len(lines) >= 2
        assert "base error" in capsys.readouterr().out

    def test_ablate_splits_at_the_runs_train_fraction(self, tmp_path, capsys):
        ws = make_workspace(tmp_path, energies=(60, 70, 80, 90, 95, 150, 160, 170, 180, 190))
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir, "--train-fraction", "0.5")) == 0
        ablate = [
            "ablate", "--genotype", str(out_dir / "best.json"), "--schema", ws["schema"],
            "--dataset", ws["dataset"], "--landscape", ws["landscape"], "--split", "test",
        ]
        outputs = []
        for extra in ([], ["--train-fraction", "0.5"], ["--train-fraction", "0.6"]):
            capsys.readouterr()
            assert main(ablate + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]

    def test_probe_writes_json(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        report_path = tmp_path / "probe.json"
        status = main(
            [
                "probe",
                "--schema", ws["schema"],
                "--dataset", ws["dataset"],
                "--landscape", ws["landscape"],
                "--cue", "c0_1",
                "--building", "b2",
                "--n", "10",
                "--out", str(report_path),
            ]
        )
        assert status == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["cue"] == "c0_1"
        assert report["samples"] == 10
        assert "disagreement" in capsys.readouterr().out

    def test_probe_unknown_cue_is_usage_error(self, tmp_path):
        ws = make_workspace(tmp_path)
        status = main(
            [
                "probe",
                "--schema", ws["schema"],
                "--dataset", ws["dataset"],
                "--landscape", ws["landscape"],
                "--cue", "nonexistent",
                "--building", "b2",
            ]
        )
        assert status == 1

    @staticmethod
    def write_genotype(path: Path, **settings) -> Path:
        doc = {"data_item": "energy", "seed": 3, "train_fraction": 0.6, **settings,
               "chromosomes": [["c0_1"], ["c1_2"], []]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_genotype_file_without_data_item_takes_the_schemas_item(self, tmp_path, capsys):
        ws = make_workspace(tmp_path, item="heating")
        ablate = ["ablate", "--schema", ws["schema"], "--dataset", ws["dataset"],
                  "--landscape", ws["landscape"]]
        outputs = []
        for name, recorded in (("with.json", {"data_item": "heating"}), ("without.json", {})):
            genotype = tmp_path / name
            doc = {**recorded, "seed": 3, "chromosomes": [["c0_1"], ["c1_2"], []]}
            genotype.write_text(json.dumps(doc), encoding="utf-8")
            capsys.readouterr()
            assert main(ablate + ["--genotype", str(genotype)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "settings",
        [
            {"data_item": "roof"},
            {"seed": "3"},
            {"seed": 3.0},
            {"seed": True},
            {"train_fraction": None},
            {"train_fraction": "0.5"},
            {"train_fraction": False},
            {"data_item": "heating"},
        ],
    )
    def test_bad_genotype_file_value_is_config_error(self, tmp_path, capsys, settings):
        ws = make_workspace(tmp_path)
        genotype = self.write_genotype(tmp_path / "best.json", **settings)
        status = main(["ablate", "--genotype", str(genotype), "--schema", ws["schema"],
                       "--dataset", ws["dataset"], "--landscape", ws["landscape"]])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad genotype file {genotype}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["ablate", "probe"])
    def test_estimator_failure_is_backend_error(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setenv("CLEAR_LLM_API_KEY", "test-key")
        sent = []

        def refuse(self, prompt, images):
            sent.append(prompt)
            raise TransportError("connection refused")

        monkeypatch.setattr(HttpTransport, "send", refuse)
        ws = make_workspace(tmp_path)
        argv = [command, "--schema", ws["schema"], "--dataset", ws["dataset"],
                "--backend", "llm", "--retry-limit", "0"]
        if command == "ablate":
            argv += ["--genotype", str(self.write_genotype(tmp_path / "best.json"))]
        else:
            argv += ["--cue", "c0_1", "--building", "b2", "--n", "2"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if line.startswith("error: ")]) == 1
        assert "Traceback" not in err
        assert sent

    @pytest.mark.parametrize("backend", ["oracle", "llm"])
    @pytest.mark.parametrize("item, field", [("heating", "heating"), ("energy", "energy_kwh_m2")])
    def test_probe_of_a_building_without_the_items_truth_sends_nothing(
        self, tmp_path, monkeypatch, capsys, backend, item, field
    ):
        monkeypatch.setenv("CLEAR_LLM_API_KEY", "test-key")
        sent = []

        def answer(self, prompt, images):
            sent.append(prompt)
            return "### 120 ###"

        monkeypatch.setattr(HttpTransport, "send", answer)
        ws = make_workspace(tmp_path, item=item)
        entries = json.loads(Path(ws["dataset"]).read_text(encoding="utf-8"))
        del entries[0]["truth"][field]
        write_manifest(Path(ws["dataset"]), entries)
        out = tmp_path / "probe.json"
        landscape = ["--landscape", ws["landscape"]] if backend == "oracle" else []
        assert main(["probe", "--schema", ws["schema"], "--dataset", ws["dataset"],
                     "--backend", backend, *landscape, "--cue", "c0_1", "--building", "b0",
                     "--n", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: building 'b0' has no truth.{field} for item {item}\n"
        assert sent == [] and not out.exists()

    def test_every_command_evaluates_the_schemas_item(self, tmp_path, monkeypatch):
        items = []
        evaluate, evaluate_batch = OracleEvaluator.evaluate, OracleEvaluator.evaluate_batch

        def recording(self, request):
            items.append(request.data_item.value)
            return evaluate(self, request)

        def recording_batch(self, jobs, buildings, item):
            items.append(DataItem(item).value)
            return evaluate_batch(self, jobs, buildings, item)

        monkeypatch.setattr(OracleEvaluator, "evaluate", recording)
        monkeypatch.setattr(OracleEvaluator, "evaluate_batch", recording_batch)
        ws = make_workspace(tmp_path, item="heating")
        out_dir = tmp_path / "out"
        inputs = ["--schema", ws["schema"], "--dataset", ws["dataset"],
                  "--landscape", ws["landscape"]]
        assert main(run_args(ws, out_dir)) == 0
        assert main(["ablate", "--genotype", str(out_dir / "best.json"), *inputs]) == 0
        assert main(["probe", *inputs, "--cue", "c0_1", "--building", "b2"]) == 0
        assert items and set(items) == {"heating"}

    @pytest.mark.parametrize("command", ["run", "ablate", "probe", "gen-schema"])
    def test_only_gen_schema_takes_an_item(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert ("--item" in capsys.readouterr().out) == (command == "gen-schema")

    def test_ablate_and_probe_output_is_pinned(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        inputs = ["--schema", ws["schema"], "--dataset", ws["dataset"],
                  "--landscape", ws["landscape"]]
        outputs = {}
        for split in ("test", "train"):
            capsys.readouterr()
            path = tmp_path / f"{split}.csv"
            assert main(["ablate", "--genotype", str(out_dir / "best.json"), *inputs,
                         "--split", split, "--out", str(path)]) == 0
            outputs[path.name] = capsys.readouterr().out
        path = tmp_path / "probe.json"
        assert main(["probe", *inputs, "--cue", "c0_1",
                     "--building", "b2", "--out", str(path)]) == 0
        outputs[path.name] = capsys.readouterr().out
        responses = [
            "154.0099530643147", "153.7568792473238", "154.03198432146422",
            "154.31293279089184", "153.7497404266351", "153.77595823166612",
            "154.06175233878696", "153.90328197106865", "153.35963572442128",
            "153.63317003459227",
        ]
        assert outputs == {
            "test.csv": (
                "base error on test split: 3.33033\n"
                "  - c0_1 [cat0]: 12.8631 (delta +9.53273)\n"
                "  - c1_2 [cat1]: 12.2459 (delta +8.91556)\n"
                "mean new error 12.5545, stddev 0.308587\n"
                f"wrote {tmp_path / 'test.csv'}\n"
            ),
            "train.csv": (
                "base error on train split: 3.57221\n"
                "  - c0_1 [cat0]: 12.0031 (delta +8.43084)\n"
                "  - c1_2 [cat1]: 12.6557 (delta +9.08348)\n"
                "mean new error 12.3294, stddev 0.326321\n"
                f"wrote {tmp_path / 'train.csv'}\n"
            ),
            "probe.json": (
                "cue 'c0_1' on building b2 (10 samples)\n"
                "  disagreement rate: 0.90\n"
                "  cv: 0.0016\n"
                f"  responses: {responses}\n"
                f"wrote {tmp_path / 'probe.json'}\n"
            ),
        }
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in outputs
        }
        assert digests == {
            "test.csv": "ae88510270b9cca9eef8d43b88550ac85556449e186904d766d99c75200226b3",
            "train.csv": "27631369180c46aafbb4b308df26ee46aa08f58ca6648e15ffbbc92e4e233626",
            "probe.json": "8c3069c24b458490efb9a5164034359f0b1ef8d2c349decb818695aef175c85a",
        }

    def test_ablate_and_probe_output_over_the_pair_path_is_pinned(
        self, tmp_path, monkeypatch, capsys
    ):
        # A scripted model answers each ablation pair from its prompt alone: the
        # variant without c2_0 gets no usable answer in region1 or region4.
        # Probe answers follow the probe's send count; sends 1, 2, 5 and 6 are
        # unusable, so with one retry samples 1 and 4 fail.
        monkeypatch.setenv("CLEAR_LLM_API_KEY", "test-key")
        probe_sends = []

        def scripted(self, prompt, images):
            if "c1_2" in prompt or "c2_0" in prompt:  # every ablated genotype has one
                if "c2_0" not in prompt and ("region1" in prompt or "region4" in prompt):
                    return "no answer"
                return f"### {60 + hashlib.sha256(prompt.encode('utf-8')).digest()[0]} ###"
            probe_sends.append(prompt)
            index = len(probe_sends) - 1
            return "no answer" if index % 4 in (1, 2) else f"### {140 + index} ###"

        monkeypatch.setattr(HttpTransport, "send", scripted)
        ws = make_workspace(tmp_path)
        entries = json.loads(Path(ws["dataset"]).read_text(encoding="utf-8"))
        for i, entry in enumerate(entries):
            entry["region"] = f"region{i}"
        write_manifest(Path(ws["dataset"]), entries)
        genotype = tmp_path / "best.json"
        genotype.write_text(json.dumps({
            "data_item": "energy", "seed": 3,
            "chromosomes": [["c0_1", "c0_2"], ["c1_2"], ["c2_0"]],
        }), encoding="utf-8")
        inputs = ["--schema", ws["schema"], "--dataset", ws["dataset"],
                  "--backend", "llm", "--retry-limit", "1"]
        for split in ("test", "train"):
            assert main(["ablate", "--genotype", str(genotype), *inputs, "--split", split,
                         "--out", str(tmp_path / f"{split}.csv")]) == 0
        assert main(["probe", *inputs, "--cue", "c0_1", "--building", "b2", "--n", "6",
                     "--out", str(tmp_path / "probe.json")]) == 0
        out = capsys.readouterr().out
        assert out.count("evaluation failed") == 1 and "  - c2_0 [cat2]: evaluation failed" in out
        assert "cue 'c0_1' on building b2 (4 samples)" in out
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("test.csv", "train.csv", "probe.json")
        }
        assert digests == {
            "test.csv": "10e72e66da73f069aabbeb77cd5357c4fca580fc6ad177eef55a3d4eb85ee290",
            "train.csv": "6d393438162b523e37e569a8b93c93b482f320d86e043572065b7166e7fe81db",
            "probe.json": "10967f6257448408fee79f87d0863284a6e98265501779c6603680536e0e0b1d",
        }

    def test_report_single_and_comparison(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(run_args(ws, out_a)) == 0
        args = run_args(ws, out_b)
        args[args.index("--mode") + 1] = "fixed"
        assert main(args) == 0
        capsys.readouterr()  # drop the run commands' own output
        report_dir = tmp_path / "reports"
        status = main(
            [
                "report",
                "--log", str(out_a / "run.log.jsonl"), str(out_b / "run.log.jsonl"),
                "--out-dir", str(report_dir),
            ]
        )
        assert status == 0
        csvs = sorted(p.name for p in report_dir.glob("*.csv"))
        assert "comparison.csv" in csvs
        assert len(csvs) == 3
        out = capsys.readouterr().out
        assert out.count("best error") == 2

    def test_report_output_is_pinned(self, tmp_path, capsys):
        # The fixed run is shorter, so the comparison pads its columns.
        ws = make_workspace(tmp_path)
        variable, fixed = tmp_path / "variable", tmp_path / "fixed"
        assert main(run_args(ws, variable)) == 0
        args = run_args(ws, fixed)
        args[args.index("--mode") + 1] = "fixed"
        args[args.index("--generations") + 1] = "3"
        assert main(args) == 0
        capsys.readouterr()  # drop the run commands' own output
        report_dir = tmp_path / "reports"
        status = main(
            [
                "report",
                "--log", str(variable / "run.log.jsonl"), str(fixed / "run.log.jsonl"),
                "--out-dir", str(report_dir),
            ]
        )
        assert status == 0
        assert capsys.readouterr().out == (
            "run energy_variable_s3: 6 generations\n"
            "  best error: 17.5528 -> 3.57221 (best ever 3.57221)\n"
            "  mean cue count: 3.00 -> 2.12\n"
            "run energy_fixed_s3: 4 generations\n"
            "  best error: 17.5528 -> 5.89594 (best ever 5.89594)\n"
            "  mean cue count: 3.00 -> 3.00\n"
            f"wrote {report_dir / 'energy_variable_s3_series.csv'}\n"
            f"wrote {report_dir / 'energy_fixed_s3_series.csv'}\n"
            f"wrote {report_dir / 'comparison.csv'}\n"
        )
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in report_dir.glob("*.csv")
        }
        assert digests == {
            "energy_variable_s3_series.csv":
                "6ae6d1cdbd62a582473e6ecd4c49c704b854a6d37977db85c832b8de87fcab9c",
            "energy_fixed_s3_series.csv":
                "c3ececd27d948e4714696ca5bc147d5046a5787ea9bcabeaf37cc9caefa7a291",
            "comparison.csv":
                "5492eff960261363eccee3325d0a9cde685ad4cd173188fb6f1c14c09757dca2",
        }

    def test_report_refuses_two_logs_with_one_label(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(run_args(ws, out_a)) == 0
        shutil.copytree(out_a, out_b)
        capsys.readouterr()
        report_dir = tmp_path / "reports"
        logs = [str(out_a / "run.log.jsonl"), str(out_b / "run.log.jsonl")]
        assert main(["report", "--log", *logs, "--out-dir", str(report_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and logs[0] in err and logs[1] in err
        assert not report_dir.exists()

    def test_report_on_garbage_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nonsense\n", encoding="utf-8")
        assert main(["report", "--log", str(bad)]) == 2

    @pytest.mark.parametrize("line", ["[1]", "5", '"generation"', "null"])
    def test_report_on_a_line_that_is_not_an_object_names_the_line(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"type": "config", "config": {}}) + "\n" + line + "\n",
                       encoding="utf-8")
        assert main(["report", "--log", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:2: unknown record type None")

    def test_report_on_a_generation_that_is_not_an_integer_names_the_line(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        log_path = out_dir / "run.log.jsonl"
        lines = log_path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[-1])
        row["generation"] = float(row["generation"])
        lines[-1] = json.dumps(row)
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--log", str(log_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {log_path}:{len(lines)}: bad generation record: "
            f"generation {row['generation']!r} is not an integer >= 0"
        )

    def test_report_on_an_infinite_error_names_the_line(self, tmp_path, capsys):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        log_path = out_dir / "run.log.jsonl"
        lines = log_path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[-1])
        row["errors"][0] = float("inf")
        lines[-1] = json.dumps(row)  # written as Infinity, which json.loads accepts
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--log", str(log_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log_path}:{len(lines)}: bad generation record")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ('header["config"] = 5', "config 5 is not a JSON object"),
            ('header["config"] = []', "config [] is not a JSON object"),
            ('header["config"]["data_item"] = ["x"]', "data_item ['x'] is not a JSON string"),
            ('header["config"]["mode"] = None', "mode None is not a JSON string"),
            ('header["config"]["seed"] = "3"', "seed '3' is not a JSON integer"),
            ('header["config"]["seed"] = True', "seed True is not a JSON integer"),
        ],
        ids=["config-5", "config-list", "data-item-list", "mode-null", "seed-text", "seed-bool"],
    )
    def test_report_refuses_a_bad_config_record(self, tmp_path, capsys, edit, message):
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        log_path = out_dir / "run.log.jsonl"
        lines = log_path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        exec(edit)
        lines[0] = json.dumps(header)
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        report_dir = tmp_path / "reports"
        assert main(["report", "--log", str(log_path), "--out-dir", str(report_dir)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {log_path}:1: bad config record: {message}\n"
        assert not report_dir.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("data_item", "../escaped"), ("data_item", "Energy"), ("mode", "../../m"),
         ("mode", "")],
        ids=["data-item-traversal", "data-item-unknown", "mode-traversal", "mode-empty"],
    )
    def test_report_refuses_a_data_item_or_mode_no_run_writes(
        self, tmp_path, capsys, field, value
    ):
        # The CSV names are made of the config line's data_item and mode; a
        # path separator there once wrote a CSV beside --out-dir, not in it.
        ws = make_workspace(tmp_path)
        out_dir = tmp_path / "out"
        assert main(run_args(ws, out_dir)) == 0
        log_path = out_dir / "run.log.jsonl"
        lines = log_path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["config"][field] = value
        lines[0] = json.dumps(header)
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        report_dir = tmp_path / "trav" / "reports"
        assert main(["report", "--log", str(log_path), "--out-dir", str(report_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log_path}:1: bad config record: {field} {value!r} "
                              "is not one of ")
        assert not (tmp_path / "trav").exists()
        assert not list(tmp_path.rglob("*.csv"))


class TestGenSchemaCommand:
    def test_missing_credentials(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CLEAR_LLM_API_KEY", raising=False)
        ws = make_workspace(tmp_path)
        status = main(
            [
                "gen-schema",
                "--item", "windows",
                "--dataset", ws["dataset"],
                "--out", str(tmp_path / "schema.out.json"),
            ]
        )
        assert status == 2
        assert "CLEAR_LLM_API_KEY" in capsys.readouterr().err

    def test_negative_retry_limit_is_config_error_without_a_request(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("CLEAR_LLM_API_KEY", "test-key")
        sent = []
        monkeypatch.setattr(HttpTransport, "send", lambda self, prompt, images: sent.append(prompt))
        ws = make_workspace(tmp_path)
        status = main(
            [
                "gen-schema",
                "--item", "windows",
                "--dataset", ws["dataset"],
                "--out", str(tmp_path / "schema.out.json"),
                "--retry-limit", "-1",
            ]
        )
        assert status == 2
        assert sent == []
        assert "retry_limit must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("clusters", ["0", "-2"])
    def test_cluster_target_below_one_is_config_error_without_a_request(
        self, tmp_path, monkeypatch, capsys, clusters
    ):
        monkeypatch.setenv("CLEAR_LLM_API_KEY", "test-key")
        sent = []
        monkeypatch.setattr(HttpTransport, "send", lambda self, prompt, images: sent.append(prompt))
        ws = make_workspace(tmp_path)
        status = main(
            [
                "gen-schema",
                "--item", "windows",
                "--dataset", ws["dataset"],
                "--out", str(tmp_path / "schema.out.json"),
                "--clusters", clusters,
            ]
        )
        assert status == 2
        assert sent == []
        assert "cluster_target must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "schema.out.json").exists()

    def test_samples_only_the_training_split_of_its_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CLEAR_LLM_API_KEY", "test-key")
        given = []

        def fake_generate_schema(training, *args, **kwargs):
            given.extend(record.id for record in training)
            raise SchemaGenerationError("stop here")

        monkeypatch.setattr(cli, "generate_schema", fake_generate_schema)
        ws = make_workspace(tmp_path)
        args = ["gen-schema", "--item", "windows", "--dataset", ws["dataset"],
                "--out", str(tmp_path / "schema.out.json"), "--seed", "0"]
        assert main(args) == 3
        # `run --seed 0` trains on these and holds out b3 and b5 for testing.
        assert given == ["b0", "b1", "b2", "b4"]
