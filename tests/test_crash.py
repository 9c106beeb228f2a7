"""Crash injection: a checkpointed run survives a crash at any file operation.

``DurabilityModel`` stands between the engine and the disk and keeps, for
each file the engine writes and for each name in a directory, the state a
crash would leave:

- written data becomes durable only when its file is fsynced;
- opening a file for writing empties its durable content at once, and a
  truncation shortens it at once;
- a directory entry changes durably only when its directory is fsynced:
  until then a crash undoes every file created, renamed or removed in that
  directory since its last fsync, so a renamed file reverts to the name and
  the durable content it had, and a new file vanishes;
- the durable content of a file follows it through a rename, so renaming a
  file that was never fsynced can leave an empty file in its place.

These are the weakest orderings common POSIX file systems promise (Pillai et
al., "All File Systems Are Not Created Equal", OSDI 2014), except that the
changes to a directory since its last fsync are lost together, not one by
one. Each run starts in an empty directory, so the model sees every file
from its creation. It counts the engine's file operations inside a span of
the run and crashes at the k-th one: it raises :class:`Crash` and resets
every file it tracks to its durable state. The run then resumes from what
survived, and must end with the same run-log generation rows and checkpoint
bytes as an uninterrupted run. Every k is tried, across four spans:
generations committed after a fresh start, the commit of a pause, and
generations committed by a run that resumed after a crash or after a pause.
"""

from __future__ import annotations

import io
import os
import shutil
from pathlib import Path

import pytest

from clear_ga import engine
from clear_ga.backends import OracleEvaluator, PlantedCue, PlantedLandscape
from clear_ga.engine import EvolutionRun, Mode, RunConfig, load_checkpoint_file
from clear_ga.schema import DataItem

from conftest import build_record, build_schema

GENERATIONS = 6


class Crash(BaseException):
    """The simulated power cut; not an ``Exception``, so no handler in the program takes it."""


class DurabilityModel:
    def __init__(self) -> None:
        # A file is a number; its durable content outlives the names it had.
        self.content: dict[int, bytes] = {}
        self.names: dict[Path, int] = {}  # the directory entries now
        self.durable_names: dict[Path, int | None] = {}  # None: no such entry
        self.files_by_fd: dict[int, int] = {}
        self.directories_by_fd: dict[int, Path] = {}
        self.crash_at: int | None = None
        self.operations = 0

    def arm(self, crash_at: int) -> None:
        self.crash_at, self.operations = crash_at, 0

    def disarm(self) -> None:
        self.crash_at = None

    def operation(self) -> None:
        if self.crash_at is None:
            return
        self.operations += 1
        if self.operations == self.crash_at:
            self.crash_at = None
            raise Crash(f"crash at operation {self.operations}")

    def opened(self, path: Path, mode: str, fh) -> None:
        if path not in self.names:
            self.names[path] = len(self.content)
            self.content[self.names[path]] = b""
        elif "w" in mode:
            self.content[self.names[path]] = b""
        self.files_by_fd[fh.fileno()] = self.names[path]

    def open(self, path, flags, *args, **kwargs) -> int:
        directory = Path(path).absolute()
        assert directory.is_dir(), "files are modelled through Path.open, not os.open"
        fd = os.open(path, flags, *args, **kwargs)
        self.directories_by_fd[fd] = directory
        return fd

    def close(self, fd: int) -> None:
        self.directories_by_fd.pop(fd, None)
        os.close(fd)

    def fsync(self, fd: int) -> None:
        self.operation()
        if fd in self.directories_by_fd:
            directory = self.directories_by_fd[fd]
            for path in set(self.names) | set(self.durable_names):
                if path.parent == directory:
                    self.durable_names[path] = self.names.get(path)
        elif fd in self.files_by_fd:
            file = self.files_by_fd[fd]
            path = next(path for path, named in self.names.items() if named == file)
            self.content[file] = path.read_bytes()

    def truncated(self, path: Path, size: int) -> None:
        file = self.names[path]
        self.content[file] = self.content[file][:size]

    def replace(self, src, dst) -> None:
        self.operation()
        os.replace(src, dst)
        self.names[Path(dst).absolute()] = self.names.pop(Path(src).absolute())

    def unlinked(self, path: Path) -> None:
        self.names.pop(path, None)

    def restore(self) -> None:
        """Leave every tracked file as the crash would."""
        for path in set(self.names) | set(self.durable_names):
            file = self.durable_names.get(path)
            if file is None:
                path.unlink(missing_ok=True)
            else:
                with io.open(path, "wb") as fh:
                    fh.write(self.content[file])
        self.names = {path: file for path, file in self.durable_names.items() if file is not None}
        self.files_by_fd.clear()
        self.directories_by_fd.clear()


class ModelFile:
    """A file the engine opened for writing; its writes and truncations are operations."""

    def __init__(self, model: DurabilityModel, path: Path, fh) -> None:
        self._model, self._path, self._fh = model, path, fh

    def write(self, data):
        self._model.operation()
        return self._fh.write(data)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def truncate(self, size=None):
        self._model.operation()
        size = self._fh.truncate(size)
        self._model.truncated(self._path, size)
        return size

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


def install(monkeypatch, model: DurabilityModel) -> None:
    """Route the engine's file writes and its ``os.open``, ``os.close``,
    ``os.fsync`` and ``os.replace`` calls through ``model``."""

    class ModelPath(type(Path())):
        def open(self, mode="r", *args, **kwargs):
            if not any(flag in mode for flag in "wax+"):
                return super().open(mode, *args, **kwargs)
            model.operation()
            fh = super().open(mode, *args, **kwargs)
            path = self.absolute()
            model.opened(path, mode, fh)
            return ModelFile(model, path, fh)

        def unlink(self, missing_ok=False):
            model.operation()
            super().unlink(missing_ok=missing_ok)
            model.unlinked(self.absolute())

    class ModelOs:
        open = staticmethod(model.open)
        close = staticmethod(model.close)
        fsync = staticmethod(model.fsync)
        replace = staticmethod(model.replace)

        def __getattr__(self, name):
            return getattr(os, name)

    monkeypatch.setattr(engine, "Path", ModelPath)
    monkeypatch.setattr(engine, "os", ModelOs())


def setup(directory: Path):
    config = RunConfig(
        data_item=DataItem.ENERGY, mode=Mode.VARIABLE, population_size=6,
        generations=GENERATIONS, elites=2, seed=23,
        checkpoint_path=str(directory / "checkpoint.json"),
        log_path=str(directory / "run.log.jsonl"),
    )
    landscape = PlantedLandscape(
        planted=(PlantedCue(0, "c0_1", 3.0), PlantedCue(2, "c2_0", 3.0)),
        distractor_penalty=1.0, base_error=8.0, noise_scale=0.6, seed=5,
    )
    records = [build_record(), build_record("b2")]
    return config, build_schema(category_sizes=(4, 4, 4)), OracleEvaluator(landscape), records


def resume(config: RunConfig, schema, evaluator, records) -> EvolutionRun:
    doc = load_checkpoint_file(config.checkpoint_path)
    return EvolutionRun.resume(doc, schema, evaluator, records)


def outputs(config: RunConfig) -> tuple[bytes, bytes]:
    """The run log's generation rows and the checkpoint's bytes."""
    log = Path(config.log_path).read_bytes()
    return log[log.index(b"\n") + 1:], Path(config.checkpoint_path).read_bytes()


class Stop(Exception):
    pass


def run_span(directory: Path, model: DurabilityModel, span: str, crash_at: int,
             committed: list[int]) -> bool:
    """Run up to the end of ``span`` with the model armed to crash at operation
    ``crash_at`` of it; True if the span ended first. ``committed`` collects the
    generations whose commit returned."""
    config, schema, evaluator, records = setup(directory)
    first, last = {
        "generations": (1, 2), "pause": (3, 3), "after-crash": (3, 4), "after-pause": (3, 4),
    }[span]

    def on_generation(stats, population):
        committed.append(stats.generation)
        if stats.generation == first - 1:
            model.arm(crash_at)
        if stats.generation == last and span != "pause":
            model.disarm()
            raise Stop

    if span == "after-crash":
        # A crash right after generation 2's commit, then a run resumed from what survived.
        def crash_after_two(stats, population):
            committed.append(stats.generation)
            if stats.generation == 2:
                raise Crash

        with pytest.raises(Crash):
            EvolutionRun(config, schema, evaluator, records).run(on_generation=crash_after_two)
        model.restore()
    elif span == "after-pause":
        # A pause after generation 2, so the resumed run's first record goes
        # onto a renamed snapshot that holds no records.
        paused = EvolutionRun(config, schema, evaluator, records).run(
            on_generation=lambda stats, population: committed.append(stats.generation),
            stop_after_generation=2,
        )
        assert not paused.completed
    if span.startswith("after-"):
        run = resume(config, schema, evaluator, records)
        model.arm(crash_at)
    else:
        run = EvolutionRun(config, schema, evaluator, records)
    try:
        if span == "pause":
            result = run.run(on_generation=on_generation, stop_after_generation=last)
            assert not result.completed
            model.disarm()
        else:
            run.run(on_generation=on_generation)
    except Stop:
        pass
    except Crash:
        return False
    return True


@pytest.mark.parametrize("span", ["generations", "pause", "after-crash", "after-pause"])
def test_resume_after_a_crash_at_any_operation_matches_uninterrupted(tmp_path, monkeypatch, span):
    directory = tmp_path / "run"
    directory.mkdir()
    config, schema, evaluator, records = setup(directory)
    assert EvolutionRun(config, schema, evaluator, records).run().completed
    expected = outputs(config)

    crash_at = 0
    while True:
        crash_at += 1
        shutil.rmtree(directory)
        directory.mkdir()
        committed: list[int] = []
        model = DurabilityModel()
        install(monkeypatch, model)
        if run_span(directory, model, span, crash_at, committed):
            break
        model.restore()
        survived = load_checkpoint_file(config.checkpoint_path)
        assert survived["generation"] >= committed[-1], (
            f"crash at operation {crash_at} lost generation {committed[-1]}'s commit"
        )
        model.disarm()
        result = resume(config, schema, evaluator, records).run()
        assert result.completed
        assert outputs(config) == expected, f"crash at operation {crash_at} of the {span} span"
        assert sorted(p.name for p in directory.iterdir()) == ["checkpoint.json", "run.log.jsonl"]
    # The span did file operations, and a crash was tried at every one of them.
    assert crash_at > 3
