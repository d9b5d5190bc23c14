"""Artifacts that later runs load, and every CSV table, are replaced
atomically, and malformed documents raise the reader's error type."""

import json
import pathlib

import numpy as np
import pytest

from gaitadapt.config import ExperimentConfig, load_config, preset_config, save_config
from gaitadapt.encoder import init_params, load_checkpoint, save_checkpoint
from gaitadapt.files import read_json, write_csv, write_json
from gaitadapt.numerics import seed_stream
from gaitadapt.pipeline import TrainConfig

from conftest import PIPE_SHAPE


def _params(seed):
    return init_params(PIPE_SHAPE, seed_stream(seed, 0))


WRITERS = {
    "checkpoint": (save_checkpoint, load_checkpoint, _params(1), _params(2),
                   lambda a, b: all(np.array_equal(a[n], b[n]) for n in a.names())),
    "config": (save_config, load_config, preset_config("desk"),
               ExperimentConfig(train=TrainConfig(margin=0.2, learning_rate=1e-5)),
               lambda a, b: a.to_dict() == b.to_dict()),
    "document": (lambda doc, path: write_json(path, doc),
                 lambda path: read_json(path, ValueError),
                 {"b": [1.5, None], "a": "x"}, {"c": {"d": True}}, dict.__eq__),
}


def _fail_in_serializer(monkeypatch):
    def dumps(*args, **kwargs):
        raise RuntimeError("serializer failed")
    monkeypatch.setattr(json, "dumps", dumps)


def _fail_halfway_through_the_write(monkeypatch):
    real = pathlib.Path.write_text

    def write_text(self, text, *args, **kwargs):
        real(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")
    monkeypatch.setattr(pathlib.Path, "write_text", write_text)


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("fail", [_fail_in_serializer, _fail_halfway_through_the_write])
def test_interrupted_write_leaves_no_partial_file(writer, fail, tmp_path, monkeypatch):
    save, load, old, new, same = WRITERS[writer]
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    save(old, kept)
    with monkeypatch.context() as m:
        fail(m)
        with pytest.raises((RuntimeError, OSError)):
            save(new, fresh)
        with pytest.raises((RuntimeError, OSError)):
            save(new, kept)
    assert not fresh.exists()
    assert same(load(kept), old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]


class _ArtifactError(ValueError):
    pass


@pytest.mark.parametrize("text", ["{\"a\": 1", "[1, 2]", "3", "null", ""])
def test_read_json_raises_the_artifact_error(text, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(_ArtifactError, match="doc.json"):
        read_json(path, _ArtifactError)


def test_read_json_missing_file_is_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "none.json", _ArtifactError)


@pytest.mark.parametrize("previous", [None, "kept\n"])
def test_csv_whose_rows_raise_leaves_the_previous_file(previous, tmp_path):
    path = tmp_path / "table.csv"
    if previous is not None:
        path.write_text(previous)

    def rows():
        yield ["a", 1]
        raise RuntimeError("row failed")
    with pytest.raises(RuntimeError, match="row failed"):
        write_csv(path, ["name", "value"], rows())
    assert (path.read_text() if path.exists() else None) == previous
    assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None else ["table.csv"])
