"""Seeded structural fuzzing of every file loader.

Valid calibration, annotation, prediction, pyramid and parameter files get
one structural mutation each (a key dropped, or a value replaced by null, a
list, a string or a negative number), and valid GDT3 tensors get truncated
or rewritten headers.  Whatever a mutated file holds, its loader may only
succeed or fail with mvdet's own error types.  Syntax mutants of each JSON
file (truncated, not UTF-8, an over-long integer, nesting too deep to
parse) must fail with them.
"""

import copy
import json
import shutil
import struct

import numpy as np
import pytest

from mvdet import augment, camgeo, decoder, featcore, matching
from mvdet.synth import NoiseSpec, gen_objects, gen_rig, perturb_predictions

from helpers import DEEP_JSON, constant_pyramid, make_frame

_OWN_ERRORS = (
    camgeo.GeometryError,
    featcore.FeatureError,
    featcore.TensorFormatError,
    decoder.DecoderError,
    augment.AugmentError,
    matching.MatchingError,
)
# A manifest naming an absent tensor file fails with the I/O error it is.
_ALLOWED = _OWN_ERRORS + (FileNotFoundError,)
_REPLACEMENTS = (None, [], [1], "x", -1, -2.5)
_JSON_MUTANTS = 100
_TENSOR_MUTANTS = 120
_KINDS = ["calib", "annotations", "predictions", "pyramid", "params"]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    rig = gen_rig("single")
    camgeo.save_rig(root / "calib.json", rig)
    objects = tuple(augment.AnnotatedObject(box=b, depth=5.0) for b in gen_objects(2, 2))
    augment.save_frames(root / "annotations.json", [make_frame(objects=objects, rig=rig)])
    matching.save_predictions(root / "predictions.json", perturb_predictions(gen_objects(3, 3), NoiseSpec(), seed=1))
    pyramid = featcore.save_pyramid(root / "pyramid", constant_pyramid(rig, [1.0]))
    layers = decoder.init_decoder(1, layers=1, dim=8, neighbors=1, heads=1)
    params = decoder.save_params(root / "params", layers, decoder.PredictionHead.seeded(1, dim=8))
    return {
        "calib": (root / "calib.json", camgeo.load_rig),
        "annotations": (root / "annotations.json", augment.load_frames),
        "predictions": (root / "predictions.json", matching.load_predictions),
        "pyramid": (root / "pyramid" / "pyramid.json", featcore.load_pyramid),
        "params": (root / "params" / "params.json", decoder.load_params),
    }


def _node_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, prefix + (key,))


def _mutate(doc, rng):
    """A copy of ``doc`` with one node dropped or replaced, plus a label."""
    doc = copy.deepcopy(doc)
    paths = list(_node_paths(doc))
    path = paths[int(rng.integers(len(paths)))]
    choice = int(rng.integers(len(_REPLACEMENTS) + 1))
    if not path:
        return copy.deepcopy(_REPLACEMENTS[choice % len(_REPLACEMENTS)]), "root replaced"
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if choice == len(_REPLACEMENTS):
        del parent[path[-1]]
        return doc, f"{path} dropped"
    parent[path[-1]] = copy.deepcopy(_REPLACEMENTS[choice])
    return doc, f"{path} = {_REPLACEMENTS[choice]!r}"


def _escapes(loader, path):
    """None when ``loader(path)`` succeeds or fails with an allowed error;
    otherwise the escaped exception's repr."""
    try:
        loader(path)
    except _ALLOWED:
        return None
    except Exception as exc:  # noqa: BLE001 - anything else is the finding
        return repr(exc)
    return None


@pytest.mark.parametrize("kind", _KINDS)
def test_json_mutations_raise_only_own_errors(valid_files, kind):
    path, loader = valid_files[kind]
    loader(path)  # the unmutated file loads
    doc = json.loads(path.read_text())
    mutant = path.with_name("mutant.json")  # beside the original, so relative tensor paths resolve
    rng = np.random.default_rng(20260)
    escaped = []
    failures = 0
    for _ in range(_JSON_MUTANTS):
        bad, label = _mutate(doc, rng)
        mutant.write_text(json.dumps(bad))
        try:
            loader(mutant)
        except _ALLOWED:
            failures += 1
        except Exception as exc:  # noqa: BLE001 - anything else is the finding
            escaped.append(f"{label}: {exc!r}")
    assert not escaped
    assert failures > 0


_SYNTAX_MUTANTS = {
    "truncated": lambda blob: blob[: len(blob) // 2],
    "not-utf8": lambda blob: blob[:1] + b"\xff\xfe" + blob[1:],
    "long-integer": lambda blob: b"[" + b"9" * 5000 + b"]",
    "deep-nesting": lambda blob: DEEP_JSON,
}


@pytest.mark.parametrize("mutant", list(_SYNTAX_MUTANTS))
@pytest.mark.parametrize("kind", _KINDS)
def test_json_syntax_mutants_raise_own_errors(valid_files, kind, mutant):
    path, loader = valid_files[kind]
    bad = path.with_name("mutant.json")
    bad.write_bytes(_SYNTAX_MUTANTS[mutant](path.read_bytes()))
    with pytest.raises(_OWN_ERRORS, match="unreadable JSON"):
        loader(bad)


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def _header_mutant(blob: bytes, ndim: int, rng) -> bytes:
    """``blob`` truncated inside its header, or with one header field
    (magic, version, ndim or a dim) rewritten."""
    header_len = 12 + 8 * ndim
    field = int(rng.integers(5))
    if field == 0:
        return blob[: int(rng.integers(header_len + 1))]
    if field == 1:
        return bytes(rng.integers(0, 256, 4, dtype=np.uint8)) + blob[4:]
    if field == 2:
        version = _pick(rng, (0, 2, 2**32 - 1))
        return blob[:4] + struct.pack("<I", version) + blob[8:]
    if field == 3:
        new_ndim = _pick(rng, (0, 1, ndim + 1, 8, 9, 2**31, 2**32 - 1))
        return blob[:8] + struct.pack("<I", new_ndim) + blob[12:]
    dim = _pick(rng, (0, 1, 7, 2**31, 2**40, 2**63, 2**64 - 1))
    at = 12 + 8 * int(rng.integers(ndim))
    return blob[:at] + struct.pack("<Q", dim) + blob[at + 8 :]


def test_tensor_header_mutations_raise_only_own_errors(valid_files, tmp_path):
    pyramid = tmp_path / "pyramid"
    shutil.copytree(valid_files["pyramid"][0].parent, pyramid)
    manifest = pyramid / "pyramid.json"
    level = pyramid / json.loads(manifest.read_text())["cameras"][0]["levels"][0]["file"]
    blob = level.read_bytes()
    ndim = featcore.read_tensor(level).ndim
    rng = np.random.default_rng(20261)
    escaped = []
    for i in range(_TENSOR_MUTANTS):
        level.write_bytes(_header_mutant(blob, ndim, rng))
        for loader, target in ((featcore.read_tensor, level), (featcore.load_pyramid, manifest)):
            found = _escapes(loader, target)
            if found:
                escaped.append(f"mutant {i} via {loader.__name__}: {found}")
    assert not escaped
