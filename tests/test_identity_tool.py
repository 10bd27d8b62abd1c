import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_toy_tree_built_twice_compares_equal_and_a_flipped_byte_does_not(tmp_path, capsys):
    identity = _identity()
    a, b, flipped = tmp_path / "a", tmp_path / "b", tmp_path / "flipped"
    for out in (a, b):
        manifest = identity.build(ROOT / "src", out, {"toy": identity.TOY})
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert [r["rc"] for r in manifest["commands"].values()] == [0, 0, 0]
    assert "toy/out/sub00_trf.btsr" in manifest["files"]
    assert identity.main(["compare", str(a), str(b)]) == 0

    shutil.copytree(a, flipped)
    kernel = flipped / "trees" / "toy" / "out" / "sub00_trf.btsr"
    data = bytearray(kernel.read_bytes())
    data[-1] ^= 1
    kernel.write_bytes(bytes(data))
    manifest["files"] = identity.digest_tree(flipped / "trees")
    (flipped / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert identity.main(["compare", str(a), str(flipped)]) == 1
    assert "files: toy/out/sub00_trf.btsr differs" in capsys.readouterr().out
