"""Store publication: ``repro.utils.fsio.publish``.

``publish`` is the only way a file of either on-disk store (checkpoint
records; the disk cache's program images and traces) reaches its
destination. These tests pin what it promises: publication is
byte-identical to a plain write, fsyncs before it renames (at each of
the three publication sites), leaves the old destination intact and no
temp behind when the write fails, and names its temp so that the orphan
sweep reaps it after a crash. A site added later is kept on ``publish``
by ``TestPublicationSource``, which reads the source of ``repro``: it
fails on a rename outside ``repro.utils.fsio``, on any ``os.environ``
write, and on any in-place write in a store module.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.evalx.checkpoint import CheckpointStore
from repro.isa.image import decode_program
from repro.synth import workloads
from repro.synth.profiles import get_profile
from repro.synth.trace import TaskTrace
from repro.utils.fsio import publish
from tests.helpers import assert_same_program

REPO_ROOT = Path(__file__).resolve().parent.parent


class _FsyncSpy:
    """Counts fsyncs and asserts no ``os.replace`` precedes them."""

    def __init__(self, monkeypatch):
        self.synced = 0
        self.synced_at_publish: list[int] = []
        real_fsync = os.fsync
        real_replace = os.replace

        def fsync(fd):
            self.synced += 1
            real_fsync(fd)

        def replace(src, dst):
            self.synced_at_publish.append(self.synced)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)

    def assert_fsync_before_every_replace(self):
        assert self.synced_at_publish, "no publication ran"
        assert self.synced_at_publish == list(
            range(1, len(self.synced_at_publish) + 1)
        ), f"a publication ran before its fsync: {self.synced_at_publish}"


def _write_text(text):
    return lambda handle: handle.write(text.encode("utf-8"))


class TestHelpers:
    def test_text_bytes_identical_to_write_text(self, tmp_path):
        text = "line one\nline two\n"
        durable = tmp_path / "durable.txt"
        plain = tmp_path / "plain.txt"
        publish(durable, _write_text(text))
        plain.write_text(text, encoding="utf-8")
        assert durable.read_bytes() == plain.read_bytes()

    def test_text_helper_fsyncs(self, tmp_path, monkeypatch):
        spy = _FsyncSpy(monkeypatch)
        publish(tmp_path / "x.txt", _write_text("payload"))
        assert spy.synced == 1
        spy.assert_fsync_before_every_replace()

    def test_creates_missing_parent_directories(self, tmp_path):
        destination = tmp_path / "a" / "b" / "record.json"
        publish(destination, _write_text("{}"))
        assert destination.read_text() == "{}"

    @pytest.mark.parametrize("error", [OSError, ValueError, KeyboardInterrupt])
    def test_failed_write_keeps_old_destination_and_no_temp(
        self, tmp_path, error
    ):
        destination = tmp_path / "record.json"
        destination.write_bytes(b"previous record")

        def write(handle):
            handle.write(b"half a new rec")
            raise error("write failed")

        with pytest.raises(error):
            publish(destination, write)
        assert destination.read_bytes() == b"previous record"
        assert sorted(tmp_path.iterdir()) == [destination]

    def test_temp_is_a_pid_named_sibling_the_sweep_recognises(
        self, tmp_path
    ):
        destination = tmp_path / "gcc-0badf00d-s1-n300.npz"
        seen: list[Path] = []
        publish(destination, lambda handle: seen.append(Path(handle.name)))
        (temp,) = seen
        assert temp.parent == destination.parent
        assert f"tmp-{os.getpid()}" in temp.name
        assert workloads._TMP_NAME.match(temp.name)
        # A temp never looks like a record of either store.
        assert not temp.match("*.npz") and not temp.match("*.ckpt.json")

    def test_temp_of_a_killed_publisher_is_reaped(self, tmp_path):
        destination = tmp_path / f"{'c' * 40}.ckpt.json"
        destination.write_bytes(b"previous record")
        script = (
            "import os, sys\n"
            "from pathlib import Path\n"
            "from repro.utils.fsio import publish\n"
            "publish(Path(sys.argv[1]),"
            " lambda f: (f.write(b'torn'), f.flush(), os._exit(9)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        killed = subprocess.Popen(
            [sys.executable, "-c", script, str(destination)], env=env
        )
        assert killed.wait(timeout=60) == 9
        orphan = destination.with_name(
            f".{destination.name}.tmp-{killed.pid}"
        )
        assert orphan.read_bytes() == b"torn"
        assert destination.read_bytes() == b"previous record"
        assert workloads.sweep_orphan_tmp_files(tmp_path) == [orphan]
        assert sorted(tmp_path.iterdir()) == [destination]


class TestPublicationSitesAreDurable:
    def test_checkpoint_record_fsynced_before_replace(
        self, tmp_path, monkeypatch
    ):
        spy = _FsyncSpy(monkeypatch)
        store = CheckpointStore(tmp_path)
        assert store.save("a" * 40, "cell", "table2", {"value": 7})
        spy.assert_fsync_before_every_replace()

    def test_trace_cache_entry_fsynced_before_replace(
        self, tmp_path, monkeypatch, gcc_workload
    ):
        spy = _FsyncSpy(monkeypatch)
        destination = tmp_path / "gcc.npz"
        workloads._save_cached(gcc_workload.trace, destination)
        spy.assert_fsync_before_every_replace()
        loaded = TaskTrace.load(destination)
        assert np.array_equal(loaded.task_addr, gcc_workload.trace.task_addr)
        assert sorted(tmp_path.iterdir()) == [destination]

    def test_program_image_fsynced_before_replace(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # No memo holds a variant profile, so its program is built and
        # its image published.
        profile = get_profile("compress")
        variant = dataclasses.replace(profile, seed=profile.seed + 1)
        spy = _FsyncSpy(monkeypatch)
        program, _ = workloads._load_program(variant)
        spy.assert_fsync_before_every_replace()
        (image,) = tmp_path.iterdir()
        assert image.suffix == ".msx"
        assert_same_program(
            decode_program(image.read_bytes(), "compress"), program
        )

    def test_checkpoint_save_failure_reports_false_without_temp(
        self, tmp_path
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("a file where the store directory should be")
        store = CheckpointStore(blocker / "store")
        assert not store.save("b" * 40, "cell", "table2", {"value": 7})
        assert sorted(tmp_path.iterdir()) == [blocker]


PACKAGE = REPO_ROOT / "src" / "repro"

#: The one module allowed to rename files into place.
PUBLISHER = "repro.utils.fsio"
#: The modules that own an on-disk store: no file is written in place.
STORE_MODULES = ("repro.evalx.checkpoint", "repro.synth.workloads")
_ENV_MUTATORS = {"pop", "popitem", "setdefault", "update", "clear"}


def _open_mode(call: ast.Call) -> str | None:
    """The literal mode of an ``open(path, mode)`` call; None if computed."""
    mode = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def publication_violations(source: str, module: str) -> list[tuple[int, str]]:
    """``(line, reason)`` for each way ``module``'s source skips ``publish``.

    Names are resolved through the module's own imports, so
    ``from os import rename as mv`` and ``import numpy as np`` count.
    """
    tree = ast.parse(source)
    imported: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                imported[alias.asname or top] = (
                    alias.name if alias.asname else top
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )

    def dotted(node: ast.expr) -> str | None:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(imported.get(node.id, node.id))
        return ".".join(reversed(parts))

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            if not isinstance(node.ctx, ast.Load) and (
                dotted(node.value) == "os.environ"
            ):
                found.append((node.lineno, "writes os.environ"))
            continue
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func) or ""
        receiver, _, method = name.rpartition(".")
        if name in ("os.replace", "os.rename") and module != PUBLISHER:
            found.append((node.lineno, f"{name} outside {PUBLISHER}"))
        elif name in ("os.putenv", "os.unsetenv") or (
            receiver == "os.environ" and method in _ENV_MUTATORS
        ):
            found.append((node.lineno, "writes os.environ"))
        elif module in STORE_MODULES:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "write_text", "write_bytes"
            ):
                found.append((node.lineno, f".{func.attr} in a store"))
            elif name.startswith("numpy.save"):
                found.append((node.lineno, f"{name} in a store"))
            elif name in ("open", "io.open"):
                # "x" only creates a new file; w, a and + change one.
                mode = _open_mode(node)
                if mode is None or (
                    "x" not in mode and set(mode) & set("wa+")
                ):
                    found.append((node.lineno, f"open({mode!r}) in a store"))
    return found


#: (module, source) pairs holding one way around ``publish`` each.
_FLAGGED = [
    ("repro.evalx.report", "import os\nos.replace(tmp, path)"),
    ("repro.evalx.report", "import os\nos.rename(tmp, path)"),
    ("repro.evalx.report", "import os as system\nsystem.replace(tmp, path)"),
    ("repro.evalx.report", "from os import replace\nreplace(tmp, path)"),
    ("repro.evalx.tune", "from os import rename as mv\nmv(tmp, path)"),
    ("repro.evalx.parallel", "import os\nos.environ[key] = value"),
    ("repro.evalx.parallel", "import os\nos.environ['PATH'] += ':/bin'"),
    ("repro.evalx.parallel", "import os\ndel os.environ[key]"),
    ("repro.evalx.parallel", "from os import environ as ENV\nENV[k] = v"),
    ("repro.evalx.parallel", "import os\nos.environ.pop(key, None)"),
    ("repro.evalx.parallel", "import os\nos.environ.popitem()"),
    ("repro.evalx.parallel", "from os import environ\nenviron.setdefault(k)"),
    ("repro.evalx.parallel", "import os\nos.environ.clear()"),
    ("repro.evalx.parallel", "import os\nos.putenv(key, value)"),
    ("repro.evalx.parallel", "import os\nos.unsetenv(key)"),
    ("repro.utils.fsio", "import os\nos.environ.update(extra)"),
    ("repro.utils.fsio", "import os\nos.environ[key] = value"),
    ("repro.evalx.checkpoint", "path.write_text(text)"),
    ("repro.evalx.checkpoint", "self.path_for(fp).write_bytes(data)"),
    ("repro.synth.workloads", "self.paths[fp].write_text(text)"),
    ("repro.evalx.checkpoint", "with open(path, 'w') as f:\n    f.write(t)"),
    ("repro.evalx.checkpoint", "open(path, mode='ab')"),
    ("repro.synth.workloads", "open(path, 'r+b')"),
    ("repro.synth.workloads", "open(path, mode)"),
    ("repro.synth.workloads", "import io\nio.open(path, 'wb')"),
    ("repro.synth.workloads", "import numpy as np\nnp.save(path, column)"),
    ("repro.evalx.checkpoint", "import numpy\nnumpy.savez_compressed(p, c=c)"),
    ("repro.synth.workloads", "from numpy import savez\nsavez(path, c=c)"),
]

#: (module, source) pairs that publish through ``publish`` or write no store.
_PASSING = [
    ("repro.utils.fsio", "import os\nos.replace(tmp, path)"),
    ("repro.synth.workloads", "import os\nos.environ.get(key, '')"),
    ("repro.evalx.parallel", "import os\nhome = os.environ['HOME']"),
    ("repro.evalx.parallel", "import os\nenv = dict(os.environ)\n"
     "env[key] = value\nenv.pop('PYTHONPATH', None)"),
    ("repro.evalx.report", "name = name.replace('-', '_')"),
    ("repro.evalx.checkpoint", "open(path, 'rb')\nopen(path)\n"
     "open(claim, 'x')\npath.read_text()"),
    ("repro.synth.workloads", "import numpy as np\nnp.load(path)"),
    ("repro.synth.workloads", "from repro.utils.fsio import publish\n"
     "publish(path, trace.save)"),
    ("repro.evalx.tune", "import numpy as np\npath.write_text(text)\n"
     "open(path, 'w')\nnp.save(path, column)"),
]


class TestPublicationSource:
    """Store files reach disk only through ``publish``, and nothing
    writes ``os.environ``: a plain write or an unsynced rename gives the
    same bytes until a crash lands mid-write, so no run of the code
    shows the difference, and a cell's result must depend on its kwargs
    alone."""

    def test_repro_source_publishes_only_through_fsio(self):
        modules = {}
        for path in sorted(PACKAGE.rglob("*.py")):
            parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            modules[module] = path.read_text(encoding="utf-8")
        assert {PUBLISHER, *STORE_MODULES} <= set(modules)
        found = [
            f"{module}:{line}: {reason}"
            for module, source in modules.items()
            for line, reason in publication_violations(source, module)
        ]
        assert not found, "\n".join(found)
        # The walk sees the one real publication, were it anywhere else.
        assert publication_violations(modules[PUBLISHER], "repro.evalx.report")

    @pytest.mark.parametrize("module, source", _FLAGGED)
    def test_flags(self, module, source):
        assert len(publication_violations(source, module)) == 1

    @pytest.mark.parametrize("module, source", _PASSING)
    def test_passes(self, module, source):
        assert publication_violations(source, module) == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
