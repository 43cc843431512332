"""Each `surflink` command loads only the package layers it runs, and none
of the stdlib modules its records and input digest can do without; the
benchmark's span tracer still sees the layer calls that commands import
inside their bodies."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import surflink
from surflink import cli
from surflink.fal_diagram import fill_all
from surflink.generator import generate_fal
from surflink.io import dump_diagram, file_digest
from test_tracer_targets import load_tracer

SRC = os.path.dirname(os.path.dirname(surflink.__file__))

# Runs the CLI on argv[2:], then writes the names of the loaded modules to argv[1].
CHILD = (
    "import sys\n"
    "from surflink import cli\n"
    "code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(' '.join(sys.modules))\n"
    "sys.exit(code)\n"
)

DIAGRAM_LAYERS = {"surface_map", "fal_diagram", "bowtie", "constructions", "generator"}

# (argv, layers it must load, layers it must not load)
COMMANDS = {
    "validate": (["validate", "d.json", "--json"], {"fal_diagram"}, {"bowtie", "constructions", "curves_mcg"}),
    "generate": (
        ["generate", "--genus", "2", "--circles", "4", "--seed", "1"],
        {"generator"},
        {"bowtie", "constructions", "curves_mcg"},
    ),
    "fill": (["fill", "d.json", "--t=1,2,-1,1"], {"fal_diagram"}, {"bowtie", "constructions", "curves_mcg"}),
    "augment": (["augment", "filled.json"], {"fal_diagram"}, {"bowtie", "constructions", "curves_mcg"}),
    "decompose": (
        ["decompose", "d.json", "--json", "--export-gluing", "gluing.txt"],
        {"bowtie"},
        {"constructions", "curves_mcg"},
    ),
    "bounds": (["bounds", "d.json", "--m", "2", "--json"], {"bowtie"}, {"constructions", "curves_mcg"}),
    "family": (["family", "spec.json", "--json"], {"bowtie", "constructions", "curves_mcg"}, {"generator"}),
    "intersect": (["curves", "intersect", "a1", "b1", "--genus", "2", "--json"], {"curves_mcg"}, DIAGRAM_LAYERS),
    "reduce": (["curves", "reduce", "a1b1A1B1a2b2", "--genus", "2", "--json"], {"curves_mcg"}, DIAGRAM_LAYERS),
    "conjugate": (["curves", "conjugate", "a1", "b1a1B1", "--genus", "2", "--json"], {"curves_mcg"}, DIAGRAM_LAYERS),
}


# The commands that hash their input file for the report's input_digest.
DIGEST_COMMANDS = ("validate", "decompose", "bounds", "family")
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold")
    d = generate_fal(2, 4, seed=1, require_checkerboard=True)
    dump_diagram(d, str(path / "d.json"))
    dump_diagram(fill_all(d, {k: 1 for k in d.circles}), str(path / "filled.json"))
    spec = {
        "kind": "MappingTorus",
        "base": "d.json",
        "phi": [["a1", 1], ["b1", -2]],
        "gamma_odd": "a1",
        "gamma_even": "b1",
        "m": 1,
        "t": [2],
        "s": [1, 1, 1, 1],
    }
    (path / "spec.json").write_text(json.dumps(spec))
    return path


def loaded_modules(workdir, argv, flags=()) -> set:
    """The modules a fresh interpreter, started with `flags`, holds after
    `surflink ARGV`."""
    out = workdir / "modules.txt"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CHILD, str(out), *argv],
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(out.read_text().split())


def layers_of(modules) -> set:
    """The surflink modules among `modules`, named without the package."""
    return {
        name.split(".", 1)[1] if "." in name else name
        for name in modules
        if name.split(".")[0] == "surflink"
    }


@pytest.fixture(scope="module")
def command_modules(workdir):
    """The modules loaded by each command of COMMANDS, one run each."""
    return {command: loaded_modules(workdir, argv) for command, (argv, _, _) in COMMANDS.items()}


def test_importing_cli_loads_only_errors(workdir):
    assert layers_of(loaded_modules(workdir, [])) == {"surflink", "cli", "errors"}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_layers(command, command_modules):
    _, needed, unneeded = COMMANDS[command]
    layers = layers_of(command_modules[command])
    assert needed <= layers
    assert not layers & unneeded


@pytest.mark.parametrize("command", COMMANDS)
def test_records_load_no_dataclasses(command, command_modules):
    # dataclasses loads inspect; the records are named tuples instead.
    assert not command_modules[command] & {"dataclasses", "inspect"}


@pytest.mark.skipif(not BUILTIN_SHA256, reason="interpreter built without its own SHA-256")
@pytest.mark.parametrize("command", DIGEST_COMMANDS)
def test_input_digest_skips_openssl(command, command_modules):
    assert "_hashlib" not in command_modules[command]


def test_input_digest_with_and_without_builtin_sha256(workdir, monkeypatch):
    path = workdir / "d.json"
    expected = hashlib.sha256(path.read_bytes()).hexdigest()
    assert file_digest(str(path)) == expected
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)  # makes the import fail
    assert file_digest(str(path)) == expected


@pytest.mark.parametrize("command", ["validate", "reduce"])
def test_no_typing_without_site(command, workdir):
    # -S, because the site module of some interpreters imports typing itself.
    assert "typing" not in loaded_modules(workdir, COMMANDS[command][0], flags=("-S",))


def test_tracer_sees_layers_imported_inside_commands(workdir, capsys):
    # The tracer rebinds module attributes before the command runs; a
    # command that imports a layer function when it runs must get the
    # traced one.
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        decompose = ["decompose", str(workdir / "d.json"), "--json", "--export-gluing", str(workdir / "g.txt")]
        assert cli.main(decompose) == 0
        assert cli.main(["curves", "reduce", "a1b1A1B1a2b2", "--genus", "2", "--json"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {
        "bowtie.decompose",
        "bowtie.prism_triangulation",
        "curves_mcg.dehn_reduce",
        "io.dumps_json",
    } <= names
