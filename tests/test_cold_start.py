"""Each `surflink` command loads only the package layers it runs, and the
benchmark's span tracer still sees the layer calls that commands import
inside their bodies."""

import os
import subprocess
import sys

import pytest

import surflink
from surflink import cli
from surflink.fal_diagram import fill_all
from surflink.generator import generate_fal
from surflink.io import dump_diagram
from test_tracer_targets import load_tracer

SRC = os.path.dirname(os.path.dirname(surflink.__file__))

# Runs the CLI on argv[2:], then writes the loaded surflink modules to argv[1].
CHILD = (
    "import sys\n"
    "from surflink import cli\n"
    "code = cli.main(sys.argv[2:]) if sys.argv[2:] else 0\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write(' '.join(m for m in sys.modules if m.split('.')[0] == 'surflink'))\n"
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
    "intersect": (["curves", "intersect", "a1", "b1", "--genus", "2", "--json"], {"curves_mcg"}, DIAGRAM_LAYERS),
    "reduce": (["curves", "reduce", "a1b1A1B1a2b2", "--genus", "2", "--json"], {"curves_mcg"}, DIAGRAM_LAYERS),
    "conjugate": (["curves", "conjugate", "a1", "b1a1B1", "--genus", "2", "--json"], {"curves_mcg"}, DIAGRAM_LAYERS),
}


@pytest.fixture
def workdir(tmp_path):
    d = generate_fal(2, 4, seed=1, require_checkerboard=True)
    dump_diagram(d, str(tmp_path / "d.json"))
    dump_diagram(fill_all(d, {k: 1 for k in d.circles}), str(tmp_path / "filled.json"))
    return tmp_path


def loaded_layers(workdir, argv) -> set:
    """The surflink modules a fresh interpreter holds after `surflink ARGV`."""
    out = workdir / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(out), *argv],
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {name.split(".", 1)[1] if "." in name else name for name in out.read_text().split()}


def test_importing_cli_loads_only_errors(workdir):
    assert loaded_layers(workdir, []) == {"surflink", "cli", "errors"}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_layers(command, workdir):
    argv, needed, unneeded = COMMANDS[command]
    layers = loaded_layers(workdir, argv)
    assert needed <= layers
    assert not layers & unneeded


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
