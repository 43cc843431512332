"""The benchmark's traced run wraps package functions by name; every name
it lists must still exist, and uninstalling must restore the originals."""

import importlib.util
from pathlib import Path

import surflink.bowtie
import surflink.generator
import surflink.surface_map

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_target_and_uninstall_restores():
    tracer = load_tracer()
    generate = surflink.generator.generate_fal
    trace_faces = surflink.bowtie.trace_faces
    t = tracer.Tracer()
    try:
        t.install()
        assert surflink.generator.generate_fal is not generate
        assert surflink.bowtie.trace_faces is surflink.surface_map.trace_faces
        assert surflink.bowtie.trace_faces is not trace_faces
    finally:
        t.uninstall()
    assert surflink.generator.generate_fal is generate
    assert surflink.bowtie.trace_faces is trace_faces
    assert surflink.surface_map.trace_faces is trace_faces
