"""The benchmark's own tests: a tiny smoke run of every workload in both
modes, and proof that the output checks fire on wrong program output.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_smoke_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in declared:  # every metric is also printed by name with its unit
        assert any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("environment: python") for line in lines)


def test_same_seed_same_inputs():
    a = workloads.WORKLOADS["curves"].setup(5, "tiny", None)
    b = workloads.WORKLOADS["curves"].setup(5, "tiny", None)
    assert a == b


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the checks fire ---------------------------------------------------------------


class OneItem:
    """A workload whose pool is the single given item."""

    name = "one-item"
    spawns = False

    def __init__(self, fn):
        self.fn = fn

    def items(self, state):
        return [("item", self.fn)]


def fail_ratio(fn) -> float:
    result = run.run_rounds(OneItem(fn), None, 0, 0.0, 1, run.cpu_gauge())
    return result.failed / result.attempted


def small_diagram_text(g=2, c=4):
    from surflink.generator import generate_fal
    from surflink.io import diagram_to_json_dict

    return json.dumps(diagram_to_json_dict(generate_fal(g, c, seed=11, require_checkerboard=True)))


def test_corrupted_gluing_entry_is_a_failure(monkeypatch):
    from surflink.bowtie import PrismTriangulation

    text = small_diagram_text()
    item = lambda: workloads.AnalyzeCorpus.analyze(2, 4, text, [1, 2, -1, 1], True)  # noqa: E731
    assert fail_ratio(item) == 0.0

    export = PrismTriangulation.export_gluing_table

    def corrupted(self):
        lines = export(self).splitlines()
        head, rest = lines[0].split(" : ")
        first, *others = rest.split(" ")
        nbr, face, perm = first.strip("()").split(",")
        lines[0] = f"{head} : ({(int(nbr) + 1) % self.tetrahedron_count},{face},{perm}) " + " ".join(others)
        return "\n".join(lines) + "\n"

    monkeypatch.setattr(PrismTriangulation, "export_gluing_table", corrupted)
    assert fail_ratio(item) == 1.0
    assert "gluing_involution" in workloads.AnalyzeCorpus.analyze(2, 4, text, [1, 2, -1, 1], True)


def test_oracle_off_by_one_is_a_failure(monkeypatch):
    import surflink.curves_mcg as cm

    u, v = (1, 2, 1), (2, 3)
    item = lambda: workloads.Curves.oracle(2, u, v)  # noqa: E731
    assert fail_ratio(item) == 0.0
    true_oracle = cm.geometric_intersection_oracle
    monkeypatch.setattr(cm, "geometric_intersection_oracle", lambda *a, **k: true_oracle(*a, **k) + 1)
    assert fail_ratio(item) == 1.0
    assert "oracle_parity" in workloads.Curves.oracle(2, u, v)


def test_separating_twist_certificate_counts_as_failure():
    base = json.loads(small_diagram_text())
    spec = {"kind": "MappingTorus", "base": base, "gamma_odd": "a1", "gamma_even": "b1", "m": 1,
            "phi": [["a1b1A1B1", 1]]}
    assert workloads.Curves.family(2, spec) == ["false_certificate"]
    assert fail_ratio(lambda: workloads.Curves.family(2, spec)) == 1.0
    # A genuinely nontrivial monodromy passes the same check.
    spec["phi"] = [["a1", 1], ["b1", 1]]
    assert fail_ratio(lambda: workloads.Curves.family(2, spec)) == 0.0


def test_twist_words_of_2g_letters_go_to_the_defect_probe():
    curves = workloads.WORKLOADS["curves"]
    pool = curves.setup(7, "full", None)["pool"]
    phis = [(g, text) for kind, g, *rest in pool if kind == "family" for text, _ in rest[0].get("phi", [])]
    assert phis and all(len(workloads.parse_word(text)) != 2 * g for g, text in phis)
    flagged, probed = curves.defect_probe(7)
    assert probed == curves.PROBES + 1 and flagged >= 1  # the ROADMAP repro at least


def test_gluing_table_parser_accepts_the_program_output():
    from surflink.bowtie import decompose, prism_triangulation
    from surflink.io import diagram_from_json_dict

    d = diagram_from_json_dict(json.loads(small_diagram_text(3, 6)))
    pt = prism_triangulation(decompose(d))
    assert workloads.gluing_table_errors(pt.export_gluing_table(), 6 * (3 * 6 + 2 * 3 - 2)) == []
    assert workloads.gluing_table_errors(pt.export_gluing_table(), 1) == ["tetrahedron_count"]
