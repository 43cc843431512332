"""The CI workflow parses, and every step runs an action or a named command."""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_workflow_step_uses_an_action_or_runs_a_named_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert "uses" in step or ("run" in step and step.get("name")), step
