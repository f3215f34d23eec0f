"""Static validation of the GitHub Actions workflows.

CI config only fails at push time, which is the most expensive place to
find out.  These tests parse ``.github/workflows/*.yml`` and check the
properties the PR relies on: the YAML is well-formed, every script a job
invokes exists in the repo, the PR workflow cancels superseded runs and
caches pip, the nightly workflow is actually scheduled, and the
acceptance-sized chaos soak lives in nightly — not on every PR push.
"""

import glob
import os
import re

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW_DIR = os.path.join(REPO_ROOT, ".github", "workflows")

WORKFLOW_PATHS = sorted(glob.glob(os.path.join(WORKFLOW_DIR, "*.yml")))


def _load(path):
    with open(path) as fh:
        return yaml.safe_load(fh)


def _workflows():
    return {os.path.basename(p): _load(p) for p in WORKFLOW_PATHS}


def _run_steps(doc):
    for job_name, job in doc.get("jobs", {}).items():
        for step in job.get("steps", []):
            if "run" in step:
                yield job_name, step


def test_workflow_files_exist():
    names = {os.path.basename(p) for p in WORKFLOW_PATHS}
    assert {"ci.yml", "nightly.yml"} <= names


@pytest.mark.parametrize("path", WORKFLOW_PATHS,
                         ids=[os.path.basename(p) for p in WORKFLOW_PATHS])
def test_workflow_is_valid_yaml_with_jobs(path):
    doc = _load(path)
    assert isinstance(doc, dict)
    # PyYAML parses the bare `on:` key as boolean True.
    assert "on" in doc or True in doc
    assert doc.get("jobs"), f"{path} defines no jobs"
    for job_name, job in doc["jobs"].items():
        assert job.get("runs-on"), f"{job_name} has no runs-on"
        assert job.get("steps"), f"{job_name} has no steps"
        assert "timeout-minutes" in job, f"{job_name} has no timeout"


@pytest.mark.parametrize("path", WORKFLOW_PATHS,
                         ids=[os.path.basename(p) for p in WORKFLOW_PATHS])
def test_workflow_references_existing_files(path):
    """Every repo path a run step mentions must exist: benchmarks/*.py,
    tests/*.py, and the pip requirements file."""
    doc = _load(path)
    referenced = set()
    for _, step in _run_steps(doc):
        referenced.update(re.findall(
            r"(?:benchmarks|tests)/[\w.\-]+\.py", step["run"]))
        referenced.update(re.findall(
            r"\.github/[\w.\-/]+\.txt", step["run"]))
    for job in doc["jobs"].values():
        for step in job.get("steps", []):
            dep = (step.get("with") or {}).get("cache-dependency-path")
            if dep:
                referenced.add(dep)
    assert referenced, f"{path} references no repo scripts"
    missing = [r for r in referenced
               if not os.path.exists(os.path.join(REPO_ROOT, r))]
    assert not missing, f"{path} references missing files: {missing}"


def test_ci_cancels_superseded_runs_and_caches_pip():
    doc = _load(os.path.join(WORKFLOW_DIR, "ci.yml"))
    conc = doc.get("concurrency")
    assert conc and "ci-" in conc["group"]
    # PRs cancel in-progress; mainline runs are kept (the expression
    # guards on the ref).
    assert "refs/heads/main" in str(conc["cancel-in-progress"])

    for job_name, job in doc["jobs"].items():
        setup = [s for s in job["steps"]
                 if "setup-python" in str(s.get("uses", ""))]
        assert setup, f"{job_name} has no setup-python step"
        with_ = setup[0].get("with") or {}
        assert with_.get("cache") == "pip", f"{job_name} not pip-cached"
        assert with_.get("cache-dependency-path"), job_name


def test_nightly_is_scheduled_and_dispatchable():
    doc = _load(os.path.join(WORKFLOW_DIR, "nightly.yml"))
    on = doc.get("on", doc.get(True))
    assert "schedule" in on and "workflow_dispatch" in on
    crons = [e["cron"] for e in on["schedule"]]
    assert crons and all(len(c.split()) == 5 for c in crons)

    jobs = doc["jobs"]
    assert "observatory" in jobs and "chaos-soak" in jobs

    obs_runs = "\n".join(
        step["run"] for name, step in _run_steps(doc)
        if name == "observatory")
    assert "bench_observatory.py --suite paper" in obs_runs
    assert "check_regression.py --service --history" in obs_runs
    assert "repro.bench.observatory" in obs_runs

    # The run store must survive between nights (cache restore + save)
    # and ship as an artifact.
    uses = [str(s.get("uses", "")) for s in jobs["observatory"]["steps"]]
    assert any("actions/cache/restore" in u for u in uses)
    assert any("actions/cache/save" in u for u in uses)
    assert any("upload-artifact" in u for u in uses)


def test_chaos_soak_runs_nightly_not_on_prs():
    ci = _load(os.path.join(WORKFLOW_DIR, "ci.yml"))
    nightly = _load(os.path.join(WORKFLOW_DIR, "nightly.yml"))

    def soak_envs(doc):
        out = []
        for job in doc["jobs"].values():
            env = dict(job.get("env") or {})
            for step in job["steps"]:
                env.update(step.get("env") or {})
            out.append(env)
        return out

    assert all("REPRO_CHAOS_SOAK" not in env for env in soak_envs(ci))
    assert any(env.get("REPRO_CHAOS_SOAK") == "1"
               for env in soak_envs(nightly))
    # Both tiers exercise the same suite: smoke on PRs, soak nightly.
    assert any("tests/test_chaos.py" in step["run"]
               for _, step in _run_steps(ci))
    assert any("tests/test_chaos.py" in step["run"]
               for _, step in _run_steps(nightly))


def test_remote_fleet_job_uses_the_one_launcher():
    """The standing fleet starts through ``LocalFleet`` (the launcher the
    process executor uses), and the job runs the process executor's
    owned-fleet suite next to the remote and fault-matrix suites."""
    ci = _load(os.path.join(WORKFLOW_DIR, "ci.yml"))
    (run,) = [step["run"] for _, step in _run_steps(ci)
              if "REPRO_REMOTE_WORKERS" in step["run"]]
    assert "LocalFleet(" in run
    for suite in ("test_remote.py", "test_resilience.py", "test_pool.py"):
        assert f"tests/{suite}" in run


def test_ci_runs_e2e_benchmark_tests():
    """The e2e benchmark's own tests guard its trace points (named
    functions it wraps from the outside) against renames in src/."""
    ci = _load(os.path.join(WORKFLOW_DIR, "ci.yml"))
    assert os.path.isdir(os.path.join(REPO_ROOT, "benchmarks", "e2e"))
    assert any("pytest -q benchmarks/e2e" in step["run"]
               for _, step in _run_steps(ci))


def test_ci_requires_native_field_engine_before_tier1():
    """The engine-parametrised field tests and the G1 MSM kernel tests
    skip without the native kernels; the main job must fail instead of
    running them as skips."""
    ci = _load(os.path.join(WORKFLOW_DIR, "ci.yml"))
    names = [step.get("name", "") for step in ci["jobs"]["test"]["steps"]]
    check = names.index("Native field engine compiles")
    assert check < names.index("Tier-1 tests")
    step = ci["jobs"]["test"]["steps"][check]
    assert "vector.active_impl() == 'native'" in step["run"]
    # The G1 fixed-base MSM kernel loaded too: a G1 table is limb-resident.
    assert "FixedBaseMSM([(1, 2)])._tab is not None" in step["run"]
    # A 2-point G1 msm runs in C and equals the scalar engine's result.
    assert "m._g1_kernels(m.G1_OPS) is not None" in step["run"]
    assert "vector.set_backend('scalar'); assert got == m.msm(pts, scs)" in step["run"]
    assert step["env"]["PYTHONPATH"] == "src"
