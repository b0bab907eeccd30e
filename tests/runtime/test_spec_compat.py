"""Old-format compatibility: specs written before the switch removal.

``tests/fixtures/campaign_spec_pr12.json`` is a ``CampaignSpec.to_dict()``
written by the release that still had the ``decode_cache``,
``mode_cache``, ``mode_cache_size``, ``vector_dvs`` and
``dvs_warm_start`` configuration fields, carrying all five (four of them
at non-default values).  Persisted campaign specs, run directories and
server job records in that shape must keep loading and running; a key
that never existed must still be rejected.
"""

import json
import pathlib
import shutil

import pytest

from repro.errors import CampaignError, SynthesisError
from repro.runtime import checkpoint as ckpt
from repro.runtime.events import events_path, read_events
from repro.runtime.runner import resume_campaign, run_campaign
from repro.runtime.spec import CampaignSpec
from repro.server.jobs import JobState, JobStore
from repro.synthesis.config import RETIRED_KEYS

FIXTURE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "fixtures"
    / "campaign_spec_pr12.json"
)

#: The fixture campaign's single job as the writing release ran it.
JOB_ID = "mul1-gradient-prob-s3"
EXPECTED_POWER = 0.2522646737086005


def _old_payload():
    return json.loads(FIXTURE.read_text())


def test_fixture_carries_every_retired_key():
    config = _old_payload()["config"]
    assert RETIRED_KEYS <= set(config)
    assert config["decode_cache"] is False
    assert config["mode_cache"] is False
    assert config["vector_dvs"] is False
    assert config["mode_cache_size"] == 64


def test_campaign_spec_load_accepts_old_format():
    spec = CampaignSpec.load(FIXTURE)
    assert spec.name == "retired-keys-compat"
    assert spec.config.population_size == 4
    assert set(spec.to_dict()["config"]).isdisjoint(RETIRED_KEYS)


def _old_run_dir(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    shutil.copy(FIXTURE, ckpt.spec_path(run_dir))
    return run_dir


def test_resume_campaign_accepts_old_spec_json(tmp_path):
    result = resume_campaign(_old_run_dir(tmp_path))
    assert result.failed == 0
    assert result.results[JOB_ID].power == EXPECTED_POWER


def test_rerun_with_reloaded_spec_matches_stored_old_spec(tmp_path):
    # The stored spec.json still holds the retired keys; a spec that
    # went through the current loader (and so lost them) must compare
    # equal instead of tripping the "different campaign spec" guard.
    run_dir = _old_run_dir(tmp_path)
    reloaded = CampaignSpec.from_dict(CampaignSpec.load(FIXTURE).to_dict())
    result = run_campaign(reloaded, run_dir)
    assert result.results[JOB_ID].power == EXPECTED_POWER


class _Kill(KeyboardInterrupt):
    """Stand-in for Ctrl-C / SIGTERM mid-campaign."""


def _kill_after_first_checkpoint(event):
    if event["event"] == "checkpointed" and event["generation"] > 0:
        raise _Kill


def test_resume_accepts_checkpoint_carrying_retired_keys(tmp_path):
    # A job interrupted under the old release left a checkpoint whose
    # embedded config still holds the retired keys; resuming must
    # continue it from that checkpoint, not fail the job.
    run_dir = _old_run_dir(tmp_path)
    with pytest.raises(_Kill):
        resume_campaign(run_dir, on_event=_kill_after_first_checkpoint)
    path = ckpt.checkpoint_path(run_dir, JOB_ID)
    data = json.loads(path.read_text())
    old_config = _old_payload()["config"]
    data["config"].update({key: old_config[key] for key in RETIRED_KEYS})
    path.write_text(json.dumps(data))

    result = resume_campaign(run_dir)
    assert result.failed == 0
    assert result.results[JOB_ID].power == EXPECTED_POWER
    started = [
        e
        for e in read_events(events_path(run_dir))
        if e["event"] == "job_started" and e["job_id"] == JOB_ID
    ]
    assert started[-1]["resumed_from"] > 0


def test_jobstore_recovers_record_embedding_old_spec(tmp_path):
    record = {
        "version": 1,
        "job_id": "j000007-alice",
        "tenant": "alice",
        "priority": 0,
        "spec": _old_payload(),
        "state": "running",
        "submitted_ts": 1.0,
        "started_ts": 2.0,
        "finished_ts": None,
        "error": None,
        "worker_pid": None,
        "resumes": 0,
        "cancel_requested": False,
    }
    jobs_dir = tmp_path / "jobs"
    jobs_dir.mkdir()
    (jobs_dir / "j000007-alice.json").write_text(json.dumps(record))

    store = JobStore(tmp_path)
    job = store.get("j000007-alice")
    assert job.spec == _old_payload()
    store.transition(job, JobState.QUEUED)  # the restart requeue edge
    assert JobStore(tmp_path).get("j000007-alice").resumes == 1
    spec = CampaignSpec.from_dict(job.spec)
    assert spec.to_dict() == CampaignSpec.load(FIXTURE).to_dict()


def test_never_existing_key_still_rejected():
    payload = _old_payload()
    payload["config"]["mode_cach"] = False
    with pytest.raises((SynthesisError, CampaignError), match="mode_cach"):
        CampaignSpec.from_dict(payload)
