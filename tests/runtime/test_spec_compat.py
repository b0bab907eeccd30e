"""Old-format compatibility: records written before the switch removals.

``tests/fixtures/campaign_spec_pr12.json`` is a ``CampaignSpec.to_dict()``
written by the release that still had the ``decode_cache``,
``mode_cache``, ``mode_cache_size``, ``vector_dvs`` and
``dvs_warm_start`` configuration fields, carrying all five (four of them
at non-default values), as well as the ``async_pool``, ``speculative``
and ``speculation_depth`` pool-strategy fields retired later.
Persisted campaign specs, run directories and server job records in
that shape must keep loading and running; a key that never existed must
still be rejected.

``tests/fixtures/async_pool_run/`` is a finished ``jobs=2`` campaign run
directory written by the release with the work-stealing pool: its
result records, events and ``run_summary.json`` carry ``pool_steals``
and ``speculation_*`` perf counters and no dispatch verdict.
"""

import json
import pathlib
import shutil

import pytest

from repro.analysis.reporting import results_from_events
from repro.errors import CampaignError, SynthesisError
from repro.obs.status import format_pool_stats
from repro.obs.summary import load_run_summary
from repro.runtime import checkpoint as ckpt
from repro.runtime.events import events_path, read_events
from repro.runtime.runner import JobResult, resume_campaign, run_campaign
from repro.runtime.spec import CampaignSpec
from repro.server.jobs import JobState, JobStore
from repro.synthesis.config import RETIRED_KEYS

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE = FIXTURES / "campaign_spec_pr12.json"
OLD_RUN = FIXTURES / "async_pool_run"

#: The configuration fields of the retired pool strategies.
POOL_STRATEGY_KEYS = ("async_pool", "speculative", "speculation_depth")

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


def test_fixture_carries_pool_strategy_keys():
    config = _old_payload()["config"]
    assert {key: config[key] for key in POOL_STRATEGY_KEYS} == {
        "async_pool": True,
        "speculative": True,
        "speculation_depth": 1,
    }
    assert set(POOL_STRATEGY_KEYS) <= RETIRED_KEYS


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


def test_pooled_resume_accepts_checkpoint_carrying_pool_keys(tmp_path):
    # The same, for a jobs=2 job whose checkpoint still names the pool
    # strategy: it resumes on the measured router, bit-identically.
    payload = _old_payload()
    payload["config"]["jobs"] = 2
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    ckpt.spec_path(run_dir).write_text(json.dumps(payload))
    with pytest.raises(_Kill):
        resume_campaign(run_dir, on_event=_kill_after_first_checkpoint)
    path = ckpt.checkpoint_path(run_dir, JOB_ID)
    data = json.loads(path.read_text())
    data["config"].update(
        async_pool=False, speculative=False, speculation_depth=3
    )
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


def test_old_pooled_run_records_still_read(tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(OLD_RUN, run_dir)
    stored = {
        path.stem: json.loads(path.read_text())
        for path in sorted((run_dir / "results").glob("*.json"))
    }
    assert stored
    for record in stored.values():
        assert "pool_steals" in record["perf"]
        assert "speculation_issued" in record["perf"]
        assert "dispatch_verdict" not in record["perf"]
        assert JobResult.from_dict(record).to_dict() == record

    # The old summary renders, without verdicts.
    old_text = format_pool_stats(load_run_summary(run_dir))
    assert "workers 2" in old_text
    assert "dispatch: n/a" in old_text
    assert "steals" not in old_text and "speculation" not in old_text

    # The Table aggregates rebuild from the old event stream.
    rows = results_from_events(events_path(run_dir))
    assert [row.example for row in rows] == ["mul1"]
    powers = sorted(record["power"] for record in stored.values())
    assert sorted(
        rows[0].without.powers + rows[0].with_probabilities.powers
    ) == powers

    # Resuming the finished run skips every job and re-exports a
    # summary built from the old records.
    result = resume_campaign(run_dir)
    assert result.failed == 0
    assert {
        job_id: job.power for job_id, job in result.results.items()
    } == {job_id: record["power"] for job_id, record in stored.items()}
    summary = load_run_summary(run_dir)
    assert "dispatch_verdicts" not in summary["perf"]
    assert "pool_steals" not in summary["perf"]
    text = format_pool_stats(summary)
    assert "dispatch: n/a" in text


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
