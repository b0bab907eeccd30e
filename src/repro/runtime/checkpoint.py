"""Durable per-job checkpoints and results in a campaign run directory.

Layout of a run directory::

    <run_dir>/
        spec.json                  # the CampaignSpec (written once)
        events.jsonl               # structured event stream
        checkpoints/<job_id>.json  # latest GA snapshot per running job
        results/<job_id>.json      # final record per completed job

Checkpoints are written atomically (temp file + ``os.replace``) so a
kill at any instant leaves either the previous or the new snapshot —
never a torn file.  Each checkpoint embeds the job id and the full
synthesis config; on resume both are verified, because silently
resuming a snapshot under a different configuration would break the
bit-identical guarantee.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Optional, Union

from repro.errors import CampaignError
from repro.synthesis.config import RETIRED_KEYS, SynthesisConfig
from repro.synthesis.state import GAState

PathLike = Union[str, pathlib.Path]

CHECKPOINT_DIRNAME = "checkpoints"
RESULTS_DIRNAME = "results"
SPEC_FILENAME = "spec.json"


def atomic_write_json(path: PathLike, data: Dict[str, Any]) -> None:
    """Write ``data`` as JSON so a kill never leaves a torn file.

    Temp file + ``fsync`` + ``os.replace`` — the write discipline every
    durable artifact of the repo (checkpoints, results, the adaptive
    design library) shares.
    """
    path = pathlib.Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


#: Backward-compatible alias for the historical private name.
_atomic_write_json = atomic_write_json


def _read_json(path: pathlib.Path, what: str) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CampaignError(f"corrupt {what} at {path}: {exc}") from exc


def prepare_run_dir(run_dir: PathLike) -> pathlib.Path:
    """Create the run directory skeleton (idempotent)."""
    run_dir = pathlib.Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / CHECKPOINT_DIRNAME).mkdir(exist_ok=True)
    (run_dir / RESULTS_DIRNAME).mkdir(exist_ok=True)
    return run_dir


def spec_path(run_dir: PathLike) -> pathlib.Path:
    return pathlib.Path(run_dir) / SPEC_FILENAME


def checkpoint_path(run_dir: PathLike, job_id: str) -> pathlib.Path:
    return pathlib.Path(run_dir) / CHECKPOINT_DIRNAME / f"{job_id}.json"


def result_path(run_dir: PathLike, job_id: str) -> pathlib.Path:
    return pathlib.Path(run_dir) / RESULTS_DIRNAME / f"{job_id}.json"


# ----------------------------------------------------------------------
# GA checkpoints
# ----------------------------------------------------------------------


def write_checkpoint(
    run_dir: PathLike,
    job_id: str,
    state: GAState,
    config: SynthesisConfig,
) -> pathlib.Path:
    """Atomically persist one GA snapshot for ``job_id``."""
    path = checkpoint_path(run_dir, job_id)
    _atomic_write_json(
        path,
        {
            "job_id": job_id,
            "config": config.to_dict(),
            "state": state.to_dict(),
        },
    )
    return path


def load_checkpoint(
    run_dir: PathLike,
    job_id: str,
    config: Optional[SynthesisConfig] = None,
) -> Optional[GAState]:
    """The latest snapshot for ``job_id``, or ``None`` when absent.

    With ``config`` given, the stored configuration must match it
    exactly — a mismatch (edited spec, different code defaults) raises
    :class:`CampaignError` instead of producing a silently
    non-reproducible resume.
    """
    path = checkpoint_path(run_dir, job_id)
    if not path.exists():
        return None
    data = _read_json(path, "checkpoint")
    if data.get("job_id") != job_id:
        raise CampaignError(
            f"checkpoint {path} belongs to job {data.get('job_id')!r}, "
            f"not {job_id!r}"
        )
    if config is not None and _current_keys(data.get("config")) != (
        config.to_dict()
    ):
        raise CampaignError(
            f"checkpoint {path} was written under a different synthesis "
            f"configuration; delete it to restart the job from scratch"
        )
    return GAState.from_dict(data["state"])


def _current_keys(stored: Any) -> Any:
    """``stored`` without the :data:`RETIRED_KEYS` older releases wrote.

    Those switches never changed a result, so a checkpoint written
    before their removal resumes as if they had never been there.
    """
    if not isinstance(stored, dict):
        return stored
    return {k: v for k, v in stored.items() if k not in RETIRED_KEYS}


def clear_checkpoint(run_dir: PathLike, job_id: str) -> None:
    checkpoint_path(run_dir, job_id).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Job results
# ----------------------------------------------------------------------


def write_result(
    run_dir: PathLike, job_id: str, record: Dict[str, Any]
) -> pathlib.Path:
    path = result_path(run_dir, job_id)
    _atomic_write_json(path, record)
    return path


def load_result(
    run_dir: PathLike, job_id: str
) -> Optional[Dict[str, Any]]:
    path = result_path(run_dir, job_id)
    if not path.exists():
        return None
    return _read_json(path, "job result")
