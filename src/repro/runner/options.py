"""One frozen options record for everything a campaign run shares.

Six CLI subcommands (``matrix``, ``kaslr``, ``physmap``, ``leak``,
``covert``, ``fuzz``) take the same execution knobs — worker count,
checkpoint/resume, span capture, result archiving —
and until this module each re-declared and re-plumbed them by hand.
:class:`CampaignOptions` is the single source of truth: the CLI builds
one from parsed arguments and hands it to
:func:`repro.runner.run_campaign` through :meth:`campaign_kwargs`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields
from pathlib import Path


def _int_at_least(minimum: int):
    """An argparse ``type=`` that rejects integers below *minimum*
    (exit 2 with a usage error) instead of letting them be clamped."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


@dataclass(frozen=True)
class CampaignOptions:
    """Execution options shared by every campaign entry point.

    ``jobs=0`` means one worker per available CPU (the
    :func:`repro.runner.resolve_jobs` convention); results are
    identical at any value.  ``resume`` drives the resilience journal
    (see ``docs/resilience.md``); ``spans`` the observability layer
    (``docs/observability.md``); ``results_dir``
    both archives the run manifest and hosts the per-command checkpoint
    journal.
    """

    jobs: int = 0
    resume: str | None = None
    spans: str | None = None
    results_dir: str | None = None

    # -- argparse plumbing -------------------------------------------------

    @staticmethod
    def add_arguments(parser, *, jobs_default: int = 0) -> None:
        """Register ``--jobs``/``--resume`` on *parser* (the telemetry
        flags — ``--spans``, ``--results-dir`` — are
        registered with the output flags, which non-campaign commands
        also take).  ``jobs_default`` lets a
        command keep a serial default (``fuzz`` uses 1) without
        re-declaring the flag."""
        default_note = "one per available CPU" if jobs_default == 0 \
            else "serial"
        parser.add_argument("--jobs", default=jobs_default,
                            type=_int_at_least(0),
                            help=f"worker processes for the campaign "
                                 f"(default {jobs_default} = "
                                 f"{default_note}; results are identical "
                                 f"at any value)")
        parser.add_argument("--resume", metavar="CHECKPOINT", default=None,
                            help="resume from a checkpoint journal: jobs "
                                 "already recorded there are skipped, and "
                                 "the merged manifest is identical to an "
                                 "uninterrupted run")

    @classmethod
    def from_args(cls, args) -> "CampaignOptions":
        """Collect whichever of the four options *args* carries."""
        values = {}
        for spec in fields(cls):
            if hasattr(args, spec.name):
                values[spec.name] = getattr(args, spec.name)
        return cls(**values)

    # -- run_campaign plumbing ----------------------------------------------

    def checkpoint_path(self, command: str) -> Path | None:
        """Where this run journals finished jobs, or ``None``.

        With ``results_dir`` the run journals to
        ``DIR/<command>-checkpoint.jsonl`` (re-journaling any
        ``resume`` inheritance so the new journal is self-contained);
        ``resume`` without a results dir keeps appending to the resume
        journal itself.
        """
        if self.results_dir:
            return Path(self.results_dir) / f"{command}-checkpoint.jsonl"
        if self.resume:
            return Path(self.resume)
        return None

    def campaign_kwargs(self, command: str, *, on_job_done=None) -> dict:
        """The checkpoint/resume/on_job_done keyword arguments for one
        :func:`repro.runner.run_campaign` call.  Multi-campaign
        commands (``physmap``, ``leak``) reuse one kwargs dict — spec
        fingerprints keep their journal records apart."""
        kwargs: dict = {}
        checkpoint = self.checkpoint_path(command)
        if checkpoint is not None:
            kwargs["checkpoint"] = checkpoint
        if self.resume:
            kwargs["resume"] = self.resume
        if on_job_done is not None:
            kwargs["on_job_done"] = on_job_done
        return kwargs
