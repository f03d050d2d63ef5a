"""CampaignOptions: the one record behind six subcommands' flags."""

import argparse

import pytest

from repro.runner import CampaignOptions


def _parse(argv, **add_kwargs):
    parser = argparse.ArgumentParser()
    CampaignOptions.add_arguments(parser, **add_kwargs)
    return parser.parse_args(argv)


def test_add_arguments_defaults():
    args = _parse([])
    options = CampaignOptions.from_args(args)
    assert options == CampaignOptions()


def test_add_arguments_jobs_default_override():
    assert _parse([], jobs_default=1).jobs == 1
    assert _parse(["--jobs", "4"], jobs_default=1).jobs == 4


def test_from_args_collects_only_present_fields():
    args = argparse.Namespace(jobs=3, spans="s")   # no resume etc.
    options = CampaignOptions.from_args(args)
    assert options.jobs == 3 and options.spans == "s"
    assert options.resume is None


def test_jobs_zero_means_one_per_cpu_and_negative_is_rejected(capsys):
    assert _parse(["--jobs", "0"]).jobs == 0
    for bad in ("-1", "-3", "two"):
        with pytest.raises(SystemExit) as info:
            _parse(["--jobs", bad])
        assert info.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def test_checkpoint_every_below_one_is_rejected(capsys):
    """The journal flushes after every job; the old cadence flag is a
    usage error at any value, below one or not."""
    for value in ("0", "-2", "1", "2"):
        with pytest.raises(SystemExit) as info:
            _parse(["--checkpoint-every", value])
        assert info.value.code == 2
        assert "--checkpoint-every" in capsys.readouterr().err


def test_checkpoint_path_precedence(tmp_path):
    results = CampaignOptions(results_dir=str(tmp_path))
    assert results.checkpoint_path("matrix") \
        == tmp_path / "matrix-checkpoint.jsonl"
    resume_only = CampaignOptions(resume="old.jsonl")
    assert str(resume_only.checkpoint_path("matrix")) == "old.jsonl"
    assert CampaignOptions().checkpoint_path("matrix") is None


def test_campaign_kwargs_shapes(tmp_path):
    assert CampaignOptions().campaign_kwargs("matrix") == {}
    kwargs = CampaignOptions(
        results_dir=str(tmp_path)).campaign_kwargs("kaslr")
    assert kwargs == {"checkpoint": tmp_path / "kaslr-checkpoint.jsonl"}
    sentinel = object()
    kwargs = CampaignOptions(resume="j.jsonl").campaign_kwargs(
        "leak", on_job_done=sentinel)
    assert kwargs["resume"] == "j.jsonl"
    assert kwargs["on_job_done"] is sentinel


def test_frozen():
    with pytest.raises(AttributeError):
        CampaignOptions().jobs = 5
