"""Shared fixtures: fast protocol configs and prebuilt devices.

Tests scale the paper's durations down hard (seconds, not minutes): the
physics is qualitatively identical, and the full-length campaign lives in
the benchmark suite, not here.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import AccubenchConfig
from repro.core.runner import CampaignConfig, CampaignRunner
from repro.device.fleet import PAPER_FLEETS, build_device
from repro.instruments.monsoon import MonsoonPowerMonitor


@pytest.fixture
def fast_config() -> AccubenchConfig:
    """A seconds-scale protocol config for unit/integration tests."""
    return AccubenchConfig(
        warmup_s=20.0,
        workload_s=30.0,
        cooldown_target_c=40.0,
        cooldown_poll_s=5.0,
        cooldown_timeout_s=2400.0,
        iterations=2,
        dt=0.2,
        trace_decimation=2,
    )


@pytest.fixture
def fast_campaign(fast_config: AccubenchConfig) -> CampaignConfig:
    """Campaign config wrapping the fast protocol, chamber disabled for
    speed (chamber-specific tests opt back in)."""
    return CampaignConfig(accubench=fast_config, use_thermabox=False)


@pytest.fixture
def fast_runner(fast_campaign: CampaignConfig) -> CampaignRunner:
    """A runner over the fast campaign config."""
    return CampaignRunner(fast_campaign)


@pytest.fixture
def nexus5_bin0():
    """A Nexus 5 bin-0 unit powered from a Monsoon at nominal voltage."""
    device = build_device(PAPER_FLEETS["Nexus 5"][0])
    device.connect_supply(MonsoonPowerMonitor(device.spec.battery.nominal_v))
    return device


@pytest.fixture
def nexus5_bin3():
    """A Nexus 5 bin-3 unit powered from a Monsoon at nominal voltage."""
    device = build_device(PAPER_FLEETS["Nexus 5"][3])
    device.connect_supply(MonsoonPowerMonitor(device.spec.battery.nominal_v))
    return device


@pytest.fixture
def durable_write_calls(monkeypatch):
    """Record ``os.fsync`` and ``os.replace`` calls, in order.

    Each entry is ``(name, (inode, bytes on disk))`` of the file synced
    or renamed.  A synced entry equal to the renamed one shows the file
    that was renamed had been flushed and fsynced first.
    """
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        calls.append(("fsync", (info.st_ino, info.st_size)))
        real_fsync(fd)

    def replace(src, dst):
        info = os.stat(src)
        calls.append(("replace", (info.st_ino, info.st_size)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return calls
