"""Shared fixtures: specimen models, cached case-study families, sweep
specs and a subprocess runner for ``run-sweep``."""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.aemilia import parse_architecture
from repro.lts import build_lts


@pytest.fixture
def sweep_spec():
    """``sweep_spec(driver, "sweep_markovian", *args, **kwargs)`` returns
    the :class:`~repro.core.sweep.SweepSpec` a sweep entry point declares,
    captured instead of run — tests derive journal fingerprints from it
    rather than re-listing the identity fields by hand."""

    def capture(driver, entry_point, *args, **kwargs):
        specs = []
        driver.run_sweep = lambda spec, *_, **__: specs.append(spec)
        try:
            getattr(driver, entry_point)(*args, **kwargs)
        finally:
            del driver.run_sweep
        [spec] = specs
        return spec

    return capture


class SweepCLI:
    """``repro-experiments run-sweep`` in a subprocess, for the SIGKILL
    resume tests.

    Every sweep starts its own session, so its process group holds the
    sweep and all of its pool workers: a kill reaches every one of them.
    """

    root = Path(__file__).resolve().parents[1]

    def start(self, extra) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "run-sweep", *extra],
            cwd=self.root, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    @staticmethod
    def completed(journal: Path) -> int:
        """Points recorded in a checkpoint journal (torn tail ignored)."""
        if not journal.exists():
            return 0
        count = 0
        with open(journal, encoding="utf-8") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail
                if record.get("kind") == "point":
                    count += 1
        return count

    def kill_mid_sweep(self, victim: subprocess.Popen, journal: Path):
        """SIGKILL the sweep's whole process group once the journal holds
        a point, and check that no process of the group survives."""
        deadline = time.time() + 120
        try:
            while self.completed(journal) < 1:
                if victim.poll() is not None:
                    pytest.fail("sweep finished before it could be killed")
                if time.time() > deadline:
                    pytest.fail("no checkpoint record appeared in time")
                time.sleep(0.01)
        finally:
            # SIGKILL: no cleanup handlers run, in any process.  The
            # group is gone already when the sweep finished first.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        deadline = time.time() + 10
        while _live_members(victim.pid) and time.time() < deadline:
            time.sleep(0.05)
        assert not _live_members(victim.pid), "pool workers survived"


def _live_members(pgid: int):
    """Pids of process group *pgid* that are still running (zombies
    waiting to be reaped count as dead)."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        state, _, group = stat[stat.rindex(")") + 2:].split()[:3]
        if int(group) == pgid and state != "Z":
            live.append(int(entry))
    return live


@pytest.fixture(scope="session")
def sweep_cli() -> SweepCLI:
    """Subprocess runner of ``run-sweep`` (see :class:`SweepCLI`)."""
    return SweepCLI()


@pytest.fixture(scope="session")
def pingpong_spec() -> str:
    """A tiny two-component untimed architecture used across tests."""
    return """
ARCHI_TYPE Ping_Pong(void)
ARCHI_ELEM_TYPES
ELEM_TYPE Ping_Type(void)
  BEHAVIOR
    Ping(void; void) =
      <send_ping, _> . <receive_pong, _> . Ping()
  INPUT_INTERACTIONS UNI receive_pong
  OUTPUT_INTERACTIONS UNI send_ping
ELEM_TYPE Pong_Type(void)
  BEHAVIOR
    Pong(void; void) =
      <receive_ping, _> . <send_pong, _> . Pong()
  INPUT_INTERACTIONS UNI receive_ping
  OUTPUT_INTERACTIONS UNI send_pong
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    P : Ping_Type();
    Q : Pong_Type()
  ARCHI_ATTACHMENTS
    FROM P.send_ping TO Q.receive_ping;
    FROM Q.send_pong TO P.receive_pong
END
"""


@pytest.fixture(scope="session")
def pingpong(pingpong_spec):
    """Parsed ping-pong architecture."""
    return parse_architecture(pingpong_spec)


@pytest.fixture(scope="session")
def mm1k_spec() -> str:
    """An M/M/1/K queue written in the ADL (K as a const parameter)."""
    return """
ARCHI_TYPE Mm1k(const int capacity := 3,
                const real arrival_rate := 1.0,
                const real service_rate := 2.0)
ARCHI_ELEM_TYPES
ELEM_TYPE Source_Type(void)
  BEHAVIOR
    Source(void; void) =
      <arrive, exp(arrival_rate)> . <enqueue, inf(1, 1)> . Source()
  INPUT_INTERACTIONS void
  OUTPUT_INTERACTIONS UNI enqueue
ELEM_TYPE Queue_Type(void)
  BEHAVIOR
    Queue(int n := 0; void) =
      choice {
        <accept, _> . Queue_Arrived(n),
        cond(n > 0) -> <serve, exp(service_rate)> . Queue(n - 1)
      };
    Queue_Arrived(int n; void) =
      choice {
        cond(n < capacity) -> <admit, inf(1, 1)> . Queue(n + 1),
        cond(n = capacity) -> <reject, inf(1, 1)> . Queue(n)
      }
  INPUT_INTERACTIONS UNI accept
  OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
  ARCHI_ELEM_INSTANCES
    SRC : Source_Type();
    Q : Queue_Type(0)
  ARCHI_ATTACHMENTS
    FROM SRC.enqueue TO Q.accept
END
"""


@pytest.fixture(scope="session")
def mm1k(mm1k_spec):
    """Parsed M/M/1/K architecture."""
    return parse_architecture(mm1k_spec)


@pytest.fixture()
def coffee_machines():
    """Milner's classic: a.(b + c) vs a.b + a.c (not weakly bisimilar)."""
    deterministic = build_lts(
        3, [(0, "coin", 1), (1, "tea", 2), (1, "coffee", 2)]
    )
    nondeterministic = build_lts(
        5,
        [
            (0, "coin", 1),
            (0, "coin", 2),
            (1, "tea", 3),
            (2, "coffee", 4),
        ],
    )
    return deterministic, nondeterministic


@pytest.fixture(scope="session")
def rpc_family():
    """The rpc model family (session-cached; parsing is pure)."""
    from repro.casestudies.rpc import family

    return family()


@pytest.fixture(scope="session")
def streaming_family():
    """The streaming model family (session-cached)."""
    from repro.casestudies.streaming import family

    return family()
