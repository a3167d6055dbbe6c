#!/usr/bin/env python
"""Fleet smoke: a real coordinator + two worker processes, one murdered.

The cross-host fabric's correctness contract, exercised end to end with
real processes on localhost:

1. run the campaign single-host with ``--out`` → golden
   ``aggregate.json``/``atlas.json``;
2. start ``hi-explore serve`` on an ephemeral port with a short lease
   TTL, submit the same spec with ``{"execution": "fleet"}``;
3. start two ``hi-explore worker`` agents sharing one ``--workdir``;
   SIGKILL one of them while it holds a shard lease — the lease expires
   and the surviving worker is reassigned the shard, resuming from the
   dead worker's journals;
4. poll until the campaign is ``done`` and require the fleet
   ``aggregate.json``/``atlas.json`` to be **byte-identical** to the
   golden run (``cmp`` semantics, done in-process);
5. submit a **second** campaign over the same wearer population under a
   different name against the same coordinator: every wearer must be
   served from the cross-campaign wearer cache — the warm worker may
   write **zero** run journals — and the artifacts must again be
   byte-identical to a single-host run of the warm spec.

If the doomed worker finishes its shard before the kill lands the test
degrades to a plain two-worker fleet run — still asserting byte
identity.  Any divergence, hang, re-simulation in the warm phase, or
worker failure exits nonzero.

Usage::

    python scripts/fleet_smoke.py [--wearers 4] [--preset smoke]
                                  [--workdir fleet-smoke]
                                  [--lease-ttl 2.0]
"""

import argparse
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def log(message: str) -> None:
    print(f"fleet-smoke: {message}", flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    # The whole smoke runs with fabric auth enabled: coordinator and
    # workers pick the shared secret up from the environment, so every
    # worker RPC below (all of them POST /fabric/sync) is HMAC-signed
    # end to end.
    env.setdefault("REPRO_FABRIC_SECRET", "fleet-smoke-secret")
    return env


def cli(*argv) -> list:
    return [sys.executable, "-m", "repro.cli", *argv]


def http_json(method: str, url: str, payload=None, timeout=10.0):
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode() or "{}")


def start_coordinator(root: pathlib.Path, lease_ttl: float, shards: int):
    """Launch ``hi-explore serve`` on an ephemeral port; returns
    ``(process, base_url)`` once the startup banner names the port."""
    proc = subprocess.Popen(
        cli(
            "serve", "--root", str(root), "--port", "0",
            "--lease-ttl", str(lease_ttl), "--shards", str(shards),
        ),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner: list = []

    def pump():
        for line in proc.stdout:
            print(f"  [serve] {line.rstrip()}", flush=True)
            match = re.search(r"on (http://[\d.]+:\d+)", line)
            if match and not banner:
                banner.append(match.group(1))

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + 30.0
    while not banner and time.monotonic() < deadline:
        if proc.poll() is not None:
            log("FAIL: coordinator exited during startup")
            sys.exit(1)
        time.sleep(0.05)
    if not banner:
        log("FAIL: coordinator never printed its URL")
        proc.kill()
        sys.exit(1)
    return proc, banner[0]


def start_worker(name: str, base_url: str, workdir: pathlib.Path):
    return subprocess.Popen(
        cli(
            "worker", "--coordinator", base_url, "--workdir", str(workdir),
            "--name", name, "--poll", "0.2", "--exit-idle", "10",
        ),
        env=child_env(),
        stdout=None,  # workers log their own pull/commit lines
        start_new_session=True,  # the SIGKILL must not splash the script
    )


def wait_for_lease(base_url: str, cid: str, worker: str, timeout: float):
    """Wait until ``worker`` holds a shard lease (True) or the campaign
    finishes without it ever leasing one (False)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = http_json(
            "GET", f"{base_url}/campaigns/{cid}/status"
        )
        if status == 200:
            for shard in payload.get("shards", ()):
                if (
                    shard.get("state") == "leased"
                    and shard.get("worker") == worker
                ):
                    return True
            if payload.get("state") == "done":
                return False
        time.sleep(0.05)
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--wearers", type=int, default=4)
    parser.add_argument("--preset", default="smoke")
    parser.add_argument("--workdir", default="fleet-smoke")
    parser.add_argument("--lease-ttl", type=float, default=2.0)
    args = parser.parse_args(argv)

    from repro.campaign.spec import make_population

    spec = make_population(
        args.wearers, preset=args.preset, base_seed=40,
        pdr_bounds=(90, 95), name="fleet-smoke",
    )
    cid = spec.fingerprint()
    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    spec_path = workdir / "spec.json"
    spec.save(spec_path)

    golden_dir = workdir / "golden"
    log(f"golden single-host run of {cid} ({args.wearers} wearers)")
    subprocess.run(
        cli(
            "campaign", "--spec", str(spec_path), "--jobs", "1",
            "--shards", "2", "--out", str(golden_dir),
        ),
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
    )

    coordinator, base_url = start_coordinator(
        workdir / "coord", args.lease_ttl, shards=2
    )
    doomed = survivor = None
    try:
        status, payload = http_json(
            "POST", f"{base_url}/campaigns",
            {**spec.to_dict(), "execution": "fleet"},
        )
        if status not in (200, 202):
            log(f"FAIL: fleet submission returned {status}: {payload}")
            return 1
        log(f"submitted fleet campaign {payload['id']} "
            f"(state {payload['state']})")

        doomed = start_worker("doomed", base_url, workdir / "work")
        if wait_for_lease(base_url, cid, "doomed", timeout=60.0):
            os.killpg(doomed.pid, signal.SIGKILL)
            doomed.wait()
            log("SIGKILLed worker 'doomed' while it held a shard lease; "
                "its lease will expire and the shard be reassigned")
        else:
            log("worker 'doomed' never held a lease at the check point — "
                "degrading to a plain fleet run")
            doomed.terminate()
            doomed.wait()
        survivor = start_worker("survivor", base_url, workdir / "work")

        deadline = time.monotonic() + 600.0
        while time.monotonic() < deadline:
            status, payload = http_json("GET", f"{base_url}/campaigns/{cid}")
            if status == 200 and payload.get("state") == "done":
                break
            if survivor.poll() not in (None, 0):
                log(f"FAIL: survivor worker exited "
                    f"{survivor.returncode} before the campaign finished")
                return 1
            time.sleep(0.25)
        else:
            log(f"FAIL: campaign never reached done: {payload}")
            return 1
        log(f"campaign done: {payload['queue']}")

        # -- phase 2: warm-cache campaign (same wearers, new name) ------
        # The coordinator's wearer cache was fed by phase 1's commits;
        # this campaign must be a download, not a simulation.
        warm_spec = make_population(
            args.wearers, preset=args.preset, base_seed=40,
            pdr_bounds=(90, 95), name="fleet-smoke-warm",
        )
        warm_cid = warm_spec.fingerprint()
        warm_spec_path = workdir / "spec-warm.json"
        warm_spec.save(warm_spec_path)
        warm_golden_dir = workdir / "golden-warm"
        log(f"golden single-host run of warm campaign {warm_cid}")
        subprocess.run(
            cli(
                "campaign", "--spec", str(warm_spec_path), "--jobs", "1",
                "--shards", "2", "--out", str(warm_golden_dir),
            ),
            env=child_env(),
            check=True,
            stdout=subprocess.DEVNULL,
        )
        status, payload = http_json(
            "POST", f"{base_url}/campaigns",
            {**warm_spec.to_dict(), "execution": "fleet"},
        )
        if status not in (200, 202):
            log(f"FAIL: warm submission returned {status}: {payload}")
            return 1
        log(f"submitted warm fleet campaign {payload['id']} "
            f"(state {payload['state']})")
        warm_worker = start_worker(
            "warm", base_url, workdir / "work-warm"
        )
        try:
            deadline = time.monotonic() + 600.0
            while time.monotonic() < deadline:
                status, payload = http_json(
                    "GET", f"{base_url}/campaigns/{warm_cid}"
                )
                if status == 200 and payload.get("state") == "done":
                    break
                if warm_worker.poll() not in (None, 0):
                    log(f"FAIL: warm worker exited "
                        f"{warm_worker.returncode} mid-campaign")
                    return 1
                time.sleep(0.25)
            else:
                log(f"FAIL: warm campaign never reached done: {payload}")
                return 1
        finally:
            if warm_worker.poll() is None:
                warm_worker.terminate()
                warm_worker.wait()
        log(f"warm campaign done: {payload['queue']}")
    finally:
        for proc in (doomed, survivor):
            if proc is not None and proc.poll() is None:
                proc.terminate()
                proc.wait()
        coordinator.terminate()
        coordinator.wait()

    for label, campaign, gold in (
        ("fleet", cid, golden_dir),
        ("warm fleet", warm_cid, warm_golden_dir),
    ):
        fleet_dir = workdir / "coord" / campaign
        for name in ("aggregate.json", "atlas.json"):
            golden_blob = (gold / name).read_bytes()
            fleet_blob = (fleet_dir / name).read_bytes()
            if golden_blob != fleet_blob:
                log(f"FAIL: {label} {name} differs from the "
                    "single-host run")
                return 1
            log(f"{label} {name}: bytes identical to single-host "
                f"({len(fleet_blob)} bytes)")

    # Zero re-simulation: a cache-served wearer writes summary.json
    # only, so any run journal for the warm campaign means the wearer
    # cache failed to serve it.  Checked across *every* workdir — a
    # phase-1 worker still draining may legally pick up warm shards.
    warm_journals = sorted(
        journal
        for work in (workdir / "work", workdir / "work-warm")
        for journal in (work / warm_cid).rglob("journal.jsonl")
        if (work / warm_cid).exists()
    )
    if warm_journals:
        log(f"FAIL: warm worker simulated {len(warm_journals)} "
            f"wearer(s): {[str(p) for p in warm_journals]}")
        return 1
    log("warm worker wrote zero run journals — every wearer was a "
        "cache hit")

    telemetry = json.loads(
        (workdir / "coord" / cid / "telemetry.json").read_text()
    )
    log(f"worker census: {telemetry['pool']['workers']}")
    log("OK: fleet execution is byte-identical to single-host, and the "
        "warm campaign re-simulated nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
