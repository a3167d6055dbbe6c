"""Worker process for fleet-warm: one ``WorkerAgent`` pulling from the
benchmark's coordinator.

    python3 perfbench/worker_child.py URL WORKDIR JOBS TRACE OUT

With TRACE=1 the layer wrappers are installed first.  A ``.ready`` file
next to OUT appears once the agent is built; SIGTERM drains the agent,
after which its counters (and spans, when traced) are written to OUT.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402


def main(argv) -> int:
    url, workdir, jobs, traced, out = argv
    if traced == "1":
        tracer.install()
    from repro.campaign.worker import WorkerAgent

    agent = WorkerAgent(
        url, workdir, name="perfbench-worker", jobs=int(jobs),
        poll_interval=0.002, rpc_timeout=120.0,
    )
    agent.install_signal_handlers()
    out = pathlib.Path(out)
    out.with_suffix(".ready").touch()
    code = agent.run_forever()
    report = {
        "exit_code": code,
        "requests": agent.client.requests,
        "connections": agent.client.connections_opened,
        "wearers_run": agent.wearers_run,
        "spans": tracer.RECORDER.spans,
    }
    out.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
