"""Raw HTTP helpers shared by the coordinator tests.

The tests speak the same stdlib-only wire format the service implements
(hand-rolled on asyncio streams, one exchange per connection), so they
need no test dependencies beyond pytest.
"""

import asyncio
import json

from repro.campaign.queue import shard_payload_crc


async def exchange(port, method, path, payload=None, headers=None):
    """One HTTP exchange against loopback.

    Returns ``(status, headers, body)``: response headers lowercased,
    body decoded from JSON.  ``headers`` are extra request headers (e.g.
    HMAC signature headers).
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "Connection: close\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = head_blob.decode("latin-1").split("\r\n")
    response_headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    return (
        int(lines[0].split()[1]),
        response_headers,
        json.loads(body_blob.decode("utf-8")),
    )


async def request(port, method, path, payload=None, headers=None):
    """:func:`exchange` without the response headers: ``(status, body)``."""
    status, _, body = await exchange(port, method, path, payload, headers)
    return status, body


async def submit_fleet(port, spec):
    """Submit ``spec`` for fleet execution; returns the campaign id."""
    status, payload = await request(
        port, "POST", "/campaigns",
        {"spec": spec.to_dict(), "execution": "fleet"},
    )
    assert (status, payload["state"]) == (202, "fleet")
    return payload["id"]


def snapshot(root):
    """path → bytes of every file under ``root`` (zero-mutation checks)."""
    return {
        str(path): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def sync(worker="w1", acquire=False, commits=(), releases=(), heartbeats=()):
    """A ``POST /fabric/sync`` body.  Unlike a worker's tick it acquires
    nothing unless asked, so a test can send entries without being
    handed a lease."""
    return {
        "worker": worker,
        "acquire": acquire,
        "commits": list(commits),
        "releases": list(releases),
        "heartbeats": list(heartbeats),
    }


def commit(campaign, lease, summaries, crc=None):
    """A sync ``commits`` entry for ``lease``'s shard (CRC of the
    summaries unless ``crc`` overrides it)."""
    return {
        "campaign": campaign,
        "shard": lease["shard"],
        "token": lease["token"],
        "crc": shard_payload_crc(summaries) if crc is None else crc,
        "summaries": summaries,
    }
