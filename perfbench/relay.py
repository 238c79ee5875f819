"""A loopback TCP relay that counts what clients send to the server.

Used only by the traced run, to count the wire traffic of the client
layer from outside it: bytes, and frames — text lines, or binary
``<BI``-headed frames once a ``HELLO proto=2`` has upgraded the
connection (``docs/wire-protocol.md``).
"""

from __future__ import annotations

import asyncio
import struct

_HEADER = struct.Struct("<BI")


class _FrameCounter:
    """Counts frames in one client→server byte stream."""

    def __init__(self, binary: bool) -> None:
        self._upgrade = binary
        self._binary = False
        self._buf = bytearray()
        self.frames = 0

    def feed(self, data: bytes) -> None:
        self._buf += data
        while True:
            if not self._binary:
                end = self._buf.find(b"\n")
                if end < 0:
                    return
                line = bytes(self._buf[:end])
                del self._buf[: end + 1]
                self.frames += 1
                if self._upgrade and line.startswith(b"HELLO"):
                    self._binary = True  # every later byte is framed
                continue
            if len(self._buf) < _HEADER.size:
                return
            _, length = _HEADER.unpack_from(self._buf)
            if len(self._buf) < _HEADER.size + length:
                return
            del self._buf[: _HEADER.size + length]
            self.frames += 1


class CountingRelay:
    """Forwards every accepted connection to ``target_port``."""

    def __init__(self, target_port: int, *, binary: bool) -> None:
        self.target_port = target_port
        self.binary = binary
        self.port = 0
        self.bytes_up = 0
        self.frames_up = 0
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._accept, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    async def _accept(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        counter = _FrameCounter(self.binary)
        try:
            up_reader, up_writer = await asyncio.open_connection(
                "127.0.0.1", self.target_port
            )
        except OSError:
            writer.close()
            self._tasks.discard(task)
            return
        try:
            await asyncio.gather(
                self._pipe(reader, up_writer, counter),
                self._pipe(up_reader, writer, None),
            )
        finally:
            self.frames_up += counter.frames
            for w in (writer, up_writer):
                w.close()
            self._tasks.discard(task)

    async def _pipe(self, reader, writer, counter) -> None:
        try:
            while data := await reader.read(65536):
                if counter is not None:
                    self.bytes_up += len(data)
                    counter.feed(data)
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            if writer.can_write_eof():
                try:
                    writer.write_eof()
                except OSError:
                    pass
