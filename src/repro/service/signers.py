"""Per-record RSA signatures computed in helper processes.

A 1024-bit signature in pure Python holds the GIL for about 1.8 ms: two
512-bit ``pow`` calls under CRT.  In a threaded server that is time no
other request can run, however many CPUs the host has.  A
:class:`SignerPool` keeps one helper process per usable CPU
(:mod:`repro.service.signer_helper`, started on first use).  A thread
that signs writes the private key and the message representatives to a
helper's pipe and waits for the reply with the GIL released, so another
request's work runs meanwhile.  When only one CPU is usable there is no
pool: a helper would only compete with the server for that CPU.

:class:`PooledRSASignatureScheme` is per-record RSA over such a pool.
Its signatures are byte-identical to :class:`RSASignatureScheme`'s: the
helpers run the permutation of
:meth:`~repro.crypto.rsa.RSAPrivateKey.decrypt_int` on the same
EMSA-PKCS1-v1_5 representatives.  A chunk whose helper dies is signed
in-process instead and counted on ``crypto.sign.degraded_chunks``, as
:class:`~repro.core.verifier.ParallelVerifier` counts a degraded verify
chunk; the helper is replaced by a fresh process on its next use.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from typing import Iterator, List, Optional, Sequence

from repro import obs
from repro.crypto import pkcs1
from repro.crypto.rsa import RSAPrivateKey
from repro.crypto.signatures import RSASignatureScheme
from repro.exceptions import CryptoError
from repro.obs import OBS

__all__ = ["SignerPool", "PooledRSASignatureScheme", "usable_cpus"]

#: The helper, run as a script so that it never imports ``repro``.
HELPER_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "signer_helper.py")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


class _Helper:
    """One helper process, started on first use and after each failure."""

    #: Seconds a stopping helper gets to exit on EOF before it is killed.
    STOP_TIMEOUT = 2.0

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None

    def send(self, key: RSAPrivateKey, values: Sequence[int]) -> bool:
        """Write one request; False if the helper could not take it."""
        fields = (key.p, key.q, key.d_p, key.d_q, key.q_inv, *values)
        line = " ".join(format(field, "x") for field in fields).encode("ascii")
        try:
            if self.proc is None:
                # -I -S: no site, no user paths, no script directory on
                # sys.path.  A new session keeps a terminal's Ctrl-C for
                # the server, which stops its helpers itself.
                self.proc = subprocess.Popen(
                    [sys.executable, "-I", "-S", HELPER_SCRIPT],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    start_new_session=True,
                )
            self.proc.stdin.write(line + b"\n")
            self.proc.stdin.flush()
        except (OSError, ValueError):  # no interpreter, or a dead helper's pipe
            return False
        return True

    def receive(self, count: int) -> Optional[List[int]]:
        """The reply to the last request, or None if the helper sent none."""
        try:
            fields = self.proc.stdout.readline().split()
            if len(fields) == count:
                return [int(field, 16) for field in fields]
        except (OSError, ValueError):
            pass
        return None

    def stop(self, kill: bool = False) -> None:
        """End the process (EOF on its stdin, or SIGKILL) and reap it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if kill:
            proc.kill()
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:  # a dead helper's pipe
                pass
        try:
            proc.wait(timeout=self.STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _split(values: Sequence[int], parts: int) -> List[Sequence[int]]:
    """``values`` as ``parts`` contiguous chunks whose sizes differ by at most 1."""
    size, extra = divmod(len(values), parts)
    chunks, start = [], 0
    for part in range(parts):
        end = start + size + (part < extra)
        chunks.append(values[start:end])
        start = end
    return chunks


class SignerPool:
    """Helper processes running RSA private-key permutations off the GIL.

    Args:
        size: Number of helpers.  :meth:`for_host` picks one per usable
            CPU.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"a signer pool needs at least one helper, got {size}")
        self.size = size
        self._idle: List[_Helper] = [_Helper() for _ in range(size)]
        self._cond = threading.Condition()
        self._closed = False
        #: Chunks signed in-process because their helper failed.
        self.degraded_chunks = 0

    @classmethod
    def for_host(cls) -> Optional["SignerPool"]:
        """One helper per usable CPU, or None when only one is usable."""
        cpus = usable_cpus()
        return cls(cpus) if cpus > 1 else None

    def pids(self) -> List[int]:
        """Process ids of the helpers that are running and idle."""
        with self._cond:
            return [h.proc.pid for h in self._idle if h.proc is not None]

    def permute(self, key: RSAPrivateKey, values: Sequence[int]) -> Iterator[int]:
        """Yield ``key.decrypt_int(c)`` for each ``c`` of ``values``, in order.

        On the first ``next()``, the values are split into one contiguous
        chunk per helper taken (the first idle one is waited for, the
        others are taken only if idle) and every chunk is sent before
        any reply is read.  Close the iterator if it is not exhausted.

        Raises:
            CryptoError: If a value is out of range ``[0, n)``.
        """
        if any(not 0 <= c < key.n for c in values):
            raise CryptoError("ciphertext representative out of range for modulus")
        if not values:
            return
        helpers = self._acquire(len(values))
        if not helpers:  # closed: sign in-process
            yield from (key.decrypt_int(c) for c in values)
            return
        chunks = _split(values, len(helpers))
        sent = [helper.send(key, chunk) for helper, chunk in zip(helpers, chunks)]
        read = 0
        try:
            for helper, chunk, ok in zip(helpers, chunks, sent):
                results = self._results(helper, key, chunk, ok)
                read += 1
                yield from results
        finally:
            # A reply left unread (the caller stopped early) would answer
            # the helper's next request: replace that helper instead.
            for helper, ok in zip(helpers[read:], sent[read:]):
                if ok:
                    helper.stop(kill=True)
            self._release(helpers)

    def _results(
        self, helper: _Helper, key: RSAPrivateKey, chunk: Sequence[int], sent: bool
    ) -> List[int]:
        results = helper.receive(len(chunk)) if sent else None
        if results is not None:
            return results
        helper.stop(kill=True)
        with self._cond:
            self.degraded_chunks += 1
        if OBS.enabled:
            OBS.registry.counter("crypto.sign.degraded_chunks").inc()
        return [key.decrypt_int(c) for c in chunk]

    def _acquire(self, wanted: int) -> List[_Helper]:
        with self._cond:
            while not self._idle and not self._closed:
                self._cond.wait()
            if self._closed:
                return []
            take = min(wanted, len(self._idle))
            helpers = self._idle[-take:]
            del self._idle[-take:]
            return helpers

    def _release(self, helpers: List[_Helper]) -> None:
        with self._cond:
            if not self._closed:
                self._idle.extend(helpers)
                self._cond.notify(len(helpers))
                return
        for helper in helpers:
            helper.stop()

    def close(self) -> None:
        """Stop every helper; later signing runs in-process.

        A helper busy with a request stops when that request returns it.
        """
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._cond.notify_all()
        for helper in idle:
            helper.stop()

    def __repr__(self) -> str:
        return f"SignerPool(size={self.size}, closed={self._closed})"


class PooledRSASignatureScheme(RSASignatureScheme):
    """Per-record RSA whose private-key permutation runs in a :class:`SignerPool`.

    :meth:`sign_many` sends a whole flush's messages in one call, spread
    over the idle helpers.  Each signature still counts once on
    ``crypto.sign.count`` and enters ``rsa.sign`` once; that phase times
    the wait for its signature.
    """

    def __init__(self, scheme: RSASignatureScheme, pool: SignerPool):
        super().__init__(scheme.private_key, scheme.hash_algorithm)
        self.pool = pool

    def sign(self, message: bytes) -> bytes:
        return self.sign_many((message,))[0]

    def sign_many(self, messages: Sequence[bytes]) -> List[bytes]:
        """Signatures of ``messages``, in order; the same bytes as :meth:`sign`."""
        k = self.private_key.byte_size
        values = [
            int.from_bytes(pkcs1.encode(message, k, self.hash_algorithm), "big")
            for message in messages
        ]
        results = self.pool.permute(self.private_key, values)
        try:
            return [self._signature(results, k) for _ in values]
        finally:
            results.close()

    @obs.phase("rsa.sign", scheme=RSASignatureScheme.scheme_name)
    def _signature(self, results: Iterator[int], k: int) -> bytes:
        if OBS.enabled:
            OBS.registry.counter("crypto.sign.count", scheme=self.scheme_name).inc()
        return next(results).to_bytes(k, "big")

    def __repr__(self) -> str:
        return (
            f"PooledRSASignatureScheme(key={self.public_key.fingerprint()}, "
            f"hash={self.hash_algorithm}, pool={self.pool!r})"
        )
