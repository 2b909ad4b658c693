"""Merkle-batch root seals computed in helper processes.

A served commit costs one RSA signature, the root seal of its Merkle
batch.  A 1024-bit signature in pure Python holds the GIL for about
1.8 ms: two 512-bit ``pow`` calls under CRT.  In a threaded server that
is time no other request can run, however many CPUs the host has.  A
:class:`SignerPool` keeps one helper process per usable CPU
(:mod:`repro.service.signer_helper`, started on first use).  A thread
that seals writes the private key and the message representative to an
idle helper's pipe and waits for the reply with the GIL released, so
another request's work runs meanwhile.  When only one CPU is usable
there is no pool: a helper would only compete with the server for that
CPU.

:class:`PooledRSASignatureScheme` is the root signer over such a pool.
Its signatures are byte-identical to :class:`RSASignatureScheme`'s: the
helpers run the permutation of
:meth:`~repro.crypto.rsa.RSAPrivateKey.decrypt_int` on the same
EMSA-PKCS1-v1_5 representative.  A seal whose helper dies is signed
in-process instead and counted on ``crypto.sign.degraded_chunks``, as
:class:`~repro.core.verifier.ParallelVerifier` counts a degraded verify
chunk; the helper is replaced by a fresh process on its next use.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from typing import List, Optional

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

    def permute(self, key: RSAPrivateKey, c: int) -> Optional[int]:
        """``key.decrypt_int(c)``, or None if the helper could not answer."""
        fields = (key.p, key.q, key.d_p, key.d_q, key.q_inv, c)
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
            reply = self.proc.stdout.readline()
            return int(reply, 16) if reply.endswith(b"\n") else None
        except (OSError, ValueError):  # no interpreter, or a dead helper's pipe
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


class SignerPool:
    """Helper processes running RSA private-key permutations off the GIL.

    Each :meth:`permute` call runs one permutation on one idle helper.

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
        #: Signatures computed in-process because their helper failed.
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

    def permute(self, key: RSAPrivateKey, c: int) -> int:
        """``key.decrypt_int(c)``, computed on the next idle helper.

        Raises:
            CryptoError: If ``c`` is out of range ``[0, n)``.
        """
        if not 0 <= c < key.n:
            raise CryptoError("ciphertext representative out of range for modulus")
        with self._cond:
            while not self._idle and not self._closed:
                self._cond.wait()
            helper = None if self._closed else self._idle.pop()
        if helper is None:  # closed: sign in-process
            return key.decrypt_int(c)
        m = None
        try:
            m = helper.permute(key, c)
        finally:
            if m is None:
                # No reply, or one left unread by an interrupted caller
                # that would answer the next request: replace the helper.
                helper.stop(kill=True)
            self._release(helper)
        if m is None:
            with self._cond:
                self.degraded_chunks += 1
            if OBS.enabled:
                OBS.registry.counter("crypto.sign.degraded_chunks").inc()
            m = key.decrypt_int(c)
        return m

    def _release(self, helper: _Helper) -> None:
        with self._cond:
            if not self._closed:
                self._idle.append(helper)
                self._cond.notify()
                return
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
    """RSA whose private-key permutation runs in a :class:`SignerPool`.

    The service's Merkle-batch root signer.  Each signature still counts
    once on ``crypto.sign.count`` and enters ``rsa.sign`` once; that
    phase times the wait for its helper.
    """

    def __init__(self, scheme: RSASignatureScheme, pool: SignerPool):
        super().__init__(scheme.private_key, scheme.hash_algorithm)
        self.pool = pool

    def _permute(self, m: int) -> int:
        return self.pool.permute(self.private_key, m)

    def __repr__(self) -> str:
        return (
            f"PooledRSASignatureScheme(key={self.public_key.fingerprint()}, "
            f"hash={self.hash_algorithm}, pool={self.pool!r})"
        )
