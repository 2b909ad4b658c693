"""One signer helper process: the RSA private-key permutation over a pipe.

:class:`repro.service.signers.SignerPool` starts this file as a script,
``python -I -S signer_helper.py``, so the helper loads only the
interpreter core: it imports nothing, not even the ``repro`` package
(which alone takes hundreds of milliseconds to import).

Protocol, one request per line on standard input, all integers in
lowercase hexadecimal separated by single spaces::

    p q d_p d_q q_inv c

The reply is one line on standard output, ``m`` with ``m = c^d mod n``,
computed with the same CRT steps as
:meth:`repro.crypto.rsa.RSAPrivateKey.decrypt_int`.  The helper keeps no
state between requests and exits when its standard input closes, which
is also what happens when the process that started it dies.
"""


def permute(c, p, q, d_p, d_q, q_inv):
    """``c^d mod pq`` by the Chinese Remainder Theorem."""
    m1 = pow(c, d_p, p)
    m2 = pow(c, d_q, q)
    h = (q_inv * (m1 - m2)) % p
    return m2 + h * q


def serve(requests, replies):
    """Answer request lines from ``requests`` until it is exhausted."""
    for line in requests:
        p, q, d_p, d_q, q_inv, c = [int(field, 16) for field in line.split()]
        m = permute(c, p, q, d_p, d_q, q_inv)
        replies.write(format(m, "x").encode("ascii") + b"\n")
        replies.flush()


if __name__ == "__main__":
    import sys

    serve(sys.stdin.buffer, sys.stdout.buffer)
