"""Microbenchmarks of the checksum building blocks.

Decomposes the per-record cost the figures aggregate: node hashing,
payload construction, RSA signing (the paper's scheme), and signature
verification — plus HMAC/null signing for the cost comparison the
signature ablation reports.
"""

import random

import pytest

from repro.core import checksum as payloads
from repro.core.merkle import batch_audit_paths, batch_leaf, subtree_digest
from repro.crypto import pkcs1
from repro.crypto.hashing import get_algorithm, hash_bytes
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import (
    HMACSignatureScheme,
    MerkleBatchSignatureScheme,
    NullSignatureScheme,
    RSASignatureScheme,
)
from repro.model.values import encode_node
from repro.workloads.synthetic import build_forest, tables_for


@pytest.fixture(scope="module")
def rsa_scheme(bench_key_bits):
    keypair = generate_keypair(bench_key_bits, rng=random.Random(5))
    return RSASignatureScheme(keypair.private)


def test_node_hash(benchmark):
    payload = encode_node("db/t1/r100/a3", 123456)
    digest = benchmark(hash_bytes, payload)
    assert len(digest) == 20


def test_update_payload_construction(benchmark):
    in_digest = hash_bytes(b"in")
    out_digest = hash_bytes(b"out")
    prev = b"\x42" * 128
    result = benchmark(payloads.update_payload, in_digest, out_digest, prev)
    assert result


def test_aggregate_payload_construction(benchmark):
    digests = [hash_bytes(bytes([i])) for i in range(10)]
    prevs = [bytes([i]) * 128 for i in range(10)]
    out = hash_bytes(b"out")
    result = benchmark(payloads.aggregate_payload, digests, out, prevs)
    assert result


def test_rsa_sign(benchmark, rsa_scheme):
    signature = benchmark(rsa_scheme.sign, b"checksum payload")
    assert rsa_scheme.verify(b"checksum payload", signature)


def test_rsa_verify(benchmark, rsa_scheme):
    signature = rsa_scheme.sign(b"checksum payload")
    assert benchmark(rsa_scheme.verify, b"checksum payload", signature)


def test_pkcs1_encode(benchmark):
    em_len = 128  # 1024-bit modulus, as in the paper
    em = benchmark(pkcs1.encode, b"checksum payload", em_len)
    # Micro-assert: the cached-prefix fast path must stay byte-identical
    # to the naive RFC 8017 §9.2 construction.
    t = pkcs1.digest_info_prefix("sha1") + get_algorithm("sha1").digest(
        b"checksum payload"
    )
    naive = b"\x00\x01" + b"\xff" * (em_len - len(t) - 3) + b"\x00" + t
    assert em == naive


def test_merkle_batch_sign(benchmark, bench_key_bits):
    keypair = generate_keypair(bench_key_bits, rng=random.Random(5))
    scheme = MerkleBatchSignatureScheme(keypair.private)
    leaf = benchmark(scheme.sign, b"checksum payload")
    assert len(leaf) == 20


def test_merkle_batch_seal(benchmark, bench_key_bits):
    keypair = generate_keypair(bench_key_bits, rng=random.Random(5))
    scheme = MerkleBatchSignatureScheme(keypair.private)
    flush_payloads = [f"checksum payload {i}".encode() for i in range(64)]

    def seal_one_flush():
        return scheme.seal_batch([scheme.sign(payload) for payload in flush_payloads])

    proofs = benchmark(seal_one_flush)
    assert len(proofs) == len(flush_payloads)


def test_merkle_audit_paths(benchmark):
    leaves = [batch_leaf(f"payload {i}".encode()) for i in range(64)]
    paths = benchmark(batch_audit_paths, leaves)
    assert len(paths) == len(leaves)


def test_hmac_sign(benchmark):
    scheme = HMACSignatureScheme(b"key")
    benchmark(scheme.sign, b"checksum payload")


def test_null_sign(benchmark):
    scheme = NullSignatureScheme()
    benchmark(scheme.sign, b"checksum payload")


def test_small_subtree_digest(benchmark, bench_scale):
    forest = build_forest(tables_for((1,), scale=min(bench_scale, 0.01)))
    row = forest.children("db/t1")[0]
    digest = benchmark(subtree_digest, forest, row)
    assert len(digest) == 20
