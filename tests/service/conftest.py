"""Service-suite fixtures: a running HTTP server with small keys.

Everything is seeded; two servers (or a server and a direct
:class:`ProvenanceService`) built by these helpers from the same seed
produce byte-identical responses, which the equivalence suite exploits.
"""

from __future__ import annotations

import pytest

from repro.service import ProvenanceHTTPServer, ServiceClient, ServiceConfig

#: Small keys keep the suite fast; RSA math is identical at any size.
TEST_KEY_BITS = 512

#: One seed for the whole suite so fixtures and reference worlds agree.
SERVICE_SEED = 11


def make_config(**overrides) -> ServiceConfig:
    params = dict(seed=SERVICE_SEED, key_bits=TEST_KEY_BITS)
    params.update(overrides)
    return ServiceConfig(**params)


@pytest.fixture
def server_factory():
    """Build background servers that are always torn down."""
    servers = []

    def build(**overrides) -> ProvenanceHTTPServer:
        server = ProvenanceHTTPServer(config=make_config(**overrides))
        server.start_background()
        servers.append(server)
        return server

    yield build
    for server in servers:
        server.stop()


@pytest.fixture
def server(server_factory):
    return server_factory()


@pytest.fixture
def admin(server) -> ServiceClient:
    with ServiceClient(server.base_url, token=server.service.admin_token) as client:
        yield client


@pytest.fixture
def tenant_client(server, admin):
    """tenant id -> an authenticated client for that tenant."""
    cache = {}

    def client_for(tenant: str) -> ServiceClient:
        if tenant not in cache:
            token = admin.issue_key(tenant)["token"]
            cache[tenant] = ServiceClient(server.base_url, token=token)
        return cache[tenant]

    yield client_for
    for client in cache.values():
        client.close()
