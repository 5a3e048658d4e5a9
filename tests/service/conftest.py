"""Fixtures for the analysis-service tests."""
from __future__ import annotations

import threading

import pytest

from repro.service import AnalysisService, ServiceClient, create_server

ON_OFF = r"""
\constant{K}{2}
\model{
  \place{on}{K}
  \place{off}{0}
  \transition{fail}{
    \condition{on > 0}
    \action{ next->on = on - 1; next->off = off + 1; }
    \weight{1.0}
    \priority{1}
    \sojourntimeLT{ return erlangLT(2.0, 2, s); }
  }
  \transition{repair}{
    \condition{off > 0}
    \action{ next->on = on + 1; next->off = off - 1; }
    \weight{2.0}
    \priority{1}
    \sojourntimeLT{ return uniformLT(0.5, 1.5, s); }
  }
}
"""


@pytest.fixture
def onoff_spec() -> str:
    return ON_OFF


@pytest.fixture
def service() -> AnalysisService:
    return AnalysisService()


@pytest.fixture
def http_client(service):
    """A client talking to an in-process server on an ephemeral port."""
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
