"""Client error contract: every failed call raises ``ServiceError``.

A throwaway socket server stands in for a daemon that fails in the three
ways ``urllib`` leaves unwrapped: it closes the connection without an
answer, it does not answer within the client's timeout, or it answers 2xx
with a body that is not JSON.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.service import ServiceClient, ServiceError


@pytest.fixture()
def fake_daemon():
    """``start(reply)``: a client for a server that calls ``reply(connection)``.

    The server accepts one connection, reads the request head and hands the
    connection to ``reply``; the connection closes when ``reply`` returns.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    threads = []

    def start(reply):
        def serve():
            connection, _ = listener.accept()
            with connection:
                head = b""
                while b"\r\n\r\n" not in head:
                    chunk = connection.recv(4096)
                    if not chunk:
                        return
                    head += chunk
                reply(connection)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        host, port = listener.getsockname()
        return ServiceClient(f"http://{host}:{port}", timeout=0.5)

    yield start
    for thread in threads:
        thread.join(timeout=10.0)
    listener.close()


@pytest.mark.parametrize("call", ["healthz", "metrics"])
def test_a_daemon_closing_without_an_answer_is_a_service_error(fake_daemon, call):
    client = fake_daemon(lambda connection: None)
    with pytest.raises(ServiceError) as excinfo:
        getattr(client, call)()
    assert excinfo.value.status is None


@pytest.mark.parametrize("call", ["healthz", "metrics"])
def test_no_answer_within_the_timeout_is_a_service_error(fake_daemon, call):
    released = threading.Event()
    client = fake_daemon(lambda connection: released.wait(10.0))
    try:
        with pytest.raises(ServiceError) as excinfo:
            getattr(client, call)()
    finally:
        released.set()
    assert excinfo.value.status is None


def test_a_2xx_body_that_is_not_json_is_a_service_error(fake_daemon):
    body = b"<html>not json</html>"
    head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    head += b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
    client = fake_daemon(lambda connection: connection.sendall(head + body))
    with pytest.raises(ServiceError) as excinfo:
        client.healthz()
    assert excinfo.value.status == 200
