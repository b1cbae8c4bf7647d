"""MicroBatcher + PredictionServer: coalescing, protocol, parity,
shutdown races, load shedding and hot-reload."""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import (
    BatcherClosed,
    InferenceSession,
    MicroBatcher,
    ModelRegistry,
    PredictionServer,
    ServerError,
    predict_remote,
    server_health,
    server_models,
)


class _FakeResult:
    def __init__(self, batch):
        self.predictions = np.arange(len(batch)) + int(batch[0].flat[0])
        self.batch_size = len(batch)


class TestMicroBatcher:
    def test_concurrent_submits_coalesce(self):
        batch_sizes = []

        def slow_predict(batch):
            batch_sizes.append(len(batch))
            time.sleep(0.01)
            return _FakeResult(batch)

        with MicroBatcher(slow_predict, max_batch=8,
                          max_wait_s=0.1) as batcher:
            with ThreadPoolExecutor(6) as pool:
                futures = list(pool.map(
                    lambda i: batcher.submit(np.full((1, 2), i)),
                    range(6)))
                outcomes = [f.result(timeout=10) for f in futures]
        assert batcher.num_items == 6
        assert batcher.num_batches == len(batch_sizes)
        assert sum(batch_sizes) == 6
        assert max(batch_sizes) > 1          # some coalescing happened
        for i, (class_id, batch_result) in enumerate(outcomes):
            assert isinstance(class_id, int)
            assert batch_result.batch_size >= 1

    def test_never_exceeds_max_batch(self):
        batch_sizes = []

        def predict(batch):
            batch_sizes.append(len(batch))
            return _FakeResult(batch)

        with MicroBatcher(predict, max_batch=2, max_wait_s=0.5) as batcher:
            futures = [batcher.submit(np.zeros((1, 1))) for _ in range(7)]
            for f in futures:
                f.result(timeout=10)
        assert max(batch_sizes) <= 2

    def test_predict_error_fans_out(self):
        def broken(batch):
            raise RuntimeError("boom")

        with MicroBatcher(broken, max_batch=4) as batcher:
            future = batcher.submit(np.zeros((1, 1)))
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=10)

    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(lambda b: _FakeResult(b), max_batch=2)
        batcher.close()
        with pytest.raises(BatcherClosed, match="closed"):
            batcher.submit(np.zeros((1, 1)))

    def test_close_drains_already_queued_items(self):
        """Items accepted before close() resolve normally, never hang."""
        def slow_predict(batch):
            time.sleep(0.02)
            return _FakeResult(batch)

        batcher = MicroBatcher(slow_predict, max_batch=2, max_wait_s=0.0)
        futures = [batcher.submit(np.zeros((1, 1))) for _ in range(6)]
        batcher.close()
        for future in futures:
            class_id, _ = future.result(timeout=10)   # served, not lost
            assert isinstance(class_id, int)
        assert batcher.num_items == 6
        assert batcher.pending == 0

    def test_submit_close_race_never_strands_a_future(self):
        """A submit racing close() either resolves or fails loudly.

        The pre-fix failure mode: the submit passes the closed check,
        close() enqueues the stop sentinel, the item lands *after* it,
        the dispatcher exits, and the caller hangs on its future for
        the full request timeout.  Hammer the interleaving and require
        every future to settle within a bounded wait.
        """
        for _ in range(30):
            batcher = MicroBatcher(lambda b: _FakeResult(b), max_batch=4,
                                   max_wait_s=0.0)
            futures, errors = [], []
            start = threading.Barrier(3)

            def submitter():
                start.wait()
                for _ in range(20):
                    try:
                        futures.append(
                            batcher.submit(np.zeros((1, 1))))
                    except BatcherClosed:
                        errors.append("closed")
                        return

            threads = [threading.Thread(target=submitter)
                       for _ in range(2)]
            for t in threads:
                t.start()
            start.wait()
            batcher.close()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            for future in futures:
                try:
                    class_id, _ = future.result(timeout=5)  # must settle
                    assert isinstance(class_id, int)
                except BatcherClosed:
                    pass                  # failed loudly: acceptable

    def test_mismatched_shapes_fail_their_batch_not_the_batcher(self):
        # two coalesced images np.stack cannot join: the batch fails,
        # and the dispatcher thread lives on to serve the next one
        with MicroBatcher(lambda b: _FakeResult(b), max_batch=4,
                          max_wait_s=0.5) as batcher:
            futures = [batcher.submit(np.zeros((3, 8, 8))),
                       batcher.submit(np.zeros((3, 4, 4)))]
            for future in futures:
                with pytest.raises(ValueError):
                    future.result(timeout=10)
            later = batcher.submit(np.zeros((3, 8, 8)))
            class_id, _ = later.result(timeout=10)
            assert class_id == 0

    @pytest.mark.parametrize("max_batch, queued, sizes", [
        (8, 3, [1, 3]),
        (2, 5, [1, 2, 2, 1]),
    ])
    def test_zero_wait_dispatches_everything_already_queued(
            self, max_batch, queued, sizes):
        # items queue up while the first batch runs; with no wait the
        # dispatcher must still take them all (up to max_batch) next
        entered, release = threading.Event(), threading.Event()
        batch_sizes = []

        def gated(batch):
            batch_sizes.append(len(batch))
            entered.set()
            release.wait(timeout=10)
            return _FakeResult(batch)

        with MicroBatcher(gated, max_batch=max_batch,
                          max_wait_s=0.0) as batcher:
            futures = [batcher.submit(np.zeros((1, 1)))]
            assert entered.wait(timeout=10)
            futures += [batcher.submit(np.zeros((1, 1)))
                        for _ in range(queued)]
            release.set()
            for future in futures:
                future.result(timeout=10)
        assert batch_sizes == sizes

    def test_pending_counts_unresolved_items(self):
        release = threading.Event()

        def gated(batch):
            release.wait(timeout=10)
            return _FakeResult(batch)

        with MicroBatcher(gated, max_batch=8, max_wait_s=0.0) as batcher:
            futures = [batcher.submit(np.zeros((1, 1))) for _ in range(3)]
            assert batcher.pending == 3
            release.set()
            for future in futures:
                future.result(timeout=10)
            assert batcher.pending == 0


@pytest.fixture(scope="module")
def server(micro_registry):
    with PredictionServer(micro_registry, port=0,
                          batch_wait_s=0.01) as srv:
        yield srv


class TestPredictionServer:
    def test_healthz_and_models(self, server):
        health = server_health(server.url)
        assert health["status"] == "ok"
        assert health["models"] == ["micro"]
        listing = server_models(server.url)["models"]
        assert listing[0]["name"] == "micro"
        assert listing[0]["aliases"] == {"latest": "v1"}

    def test_predictions_match_local_session(self, server, micro_bundle,
                                             tiny_dataset):
        x = tiny_dataset.test_x[:10]
        expected = InferenceSession(micro_bundle,
                                    warmup=False).predict(x).predictions
        response = predict_remote(server.url, "micro:latest", x)
        assert response["predictions"] == [int(p) for p in expected]
        metrics = response["metrics"]
        assert metrics["num_inputs"] == 10
        assert metrics["total_spikes"] > 0
        assert metrics["scheme"] == "ttfs-closed-form"

    def test_concurrent_requests_batched_and_correct(self, server,
                                                     micro_bundle,
                                                     tiny_dataset):
        x = tiny_dataset.test_x[:8]
        expected = InferenceSession(micro_bundle,
                                    warmup=False).predict(x).predictions
        with ThreadPoolExecutor(8) as pool:
            responses = list(pool.map(
                lambda i: predict_remote(server.url, "micro", x[i:i + 1]),
                range(8)))
        assert [r["predictions"][0] for r in responses] == \
            [int(p) for p in expected]
        # one warm session serves every spec of the same version
        stats = server_health(server.url)["sessions"]
        assert len(stats) == 1

    def test_unknown_model_is_404_with_suggestion(self, server,
                                                  tiny_dataset):
        with pytest.raises(ServerError, match="did you mean 'micro'"):
            predict_remote(server.url, "micr", tiny_dataset.test_x[:1])

    def test_bad_requests_are_400s(self, server):
        status, body = server.handle_predict({"inputs": [[0.0]]})
        assert status == 400 and "model" in body["error"]
        status, body = server.handle_predict({"model": "micro"})
        assert status == 400 and "inputs" in body["error"]
        status, body = server.handle_predict(
            {"model": "micro", "inputs": [[0.0, "x"]]})
        assert status == 400 and "numeric" in body["error"]
        status, body = server.handle_predict(
            {"model": "micro", "inputs": [0.0, 1.0]})
        assert status == 400 and "NCHW" in body["error"]
        status, body = server.handle_predict([1, 2, 3])
        assert status == 400 and "JSON object" in body["error"]

    def test_non_finite_inputs_are_400s(self, server):
        for bad in (float("nan"), float("inf"), -float("inf")):
            image = np.zeros((3, 8, 8))
            image[1, 2, 3] = bad
            status, body = server.handle_predict(
                {"model": "micro", "inputs": image.tolist()})
            assert status == 400 and "finite" in body["error"]

    def test_wrong_image_shape_is_400(self, server):
        status, body = server.handle_predict(
            {"model": "micro", "inputs": np.zeros((3, 4, 4)).tolist()})
        assert status == 400
        assert "[3, 8, 8]" in body["error"] and "[3, 4, 4]" in body["error"]

    def test_unreachable_server_message(self):
        with pytest.raises(ServerError, match="cannot reach"):
            server_health("http://127.0.0.1:1", timeout=1)


class TestBatchIsolation:
    def test_valid_request_survives_a_wrong_shape_neighbour(
            self, micro_registry, tiny_dataset):
        # a long coalescing window puts both requests in one micro-batch
        # unless the bad one is turned away before it queues
        good = {"model": "micro", "inputs": tiny_dataset.test_x[:1].tolist()}
        bad = {"model": "micro", "inputs": np.zeros((1, 3, 4, 4)).tolist()}
        with PredictionServer(micro_registry, port=0,
                              batch_wait_s=0.5) as srv:
            srv.handle_predict(good)          # open the channel first
            pool = ThreadPoolExecutor(2)
            try:
                futures = [pool.submit(srv.handle_predict, payload)
                           for payload in (good, bad)]
                (good_status, _), (bad_status, _) = [
                    f.result(timeout=30) for f in futures]
            finally:
                pool.shutdown(wait=False)
            assert (good_status, bad_status) == (200, 400)
            status, _ = srv.handle_predict(good)
            assert status == 200


class TestCounterThreadSafety:
    def test_request_and_shed_counters_are_exact(self, micro_registry):
        """The counters increment under the server lock, so N threads
        hammering them lose no updates (the pre-fix ``+= 1`` raced)."""
        server = PredictionServer(micro_registry)    # never started: unit
        threads, per_thread = 8, 250
        start = threading.Barrier(threads)

        def hammer():
            start.wait()
            for _ in range(per_thread):
                server._record_request()
                server._record_shed()

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=30)
        assert server.num_requests == threads * per_thread
        assert server.num_shed == threads * per_thread


class TestLoadShedding:
    def test_overflow_sheds_503_and_nothing_hangs(self, micro_registry,
                                                  tiny_dataset):
        """With ``max_queue=2`` and a gated channel, 2 of 8 concurrent
        requests are admitted and 6 shed with 503 + retry_after_s —
        nobody waits on an unbounded queue."""
        server = PredictionServer(micro_registry, max_queue=2,
                                  warmup=False, batch_wait_s=0.0)
        try:
            channel = server.channel_for("micro")
            release = threading.Event()
            real_predict = channel._batcher.predict_fn

            def gated(batch):
                release.wait(timeout=60)
                return real_predict(batch)

            channel._batcher.predict_fn = gated
            image = tiny_dataset.test_x[:1].tolist()
            outcomes = []

            def request():
                outcomes.append(server.handle_predict(
                    {"model": "micro", "inputs": image}))

            threads = [threading.Thread(target=request) for _ in range(8)]
            for t in threads:
                t.start()
            # all 8 hit admission while the gate holds the 2 admitted
            # images in flight; wait for the shed ones to bounce
            deadline = time.monotonic() + 30
            while server.num_shed < 6 and time.monotonic() < deadline:
                time.sleep(0.005)
            release.set()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()          # nothing hangs

            statuses = sorted(status for status, _ in outcomes)
            assert statuses == [200, 200, 503, 503, 503, 503, 503, 503]
            for status, body in outcomes:
                if status == 503:
                    assert "admission queue full" in body["error"]
                    assert body["retry_after_s"] >= 1
            assert server.num_shed == 6
            _, health = server.handle_health()
            assert health["num_shed"] == 6
            assert health["max_queue"] == 2
        finally:
            release.set()
            server.close()

    def test_shed_response_carries_retry_after_header(self, micro_registry,
                                                      tiny_dataset):
        import urllib.error
        import urllib.request

        with PredictionServer(micro_registry, max_queue=1, warmup=False,
                              batch_wait_s=0.0) as server:
            channel = server.channel_for("micro")
            release = threading.Event()
            real_predict = channel._batcher.predict_fn

            def gated(batch):
                release.wait(timeout=60)
                return real_predict(batch)

            channel._batcher.predict_fn = gated
            image = tiny_dataset.test_x[:1].tolist()
            # fill the single admission slot...
            blocker = threading.Thread(target=server.handle_predict, args=(
                {"model": "micro", "inputs": image},))
            blocker.start()
            deadline = time.monotonic() + 30
            while (channel.admission.pending < 1
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            # ...then the wire-level request must shed with the header
            body = json.dumps({"model": "micro",
                               "inputs": image}).encode()
            request = urllib.request.Request(
                server.url + "/predict", data=body,
                headers={"Content-Type": "application/json"})
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=30)
                assert excinfo.value.code == 503
                assert int(excinfo.value.headers["Retry-After"]) >= 1
            finally:
                release.set()
                blocker.join(timeout=60)


class TestHotReload:
    @pytest.fixture()
    def reload_registry(self, tmp_path, micro_bundle):
        """A private registry (the shared one must stay at v1 only)."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(micro_bundle, name="micro", version="v1")
        return registry

    def test_repointed_alias_takes_effect_next_request(
            self, reload_registry, micro_bundle, tiny_dataset):
        server = PredictionServer(reload_registry, warmup=False,
                                  batch_wait_s=0.0)
        try:
            payload = {"model": "micro",
                       "inputs": tiny_dataset.test_x[:2].tolist()}
            status, body = server.handle_predict(payload)
            assert status == 200
            assert body["metrics"]["bundle"] == "micro/v1"
            # a deploy: publish v2; the default alias repoints to it
            reload_registry.publish(micro_bundle, name="micro",
                                    version="v2")
            status, body = server.handle_predict(payload)
            assert status == 200
            assert body["metrics"]["bundle"] == "micro/v2"
            # the v1 channel was retired, not leaked: /healthz shows
            # exactly one warm channel and it is v2's
            _, health = server.handle_health()
            (stats,) = health["sessions"].values()
            assert stats["bundle"] == "micro/v2"
        finally:
            server.close()

    def test_deploy_under_load_fails_zero_requests(
            self, reload_registry, micro_bundle, tiny_dataset):
        """Hammer the server across a repoint: every response is a 200.

        A submit racing the old channel's retirement gets
        ``BatcherClosed`` internally; the handler's retry re-resolves
        onto the new channel, so clients never see the deploy.
        """
        server = PredictionServer(reload_registry, warmup=False,
                                  batch_wait_s=0.0)
        try:
            image = tiny_dataset.test_x[:1].tolist()
            payload = {"model": "micro", "inputs": image}
            outcomes = []
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    outcomes.append(server.handle_predict(payload))

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.3)                       # traffic on v1
            reload_registry.publish(micro_bundle, name="micro",
                                    version="v2")
            time.sleep(0.5)                       # traffic across + on v2
            stop.set()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()

            assert outcomes
            assert {status for status, _ in outcomes} == {200}
            status, body = server.handle_predict(payload)
            assert status == 200
            assert body["metrics"]["bundle"] == "micro/v2"
        finally:
            server.close()


class TestServerOverrideValidation:
    def test_bad_overrides_fail_at_startup_with_suggestions(
            self, micro_registry):
        with pytest.raises(ValueError, match="did you mean 'event'"):
            PredictionServer(micro_registry, backend="evnt")
        with pytest.raises(KeyError, match="did you mean"):
            PredictionServer(micro_registry, scheme="ttfs-close-form")
        # a negative wait would fail every channel's batcher later
        with pytest.raises(ValueError, match="batch_wait_s"):
            PredictionServer(micro_registry, batch_wait_s=-0.001)
        # a valid alias canonicalises
        server = PredictionServer(micro_registry, scheme="ttfs")
        assert server.scheme == "ttfs-closed-form"


def _raw_post(server, length_header: str, body: bytes = b"",
              timeout: float = 5.0) -> int:
    """POST /predict over a bare socket with the given ``Content-Length``
    header; the reply's status code.  A server that waits for a body it
    will never get trips the short ``timeout``."""
    import socket

    with socket.create_connection((server.host, server.port),
                                  timeout=timeout) as sock:
        sock.sendall(b"POST /predict HTTP/1.1\r\nHost: localhost\r\n"
                     b"Content-Type: application/json\r\n"
                     + f"Content-Length: {length_header}\r\n\r\n".encode()
                     + body)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return int(reply.split(b" ", 2)[1])


class TestRequestBodyLimits:
    def test_negative_content_length_is_400_not_a_hang(self, server):
        # read(-1) would block until the client closes its socket
        assert _raw_post(server, "-1", b"{}") == 400

    def test_non_integer_content_length_is_400(self, server):
        assert _raw_post(server, "twelve", b"{}") == 400

    def test_huge_content_length_is_413_before_reading(self, server):
        # the body is never sent: a server that reads first would wait
        assert _raw_post(server, str(1 << 40)) == 413

    def test_body_over_the_configured_limit_is_413(self, micro_registry,
                                                   tiny_dataset):
        image = tiny_dataset.test_x[:1].tolist()
        body = json.dumps({"model": "micro", "inputs": image}).encode()
        with PredictionServer(micro_registry, warmup=False,
                              max_body_bytes=len(body) - 1) as server:
            assert _raw_post(server, str(len(body)), body) == 413
        with PredictionServer(micro_registry, warmup=False,
                              max_body_bytes=len(body)) as server:
            assert _raw_post(server, str(len(body)), body) == 200

    def test_default_limit_fits_a_max_batch_vgg16_request(self):
        from repro.serve import DEFAULT_MAX_BODY_BYTES

        # 32 CIFAR-sized images of full-precision floats, as
        # predict_remote sends them
        images = np.random.default_rng(0).standard_normal((32, 3, 32, 32))
        body = json.dumps({"model": "vgg16:latest",
                           "inputs": images.tolist()}).encode()
        assert len(body) < DEFAULT_MAX_BODY_BYTES

    def test_limit_must_be_positive(self, micro_registry):
        with pytest.raises(ValueError, match="max_body_bytes"):
            PredictionServer(micro_registry, max_body_bytes=0)


def _json_bodies():
    """Arbitrary JSON documents, request-shaped ones with odd fields,
    raw bytes and very deep nesting, as ``/predict`` bodies."""
    from hypothesis import strategies as st

    leaves = (st.none() | st.booleans() | st.integers()
              | st.sampled_from([10 ** 400, -(10 ** 400)])
              | st.floats() | st.text(max_size=8))
    values = st.recursive(
        leaves, lambda inner: (st.lists(inner, max_size=4)
                               | st.dictionaries(st.text(max_size=6), inner,
                                                 max_size=3)),
        max_leaves=12)
    images = st.builds(
        lambda shape, fill: np.full(shape, fill).tolist(),
        st.sampled_from([(3, 8, 8), (1, 3, 8, 8), (2, 3, 8, 8), (3, 4, 4),
                         (0, 3, 8, 8), (8, 8)]),
        st.floats(allow_nan=True, allow_infinity=True))
    requests = st.fixed_dictionaries({
        "model": st.sampled_from(["micro", "micro:latest", "micro:v9",
                                  "nope", ""]) | st.text(max_size=5) | values,
        "inputs": images | values})
    documents = (requests | values).map(
        lambda doc: json.dumps(doc).encode())
    deep = st.integers(1, 100_000).map(lambda d: b"[" * d + b"]" * d)
    return documents | deep | st.binary(max_size=64)


class TestHostileBodies:
    """Every ``/predict`` body gets an HTTP reply, and a bad one leaves
    the server serving."""

    def test_huge_integer_inputs_are_400(self, server):
        status, body = server.handle_predict(
            {"model": "micro", "inputs": [[10 ** 400]]})
        assert status == 400 and "numeric" in body["error"]

    def test_huge_integer_over_http_gets_a_400(self, server):
        body = b'{"model": "micro", "inputs": [[' + b"9" * 400 + b"]]}"
        assert _raw_post(server, str(len(body)), body) == 400

    def test_deeply_nested_body_gets_a_400(self, server):
        body = b"[" * 100_000 + b"]" * 100_000
        assert _raw_post(server, str(len(body)), body) == 400

    def test_fuzzed_bodies_get_a_reply_and_spare_the_server(self, server,
                                                            tiny_dataset):
        from hypothesis import given, settings

        good = json.dumps({"model": "micro",
                           "inputs": tiny_dataset.test_x[:1].tolist()}
                          ).encode()

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(body=_json_bodies())
        def check(body):
            assert _raw_post(server, str(len(body)), body) in (200, 400,
                                                               404, 413)
            assert _raw_post(server, str(len(good)), good) == 200

        check()
