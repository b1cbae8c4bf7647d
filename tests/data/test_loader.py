"""StreamingDataLoader: bit-identity across sources/modes + shutdown."""

import threading
import time

import numpy as np
import pytest

from repro.data import (
    StreamingDataLoader,
    make_dataset,
    make_train_loader,
    open_shards,
    write_shards,
)


@pytest.fixture(scope="module")
def dataset():
    return make_dataset(3, 8, train_per_class=40, test_per_class=5, seed=9)


@pytest.fixture(scope="module")
def sharded(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("loader-shards") / "s"
    return open_shards(write_shards(dataset, root, shard_size=17))


def _epochs(loader, n=2):
    out = []
    for _ in range(n):
        out.append([(x.copy(), y.copy()) for x, y in loader])
    return out


def _assert_same(a, b):
    for ea, eb in zip(a, b, strict=True):
        for (xa, ya), (xb, yb) in zip(ea, eb, strict=True):
            assert np.array_equal(xa, xb)
            assert np.array_equal(ya, yb)


class TestBitIdentity:
    @pytest.mark.parametrize("augment", [False, True])
    def test_prefetch_matches_sync(self, dataset, augment):
        sync = StreamingDataLoader(dataset.train_x, dataset.train_y,
                                   batch_size=32, augment=augment, seed=3,
                                   prefetch=0)
        pre = StreamingDataLoader(dataset.train_x, dataset.train_y,
                                  batch_size=32, augment=augment, seed=3,
                                  prefetch=3)
        with pre:
            _assert_same(_epochs(sync), _epochs(pre))

    @pytest.mark.parametrize("prefetch", [0, 2])
    def test_sharded_matches_in_memory(self, dataset, sharded, prefetch):
        mem = StreamingDataLoader(dataset.train_x, dataset.train_y,
                                  batch_size=16, augment=True, seed=11,
                                  prefetch=0)
        stream = StreamingDataLoader(sharded, batch_size=16, augment=True,
                                     seed=11, prefetch=prefetch)
        with stream:
            _assert_same(_epochs(mem), _epochs(stream))

    def test_make_train_loader_dispatch(self, dataset, sharded):
        mem = make_train_loader(dataset, batch_size=8, seed=2)
        assert mem.prefetch == 0          # in-memory default: synchronous
        stream = make_train_loader(sharded, batch_size=8, seed=2)
        assert stream.prefetch == 2       # sharded default: double buffer
        with stream:
            _assert_same(_epochs(mem, n=1), _epochs(stream, n=1))

    def test_len_and_batch_shapes(self, sharded):
        loader = StreamingDataLoader(sharded, batch_size=50, shuffle=False,
                                     prefetch=1)
        with loader:
            batches = list(loader)
        assert len(batches) == len(loader) == 3  # 120 images / 50
        assert batches[0][0].shape == (50, 3, 8, 8)
        assert batches[-1][0].shape == (20, 3, 8, 8)


class TestValidation:
    def test_length_mismatch(self, dataset):
        with pytest.raises(ValueError, match="equal length"):
            StreamingDataLoader(dataset.train_x, dataset.train_y[:-1])

    def test_array_source_requires_labels(self, dataset):
        with pytest.raises(ValueError, match="labels are required"):
            StreamingDataLoader(dataset.train_x)

    def test_sharded_source_rejects_labels(self, dataset, sharded):
        with pytest.raises(ValueError, match="manifest"):
            StreamingDataLoader(sharded, dataset.train_y)


class TestShutdown:
    """The prefetch thread never strands the iterator or the process."""

    def _threads(self):
        return {t for t in threading.enumerate()
                if t.name.startswith("repro-dataloader")}

    def test_full_epoch_reclaims_thread(self, dataset):
        loader = StreamingDataLoader(dataset.train_x, dataset.train_y,
                                     batch_size=16, seed=0, prefetch=2)
        list(loader)
        deadline = time.monotonic() + 5.0
        while self._threads() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not self._threads()

    def test_abandoned_epoch_close(self, dataset):
        loader = StreamingDataLoader(dataset.train_x, dataset.train_y,
                                     batch_size=4, seed=0, prefetch=1)
        it = iter(loader)
        next(it)                      # producer now blocked on a full queue
        loader.close()
        assert not self._threads()
        loader.close()                # idempotent

    def test_new_epoch_stops_abandoned_producer(self, dataset):
        loader = StreamingDataLoader(dataset.train_x, dataset.train_y,
                                     batch_size=4, seed=0, prefetch=1)
        next(iter(loader))
        next(iter(loader))            # re-iterating closes the old epoch
        loader.close()
        assert not self._threads()

    def test_context_manager_closes(self, dataset):
        with StreamingDataLoader(dataset.train_x, dataset.train_y,
                                 batch_size=4, seed=0, prefetch=2) as loader:
            next(iter(loader))
        assert not self._threads()

    def test_close_race_with_many_loaders(self, dataset):
        # hammer create/iterate/close concurrently; no deadline misses
        def hammer():
            for _ in range(10):
                loader = StreamingDataLoader(
                    dataset.train_x, dataset.train_y, batch_size=8,
                    seed=0, prefetch=1)
                it = iter(loader)
                next(it)
                loader.close()

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
        assert not self._threads()

    def test_producer_error_propagates(self, sharded, tmp_path, dataset):
        from repro.data import ShardError
        root = write_shards(dataset, tmp_path / "bad", shard_size=17)
        fresh = open_shards(root)
        fname = fresh.manifest["splits"]["train"]["shards"][2]["file"]
        (root / fname).unlink()
        loader = StreamingDataLoader(fresh, batch_size=17, shuffle=False,
                                     prefetch=2)
        with pytest.raises(ShardError, match="missing"):
            list(loader)
        assert not self._threads()
