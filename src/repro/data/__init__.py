"""Synthetic datasets and loading utilities (CIFAR/Tiny-ImageNet stand-ins)."""

from .datasets import (
    Dataset,
    available,
    load,
    make_dataset,
    mini_cifar10,
    mini_cifar100,
    mini_tiny_imagenet,
    synthetic_cifar10,
    synthetic_cifar100,
    synthetic_tiny_imagenet,
)
from .loader import StreamingDataLoader, make_train_loader
from .shards import (
    SHARD_FORMAT_VERSION,
    ShardedDataset,
    ShardError,
    open_shards,
    write_shards,
)
from .transforms import normalize, random_crop, random_hflip

__all__ = [
    "Dataset",
    "StreamingDataLoader",
    "make_train_loader",
    "SHARD_FORMAT_VERSION",
    "ShardedDataset",
    "ShardError",
    "open_shards",
    "write_shards",
    "available",
    "load",
    "make_dataset",
    "mini_cifar10",
    "mini_cifar100",
    "mini_tiny_imagenet",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "synthetic_tiny_imagenet",
    "normalize",
    "random_crop",
    "random_hflip",
]
