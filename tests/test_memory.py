"""Deterministic memory bounds of `unitons sample`: the bytes a chain batch
of one sample block holds, and the traced heap peak of one `sample` call.
Both are counts of allocated bytes, not timings, so they hold on any machine.
"""

import tracemalloc

import numpy as np

from unitons import cli, random_data, serialize
from unitons.builder import chain_arrays

MiB = 2 ** 20
DATA = random_data(5, 4, 3, sparsity_pattern=(1, 1, 1, 1), seed=3)  # 1 live column of 5


def test_a_sample_block_batch_holds_no_bases_and_no_dead_columns():
    zs = np.random.default_rng(0).uniform(-2, 2, (cli.SAMPLE_BLOCK, 2)) @ [1, 1j]
    batch = chain_arrays(DATA, zs)
    assert batch.kvecs.shape == (cli.SAMPLE_BLOCK, 4, 4, 1, 5)
    assert sum(field.nbytes for field in batch) <= 1.2 * MiB


def test_one_sample_call_peaks_below_its_bound(tmp_path):
    path, out = tmp_path / "data.json", tmp_path / "grid.json"
    serialize.write_json(serialize.data_to_json(DATA), path)
    argv = ["sample", "--input", str(path), "--grid", "16", "--output", str(out)]
    assert cli.main(argv) == 0  # the table cache and the parser are built once, outside the trace
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * MiB
