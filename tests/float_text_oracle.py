"""The package's float text against repr, on millions of values.

    PYTHONPATH=src python tests/float_text_oracle.py [--values N] [--seed S]

Formats N seeded random 64-bit patterns (5,000,000 by default; half of them
with an exponent near the kernel's range of 1e-6 to 1e16), then every power
of two and every power of ten a float holds, each with its two neighbours
and all negated, through ``_text._float_cells`` in arrays of 2**16, and
compares every cell with ``repr``.  Exits 1 at the first mismatch, printing
it, and 0 when every cell matches.  The workflow runs it in full on one
Python version; tier-1 runs it on fewer values in a fresh process
(tests/test_fresh_processes.py) and takes ``edge_values`` from here.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from tradenet._text import _float_cells

CHUNK = 1 << 16


def edge_values() -> np.ndarray:
    """±0, NaN, ±inf, the smallest subnormal and normal, the largest float,
    every power of two and of ten, 1e-6 and 1e16 (the kernel's edges), and
    the two neighbours of each, all of them also negated."""
    base = [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            1e-6, 1e16, *(2.0 ** e for e in range(-1074, 1024)),
            *(float(f"1e{k}") for k in range(-323, 309))]
    values = np.array(base)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        values = np.concatenate([values, np.nextafter(values, np.inf),
                                 np.nextafter(values, -np.inf)])
    return np.concatenate([values, -values])


def random_values(count: int, seed: int):
    """``count`` values from seeded random bit patterns, in chunks of CHUNK:
    half with any exponent, half with one of 2**-23 to 2**56."""
    rng = np.random.default_rng(seed)
    for lo in range(0, count, CHUNK):
        bits = rng.integers(0, 2**64, min(CHUNK, count - lo), dtype=np.uint64, endpoint=False)
        near = bits[::2]
        exponent = rng.integers(1023 - 23, 1023 + 57, near.size).astype(np.uint64)
        bits[::2] = (near & np.uint64(0x800FFFFFFFFFFFFF)) | (exponent << np.uint64(52))
        yield bits.view(np.float64)


def first_mismatch(values: np.ndarray) -> tuple[float, str, str] | None:
    """(value, its cell, its repr) for the first value whose cell is not
    its repr, or None."""
    cells, want = _float_cells(values), list(map(repr, values.tolist()))
    if cells == want:
        return None
    i = next(i for i, (got, ref) in enumerate(zip(cells, want)) if got != ref)
    return values[i], cells[i], want[i]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=5_000_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checked = 0
    for values in itertools.chain([edge_values()], random_values(args.values, args.seed)):
        bad = first_mismatch(values)
        if bad is not None:
            value, got, want = bad
            print(f"mismatch: {value.view(np.uint64):#018x} written {got!r}, repr {want!r}")
            return 1
        checked += len(values)
    print(f"{checked} values written as their repr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
