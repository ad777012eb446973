"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (its module
docstring names which) and *prints* the rows it measured next to the
paper's claim, so ``pytest benchmarks/ --benchmark-only -s`` prints every
measured row.
"""

import numpy as np
import pytest


def print_table(title, header, rows):
    width = max(len(title), len(header)) + 2
    print("\n" + "=" * width)
    print(title)
    print("=" * width)
    print(header)
    print("-" * width)
    for row in rows:
        print(row)
    print("=" * width)


@pytest.fixture
def table_printer():
    return print_table
