"""Seeded input generator for the benchmark.

Independent of lincomp: each workload and seed gets its own random.Random
stream, and every input is a uniform random period over GF(p^m), written
as a sequence file in the format the README documents. Field elements are
integers in [0, p^m) whose base-p digits are the coordinates, low degree
first.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterator, Sequence

TOKENS_PER_LINE = 16


def input_stream(workload: str, seed: int, q: int, N: int) -> Iterator[list[int]]:
    """Endless stream of distinct-by-chance uniform periods of length N.

    The stream depends only on (workload, seed), so the same seed gives the
    same inputs in the same order.
    """
    rng = random.Random(f"perfbench/{workload}/{seed}")
    while True:
        yield [rng.randrange(q) for _ in range(N)]


def element_token(v: int, p: int, m: int) -> str:
    if m == 1:
        return str(v)
    digits = []
    for _ in range(m):
        v, d = divmod(v, p)
        digits.append(str(d))
    return ",".join(digits)


def write_sequence_file(
    path: Path,
    p: int,
    m: int,
    modulus: Sequence[int] | None,
    values: Sequence[int],
    comment: str = "",
) -> None:
    header = f"p={p} m={m}"
    if modulus is not None:
        header += " mod=" + ",".join(map(str, modulus))
    lines = [f"# {comment}"] if comment else []
    lines.append(header)
    tokens = [element_token(v, p, m) for v in values]
    for i in range(0, len(tokens), TOKENS_PER_LINE):
        lines.append(" ".join(tokens[i : i + TOKENS_PER_LINE]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
