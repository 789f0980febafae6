"""Seeded request lists for the three benchmark workloads.

Each workload is a fixed skeleton of request slots.  The skeleton fixes
what a request costs (which large spaces, which truncation bounds, how
deep the shared document DAGs go), so runs with different seeds do the
same amount of work; the seed fills in everything else: the small
spaces, theories, modes, output formats, declaration names, ranks,
codimensions and the order of the requests.  Every request carries the
answer it must produce, computed by ``answers`` without the package.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass

from answers import (
    expected_output,
    grassmannian_twists,
    projective_twists,
    quadric_twists,
    reflect,
)

WORKLOADS = ("families", "universal", "documents")

# Length of the one document chain that is deeper than the CLI can walk
# today (it fails past 497 declarations); it does not depend on the seed.
CHAIN_LENGTH = 600
CHAIN_FAULT = "deep declaration chain: RecursionError in dsl._Parser._validate -> Cellular.dim"


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the answer it must give.

    ``expect`` is the exact text output, a JSON document, or None for
    ``--mode check``, where every suite must report PASS.
    """

    argv: tuple[str, ...]
    expect: str | dict | None
    fault: str | None = None

    def describe(self) -> str:
        return "motivec " + " ".join(self.argv)


def _builtin(family: str, a: int, b: int = 0) -> tuple[int, Counter]:
    """(dim, rank-route twists) of a built-in space."""
    if family == "point":
        return 0, Counter({0: 1})
    if family == "P":
        return a, projective_twists(a)
    if family == "quadric":
        return 2 * a, quadric_twists(a)
    return a * (b - a), grassmannian_twists(a, b)


def _selector(family: str, a: int, b: int = 0) -> str:
    if family == "point":
        return "point"
    if family == "Gr":
        return f"Gr:{a},{b}"
    return f"{family}:{a}"


def _cli_request(family, a, b, theory, mode, fmt) -> Request:
    dim, twists = _builtin(family, a, b)
    selector = _selector(family, a, b)
    # the codim route of a built-in space is its rank route mirrored
    expect = expected_output(selector, theory, mode, fmt, dim, twists, reflect(twists, dim))
    argv = ("--space", selector, "--theory", theory, "--mode", mode, "--format", fmt)
    return Request(argv, expect)


def _small_builtin(rng: random.Random):
    """A built-in space small enough that its request costs about a process
    start, whatever the theory and mode."""
    family = rng.choice(("point", "P", "quadric", "Gr"))
    if family == "P":
        return family, rng.randint(1, 40), 0
    if family == "quadric":
        return family, rng.randint(0, 20), 0
    if family == "Gr":
        n = rng.randint(2, 10)
        return family, rng.randint(1, n - 1), n
    return family, 0, 0


def families(seed: int) -> list[Request]:
    """Built-in P, quadric and Gr spaces under chow and k0.

    50 requests.  Heavy: Gr(8,16) groups and dual under chow.  Medium:
    Gr(6,13) and its mirror Gr(7,13), each twice in groups and twice in
    dual mode under chow, about a sixth of a heavy one.  Light: Gr(8,16) on
    the paths that skip the quadratic table (motive, poincare and periodic
    k0 groups; 8 requests), and 32 small spaces under any theory and mode,
    whose time is mostly process start.
    """
    rng = random.Random(f"families-{seed}")
    slots = [("Gr", 8, 16, "chow", "groups", None), ("Gr", 8, 16, "chow", "dual", None)]
    for d in (6, 7):
        slots += [("Gr", d, 13, "chow", "groups", None)] * 2
        slots += [("Gr", d, 13, "chow", "dual", None)] * 2
    slots += [("Gr", 8, 16, "chow", "motive", "text"), ("Gr", 8, 16, "k0", "motive", "json")]
    for _ in range(3):
        slots.append(("Gr", 8, 16, rng.choice(("chow", "k0")), "poincare", None))
        slots.append(("Gr", 8, 16, "k0", "groups", None))
    for _ in range(32):
        family, a, b = _small_builtin(rng)
        slots.append((family, a, b, rng.choice(("chow", "k0")),
                      rng.choice(("motive", "groups", "poincare", "dual")), None))
    requests = [_cli_request(f, a, b, theory, mode, fmt or rng.choice(("text", "json")))
                for f, a, b, theory, mode, fmt in slots]
    rng.shuffle(requests)
    return requests


# Requests per truncation bound N in one universal round.  The law build
# roughly triples in time per +2, so the large bounds come fewer times.
UNIVERSAL_BOUNDS = {**{n: 5 for n in range(4, 12)}, 12: 2, 13: 2, 14: 2}
CHECK_REQUESTS = 4


def universal(seed: int) -> list[Request]:
    """Small spaces under universal:N for N = 4..14, plus ``--mode check``
    requests, 50 in all.  The law build for N dominates, so the space and
    the mode are free to vary with the seed."""
    rng = random.Random(f"universal-{seed}")
    requests = [Request(("--mode", "check"), None) for _ in range(CHECK_REQUESTS)]
    for bound, count in UNIVERSAL_BOUNDS.items():
        for _ in range(count):
            family = rng.choice(("point", "P", "quadric", "Gr"))
            if family == "P":
                a, b = rng.randint(1, 4), 0
            elif family == "quadric":
                a, b = rng.randint(1, 2), 0
            elif family == "Gr":
                a, b = rng.choice(((1, 3), (2, 4), (2, 5)))
            else:
                a, b = 0, 0
            mode = rng.choice(("motive", "groups", "poincare", "dual"))
            requests.append(_cli_request(family, a, b, f"universal:{bound}", mode,
                                         rng.choice(("text", "json"))))
    rng.shuffle(requests)
    return requests


# -- documents ---------------------------------------------------------------


class _Document:
    """Declarations written as text, with both twist routes kept alongside.

    For every declared name: its dimension, its rank-route histogram
    (twists accumulate bundle ranks) and its codim-route histogram
    (twists accumulate stratum codimensions).
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lines: list[str] = []
        self.dim: dict[str, int] = {}
        self.by_rank: dict[str, Counter] = {}
        self.by_codim: dict[str, Counter] = {}

    def builtin(self, max_dim: int):
        """A random built-in base of dimension <= max_dim: (text, dim, twists)."""
        rng = self.rng
        options = [("point", 0, 0)]
        options += [("P", n, 0) for n in range(1, min(max_dim, 5) + 1)]
        options += [("quadric", d, 0) for d in range(1, min(max_dim // 2, 3) + 1)]
        options += [("Gr", d, n) for n in range(3, 7) for d in range(1, n)
                    if d * (n - d) <= max_dim]
        family, a, b = rng.choice(options)
        dim, twists = _builtin(family, a, b)
        text = {"point": "point", "P": f"P({a})", "quadric": f"quadric({a})",
                "Gr": f"Gr({a},{b})"}[family]
        return text, dim, twists

    def declare(self, name: str, cells) -> None:
        """cells: (base text, base dim, base rank twists, base codim twists, rank, codim)."""
        body = []
        by_rank, by_codim = Counter(), Counter()
        dims = set()
        for text, dim, r_twists, c_twists, rank, codim in cells:
            body.append(f"  cell {{ base = {text}; rank = {rank}; codim = {codim} }}")
            dims.add(codim + rank + dim)
            for t, c in r_twists.items():
                by_rank[t + rank] += c
            for t, c in c_twists.items():
                by_codim[t + codim] += c
        if len(dims) != 1:
            raise RuntimeError(f"generator built a non-equidimensional space {name}")
        self.dim[name] = dims.pop()
        if by_codim != reflect(by_rank, self.dim[name]):
            raise RuntimeError(f"the two routes of {name} are not mirror images")
        self.by_rank[name], self.by_codim[name] = by_rank, by_codim
        self.lines += [f"space {name} {{"] + body + ["}"]

    def ref(self, name: str):
        return name, self.dim[name], self.by_rank[name], self.by_codim[name]

    def plain(self, name: str, earlier: list[str]) -> None:
        """One to three cells over built-ins or earlier plain declarations."""
        rng = self.rng
        total = rng.randint(2, 8)
        codim = 0
        cells = []
        for _ in range(rng.randint(1, 3)):
            if codim > total:
                break
            room = total - codim
            pool = [e for e in earlier if self.dim[e] <= room]
            if pool and rng.random() < 0.4:
                text, dim, r_tw, c_tw = self.ref(rng.choice(pool))
            else:
                text, dim, r_tw = self.builtin(room)
                c_tw = reflect(r_tw, dim)
            cells.append((text, dim, r_tw, c_tw, room - dim, codim))
            codim += rng.randint(1, 3)
        self.declare(name, cells)

    def tower(self, names: list[str], leaf: str) -> None:
        """names[0] over the leaf declaration; each next level over union(prev, prev)."""
        rng = self.rng
        self.declare(names[0], [self.ref(leaf) + (rng.randint(0, 2), 0)])
        for prev, name in zip(names, names[1:]):
            text, dim, r_tw, c_tw = self.ref(prev)
            doubled = (f"union({prev}, {prev})", dim,
                       Counter({t: 2 * c for t, c in r_tw.items()}),
                       Counter({t: 2 * c for t, c in c_tw.items()}))
            self.declare(name, [doubled + (rng.randint(0, 2), 0)])

    def cap(self, name: str, under: str) -> None:
        """A two-cell declaration: the tower top, then a built-in stratum."""
        rng = self.rng
        text, dim, r_tw, c_tw = self.ref(under)
        total = dim + 1
        codim = rng.randint(1, 3)
        b_text, b_dim, b_tw = self.builtin(total - codim)
        self.declare(name, [(text, dim, r_tw, c_tw, 1, 0),
                            (b_text, b_dim, b_tw, reflect(b_tw, b_dim), total - codim - b_dim, codim)])

    def text(self, header: str) -> str:
        return "\n".join([header] + self.lines) + "\n"


# Union-tower depth of each generated document: the work of every request
# on the document doubles per level, because shared sub-DAGs are walked
# once per path.
TOWER_DEPTH = 11
# Tower leaves, one document each: built-ins with six twists and DAGs of
# similar size.  Every round uses each the same number of times; the seed
# only decides which document gets which.
LEAVES = ("P(5)",) * 3 + ("quadric(2)",) * 2 + ("Gr(2,4)",) * 2
_LEAF_SHAPES = {"P(5)": ("P", 5, 0), "quadric(2)": ("quadric", 2, 0), "Gr(2,4)": ("Gr", 2, 4)}


def _document_requests(doc: _Document, path: str, plain: list[str], tower: list[str],
                       top: str) -> list[Request]:
    """Seven requests on one document.  The two on the tower top use
    theories whose cost does not depend on the seeded ranks: poincare
    under chow, and dual under the periodic k0."""
    rng = doc.rng
    middle = tower[len(tower) // 2]
    slots = [
        (top, "dual", "k0"),
        (top, "poincare", "chow"),
        (middle, "poincare", "chow"),
        (middle, "motive", "chow"),
        (rng.choice(plain), "motive", "chow"),
        (rng.choice(plain), "groups", rng.choice(("chow", "k0"))),
        (rng.choice(plain), "dual", rng.choice(("chow", "k0"))),
    ]
    out = []
    for name, mode, theory in slots:
        fmt = rng.choice(("text", "json"))
        expect = expected_output(name, theory, mode, fmt, doc.dim[name],
                                 doc.by_rank[name], doc.by_codim[name])
        argv = ("--file", path, "--space", name, "--theory", theory, "--mode", mode,
                "--format", fmt)
        out.append(Request(argv, expect))
    return out


def chain_document() -> str:
    """CHAIN_LENGTH rank-1 cells, each over the previous declaration."""
    lines = ["# a chain of rank-1 cells; c<n> has the single twist n"]
    base = "point"
    for i in range(1, CHAIN_LENGTH + 1):
        lines.append(f"space c{i} {{ cell {{ base = {base}; rank = 1; codim = 0 }} }}")
        base = f"c{i}"
    return "\n".join(lines) + "\n"


def documents(seed: int, out_dir: str) -> list[Request]:
    """Generated description files read with --file.

    One document per entry of LEAVES, each with five plain declarations
    over built-ins and earlier declarations, a leaf declaration over its
    LEAVES entry, a union tower of TOWER_DEPTH levels (union(s, s) at every
    level) over the leaf, and a two-cell cap over the tower top; seven
    requests each.  One more request reads the fixed CHAIN_LENGTH chain,
    which the CLI cannot walk today: it is counted as failed, with
    CHAIN_FAULT as its reason.  Files are written to out_dir.
    """
    rng = random.Random(f"documents-{seed}")
    os.makedirs(out_dir, exist_ok=True)
    leaves = list(LEAVES)
    rng.shuffle(leaves)
    requests = []
    for i, leaf in enumerate(leaves):
        tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
        doc = _Document(rng)
        plain = []
        for j in range(5):
            name = f"{tag}_s{j}"
            doc.plain(name, plain)
            plain.append(name)
        dim, twists = _builtin(*_LEAF_SHAPES[leaf])
        leaf_name = f"{tag}_leaf"
        doc.declare(leaf_name, [(leaf, dim, twists, reflect(twists, dim), rng.randint(0, 2), 0)])
        tower = [f"{tag}_u{k}" for k in range(TOWER_DEPTH + 1)]
        doc.tower(tower, leaf_name)
        top = f"{tag}_top"
        doc.cap(top, tower[-1])
        path = os.path.join(out_dir, f"doc{i}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(doc.text(f"# documents workload, seed {seed}, file {i}"))
        requests += _document_requests(doc, path, plain, tower, top)
    chain_path = os.path.join(out_dir, "chain.txt")
    with open(chain_path, "w", encoding="utf-8") as handle:
        handle.write(chain_document())
    name = f"c{CHAIN_LENGTH}"
    expect = expected_output(name, "chow", "motive", "text", CHAIN_LENGTH,
                             Counter({CHAIN_LENGTH: 1}), Counter({0: 1}))
    requests.append(Request(("--file", chain_path, "--space", name, "--mode", "motive"),
                            expect, fault=CHAIN_FAULT))
    rng.shuffle(requests)
    return requests


def build(workload: str, seed: int, out_dir: str) -> list[Request]:
    """The request list of one round of a workload."""
    if workload == "families":
        return families(seed)
    if workload == "universal":
        return universal(seed)
    if workload == "documents":
        return documents(seed, os.path.join(out_dir, f"documents-{seed}"))
    raise ValueError(f"unknown workload {workload!r}")
