"""Workloads of the mathieumat benchmark: job classes, pools and selection.

A job is one command-line invocation ``mathieumat <argv> --json``.  Each
workload is a fixed list of job classes (command x field x n x space
kind).  Every class owns a pool of ``POOL_FACTOR * count`` inputs made
from a fixed seed, and the benchmark's ``--seed`` picks ``count`` of
them for each class and shuffles the resulting job list.  So a new seed
changes the matrices but not the mix or the rough cost, and every job a
seed can pick has a reference outcome recorded in ``references/``.

Pools are built here in plain Python from fixed seeds, without the
package, so the job list cannot drift with the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

POOL_SEED = "mathieumat-bench-v1"
POOL_FACTOR = 4

# Entries of the random integer spaces of the structure workloads.
ENTRY_RANGE = (-3, 3)


@dataclass(frozen=True)
class JobClass:
    command: str
    args: tuple = ()
    field: str = "Q"      # file field (enumerate) or --field override (structure_fp)
    n: int = 0
    kind: str = ""        # rand, rand+I, zr, codim, tz, prop, lideal; "" for repro
    dim: int = 0          # space dimension; codim: codimension; lideal: free columns
    count: int = 1
    override: bool = False  # pass the field as --field instead of in the file

    @property
    def label(self) -> str:
        parts = [self.command, *self.args]
        if self.kind:
            parts += ["F%s" % self.field if self.field != "Q" else "Q",
                      "n%d" % self.n, "%s%d" % (self.kind, self.dim)]
        return " ".join(parts)

    @property
    def integer_spaces(self) -> bool:
        """Spaces with entries in ENTRY_RANGE, written with field Q."""
        return self.override or self.field == "Q"

    def space_key(self) -> str:
        """Classes that differ only in the field override share spaces."""
        field = "Q" if self.integer_spaces else self.field
        return "%s|%s|%s|%d|%s|%d" % (
            self.command, ",".join(self.args), field, self.n, self.kind, self.dim)


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple
    pass_s: float         # seconds per worker that keep a run near --seconds


# The structure jobs, shared by both fields: (command, n, kind, dim, args,
# jobs over Q, primes for --field).  Normalize over Q stops at n = 5:
# one n = 6 normalize over Q takes about half a minute.  The primes mix
# large fields with fields below n, where normalize takes its
# double-pass branch or raises FieldTooSmallError.
STRUCTURE = (
    ("profile", 4, "rand", 3, (), 2, (2, 3, 11, 101)),
    ("profile", 4, "rand+I", 5, (), 2, (2, 3, 11, 101)),
    ("profile", 5, "rand", 4, (), 2, (2, 3, 11, 101)),
    ("profile", 5, "rand+I", 6, (), 1, (2, 3, 11, 101)),
    ("profile", 6, "rand", 3, (), 2, (2, 3, 11, 101)),
    ("profile", 6, "rand", 4, (), 1, (2, 3, 11, 101)),
    ("normalize", 4, "rand", 3, (), 2, (2, 3, 11, 101)),
    ("normalize", 4, "rand+I", 6, (), 2, (2, 3, 11, 101)),
    ("normalize", 4, "zr", 7, (), 1, (2, 3, 5, 11)),
    ("normalize", 5, "rand+I", 3, (), 2, (2, 3, 11, 101)),
    ("normalize", 5, "rand", 5, (), 1, (2, 3, 11, 101)),
    ("normalize", 6, "rand", 3, (), 0, (2, 3, 5, 101)),
    ("normalize", 4, "zr", 6, (), 0, (3, 101)),
    ("main2", 4, "codim", 2, (), 3, (2, 3, 11, 101)),
    ("main2", 5, "codim", 3, (), 1, (2, 3, 11, 101)),
    ("main2", 6, "codim", 1, (), 1, (2, 3, 11, 101)),
    ("idempotents", 4, "rand", 6, ("--r", "2"), 2, (2, 3, 11, 101)),
    ("idempotents", 5, "codim", 2, ("--r", "2"), 2, (2, 3, 11, 101)),
    ("idempotents", 6, "rand+I", 8, ("--r", "3"), 1, (2, 3, 11, 101)),
    ("maxideal", 4, "rand+I", 6, (), 2, (2, 3, 11, 101)),
    ("maxideal", 5, "rand", 3, (), 3, (2, 3, 11, 101)),
    ("maxideal", 6, "rand+I", 8, (), 1, (2, 3, 11, 101)),
    ("constraints", 4, "rand", 3, (), 2, (2, 3, 11, 101)),
    ("constraints", 5, "rand+I", 6, (), 3, (2, 3, 11, 101)),
    ("constraints", 6, "rand", 8, (), 1, (2, 3, 11, 101)),
)


def _classes(field, n, kind, dim, count, commands):
    """One class per command; a command is a name or (name, *args)."""
    out = []
    for cmd in commands:
        name, *args = (cmd,) if isinstance(cmd, str) else cmd
        out.append(JobClass(name, tuple(args), field, n, kind, dim, count))
    return out


LEFT, RIGHT, PRE2, TWO = (("verify", "--type", t) for t in ("left", "right", "pre2", "two"))
ONE_SIDED = (LEFT, RIGHT, PRE2)
ALL_TYPES = ONE_SIDED + (TWO,)

# verify --type two allocates a count x count table of multiplier pairs,
# so it runs only where that table is small: F_p at n = 2 and F_2 at n = 3.
ENUMERATE = Workload("enumerate", tuple(
    # Random subspaces: verdicts fail with a witness, often early.  (Over
    # F_2 at n = 3 and F_5 at n = 2 a random space's two-sided verdict
    # costs either 5 ms or 100 ms, which would make the mix seed-dependent.)
    _classes("2", 3, "rand", 4, 2, ONE_SIDED)
    + _classes("2", 3, "rand", 6, 1, ONE_SIDED)
    + _classes("2", 4, "rand", 8, 1, ONE_SIDED)
    + _classes("2", 4, "rand", 10, 1, ONE_SIDED)
    + _classes("3", 3, "rand", 4, 1, ONE_SIDED)
    + _classes("3", 3, "rand", 6, 1, ONE_SIDED)
    + _classes("3", 2, "rand", 2, 2, ALL_TYPES)
    + _classes("5", 2, "rand", 3, 1, ONE_SIDED)
    # Verdicts that hold, so every multiplier is scanned: all four types
    # on tz and prop spaces, the left verdict on left ideals.
    + _classes("5", 2, "tz", 2, 1, ALL_TYPES)
    + _classes("7", 2, "tz", 2, 1, ALL_TYPES)
    + _classes("5", 2, "prop", 2, 1, ALL_TYPES)
    + _classes("7", 2, "prop", 2, 1, ALL_TYPES)
    + _classes("2", 4, "lideal", 1, 1, (LEFT, PRE2))
    + _classes("3", 3, "lideal", 1, 1, (LEFT,))
    + _classes("2", 3, "lideal", 2, 2, (LEFT, TWO))
    + _classes("7", 2, "lideal", 1, 1, (LEFT,))
    # Radicals enumerate every matrix of Mat_n(F_p).
    + _classes("2", 3, "rand", 4, 2, ("radical",))
    + _classes("2", 3, "lideal", 2, 1, ("radical",))
    + _classes("3", 2, "rand", 2, 2, ("radical",))
    + _classes("5", 2, "tz", 2, 2, ("radical",))
    + _classes("7", 2, "tz", 2, 1, ("radical",))
    + _classes("7", 2, "prop", 2, 1, ("radical",))
    + [JobClass("repro", (name,)) for name in ("codim1-zhao", "cor62-f2", "proposition")]
), pass_s=5.3)

STRUCTURE_Q = Workload("structure_q", tuple(
    JobClass(cmd, args, "Q", n, kind, dim, count)
    for cmd, n, kind, dim, args, count, _ in STRUCTURE if count), pass_s=4.9)

STRUCTURE_FP = Workload("structure_fp", tuple(
    [JobClass(cmd, args, str(p), n, kind, dim, 1, override=True)
     for cmd, n, kind, dim, args, _, primes in STRUCTURE for p in primes]
    + [JobClass("repro", ("counterexample",))]), pass_s=4.0)

WORKLOADS = {w.name: w for w in (ENUMERATE, STRUCTURE_Q, STRUCTURE_FP)}


# --- space generation -----------------------------------------------------

def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul(a, b, p):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) % p for j in range(n)]
            for i in range(n)]


def _inverse(t, p):
    """Inverse of the square matrix t over F_p, or None if singular."""
    n = len(t)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(t)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] % p), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def _conjugate(mats, p, n, rng):
    """t^-1 M t for a random invertible t over F_p, applied to each M."""
    while True:
        t = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        t_inv = _inverse(t, p)
        if t_inv is not None:
            return [_mat_mul(_mat_mul(t_inv, m, p), t, p) for m in mats]


def _space(cls: JobClass, rng: random.Random):
    """Basis matrices (integer n x n lists) for one input of ``cls``."""
    n = cls.n
    if cls.kind in ("rand", "rand+I", "codim", "zr"):
        dim = n * n - cls.dim if cls.kind == "codim" else cls.dim
        if cls.integer_spaces:
            lo, hi = ENTRY_RANGE
        else:
            lo, hi = 0, int(cls.field) - 1
        mats = [[[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
                for _ in range(dim)]
        if cls.kind == "rand+I":
            mats.append(_identity(n))
        if cls.kind == "zr":
            # Last row zero: generic rank n - 1 even on the members that
            # kill a generic vector, so normalize over F_(n-1) takes its
            # double-pass branch.
            for m in mats:
                m[-1] = [0] * n
        return mats
    p = int(cls.field)
    if cls.kind == "tz":
        # Random elements of the trace-zero matrices of Mat_2(F_p).
        out = []
        for _ in range(cls.dim):
            a, b, c = (rng.randrange(p) for _ in range(3))
            out.append([[a, b], [c, -a % p]])
        return out
    if cls.kind == "prop":
        # A conjugate t^-1 M t of the codimension-n family M at n = 2:
        # zero lower-left entry, and m00 + (1 + a) m11 = 0.  Conjugation
        # preserves the two-sided Mathieu property, so verdicts hold.
        a = rng.choice([x for x in range(p) if (1 + x) % p and (2 + x) % p])
        basis = [[[0, 1], [0, 0]], [[-(1 + a) % p, 0], [0, 1]]]
        return _conjugate(basis, p, 2, rng)
    if cls.kind == "lideal":
        # A conjugate of the left ideal of matrices whose columns past
        # the first ``dim`` vanish: left Mathieu, with full scans.
        units = [[[int((i, j) == (r, c)) for j in range(n)] for i in range(n)]
                 for r in range(n) for c in range(cls.dim)]
        return _conjugate(units, p, n, rng)
    raise ValueError("unknown space kind %r" % cls.kind)


def space_text(field_token: str, n: int, mats) -> str:
    lines = ["field %s" % field_token, "n %d" % n, "basis"]
    for idx, m in enumerate(mats):
        if idx:
            lines.append("")
        lines += [" ".join(str(x) for x in row) for row in m]
    return "\n".join(lines) + "\n"


def pool(workload: Workload):
    """All jobs any seed can pick: {class label: [job, ...]}.

    A job is a dict with ``id``, ``argv`` (``{file}`` marks the space
    file) and ``text`` (the space file, or None).
    """
    out = {}
    for cls in workload.classes:
        if cls.label in out:
            raise ValueError("duplicate class %r" % cls.label)
        if cls.command == "repro":
            out[cls.label] = [{"id": "%s #0" % cls.label,
                               "argv": ["repro", *cls.args], "text": None}]
            continue
        jobs = []
        for i in range(POOL_FACTOR * cls.count):
            rng = random.Random("%s|%s|%d" % (POOL_SEED, cls.space_key(), i))
            token = "Q" if cls.integer_spaces else cls.field
            argv = [cls.command, "{file}", *cls.args]
            if cls.override:
                argv += ["--field", cls.field]
            jobs.append({"id": "%s #%d" % (cls.label, i), "argv": argv,
                         "text": space_text(token, cls.n, _space(cls, rng))})
        out[cls.label] = jobs
    return out


def pool_sha256(jobs_by_class) -> str:
    """Digest of the whole pool, stored beside the references."""
    blob = json.dumps(jobs_by_class, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def select(workload: Workload, jobs_by_class, seed: int):
    """The job list of one pass for ``seed``: ``count`` distinct pool
    inputs per class, in a seed-dependent order.  No input repeats."""
    chosen = []
    for cls in workload.classes:
        items = jobs_by_class[cls.label]
        rng = random.Random("%s|%s|%d" % (workload.name, cls.label, seed))
        chosen += rng.sample(items, min(cls.count, len(items)))
    random.Random("%s|order|%d" % (workload.name, seed)).shuffle(chosen)
    return chosen


def smoke(workload: Workload, jobs_by_class, references):
    """One job per command: the cheapest recorded pool input of each."""
    best = {}
    for cls in workload.classes:
        for job in jobs_by_class[cls.label]:
            cost = references["jobs"][job["id"]]["seconds"]
            if cls.command not in best or cost < best[cls.command][0]:
                best[cls.command] = (cost, job)
    return [job for _, job in best.values()]
