"""Command-line front end: parse space files, run computations, report.

The commands form one table in ``build_parser``.  A file command is
``cmd_x(args, space) -> (payload, move_log)`` and returns only its own
payload keys (``move_log`` is None except for ``normalize``); ``repro``,
the one command without a file, returns its payload alone.  ``main``
does the shared work once: it parses the arguments, loads the space
file, adds ``field`` and ``n`` to the payload, and reports the payload
with the file's sha256 (``digest``; "-" for ``repro``) and the wall
time.  The parser is built once per process, on first use rather than
at import, so a wrapper installed on a command after import is the one
it dispatches to.  ``main2`` sets ``conclusion_holds: true`` itself:
``rct_certificate`` raises unless the zero-corner conclusion holds.

Reports are a single structured document on stdout (plain text, or JSON
with ``--json``); diagnostics go to stderr.  Identical input files give
byte-identical payloads; only the wall-time field varies.  Exit status
is 0 on success (and, for ``repro``, only when the observed outcome
matches the expected one), 1 on domain errors or mismatches, 2 on
argument or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import spacefile
from .errors import MathieuMatError, SingularMatrixError, SpaceFileError
from .idempotents import LOWER, UPPER, idempotent_family
from .linalg import DenseMatrix, Field, all_matrices, all_subspaces
from .matspace import (
    MatrixSubspace,
    binary_profile,
    conjugate,
    constraint_space,
    rct_zero_members,
)
from .normalize import normalize, rct_certificate
from .verify import (
    ALL_TYPES,
    LEFT,
    PRE_TWO_SIDED,
    RIGHT,
    TWO_SIDED,
    idempotents,
    left_ideal_normal_form,
    max_left_ideal,
    proposition_family,
    radical,
    verify_mathieu,
    witness_replays,
)

TYPE_FLAGS = {"left": LEFT, "right": RIGHT, "pre2": PRE_TWO_SIDED, "two": TWO_SIDED}


def _scalar_payload(field):
    if field.p:
        return int
    return str


def matrix_payload(m: DenseMatrix):
    scalar = _scalar_payload(m.field)
    return [[scalar(x) for x in row] for row in m.entries]


def _load(path, field_token):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpaceFileError(str(exc))
    _, space = spacefile.loads(text).resolve(field_token)
    return hashlib.sha256(raw).hexdigest(), space


def cmd_constraints(args, space):
    cons = constraint_space(space)
    payload = {
        "space_dim": space.dim,
        "dim": cons.dim,
        "identity_in_constraints": cons.contains_identity(),
        "basis": [matrix_payload(m) for m in cons.basis_matrices],
    }
    return payload, None


def cmd_profile(args, space):
    prof = binary_profile(space)
    payload = {
        "B": [list(row) for row in prof.B],
        "b": list(prof.b),
        "col_dims": list(prof.col_dims),
        "d": list(prof.d),
    }
    return payload, None


def cmd_normalize(args, space):
    result = normalize(space)
    prof = result.profile
    payload = {
        "branch": result.branch,
        "t_total": matrix_payload(result.t_total),
        "B": [list(row) for row in prof.B],
        "b": list(prof.b),
        "d": list(prof.d),
        "final_basis": [matrix_payload(m) for m in result.c_n_final.basis_matrices],
    }
    move_log = [
        {"kind": m.kind, "level": m.level, "t": matrix_payload(m.t)}
        for m in result.log
    ]
    return payload, move_log


def cmd_idempotents(args, space):
    if not 1 <= args.r <= space.n - 1:
        raise argparse.ArgumentError(
            None, "--r %d out of range 1..%d" % (args.r, space.n - 1))
    form = UPPER if args.form == "upper" else LOWER
    fam = idempotent_family(space, args.r, form)
    payload = {
        "r": fam.r,
        "form": fam.form,
        "rank": fam.rank,
        "dim": fam.dim,
        "particular": matrix_payload(fam.particular),
        "directions": [list(map(_scalar_payload(space.field), row))
                       for row in fam.directions.basis],
    }
    return payload, None


def cmd_verify(args, space):
    verdict = verify_mathieu(space, TYPE_FLAGS[args.type])
    payload = {
        "type": verdict.vtype,
        "holds": verdict.holds,
        "witness": None,
    }
    if verdict.witness is not None:
        w = verdict.witness
        payload["witness"] = {
            "a": matrix_payload(w.a),
            "b": matrix_payload(w.b) if w.b is not None else None,
            "c": matrix_payload(w.c) if w.c is not None else None,
            "exponent": w.exponent,
            "replays": witness_replays(space, w),
        }
    return payload, None


def cmd_radical(args, space):
    elements = [matrix_payload(m) for m in radical(space)]
    payload = {
        "count": len(elements),
        "sha256": hashlib.sha256(json.dumps(elements).encode("utf-8")).hexdigest(),
    }
    if len(elements) <= 64:
        payload["elements"] = elements
    return payload, None


def cmd_maxideal(args, space):
    ideal = max_left_ideal(space)
    nf = left_ideal_normal_form(ideal)
    payload = {
        "dim": ideal.dim,
        "k": nf.k,
        "t": matrix_payload(nf.t),
        "idempotent": matrix_payload(nf.idempotent),
        "basis": [matrix_payload(m) for m in ideal.basis_matrices],
    }
    return payload, None


def cmd_main2(args, space):
    cert = rct_certificate(space)
    payload = {
        "r": cert.r,
        "t": matrix_payload(cert.t),
        "conclusion_holds": True,
    }
    return payload, None


# --- canned reproductions ------------------------------------------------

def running_pair_space(field) -> MatrixSubspace:
    """The two-generator space behind the small-field obstruction."""
    return MatrixSubspace.from_matrices(field, 3, [
        DenseMatrix(field, [[0, 1, 0], [0, 1, 0], [0, 0, 0]]),
        DenseMatrix(field, [[0, 0, 0], [0, 1, 1], [0, 0, 0]]),
    ])


def repro_counterexample():
    """Exhaustive check that no conjugation over F_2 makes the zero-corner
    members of the adjoined running pair scalar, for either block size.
    Conjugation fixes I, so the pair is adjoined once, before the loop."""
    f = Field.prime(2)
    space = running_pair_space(f).adjoin_identity()
    conjugators = 0
    fixed = 0
    for t in all_matrices(f, 3, 3):
        try:
            moved = conjugate(space, t)
        except SingularMatrixError:
            continue
        conjugators += 1
        for r in (1, 2):
            if rct_zero_members(moved, r).dim == 1:
                fixed += 1
    expected = "all 168 conjugators fail for r in {1,2}"
    if conjugators == 168 and fixed == 0:
        observed = expected
    else:
        observed = "%d of %d conjugators produce a scalar-only corner" \
            % (fixed, conjugators)
    return expected, observed, {"conjugators": conjugators, "successes": fixed}


def repro_proposition():
    f = Field.prime(5)
    fam = proposition_family(f, 2, 1)
    verdict = verify_mathieu(fam, TWO_SIDED)
    idems = idempotents(fam)
    only_zero = len(idems) == 1 and idems[0].is_zero()
    expected = "two-sided Mathieu: true; only idempotent is zero"
    observed = "two-sided Mathieu: %s; %s" % (
        str(verdict.holds).lower(),
        "only idempotent is zero" if only_zero else "%d idempotents" % len(idems))
    return expected, observed, {"holds": verdict.holds, "idempotents": len(idems)}


def _trace_zero(field, n):
    gens = [DenseMatrix.unit(field, n, n, i, j)
            for i in range(n) for j in range(n) if i != j]
    gens += [DenseMatrix.unit(field, n, n, 0, 0) - DenseMatrix.unit(field, n, n, i, i)
             for i in range(1, n)]
    return MatrixSubspace.from_matrices(field, n, gens)


def repro_codim1_boundary():
    """Trace-zero matrices of Mat_2(F_p): Mathieu of all four types for
    p in {3, 5}, and of none for p = 2 (witnesses replayed)."""
    outcomes = {}
    ok = True
    for p in (2, 3, 5):
        h = _trace_zero(Field.prime(p), 2)
        verdicts = {t: verify_mathieu(h, t) for t in ALL_TYPES}
        holds = {t: v.holds for t, v in verdicts.items()}
        if p == 2:
            ok &= not any(holds.values())
            ok &= all(witness_replays(h, v.witness)
                      for v in verdicts.values() if v.witness is not None)
            ok &= all(v.witness is not None for v in verdicts.values())
        else:
            ok &= all(holds.values())
        outcomes["p=%d" % p] = holds
    expected = "Mathieu for p in {3,5}, not for p=2 (witnesses replay)"
    observed = expected if ok else "boundary pattern violated: %r" % outcomes
    return expected, observed, {"outcomes": outcomes}


def repro_cor62_f2():
    f = Field.prime(2)
    total = 0
    left_count = 0
    for sub in all_subspaces(f, 4, 3):
        total += 1
        space = MatrixSubspace(f, 2, sub)
        if verify_mathieu(space, LEFT).holds:
            left_count += 1
    expected = "0 of 15 codim-1 subspaces of Mat_2(F_2) are left Mathieu"
    observed = "%d of %d codim-1 subspaces of Mat_2(F_2) are left Mathieu" \
        % (left_count, total)
    return expected, observed, {"total": total, "left_mathieu": left_count}


REPROS = {
    "counterexample": repro_counterexample,
    "proposition": repro_proposition,
    "codim1-zhao": repro_codim1_boundary,
    "cor62-f2": repro_cor62_f2,
}


def cmd_repro(args):
    expected, observed, extra = REPROS[args.name]()
    payload = {
        "name": args.name,
        "expected": expected,
        "observed": observed,
        "match": expected == observed,
    }
    payload.update(extra)
    return payload


# --- driver ---------------------------------------------------------------

@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="mathieumat",
        description="exact computations on subspaces of Mat_n over F_p and Q")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_file=True, help=None):
        p = sub.add_parser(name, help=help)
        if needs_file:
            p.add_argument("file", help="space file (see package docs for format)")
            p.add_argument("--field", default=None,
                           help="override the file's field: a prime or Q")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        p.set_defaults(fn=fn)
        return p

    add("constraints", cmd_constraints, help="trace-dual basis and dimension")
    add("profile", cmd_profile, help="binary profile B, counts b, generic dims d")
    add("normalize", cmd_normalize, help="run the conjugation normal form")
    p = add("idempotents", cmd_idempotents, help="affine idempotent family")
    p.add_argument("--r", type=int, required=True, help="block size, 1..n-1")
    p.add_argument("--form", choices=["upper", "lower"], default="upper")
    p = add("verify", cmd_verify, help="exhaustive Mathieu verdict")
    p.add_argument("--type", choices=sorted(TYPE_FLAGS), required=True)
    add("radical", cmd_radical, help="brute-force radical of the space")
    add("maxideal", cmd_maxideal, help="maximal left ideal and its normal form")
    add("main2", cmd_main2,
        help="conjugation making zero-corner constraints scalar")
    p = add("repro", cmd_repro, needs_file=False, help="canned reproductions")
    p.add_argument("name", choices=sorted(REPROS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if args.command == "repro":
            digest, payload, move_log = "-", args.fn(args), None
        else:
            digest, space = _load(args.file, args.field)
            payload, move_log = args.fn(args, space)
            payload.update(field=repr(space.field), n=space.n)
    except (SpaceFileError, argparse.ArgumentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MathieuMatError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    wall_time_ms = (time.perf_counter() - start) * 1000.0
    if args.json:
        report = {"command": args.command, "digest": digest, "payload": payload,
                  "wall_time_ms": wall_time_ms}
        if move_log is not None:
            report["move_log"] = move_log
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("command: %s" % args.command)
        print("digest: %s" % digest)
        for key in sorted(payload):
            print("%s: %s" % (key, json.dumps(payload[key], sort_keys=True)))
        if move_log is not None:
            print("move_log:")
            for move in move_log:
                print("  %s" % json.dumps(move, sort_keys=True))
        print("wall_time_ms: %.1f" % wall_time_ms)
    if args.command == "repro" and not payload["match"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
