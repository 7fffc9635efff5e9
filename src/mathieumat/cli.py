"""Command-line front end: parse space files, run computations, report.

The commands form one table in ``build_parser``.  A file command is
``cmd_x(args, space) -> (payload, move_log)`` and returns only its own
payload keys (``move_log`` is None except for ``normalize``); ``repro``,
the one command without a file, returns its payload alone.  ``main``
does the shared work once: it parses the arguments, loads the space
file, adds ``field`` and ``n`` to the payload, and reports the payload
with the file's sha256 (``digest``; "-" for ``repro``) and the wall
time.  The parsers are built once per process, on first use rather than
at import, so a wrapper installed on a command after import is the one
it dispatches to.  A command line goes straight to its command's
parser; the top-level one runs only to reject it, with argparse's own
usage and message.  ``main2`` sets ``conclusion_holds: true`` itself:
``rct_certificate`` raises unless the zero-corner conclusion holds; and
``verify`` sets a witness's ``replays: true`` itself: ``verify_mathieu``
raises unless the witness it returns replays.

Reports are a single structured document on stdout (plain text, or JSON
with ``--json``, written by ``_json`` as ``json.dumps(report,
sort_keys=True, indent=2)`` would write it); diagnostics go to stderr.
Identical input files give byte-identical payloads; only the wall-time
field varies.  Exit status is 0 on success (and, for ``repro``, only
when the observed outcome matches the expected one), 1 on domain errors
or mismatches, 2 on argument or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii

from . import spacefile
from .errors import MathieuMatError, SpaceFileError
from .idempotents import LOWER, UPPER, idempotent_family
from .linalg import DenseMatrix, Field, all_subspaces
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
)

TYPE_FLAGS = {"left": LEFT, "right": RIGHT, "pre2": PRE_TWO_SIDED, "two": TWO_SIDED}


def _rows_payload(field, rows):
    """Rows of scalars as the report holds them: F_p residues, already
    canonical ``int``s, as they are; rationals as strings."""
    if field.p:
        return list(map(list, rows))
    return [list(map(str, row)) for row in rows]


def matrix_payload(m: DenseMatrix):
    return _rows_payload(m.field, m.entries)


def _load(path, field_token):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8-sig")     # a leading BOM, as Windows editors write
    except (OSError, UnicodeDecodeError) as exc:
        raise SpaceFileError(str(exc))
    return hashlib.sha256(raw).hexdigest(), spacefile.loads(text, field_token)


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
        "directions": _rows_payload(space.field, fam.directions.basis),
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
            "replays": True,
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


def _scalar_corners(space):
    """``(conjugators, successes)``: how many t over the space's field
    are invertible, and for how many pairs (t, r) the zero-corner
    members of t^-1 (space) t are the scalar line alone.  The zero-top-right-block
    matrices Z_r stabilise W = span(e_(r+1) .. e_n), so t^-1 S t meets
    Z_r in t^-1 (S meets Stab(tW)) t: its dimension depends only on r
    and U = tW, the span of t's last n - r columns.  GL_n permutes the U
    of each dimension transitively, so each U of ``all_subspaces`` is
    the span of an equal share of the |GL_n| = prod_(i<n) (q^n - q^i)
    conjugators, and one t is formed per U: the identity columns off U's
    pivots, then U's canonical basis (e_i at its pivot i modulo those)."""
    f, n = space.field, space.n
    conjugators = math.prod(f.p ** n - f.p ** i for i in range(n))
    eye = DenseMatrix.identity(f, n).entries
    successes = 0
    for r in range(1, n):
        spans = list(all_subspaces(f, n, n - r))
        for u in spans:
            columns = [e for i, e in enumerate(eye) if i not in u.pivots] + list(u.basis)
            t = DenseMatrix._trusted(f, zip(*columns), n)
            if rct_zero_members(conjugate(space, t), r).dim == 1:
                successes += conjugators // len(spans)
    return conjugators, successes


def repro_counterexample():
    """Exhaustive check that no conjugation over F_2 makes the zero-corner
    members of the adjoined running pair scalar, for either block size.
    Conjugation fixes I, so the pair is adjoined once; all 168 = |GL_3(F_2)|
    conjugators are decided from 14 conjugates, one per block size r and
    span of the last 3 - r columns: the 7 planes and 7 lines of F_2^3."""
    conjugators, fixed = _scalar_corners(running_pair_space(Field.prime(2)).adjoin_identity())
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
    """sl_n(K): the trace dual of the scalar line."""
    return constraint_space(
        MatrixSubspace.from_matrices(field, n, [DenseMatrix.identity(field, n)]))


def repro_codim1_boundary():
    """Trace-zero matrices of Mat_2(F_p): Mathieu of all four types for
    p in {3, 5}, and of none for p = 2 (``verify_mathieu`` replays the
    witnesses)."""
    outcomes = {}
    ok = True
    for p in (2, 3, 5):
        h = _trace_zero(Field.prime(p), 2)
        verdicts = {t: verify_mathieu(h, t) for t in ALL_TYPES}
        holds = {t: v.holds for t, v in verdicts.items()}
        if p == 2:
            ok &= not any(holds.values())
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
    """The top-level parser and its table of command parsers."""
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
    return parser, sub.choices


def _parse_args(argv):
    """The arguments of one command line, parsed by the command's own
    parser.  The top-level parser, which would hand them to that same
    parser, runs only to reject: a first word that is not a command, or
    arguments the command's parser leaves over."""
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _json(value, nl="\n"):
    """``json.dumps(value, sort_keys=True, indent=2)`` for a report's
    types (dict with str keys, list, str, int, bool, None, finite float),
    written directly: with ``indent`` set, ``json`` encodes in pure
    Python.  ``nl`` is the newline and indent of the line ``value``
    ends on; a flat ``int`` list is joined in one step."""
    kind = type(value)
    if kind is list:
        if not value:
            return "[]"
        inner = nl + "  "
        if {*map(type, value)} == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_json(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json(v, inner)
             for k, v in sorted(value.items())]) + nl + "}"
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    raise TypeError("not a report value: %r" % (value,))


def main(argv=None) -> int:
    args = _parse_args(argv)
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
        print(_json(report))
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
