"""Command-line front end: parse space files, run computations, report.

The commands form one table, ``COMMANDS``.  Every command is
``cmd_x(args, space) -> (payload, move_log)``, with ``space`` None for
``repro``, the one command without a file; it returns only its own
payload keys (``move_log`` is None except for ``normalize``).  ``main``
does the shared work once: it parses the arguments, loads the space
file, adds ``field`` and ``n`` to the payload when there is a space, and
reports the payload with the file's sha256 (``digest``; "-" for
``repro``) and the wall time.  It looks the command's function up at
call time, so a wrapper installed on ``cmd_x`` after import is called.
A well-formed command line is read straight off the table by ``_read``.
Any other line, a request for help included, goes to argparse, imported
and built from the same table only then, which reads it or rejects it
with its own usage and message.
``main2`` sets ``conclusion_holds: true`` itself:
``rct_certificate`` raises unless the zero-corner conclusion holds; and
``verify`` sets a witness's ``replays: true`` itself: ``verify_mathieu``
raises unless the witness it returns replays.

Reports are a single structured document on stdout (plain text, or JSON
with ``--json``, written by ``_json`` as ``json.dumps(report,
sort_keys=True, indent=2)`` would write it); diagnostics go to stderr.
Identical input files give byte-identical payloads; only the wall-time
field varies.  A basis in a report is read off the space's integer rows,
with no ``Fraction`` or matrix built.  Exit status is 0 on success (and,
for ``repro``, only when the observed outcome matches the expected one),
1 on domain errors or mismatches, 2 on argument or parse errors.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time
import types
from json.encoder import encode_basestring_ascii
from operator import mul

from . import spacefile
from .errors import MathieuMatError, SpaceFileError
from .idempotents import LOWER, UPPER, idempotent_family
from .linalg import DenseMatrix, Field, _complement, _eliminate, _grid, all_subspaces
from .matspace import MatrixSubspace, binary_profile, constraint_space
from .normalize import normalize, rct_certificate
from .verify import (
    ALL_TYPES,
    LEFT,
    PRE_TWO_SIDED,
    RIGHT,
    TWO_SIDED,
    _radical,
    idempotents,
    left_ideal_normal_form,
    max_left_ideal,
    proposition_family,
    verify_mathieu,
)

TYPE_FLAGS = {"left": LEFT, "right": RIGHT, "pre2": PRE_TWO_SIDED, "two": TWO_SIDED}


def matrix_payload(m: DenseMatrix):
    """The rows of a matrix as the report holds them: F_p residues,
    already canonical ``int``s, as they are; rationals as strings."""
    if m.field.p:
        return list(map(list, m.entries))
    return [list(map(str, row)) for row in m.entries]


def _basis_rows(vs):
    """The canonical basis of a ``VectorSubspace`` as ``matrix_payload``
    writes it, read off its integer rows: over Q, each entry x of a row
    with pivot entry a > 0 as ``str(Fraction(x, a))`` writes it."""
    if vs.field.p:
        return list(map(list, vs.rows))
    out = []
    for row, c in zip(vs.rows, vs.pivots):
        a = row[c]
        out.append([str(x // g) if g == a else "%d/%d" % (x // g, a // g)
                    for x, g in zip(row, [math.gcd(x, a) for x in row])])
    return out


def _basis_payload(space):
    """``matrix_payload`` of each of ``basis_matrices``, off ``_basis_rows``."""
    n = space.n
    return [_grid(n, row) for row in _basis_rows(space.basis)]


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
        "basis": _basis_payload(cons),
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
        "final_basis": _basis_payload(result.c_n_final),
    }
    move_log = [
        {"kind": m.kind, "level": m.level, "t": matrix_payload(m.t)}
        for m in result.log
    ]
    return payload, move_log


def cmd_idempotents(args, space):
    if not 1 <= args.r <= space.n - 1:
        raise _UsageError("--r %d out of range 1..%d" % (args.r, space.n - 1))
    fam = idempotent_family(space, args.r, args.form)
    payload = {
        "r": fam.r,
        "form": fam.form,
        "rank": fam.rank,
        "dim": fam.dim,
        "particular": matrix_payload(fam.particular),
        "directions": _basis_rows(fam.directions),
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
    elements = _radical(space).tolist()
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
        "basis": _basis_payload(ideal),
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
    members of t^-1 (space) t are the scalar line alone.  The
    zero-top-right-block matrices Z_r stabilise W = span(e_(r+1) .. e_n),
    so t^-1 S t meets Z_r in t^-1 S_U t, S_U the members of S mapping
    U = tW, the span of t's last n - r columns, into itself.  GL_n
    permutes the U of each dimension transitively, so each U of
    ``all_subspaces`` is the span of an equal share of the
    |GL_n| = prod_(i<n) (q^n - q^i) conjugators.  C maps U into U iff
    k . C u = 0 for each row u of U's RREF and each k of its annihilator
    (``_complement``): dim S_U is dim S less the rank of those r (n - r)
    values over the basis rows of S, one forward elimination per U."""
    f, n, p = space.field, space.n, space.field.p
    conjugators = math.prod(p ** n - p ** i for i in range(n))
    grids = [_grid(n, row) for row in space.basis.rows]
    successes = 0
    for r in range(1, n):
        spans = list(all_subspaces(f, n, n - r))
        for u in spans:
            kills = _complement(f, u.rows, u.pivots, n)
            values = [[sum(map(mul, k, [sum(map(mul, g, w)) for g in grid])) % p
                       for k in kills for w in u.rows] for grid in grids]
            if space.dim - len(_eliminate(f, values, r * (n - r), r * (n - r))) == 1:
                successes += conjugators // len(spans)
    return conjugators, successes


def repro_counterexample():
    """Exhaustive check that no conjugation over F_2 makes the zero-corner
    members of the adjoined running pair scalar, for either block size.
    Conjugation fixes I, so the pair is adjoined once; all 168 = |GL_3(F_2)|
    conjugators are decided from 14 ranks, one per block size r and span
    of the last 3 - r columns: the 7 planes and 7 lines of F_2^3."""
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


def cmd_repro(args, space):
    expected, observed, extra = REPROS[args.name]()
    payload = {
        "name": args.name,
        "expected": expected,
        "observed": observed,
        "match": expected == observed,
    }
    payload.update(extra)
    return payload, None


# --- driver ---------------------------------------------------------------

# The grammar of the command line, declared once for both of its readers:
# command -> (help, positional, *options).  An argument is (flag,
# converter, default, required, help); the converter is ``str``,
# ``int``, a list of choices, or ``bool`` for a flag that takes no value.
_FILE = ("file", str, None, True, "space file (see package docs for format)")
_FIELD = ("--field", str, None, False, "override the file's field: a prime or Q")
_JSON = ("--json", bool, False, False, "emit the report as JSON")
COMMANDS = {
    "constraints": ("trace-dual basis and dimension", _FILE, _FIELD, _JSON),
    "profile": ("binary profile B, counts b, generic dims d", _FILE, _FIELD, _JSON),
    "normalize": ("run the conjugation normal form", _FILE, _FIELD, _JSON),
    "idempotents": ("affine idempotent family", _FILE, _FIELD, _JSON,
                    ("--r", int, None, True, "block size, 1..n-1"),
                    ("--form", [UPPER, LOWER], UPPER, False, None)),
    "verify": ("exhaustive Mathieu verdict", _FILE, _FIELD, _JSON,
               ("--type", sorted(TYPE_FLAGS), None, True, None)),
    "radical": ("brute-force radical of the space", _FILE, _FIELD, _JSON),
    "maxideal": ("maximal left ideal and its normal form", _FILE, _FIELD, _JSON),
    "main2": ("conjugation making zero-corner constraints scalar", _FILE, _FIELD, _JSON),
    "repro": ("canned reproductions", ("name", sorted(REPROS), None, True, None), _JSON),
}


class _UsageError(Exception):
    """An argument its space rules out: reported like a space file
    error, with exit status 2."""


@functools.cache
def build_parser():
    """The argparse parser of ``COMMANDS``.  It runs only for a line
    ``_read`` does not take, to reject it or print help, or to read the
    rare line it accepts in another spelling (an abbreviation, a
    ``--flag=value``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mathieumat",
        description="exact computations on subspaces of Mat_n over F_p and Q")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, *arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, convert, default, required, text in arguments:
            kwargs = {"help": text}
            if flag.startswith("-"):
                kwargs.update(default=default, required=required)
            if convert is bool:
                kwargs["action"] = "store_true"
            elif convert is int:
                kwargs["type"] = int
            elif convert is not str:
                kwargs["choices"] = convert
            p.add_argument(flag, **kwargs)
    return parser


def _read(argv):
    """The arguments of a well-formed command line, read off ``COMMANDS``,
    or None.  Well-formed is the command, then in any order its one
    positional and its options, each spelled in full and given at most
    once; a positional or an option's value does not start with "-",
    converts and is among the choices, and no required argument is
    missing.  argparse gives such a line the same arguments."""
    spec = COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    arguments = spec[1:]
    positional = arguments[0]
    flags = {argument[0]: argument for argument in arguments[1:]}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        argument = flags.get(token) if token.startswith("-") else positional
        if argument is None or argument[0] in values:
            return None
        flag, convert = argument[:2]
        if convert is bool:
            values[flag] = True
            continue
        value = token if argument is positional else next(tokens, "-")   # "-": none left
        if value.startswith("-"):
            return None
        if convert is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif convert is not str and value not in convert:
            return None
        values[flag] = value
    if any(required and flag not in values for flag, _, _, required, _ in arguments):
        return None
    return types.SimpleNamespace(command=argv[0], **{
        flag.lstrip("-"): values.get(flag, default) for flag, _, default, _, _ in arguments})


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
    # a well-formed line is read directly, any other by argparse
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or build_parser().parse_args(argv)
    # the command's function as bound now, a wrapper installed after import included
    fn = {"constraints": cmd_constraints, "profile": cmd_profile, "normalize": cmd_normalize,
          "idempotents": cmd_idempotents, "verify": cmd_verify, "radical": cmd_radical,
          "maxideal": cmd_maxideal, "main2": cmd_main2, "repro": cmd_repro}[args.command]
    start = time.perf_counter()
    try:
        digest, space = ("-", None) if args.command == "repro" else _load(args.file, args.field)
        payload, move_log = fn(args, space)
        if space is not None:
            payload.update(field=repr(space.field), n=space.n)
    except (SpaceFileError, _UsageError) as exc:
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
