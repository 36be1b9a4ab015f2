"""Batch verification driver.

Subcommands: list, verify, identities, curvature. All reports are
versioned JSON, written as one line with sorted keys; exit code 0 means
every requested check passed, 1 means a check failed, 2 means a usage or
configuration error. `main` alone turns an error into exit 2: a subcommand
raises a C235Error, which `main` prints as one `<Class>: message` line on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .chazy import residual_6th
from .dist import F_jet, catalog, dual_residual, get_spec
from .errors import C235Error, InvalidParam
from .specialfn import (
    CLOSED_FORM_HYPER,
    DEGREE6_EXCLUDED,
    HyperTriple,
    TRANSFORM_KINDS,
    hypergeom_pair,
    transform_identity_check,
    wronskian_check,
)
from . import geometry

REPORT_VERSION = 1
# the certificate tolerance: a Weyl ratio or a residual in c235 verify passes below it
DEFAULT_TOL = 1e-7
DEFAULT_POINTS = 10
DEFAULT_SEED = 0


def _tolerance(flag, default: float, env: str | None = None) -> float:
    """The tolerance from --tol, else from `env`, else `default`.

    Raises InvalidParam, with a one-line reason, unless it is a positive
    finite number.
    """
    if flag is not None:
        tol, source = flag, "--tol"
    elif env is not None and env in os.environ:
        raw = os.environ[env]
        try:
            tol = float(raw)
        except ValueError:
            raise InvalidParam(f"{env}={raw!r} is not a number") from None
        source = env
    else:
        return default
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParam(f"{source} must be a positive finite number, got {tol!r}")
    return tol


# an array's place in a report: json writes this string as _ARRAY_TEXT
_ARRAY = "\0"
_ARRAY_TEXT = json.dumps(_ARRAY)
# json.dumps options of every report: one line, sorted keys; every payload is
# a fresh tree, so the circular-reference check is skipped
_ONE_LINE = {"sort_keys": True, "separators": (",", ":"), "check_circular": False}


@functools.cache
def _zero_tokens(shapes: tuple) -> tuple:
    """The JSON of float zero arrays of `shapes`, cut into tokens at their entries.

    Returns (tokens, slots, glue, before). Flat entry i of the arrays, taken
    in turn, is tokens[slots[i]] == before[i] + "0.0", where before[i] is
    the brackets and comma json writes ahead of it; before[n + i], for n
    entries in all, is before[i] + "-". tokens[glue[k]] is an empty token
    ahead of array k, and tokens[glue[-1]] one after the last.
    """
    tokens, slots, glue, before = [], [], [], []
    for shape in shapes:
        glue.append(len(tokens))
        tokens.append("")
        *seps, close = json.dumps(np.zeros(shape).tolist(), separators=(",", ":")).split("0.0")
        slots.extend(range(len(tokens), len(tokens) + len(seps)))
        tokens.extend(sep + "0.0" for sep in seps)
        tokens.append(close)
        before.extend(seps)
    glue.append(len(tokens))
    tokens.append("")
    slots = np.array(slots)
    before = np.array(before + [sep + "-" for sep in before], dtype=object)
    slots.flags.writeable = before.flags.writeable = False
    return tuple(tokens), slots, tuple(glue), before


def _json_arrays(texts, arrays) -> str:
    """texts[0], then each float64 array's JSON followed by the next text, as one string.

    An array's JSON is the text json.dumps(a.tolist(), separators=(",", ":"))
    gives, written by value: the arrays' zero text comes from _zero_tokens,
    and each distinct non-zero magnitude is repr'd once, as json's encoder
    does, with "-" ahead of a negative entry (-0.0 included). Arrays that
    hold a NaN or an inf go through json.dumps itself, which writes them NaN,
    Infinity and -Infinity.
    """
    tokens, slots, glue, before = _zero_tokens(tuple(a.shape for a in arrays))
    flat = np.concatenate(arrays, axis=None)
    nz = np.flatnonzero(flat.view(np.int64))  # every entry but +0.0
    v = flat[nz]
    mags, which = np.unique(np.abs(v), return_inverse=True)
    if mags.size and not math.isfinite(mags[-1]):  # NaN and inf sort last
        return texts[0] + "".join(json.dumps(a.tolist(), separators=(",", ":")) + t
                                  for a, t in zip(arrays, texts[1:]))
    text = list(map(float.__repr__, mags.tolist()))
    out = list(tokens)
    for k, t in zip(glue, texts):
        out[k] = t
    signed = before[nz + flat.size * np.signbit(v)].tolist()
    for i, sep, k in zip(slots[nz].tolist(), signed, which.tolist()):
        out[i] = sep + text[k]
    return "".join(out)


def _report_text(payload: dict) -> str:
    """`payload` as one line of JSON with sorted keys, each ndarray in it as the JSON of its .tolist().

    json.dumps leaves _ARRAY in each float64 array's place, in the order of
    the sorted keys, and _json_arrays writes the arrays into those places
    by value. A string of the payload that reads as the placeholder sends
    the whole payload through .tolist().
    """
    arrays = []

    def by_value(a):
        if not isinstance(a, np.ndarray):
            raise TypeError(f"{type(a).__name__} is not JSON serializable")
        if a.dtype != np.float64:
            return a.tolist()
        arrays.append(a)
        return _ARRAY

    text = json.dumps(payload, default=by_value, **_ONE_LINE) + "\n"
    if not arrays:
        return text
    pieces = text.split(_ARRAY_TEXT)
    if len(pieces) != len(arrays) + 1:
        return json.dumps(payload, default=np.ndarray.tolist, **_ONE_LINE) + "\n"
    return _json_arrays(pieces, arrays)


def _emit(payload: dict, args) -> None:
    """Write a report, the one text of _report_text, to --out, stdout or both.

    Without `indent`, json.dumps uses CPython's C encoder; pretty-printing
    goes through the pure-Python one, which costs more than a curvature
    report takes to compute. Pipe through `python -m json.tool` to read it.
    The arrays of a curvature report are written by value (_json_arrays),
    without the nested lists of .tolist(), to the same text.
    """
    text = _report_text(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParam(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    if args.json or not args.out:
        sys.stdout.write(text)


# --- list ----------------------------------------------------------------


def cmd_list(args) -> int:
    entries = sorted(catalog(), key=lambda s: s.id)
    if args.filter:
        try:
            key, value = args.filter.split("=", 1)
        except ValueError:
            raise InvalidParam(f"bad --filter {args.filter!r}, expected key=value") from None
        InvalidParam.raise_where(key not in ("id", "picture", "family", "param_name"),
                                 f"unknown filter key {key!r}")
        entries = [s for s in entries if getattr(s, key) == value]
    rows = [
        {
            "id": s.id,
            "picture": s.picture,
            "family": s.family,
            "paramName": s.param_name,
            "domain": list(s.domain),
            "expectFail": s.expect_fail,
            "aliases": list(s.aliases),
            "note": s.note,
        }
        for s in entries
    ]
    if args.json or args.out:
        _emit({"version": REPORT_VERSION, "cases": rows}, args)
    else:
        for r in rows:
            flag = " [control]" if r["expectFail"] else ""
            alias = f" (alias: {', '.join(r['aliases'])})" if r["aliases"] else ""
            print(f"{r['id']:42s} {r['picture']:8s} {r['family']:20s}{flag}{alias}")
    return 0


# --- verify --------------------------------------------------------------


def _check(name: str, i: int, tol: float, outcome) -> dict:
    """One check entry: a value against tol, or the C235Error that stopped it."""
    if isinstance(outcome, C235Error):
        return {"name": name, "point": i, "value": None, "tol": tol,
                "pass": False, "error": f"{type(outcome).__name__}: {outcome}"}
    return {"name": name, "point": i, "value": outcome, "tol": tol, "pass": outcome < tol}


def _verify_case(spec, points: int, tol: float, seed: int) -> dict:
    pts = np.array(geometry.sample_points(spec, points, seed))
    # one F_jet call builds every point's solution jet, shared by every check
    failed = [None] * len(pts)  # the C235Error that stopped a point's jet
    jet, live = geometry.on_regular_rows(lambda p: F_jet(spec, p), pts[:, 4],
                                         np.arange(len(pts)), failed)
    weyl = list(failed)  # flatness_suite runs on the points whose jet was built
    for i, outcome in zip(live, geometry.flatness_suite(spec, pts[live], jet)):
        weyl[i] = outcome
    dual = geometry.per_point((functools.partial(dual_residual, spec),), jet, live, failed)
    if spec.picture == "F_of_q":
        checks = [("ode_residual_F", geometry.per_point((residual_6th,), jet, live, failed)),
                  ("weyl_flatness", weyl), ("duality_residual", dual)]
    else:
        checks = [("ode_residual_H", dual), ("weyl_flatness", weyl)]
    entries = [_check(name, i, tol, outcome) for name, outcomes in checks
               for i, outcome in enumerate(outcomes)]
    return {"id": spec.id, "expectFail": spec.expect_fail, "checks": entries,
            "pass": all(c["pass"] for c in entries)}


def cmd_verify(args) -> int:
    tol = _tolerance(args.tol, DEFAULT_TOL, "C235_TOL")
    InvalidParam.raise_where(args.points < 1, "need --points >= 1")
    InvalidParam.raise_where(args.seed < 0, "need --seed >= 0")
    specs = sorted(catalog(), key=lambda s: s.id) if args.case == "all" else [get_spec(args.case)]
    cases = [_verify_case(s, args.points, tol, args.seed) for s in specs]
    # the whole catalog expects its negative controls to fail; one case asked
    # for by id reports its raw result
    effective = [c["pass"] != (args.case == "all" and c["expectFail"]) for c in cases]
    report = {
        "version": REPORT_VERSION,
        "config": {
            "caseIds": args.case,
            "pointsPerCase": args.points,
            "tol": tol,
            "seed": args.seed,
        },
        "cases": cases,
        "summary": {
            "passed": int(sum(effective)),
            "failed": int(len(effective) - sum(effective)),
        },
    }
    _emit(report, args)
    return 0 if all(effective) else 1


# --- identities ----------------------------------------------------------

IDENTITY_KINDS = TRANSFORM_KINDS + ("wronskian",)
# samples per stacked call, so memory stays flat for any --samples
IDENTITY_CHUNK = 256


def _identity_samples(kind: str, rng, n: int) -> np.ndarray:
    """n sample points for an identity kind, one uniform draw each."""
    if kind == "quadratic":
        # the identity only holds on the s < 1/2 branch of the symmetric argument 4s(1-s)
        return rng.uniform(0.08, 0.45, n)
    if kind == "degree6":
        # (0.08, 0.92) less DEGREE6_EXCLUDED: draws at or above 0.49 move up by its width
        s0 = rng.uniform(0.08, 0.90, n)
        s0[s0 >= DEGREE6_EXCLUDED[0]] += 0.02
        return s0
    return rng.uniform(0.08, 0.92, n)


def _identity_values(kind: str, s0: np.ndarray) -> np.ndarray:
    """The named identity's relative error at each point of s0, in one stacked call."""
    if kind == "wronskian":
        p = CLOSED_FORM_HYPER["table1_row1"]
        return wronskian_check(lambda s: hypergeom_pair(p, s), p, 0.5, s0)
    return transform_identity_check(kind, s0)


def cmd_identities(args) -> int:
    tol = _tolerance(args.tol, 1e-10)
    InvalidParam.raise_where(args.samples < 1, "need --samples >= 1")
    InvalidParam.raise_where(args.seed < 0, "need --seed >= 0")
    InvalidParam.raise_where(args.kind not in IDENTITY_KINDS + ("all",),
                             f"unknown identity kind {args.kind!r}; choose from "
                             f"{', '.join(IDENTITY_KINDS)} or all")
    kinds = list(IDENTITY_KINDS) if args.kind == "all" else [args.kind]
    rng = np.random.default_rng(args.seed)
    results = []
    for kind in kinds:
        s0 = _identity_samples(kind, rng, args.samples)
        values = np.concatenate([_identity_values(kind, s0[i:i + IDENTITY_CHUNK])
                                 for i in range(0, args.samples, IDENTITY_CHUNK)])
        results.extend(
            {"kind": kind, "sample": i, "s0": float(s), "value": float(v),
             "tol": tol, "pass": bool(v < tol)}
            for i, (s, v) in enumerate(zip(s0, values))
        )
    ok = all(r["pass"] for r in results)
    report = {
        "version": REPORT_VERSION,
        "config": {"kinds": kinds, "samples": args.samples, "tol": tol,
                   "seed": args.seed},
        "results": results,
        "summary": {"passed": int(sum(r["pass"] for r in results)),
                    "failed": int(sum(not r["pass"] for r in results))},
    }
    _emit(report, args)
    return 0 if ok else 1


# --- curvature -----------------------------------------------------------


def _parse_point(text: str, spec) -> dict:
    """The coordinates x, y, z, p, spec.param_name by name, in that order: each once, finite."""
    names = ("x", "y", "z", "p", spec.param_name)
    vals = {}
    for part in text.split(","):
        try:
            key, raw = part.split("=", 1)
            key, value = key.strip(), float(raw)
        except ValueError:
            raise InvalidParam(f"malformed point {text!r}") from None
        InvalidParam.raise_where(key not in names,
                                 lambda: f"unknown coordinate {key!r}; expected {', '.join(names)}")
        InvalidParam.raise_where(key in vals, lambda: f"coordinate {key!r} is given twice")
        InvalidParam.raise_where(not math.isfinite(value), lambda: f"{key}={value} is not finite")
        vals[key] = value
    missing = [k for k in names if k not in vals]
    InvalidParam.raise_where(bool(missing),
                             lambda: f"point is missing coordinates: {', '.join(missing)}")
    return {k: vals[k] for k in names}


def cmd_curvature(args) -> int:
    spec = get_spec(args.case)
    point = _parse_point(args.point, spec)
    g = geometry.metric_at(geometry.coframe_for_spec(spec, tuple(point.values())))
    rep = geometry.curvature(g)
    payload = {
        "version": REPORT_VERSION,
        "case": spec.id,
        "point": point,
        "coords": list(geometry.coframe_coords(spec)),
        # the tensors stay arrays, which _emit writes by value
        "report": {**vars(rep), "signature": list(geometry.metric_signature(g))},
    }
    _emit(payload, args)
    return 0


# --- entry point ---------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="c235",
        description="verification suite for the flat (2,3,5)-distribution catalog",
    )
    parser.add_argument("--version", action="version", version=f"c235 {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.commands = sub.choices  # each subcommand's own parser, by name
    # flags shared by subcommands: how a report is written, and how a run samples
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true")
    output.add_argument("--out")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--tol", type=float, default=None)
    sampling.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_list = sub.add_parser("list", parents=[output], help="list catalog cases")
    p_list.add_argument("--filter", help="key=value, e.g. picture=H_of_t")
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", parents=[output, sampling],
                              help="run residual and flatness checks")
    p_verify.add_argument("--case", default="all")
    p_verify.add_argument("--points", type=int, default=DEFAULT_POINTS)
    p_verify.set_defaults(func=cmd_verify)

    p_ident = sub.add_parser("identities", parents=[output, sampling],
                             help="run transformation identity checks")
    p_ident.add_argument("--kind", default="all")
    p_ident.add_argument("--samples", type=int, default=10)
    p_ident.set_defaults(func=cmd_identities)

    p_curv = sub.add_parser("curvature", parents=[output],
                            help="full curvature report at one point")
    p_curv.add_argument("--case", required=True)
    p_curv.add_argument("--point", required=True,
                        help="x=..,y=..,z=..,p=..,<param>=..")
    p_curv.set_defaults(func=cmd_curvature)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # the parser of the subcommand argv[0] names reads the rest, once; the top-level
    # parser reads --version, --help, a bare c235 and an argv that names no subcommand
    command = parser.commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        # an --out that cannot be a file is refused before any work
        out_dir = os.path.dirname(args.out or "")
        InvalidParam.raise_where(bool(args.out) and os.path.isdir(args.out),
                                 f"--out {args.out!r} is a directory")
        InvalidParam.raise_where(bool(out_dir) and not os.path.isdir(out_dir),
                                 f"--out {args.out!r}: no directory {out_dir!r}")
        return args.func(args)
    except C235Error as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
