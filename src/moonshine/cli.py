"""Command-line surface: every subsystem as a scriptable subcommand.

All numbers are printed as exact decimals (rationals as num/den); the --json
flag switches to newline-delimited JSON objects whose integers are encoded as
strings, so consumers never face 64-bit overflow.  A number past the
interpreter's int/str digit limit, in an argument or in a result, is an
``error:`` line, not a traceback.  Exit codes: 0 success,
1 a verification returned false, 2 a usage error or one ``error:`` line for a
:class:`MoonshineError` or ``OSError``; any other exception is a fault and
propagates.  No budget or option is read from the environment.

Each command, and each argument type that builds a library object, imports
the one subsystem it uses when it runs, so a call loads only that subsystem:
``group`` never loads the series code, and ``reduce`` no group code.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from ._errors import MoonshineError


def _too_long():
    return MoonshineError(f"a result has more than {sys.get_int_max_str_digits()} digits, "
                          "the limit of sys.get_int_max_str_digits()")


def _int_str(n):
    """Decimal text of the int ``n``; every number the CLI prints goes
    through here or, for a word's exponents, :func:`_word_str`.  A result
    longer than the interpreter's int/str digit limit is refused with one
    line instead of str()'s ValueError."""
    try:
        return str(n)
    except ValueError:
        raise _too_long() from None


def _word_str(word):
    """A generator word as text, refused like :func:`_int_str` if an
    exponent is past the digit limit."""
    from . import sl2z
    try:
        return sl2z.word_to_str(word)
    except ValueError:
        raise _too_long() from None


def _json_safe(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return _int_str(value)
    if isinstance(value, Fraction):
        return _frac_str(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return str(value)


def _emit(args, record, human_lines):
    if args.json:
        print(json.dumps(_json_safe(record), sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _coeff_str(c):
    return _frac_str(c) if isinstance(c, Fraction) else _int_str(c)


def _frac_str(v):
    """An int or Fraction as num/den."""
    return f"{_int_str(v.numerator)}/{_int_str(v.denominator)}"


# CPython's default int/str digit limit.  It bounds decimal exponents when
# the interpreter's limit is switched off (0) or missing, since Fraction()
# would build 10^e for any e.
_DEFAULT_DIGIT_LIMIT = 4300


def _check_digits(text):
    """Refuse an integer longer than the interpreter's int/str digit limit,
    which int() and Fraction() would report as malformed, echoing it whole,
    and a decimal exponent past it (or past ``_DEFAULT_DIGIT_LIMIT`` if the
    limit is off), for which Fraction() would build 10^e."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    text = text.replace("_", "")
    longest = max(map(len, re.findall(r"\d+", text)), default=0)
    if limit and longest > limit:
        raise MoonshineError(f"an integer argument has {longest} digits, more than the "
                             f"limit of {limit} (sys.get_int_max_str_digits())")
    bound = limit or _DEFAULT_DIGIT_LIMIT
    exponent = max((abs(int(e)) for e in re.findall(r"[eE]([-+]?\d+)", text)), default=0)
    if exponent > bound:
        raise MoonshineError(f"a decimal exponent of {exponent} is past the limit of {bound}")


def _parse_fraction(text):
    _check_digits(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_point(text):
    from . import sl2z
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a point as x,y with rational parts")
    x, y = (_parse_fraction(p) for p in parts)
    try:
        return sl2z.UpperHalfPoint(x, y)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a complex number as re,im")
    return tuple(_parse_fraction(p) for p in parts)


def _parse_matrix(text):
    from . import sl2z
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected a matrix as a,b,c,d")
    _check_digits(text)
    try:
        entries = [int(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError("matrix entries must be integers") from exc
    try:
        return sl2z.PSLElement(sl2z.Mat2Z(*entries))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


_GROUP_NAME = re.compile(r"^([CDAS])(\d+)$")


def _parse_group(name):
    from . import groups
    m = _GROUP_NAME.match(name)
    if not m:
        raise argparse.ArgumentTypeError(
            f"unknown group {name!r}; use C<n>, D<n>, A<n> or S<n>")
    family, n = m.group(1), int(m.group(2))
    maker = {"C": groups.cyclic_group, "D": groups.dihedral_group,
             "A": groups.alternating_group, "S": groups.symmetric_group}[family]
    try:
        return maker(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _series_lines(series, lo, hi):
    return [f"{_int_str(n)} {_coeff_str(series.coefficient(n))}" for n in range(lo, hi)]


def _series_record(series, lo, hi):
    return {"coefficients": {_int_str(n): series.coefficient(n) for n in range(lo, hi)}}


def cmd_j(args):
    from . import modular
    form = modular.j_normalized(args.order) if args.normalized else modular.j_expansion(args.order)
    lines = _series_lines(form.series, -1, args.order)
    _emit(args, {"label": form.label, **_series_record(form.series, -1, args.order)}, lines)
    return 0


def cmd_eisenstein(args):
    from . import modular
    form = modular.eisenstein_normalized(args.weight, args.order)
    lines = _series_lines(form.series, 0, args.order)
    _emit(args, {"label": form.label, "weight": args.weight,
                 **_series_record(form.series, 0, args.order)}, lines)
    return 0


def cmd_delta(args):
    from . import modular
    form = modular.discriminant(args.order)
    lines = _series_lines(form.series, 1, args.order)
    _emit(args, {"label": form.label, **_series_record(form.series, 1, args.order)}, lines)
    return 0


def cmd_reduce(args):
    from . import sl2z
    tau_star, m, word = sl2z.reduce_to_fundamental(args.tau)
    text = _word_str(word)
    record = {
        "tau": [tau_star.x, tau_star.y],
        "matrix": list(m.rep.entries()),
        "word": text,
        "in_domain": sl2z.in_fundamental_domain(tau_star),
    }
    lines = [
        f"tau {_frac_str(tau_star.x)} {_frac_str(tau_star.y)}",
        "matrix " + " ".join(map(_int_str, m.rep.entries())),
        f"word {text}",
    ]
    _emit(args, record, lines)
    return 0


def cmd_equiv(args):
    from . import sl2z
    m = sl2z.tau_equivalent(args.tau1, args.tau2)
    if m is None:
        _emit(args, {"equivalent": False}, ["equivalent false"])
    else:
        _emit(args, {"equivalent": True, "matrix": list(m.rep.entries())},
              ["equivalent true", "matrix " + " ".join(map(_int_str, m.rep.entries()))])
    return 0


def cmd_lattice(args):
    from . import sl2z
    b1 = sl2z.LatticeBasis(args.b1[0], args.b1[1])
    b2 = sl2z.LatticeBasis(args.b2[0], args.b2[1])
    m = sl2z.lattice_same(b1, b2)
    if m is None:
        _emit(args, {"same_lattice": False}, ["same-lattice false"])
    else:
        flat = [m[0][0], m[0][1], m[1][0], m[1][1]]
        _emit(args, {"same_lattice": True, "matrix": flat},
              ["same-lattice true", "matrix " + " ".join(map(_int_str, flat))])
    return 0


def cmd_word(args):
    from . import sl2z
    word = sl2z.word_decompose(args.matrix)
    check = sl2z.evaluate_word(word) == args.matrix
    text = _word_str(word)
    _emit(args, {"word": text, "verified": check}, [f"word {text}"])
    return 0 if check else 1


def cmd_group(args):
    g = args.name
    if args.action == "classes":
        classes = g.conjugacy_classes()
        # Lazy, so that --json, which prints no representative, spells none out.
        lines = (f"{_int_str(c.size)} {c.representative!r}" for c in classes)
        record = {"group": g.name, "order": g.order,
                  "class_sizes": [c.size for c in classes]}
    elif args.action == "series":
        chain = g.composition_series()
        lines = ["orders " + " ".join(_int_str(len(s)) for s in chain)]
        record = {"group": g.name, "subgroup_orders": [len(s) for s in chain]}
    else:
        factors = g.jordan_holder_factors()
        lines = [" ".join(_int_str(d.order) for d in factors)]
        record = {"group": g.name, "factor_orders": [d.order for d in factors],
                  "abelian": [d.is_abelian for d in factors]}
    _emit(args, record, lines)
    return 0


def cmd_mckay(args):
    from . import monster
    coeffs = monster.CoeffTable.from_resource()
    if args.irreps:
        dims = monster.IrrepDims.from_file(args.irreps)
    else:
        dims = monster.IrrepDims.from_resource()
    results = monster.mckay_identity_check(coeffs, dims)
    lines = []
    rows = []
    ok = True
    for chk in results:
        if chk.status is monster.CheckStatus.NOT_CONFIGURED:
            lines.append(f"{chk.label} not-configured (supply more irrep dimensions)")
            rows.append({"label": chk.label, "status": chk.status.value})
            continue
        ok = ok and chk.status is monster.CheckStatus.PASS
        mults = " + ".join(f"{_int_str(m)}*r{_int_str(i + 1)}"
                           for i, m in enumerate(chk.decomposition.multiplicities) if m)
        lines.append(f"{chk.label} = {_int_str(chk.coefficient)} vs {mults} = "
                     f"{_int_str(chk.decomposition.total)}: {chk.status.value}")
        rows.append({"label": chk.label, "status": chk.status.value,
                     "coefficient": chk.coefficient, "sum": chk.decomposition.total,
                     "multiplicities": list(chk.decomposition.multiplicities)})
    _emit(args, {"checks": rows, "all_configured_pass": ok}, lines)
    return 0 if ok else 1


def cmd_knz(args):
    from . import monster
    result = monster.knz_verify(args.order, unnormalized_c0=args.use_unnormalized_c0)
    lines = [f"equal: {'true' if result.equal else 'false'}"]
    mism = result.mismatches()
    for m, n, a, b in mism[:20]:
        lines.append(f"p^{_int_str(m)} q^{_int_str(n)}: lhs {_int_str(a)} rhs {_int_str(b)}")
    record = {"order": args.order, "equal": result.equal,
              "mismatches": [{"p": m, "q": n, "lhs": a, "rhs": b} for m, n, a, b in mism]}
    _emit(args, record, lines)
    return 0 if result.equal else 1


def cmd_facts(args):
    from . import monster
    facts = monster.MONSTER_FACTS
    order = facts.order
    digits = len(_int_str(order))
    record = {
        "order": order,
        "order_digits": digits,
        "order_factorization": [[p, e] for p, e in facts.order_factorization],
        "conjugacy_classes": facts.conjugacy_class_count,
        "distinct_mckay_thompson_series": facts.distinct_mckay_thompson_series,
        "mckay_thompson_span_dimension": facts.mckay_thompson_span_dimension,
    }
    lines = [
        f"order {_int_str(order)}",
        f"order-digits {_int_str(digits)}",
        "order-factorization " + " ".join(f"{_int_str(p)}^{_int_str(e)}" if e > 1 else _int_str(p)
                                          for p, e in facts.order_factorization),
        f"conjugacy-classes {_int_str(facts.conjugacy_class_count)}",
        f"distinct-mckay-thompson-series {_int_str(facts.distinct_mckay_thompson_series)}",
        f"mckay-thompson-span-dimension {_int_str(facts.mckay_thompson_span_dimension)}",
    ]
    _emit(args, record, lines)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="moonshine",
        description="Exact arithmetic for the J-invariant, the modular group, "
                    "small finite groups and moonshine numerology.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit newline-delimited JSON with string-encoded integers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("j", parents=[common], help="coefficients of the modular invariant")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--normalized", action="store_true", help="drop the constant term 744")
    p.set_defaults(func=cmd_j)

    p = sub.add_parser("eisenstein", parents=[common], help="normalized Eisenstein series")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_eisenstein)

    p = sub.add_parser("delta", parents=[common], help="the discriminant cusp form")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("reduce", parents=[common], help="reduce a point into the fundamental domain")
    p.add_argument("--tau", type=_parse_point, required=True, metavar="X,Y")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("equiv", parents=[common], help="test two points for orbit equivalence")
    p.add_argument("--tau1", type=_parse_point, required=True, metavar="X,Y")
    p.add_argument("--tau2", type=_parse_point, required=True, metavar="X,Y")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("lattice", parents=[common], help="test two bases for lattice equality")
    p.add_argument("--b1", type=_parse_complex, nargs=2, required=True, metavar="RE,IM")
    p.add_argument("--b2", type=_parse_complex, nargs=2, required=True, metavar="RE,IM")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("word", parents=[common], help="decompose a matrix into generator moves")
    p.add_argument("--matrix", type=_parse_matrix, required=True, metavar="A,B,C,D")
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("group", parents=[common], help="structure of a named finite group")
    p.add_argument("--name", type=_parse_group, required=True, metavar="C12|D5|A5|S4")
    p.add_argument("--action", choices=["classes", "series", "factors"], required=True)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("mckay", parents=[common], help="check the decomposition identities")
    p.add_argument("--irreps", metavar="PATH",
                   help="file of 'index value' lines overriding the embedded irrep dimensions")
    p.set_defaults(func=cmd_mckay)

    p = sub.add_parser("knz", parents=[common], help="verify the two-variable product identity")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--use-unnormalized-c0", action="store_true",
                   help="negative control: use c(0) = 744 in the exponents")
    p.set_defaults(func=cmd_knz)

    p = sub.add_parser("facts", parents=[common], help="documented monster constants")
    p.set_defaults(func=cmd_facts)

    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    # Parsing leaves no state behind in the parser, and building one costs
    # far more than a parse, so one parser serves every call in the process.
    return build_parser()


def main(argv=None) -> int:
    try:
        # Parsing builds the named group, whose budget check may refuse it.
        args = _parser().parse_args(argv)
        return args.func(args)
    except (MoonshineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
