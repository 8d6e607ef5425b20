"""Command-line surface: every subsystem as a scriptable subcommand.

Each command does its library work and returns its exit code, one record and
a function that makes the text lines from that record.  :func:`_render` then
spells out every number in the record exactly once, before anything is
written: an int in decimal, a rational as num/den.  With --json it prints the
record as one JSON object whose integers are strings, so consumers never face
64-bit overflow; otherwise it streams the text lines one at a time, so a long
output is never held whole.  A number past the interpreter's int/str digit
limit, in an argument or in a result, is one ``error:`` line, not a
traceback, and a refused result leaves stdout empty.  Exit codes: 0 success,
1 a verification returned false, 2 a usage error or one ``error:`` line for a
:class:`MoonshineError` or ``OSError``; any other exception is a fault and
propagates.  No budget or option is read from the environment.

Each command, and each argument type that builds a library object, imports
the one subsystem it uses when it runs, so a call loads only that subsystem:
``group`` never loads the series code, and ``reduce`` no group code.  Only
--json loads ``json``.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from ._errors import MoonshineError


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


def _parse_int(text):
    # int() refuses every text that _check_digits refuses, so the check,
    # several microseconds per argument, runs only to word a refusal.
    try:
        return int(text)
    except ValueError:
        _check_digits(text)
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_fraction(text):
    _check_digits(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two rationals as x,y")
    return tuple(_parse_fraction(p) for p in parts)


def _parse_point(text):
    from . import sl2z
    try:
        return sl2z.UpperHalfPoint(*_parse_complex(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_matrix(text):
    from . import sl2z
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected a matrix as a,b,c,d")
    entries = [_parse_int(p) for p in parts]
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
    family, n = m.group(1), _parse_int(m.group(2))
    maker = {"C": groups.cyclic_group, "D": groups.dihedral_group,
             "A": groups.alternating_group, "S": groups.symmetric_group}[family]
    try:
        return maker(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _series(form, lo, hi, **fields):
    """A q-expansion's coefficients of q^lo .. q^(hi - 1), one ``n c`` line each."""
    record = {"label": form.label, **fields,
              "coefficients": {n: form.series.coefficient(n) for n in range(lo, hi)}}
    return 0, record, lambda r: (f"{n} {c}" for n, c in r["coefficients"].items())


def cmd_j(args):
    from . import modular
    form = modular.j_normalized(args.order) if args.normalized else modular.j_expansion(args.order)
    return _series(form, -1, args.order)


def cmd_eisenstein(args):
    from . import modular
    form = modular.eisenstein_normalized(args.weight, args.order)
    return _series(form, 0, args.order, weight=args.weight)


def cmd_delta(args):
    from . import modular
    return _series(modular.discriminant(args.order), 1, args.order)


def cmd_reduce(args):
    from . import sl2z
    tau_star, m, word = sl2z.reduce_to_fundamental(args.tau)
    record = {
        "tau": [tau_star.x, tau_star.y],
        "matrix": list(m.rep.entries()),
        "word": functools.partial(sl2z.word_to_str, word),
        "in_domain": sl2z.in_fundamental_domain(tau_star),
    }
    return 0, record, lambda r: ["tau " + " ".join(r["tau"]), "matrix " + " ".join(r["matrix"]),
                                 f"word {r['word']}"]


def _verdict(key, flat):
    """A yes/no answer under ``key`` and, for yes, its witness matrix ``flat``."""
    record = {key: flat is not None}
    if flat is not None:
        record["matrix"] = flat

    def text(r):
        yield f"{key.replace('_', '-')} {'true' if r[key] else 'false'}"
        if "matrix" in r:
            yield "matrix " + " ".join(r["matrix"])
    return 0, record, text


def cmd_equiv(args):
    from . import sl2z
    m = sl2z.tau_equivalent(args.tau1, args.tau2)
    return _verdict("equivalent", None if m is None else list(m.rep.entries()))


def cmd_lattice(args):
    from . import sl2z
    b1 = sl2z.LatticeBasis(args.b1[0], args.b1[1])
    b2 = sl2z.LatticeBasis(args.b2[0], args.b2[1])
    m = sl2z.lattice_same(b1, b2)
    return _verdict("same_lattice", None if m is None else [*m[0], *m[1]])


def cmd_word(args):
    from . import sl2z
    word = sl2z.word_decompose(args.matrix)
    check = sl2z.evaluate_word(word) == args.matrix
    record = {"word": functools.partial(sl2z.word_to_str, word), "verified": check}
    return (0 if check else 1), record, lambda r: [f"word {r['word']}"]


def cmd_group(args):
    g = args.name
    if args.action == "classes":
        classes = g.conjugacy_classes()
        record = {"group": g.name, "order": g.order, "class_sizes": [c.size for c in classes]}
        # The representatives are not in the record, which --json prints
        # without them; each is spelled out only as its line is written.
        return 0, record, lambda r: (f"{size} {c.representative!r}"
                                     for size, c in zip(r["class_sizes"], classes))
    if args.action == "series":
        record = {"group": g.name, "subgroup_orders": [len(s) for s in g.composition_series()]}
        return 0, record, lambda r: ["orders " + " ".join(r["subgroup_orders"])]
    factors = g.jordan_holder_factors()
    record = {"group": g.name, "factor_orders": [d.order for d in factors],
              "abelian": [d.is_abelian for d in factors]}
    return 0, record, lambda r: [" ".join(r["factor_orders"])]


def cmd_mckay(args):
    from . import monster
    coeffs = monster.CoeffTable.from_resource()
    dims = (monster.IrrepDims.from_file(args.irreps) if args.irreps
            else monster.IrrepDims.from_resource())
    rows = []
    ok = True
    for chk in monster.mckay_identity_check(coeffs, dims):
        rows.append({"label": chk.label, "status": chk.status.value})
        if chk.status is not monster.CheckStatus.NOT_CONFIGURED:
            ok = ok and chk.status is monster.CheckStatus.PASS
            rows[-1].update(coefficient=chk.coefficient, sum=chk.decomposition.total,
                            multiplicities=list(chk.decomposition.multiplicities))

    def text(r):
        for row in r["checks"]:
            if "sum" not in row:
                yield f"{row['label']} not-configured (supply more irrep dimensions)"
                continue
            mults = " + ".join(f"{m}*r{i}" for i, m in enumerate(row["multiplicities"], 1)
                               if m != "0")
            yield "{label} = {coefficient} vs {mults} = {sum}: {status}".format(mults=mults, **row)
    return (0 if ok else 1), {"checks": rows, "all_configured_pass": ok}, text


def cmd_knz(args):
    from . import monster
    result = monster.knz_verify(args.order, unnormalized_c0=args.use_unnormalized_c0)
    record = {"order": args.order, "equal": result.equal,
              "mismatches": [{"p": m, "q": n, "lhs": a, "rhs": b}
                             for m, n, a, b in result.mismatches()]}

    def text(r):
        yield f"equal: {'true' if r['equal'] else 'false'}"
        for mismatch in r["mismatches"][:20]:
            yield "p^{p} q^{q}: lhs {lhs} rhs {rhs}".format_map(mismatch)
    return (0 if result.equal else 1), record, text


def cmd_facts(args):
    from . import monster
    facts = monster.MONSTER_FACTS
    record = {
        "order": facts.order,
        "order_digits": len(str(facts.order)),  # a fixed 54 digits, far below the limit
        "order_factorization": [[p, e] for p, e in facts.order_factorization],
        "conjugacy_classes": facts.conjugacy_class_count,
        "distinct_mckay_thompson_series": facts.distinct_mckay_thompson_series,
        "mckay_thompson_span_dimension": facts.mckay_thompson_span_dimension,
    }

    def text(r):
        # one line per field, in the record's order
        r["order_factorization"] = " ".join(p if e == "1" else f"{p}^{e}"
                                            for p, e in r["order_factorization"])
        return (f"{key.replace('_', '-')} {value}" for key, value in r.items())
    return 0, record, text


def _spell(value):
    """``value`` with every number spelled out: an int in decimal and a
    Fraction as num/den, in lists and in dict keys and values alike.  A
    callable stands for text made of numbers, such as a generator word, and
    is called.  str() raises ValueError for an int past the interpreter's
    int/str digit limit."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {_spell(k): _spell(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell(v) for v in value]
    return value()


def _render(args, record, text):
    """Spell out a command's ``record``, then write it as one JSON line or as
    the lines ``text`` makes of it.  Only the spelling meets the digit limit,
    and it ends before anything is written."""
    try:
        record = _spell(record)
    except ValueError:
        raise MoonshineError(f"a result has more than {sys.get_int_max_str_digits()} digits, "
                             "the limit of sys.get_int_max_str_digits()") from None
    if args.json:
        import json
        print(json.dumps(record, sort_keys=True))
    else:
        sys.stdout.writelines(f"{line}\n" for line in text(record))


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
    p.add_argument("--order", type=_parse_int, required=True)
    p.add_argument("--normalized", action="store_true", help="drop the constant term 744")
    p.set_defaults(func=cmd_j)

    p = sub.add_parser("eisenstein", parents=[common], help="normalized Eisenstein series")
    p.add_argument("--weight", type=_parse_int, required=True)
    p.add_argument("--order", type=_parse_int, required=True)
    p.set_defaults(func=cmd_eisenstein)

    p = sub.add_parser("delta", parents=[common], help="the discriminant cusp form")
    p.add_argument("--order", type=_parse_int, required=True)
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
    p.add_argument("--order", type=_parse_int, required=True)
    p.add_argument("--use-unnormalized-c0", action="store_true",
                   help="negative control: use c(0) = 744 in the exponents")
    p.set_defaults(func=cmd_knz)

    p = sub.add_parser("facts", parents=[common], help="documented monster constants")
    p.set_defaults(func=cmd_facts)

    # argparse takes -7/3,1/5 or -1,0 for an option, as it is no plain negative
    # number.  No option here starts with "-" and a digit: such text is a value.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"^-\.?\d")
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
        code, record, text = args.func(args)
        _render(args, record, text)
        return code
    except (MoonshineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
