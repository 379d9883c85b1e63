"""Command-line interface: basis tables, check suites, decomposition, kernels.

Subcommands
-----------
basis         emit a basis table (UV, XY, ambigenic, contragenic, vec)
check         run an exact identity suite; exit 0 only if every check passes
decompose     split a field document into monogenic/antimonogenic/contragenic
gram          print the exact Gram matrix of a degree-n system
dims          compute and verify the dimension table
bergman-eval  evaluate the degree-n Bergman kernel pair at two points
quadcheck     compare exact inner products against the quadrature harness

Exit codes: 0 success, 1 mathematical failure, 2 usage error, 3 I/O error,
4 resource cap exceeded.  Every subcommand, decompose included (by the
highest degree its document names), is capped at degree 12 by default
(rationals grow factorially); pass --cap-override to lift the guard.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache

from .bergman import eval_kernel, kernel
from .checks import DEFAULT_DEGREE_CAP, SUITES, run_suite
from .decompose import decompose, norm_report
from .exact import TriPoly
from .fieldio import (
    DocumentError,
    FieldDocument,
    ReportDocument,
    read_field_document,
    render_value,
)
from .fields import VecField, norm_sq
from .harmonic import degree_basis, uv_norm_sq
from .monogenic import monogenic_basis, xy_norm_sq, xy_recipe
from .quadrature import quad_crosscheck
from .spaces import (
    ambigenic_basis,
    ambigenic_coefficient,
    ambigenic_norm_sq,
    contragenic_basis,
    contragenic_norm_sq,
    contragenic_recipe,
    dimension_table,
    expected_dimensions,
    gram_matrix,
    vec_basis,
    vec_norm_sq,
)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CAP = 4

BASIS_KINDS = ("UV", "XY", "ambigenic", "contragenic", "vec")


class CapExceeded(Exception):
    pass


class UsageError(Exception):
    pass


def _check_cap(degree: int, override: bool) -> None:
    if degree > DEFAULT_DEGREE_CAP and not override:
        raise CapExceeded(
            f"degree {degree} exceeds the default cap {DEFAULT_DEGREE_CAP}; "
            "pass --cap-override to proceed (rationals grow factorially)"
        )


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- LaTeX rendering helpers ---------------------------------------------------

def _frac_latex(value: Fraction) -> str:
    sign = "-" if value < 0 else ""
    value = abs(value)
    if value.denominator == 1:
        return f"{sign}{value.numerator}"
    return f"{sign}\\tfrac{{{value.numerator}}}{{{value.denominator}}}"


def _poly_latex(p: TriPoly) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for (a, b, c), coeff in p.sorted_terms():
        factors = []
        for name, power in zip(("x_0", "x_1", "x_2"), (a, b, c)):
            if power == 1:
                factors.append(name)
            elif power > 1:
                factors.append(f"{name}^{{{power}}}")
        mag = abs(coeff)
        body = " ".join(factors)
        if not body:
            body = _frac_latex(mag)
        elif mag != 1:
            body = f"{_frac_latex(mag)} {body}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _uv_symbol(kind: str, n: int, m: int) -> str:
    return f"\\widehat{{{kind}}}^{{{n}}}_{{{m}}}"


def _combo_latex(terms: list[tuple[Fraction, str]]) -> str:
    """Linear combination of named symbols with nonzero coefficients."""
    pieces = []
    for coeff, symbol in terms:
        mag = abs(coeff)
        body = symbol if mag == 1 else f"{_frac_latex(mag)} {symbol}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


def _field_latex_from_components(parts: list[tuple[str, str]]) -> str:
    """Join (component latex, unit suffix) pairs, dropping zero components."""
    pieces = [
        (f"\\left({body}\\right) {unit}" if unit else body)
        for body, unit in parts
        if body != "0"
    ]
    return " + ".join(pieces) if pieces else "0"


def _recipe_latex(name: str, n: int, parts) -> str:
    """Render ``name = ...`` from (solid-harmonic combination, unit) pairs."""
    pieces = [
        (_combo_latex([(coeff, _uv_symbol(kind, n, m)) for coeff, kind, m in combo]), unit)
        for combo, unit in parts
    ]
    return f"${name} = {_field_latex_from_components(pieces)}$"


def _xy_structural_latex(kind: str, n: int, m: int) -> str:
    """The solid-harmonic recombination shape of a monogenic basis element."""
    name = f"{kind}^{{{n}}}_{{{m}}}"
    if n == 0:
        e = monogenic_basis(0)[m if kind == "X" else 2].field
        return f"${name} = {_field_latex_from_components([(_poly_latex(e.c0), ''), (_poly_latex(e.c1), 'e_1'), (_poly_latex(e.c2), 'e_2')])}$"
    return _recipe_latex(name, n, zip(xy_recipe(kind, n, m), ("", "e_1", "e_2")))


def _contragenic_structural_latex(label: str, n: int, m: int) -> str:
    name = f"Z^{{{n}}}_{{0}}" if label == "Z0" else f"Z^{{{n}}}_{{{m},{label[1]}}}"
    return _recipe_latex(name, n, zip(contragenic_recipe(label, n, m), ("e_1", "e_2")))


def _ambigenic_structural_latex(kind: str, n: int, m: int) -> str:
    base = f"{kind[0]}^{{{n}}}_{{{m}}}"
    name = f"{kind[0]}^{{{n},{kind[1]}}}_{{{m}}}"
    if kind.endswith("+"):
        return f"${name} = {base}$"
    a = ambigenic_coefficient(n, m)
    if a == 0:
        return f"${name} = \\overline{{{base}}}$"
    sign = "-" if a > 0 else "+"
    return f"${name} = \\overline{{{base}}} {sign} {_frac_latex(abs(a))} {base}$"


# -- basis tables ----------------------------------------------------------------

def _basis_rows(kind: str, n: int, latex: bool) -> list[list]:
    rows = []
    if kind == "UV":
        for h in degree_basis(n):
            shown = f"${_poly_latex(h.poly)}$" if latex else str(h.poly)
            norm = uv_norm_sq(h.kind, n, h.m)
            rows.append([h.kind, n, h.m, shown, render_value(norm), float(norm)])
    elif kind == "XY":
        for e in monogenic_basis(n):
            shown = (
                _xy_structural_latex(e.kind, n, e.m) if latex else str(e.field)
            )
            norm = xy_norm_sq(e.kind, n, e.m)
            rows.append([e.kind, n, e.m, shown, render_value(norm), float(norm)])
    elif kind == "ambigenic":
        if n < 1:
            raise UsageError("the ambigenic basis table starts at degree 1")
        for a in ambigenic_basis(n):
            shown = (
                _ambigenic_structural_latex(a.kind, n, a.m) if latex else str(a.field)
            )
            norm = ambigenic_norm_sq(a.kind, n, a.m)
            rows.append([a.kind, n, a.m, shown, render_value(norm), float(norm)])
    elif kind == "contragenic":
        if n < 1:
            raise UsageError("contragenic fields start at degree 1")
        for z in contragenic_basis(n):
            shown = (
                _contragenic_structural_latex(z.label, n, z.m) if latex else str(z.field)
            )
            norm = contragenic_norm_sq(z.label, n, z.m)
            rows.append([z.label, n, z.m, shown, render_value(norm), float(norm)])
    elif kind == "vec":
        for v in vec_basis(n):
            shown = f"${_field_latex_from_components([(_poly_latex(v.field.c1), 'e_1'), (_poly_latex(v.field.c2), 'e_2')])}$" if latex else str(v.field)
            norm = vec_norm_sq(v.kind, n, v.m)
            rows.append([f"Vec {v.kind}", n, v.m, shown, render_value(norm), float(norm)])
    else:
        raise UsageError(f"unknown basis kind {kind!r}; choose from {BASIS_KINDS}")
    return rows


def _cmd_basis(args) -> int:
    if args.degree < 0:
        raise UsageError("--degree must be >= 0")
    _check_cap(args.degree, args.cap_override)
    report = ReportDocument(
        kind="basis-table",
        title=f"{args.kind} basis at degree {args.degree}",
        columns=["label", "n", "m", "field", "norm_sq", "norm_sq_float_derived"],
        metadata={"kind": args.kind, "degree": args.degree},
    )
    report.rows = _basis_rows(args.kind, args.degree, args.format == "latex")
    _emit(report.render(args.format), args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.max_degree < 1:
        raise UsageError("--max-degree must be >= 1")
    _check_cap(args.max_degree, args.cap_override)
    results = run_suite(args.suite, args.max_degree)
    report = ReportDocument(
        kind="check-suite",
        title=f"suite {args.suite} to degree {args.max_degree}",
        columns=["status", "check", "detail"],
        metadata={"suite": args.suite, "max_degree": args.max_degree},
    )
    failures = 0
    for result in results:
        failures += 0 if result.passed else 1
        report.rows.append(
            ["PASS" if result.passed else "FAIL", result.name, result.detail]
        )
    report.metadata["checks"] = len(results)
    report.metadata["failures"] = failures
    _emit(report.render(args.format), args.output)
    if args.output:
        print(f"{args.suite}: {len(results)} checks, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_MATH_FAIL


def _cmd_dims(args) -> int:
    if args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    _check_cap(args.max_degree, args.cap_override)
    report = ReportDocument(
        kind="dims",
        title=f"dimension table to degree {args.max_degree}",
        columns=[
            "n",
            "scalar_harmonics",
            "monogenic",
            "monogenic_constants",
            "ambigenic",
            "harmonic_fields",
            "matches_expected",
        ],
    )
    all_ok = True
    for n in range(args.max_degree + 1):
        row = dimension_table(n)
        ok = row.as_tuple() == expected_dimensions(n).as_tuple()
        all_ok = all_ok and ok
        report.rows.append([n, *row.as_tuple(), "yes" if ok else "NO"])
    _emit(report.render(args.format), args.output)
    return EXIT_OK if all_ok else EXIT_MATH_FAIL


def _cmd_gram(args) -> int:
    if args.degree < 0:
        raise UsageError("--degree must be >= 0")
    _check_cap(args.degree, args.cap_override)
    n = args.degree
    if args.kind == "full":
        if n == 0:
            labeled = [("1", VecField.from_scalar(TriPoly.const(1)))]
            labeled += [
                ("e1", VecField(TriPoly.zero(), TriPoly.const(1), TriPoly.zero())),
                ("e2", VecField(TriPoly.zero(), TriPoly.zero(), TriPoly.const(1))),
            ]
        else:
            labeled = [(f"{a.kind}({n},{a.m})", a.field) for a in ambigenic_basis(n)]
            labeled += [
                (f"{z.label}({n},{z.m})", z.field) for z in contragenic_basis(n)
            ]
    elif args.kind == "UV":
        labeled = [(f"{h.kind}({n},{h.m})", h.as_field()) for h in degree_basis(n)]
    elif args.kind == "XY":
        labeled = [(f"{e.kind}({n},{e.m})", e.field) for e in monogenic_basis(n)]
    elif args.kind == "ambigenic":
        if n < 1:
            raise UsageError("the ambigenic basis starts at degree 1")
        labeled = [(f"{a.kind}({n},{a.m})", a.field) for a in ambigenic_basis(n)]
    elif args.kind == "contragenic":
        if n < 1:
            raise UsageError("contragenic fields start at degree 1")
        labeled = [(f"{z.label}({n},{z.m})", z.field) for z in contragenic_basis(n)]
    elif args.kind == "vec":
        labeled = [(f"Vec {v.kind}({n},{v.m})", v.field) for v in vec_basis(n)]
    else:
        raise UsageError(f"unknown gram kind {args.kind!r}")
    gram = gram_matrix([f for _, f in labeled])
    report = ReportDocument(
        kind="gram",
        title=f"{args.kind} Gram matrix at degree {n}",
        columns=["element"] + [name for name, _ in labeled],
        metadata={"kind": args.kind, "degree": n},
    )
    for (name, _), row in zip(labeled, gram):
        report.rows.append([name] + [render_value(v) for v in row])
    _emit(report.render(args.format), args.output)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    doc = read_field_document(args.input)  # OSError -> 3, DocumentError -> 2
    _check_cap(doc.degree(), args.cap_override)
    field = doc.to_field()
    try:
        result = decompose(field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL
    # self-checks against the input: reconstruction and Parseval
    if result.total() != field:
        print("error: the parts do not sum back to the input field", file=sys.stderr)
        return EXIT_MATH_FAIL
    norms = norm_report(result)
    input_norm_sq = norm_sq(field)
    if norms.total_norm_sq != input_norm_sq:
        print(
            f"error: Parseval fails: the parts have squared norm "
            f"{norms.total_norm_sq}, the input {input_norm_sq}",
            file=sys.stderr,
        )
        return EXIT_MATH_FAIL
    coefficients = [
        {
            "n": degree,
            "label": label,
            "m": order,
            "coefficient": render_value(coeff),
        }
        for (degree, label, order), coeff in sorted(result.coefficients.items())
    ]
    payload = {
        "format-version": 1,
        "kind": "decomposition",
        "coefficients": coefficients,
        "monogenic": FieldDocument.from_field(result.monogenic.as_vec()).to_dict(),
        "antimonogenic": FieldDocument.from_field(result.antimonogenic.as_vec()).to_dict(),
        "contragenic": FieldDocument.from_field(result.contragenic).to_dict(),
        "norms": {
            "total": render_value(norms.total_norm_sq),
            "ambigenic": render_value(norms.ambigenic_norm_sq),
            "contragenic": render_value(norms.contragenic_norm_sq),
            "monogenic": render_value(norms.monogenic_norm_sq),
            "antimonogenic": render_value(norms.antimonogenic_norm_sq),
            "monogenic_antimonogenic_cross_term": render_value(norms.cross_term),
            "total_float_derived": float(norms.total_norm_sq),
        },
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_bergman_eval(args) -> int:
    if args.degree < 0:
        raise UsageError("--degree must be >= 0")
    _check_cap(args.degree, args.cap_override)
    try:
        x = tuple(float(v) for v in args.x.split(","))
        y = tuple(float(v) for v in args.y.split(","))
        if len(x) != 3 or len(y) != 3:
            raise ValueError
    except ValueError:
        raise UsageError("--x and --y must be comma-separated triples, e.g. '0.1,0.2,0.3'")
    if sum(v * v for v in x) > 1.0 + 1e-12 or sum(v * v for v in y) > 1.0 + 1e-12:
        raise UsageError("evaluation points must lie in the closed unit ball")
    values = eval_kernel(args.degree, x, y)
    report = ReportDocument(
        kind="basis-table",
        title=f"Bergman kernel pair at degree {args.degree}",
        columns=["kernel", "e1_component_derived", "e2_component_derived"],
        metadata={
            "degree": args.degree,
            "x": list(x),
            "y": list(y),
            "rank_one_terms": len(kernel(args.degree).pairs),
        },
    )
    report.rows.append(["b1", values[0][0], values[0][1]])
    report.rows.append(["b2", values[1][0], values[1][1]])
    _emit(report.render(args.format), args.output)
    return EXIT_OK


def _random_poly(rng: random.Random, degree: int, terms: int) -> TriPoly:
    data = {}
    for _ in range(terms):
        total = rng.randint(0, degree)
        a = rng.randint(0, total)
        b = rng.randint(0, total - a)
        c = total - a - b
        data[(a, b, c)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return TriPoly(data)


def _cmd_quadcheck(args) -> int:
    if args.max_degree < 1 or args.trials < 1:
        raise UsageError("--max-degree and --trials must be >= 1")
    _check_cap(args.max_degree, args.cap_override)
    rng = random.Random(args.seed)
    report = ReportDocument(
        kind="check-suite",
        title=f"quadrature cross-check, {args.trials} trials to degree {args.max_degree}",
        columns=[
            "trial",
            "status",
            "exact",
            "quad_derived",
            "rel_error_derived",
            "nodes",
        ],
        metadata={"seed": args.seed, "tolerance": args.tol},
    )
    failures = 0
    for trial in range(args.trials):
        f = VecField(
            _random_poly(rng, args.max_degree, 3),
            _random_poly(rng, args.max_degree, 3),
            _random_poly(rng, args.max_degree, 3),
        )
        g = VecField(
            _random_poly(rng, args.max_degree, 3),
            _random_poly(rng, args.max_degree, 3),
            _random_poly(rng, args.max_degree, 3),
        )
        outcome = quad_crosscheck(f, g, order=args.order)
        if outcome.exact_value != 0.0:
            ok = outcome.rel_error <= args.tol
        else:
            ok = outcome.abs_error <= args.tol
        failures += 0 if ok else 1
        report.rows.append(
            [
                trial,
                "PASS" if ok else "FAIL",
                outcome.exact_value,
                outcome.quad_value,
                outcome.rel_error if outcome.exact_value else outcome.abs_error,
                "x".join(str(k) for k in outcome.nodes),
            ]
        )
    report.metadata["failures"] = failures
    _emit(report.render(args.format), args.output)
    return EXIT_OK if failures == 0 else EXIT_MATH_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contragenic",
        description="Exact monogenic/ambigenic/contragenic bases on the unit ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap_override(p):
        p.add_argument(
            "--cap-override",
            action="store_true",
            help=f"allow degrees above the default cap {DEFAULT_DEGREE_CAP}",
        )

    def add_common(p, degree_flag=True):
        p.add_argument(
            "--format",
            choices=("json", "csv", "latex"),
            default="json",
            help="output format (default json)",
        )
        p.add_argument("--output", help="write the report to this path")
        add_cap_override(p)

    p_basis = sub.add_parser("basis", help="emit a basis table")
    p_basis.add_argument("--kind", choices=BASIS_KINDS, required=True)
    p_basis.add_argument("--degree", "-n", type=int, required=True)
    add_common(p_basis)
    p_basis.set_defaults(handler=_cmd_basis)

    p_check = sub.add_parser("check", help="run an exact identity suite")
    p_check.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_check.add_argument("--max-degree", type=int, default=8)
    add_common(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_dec = sub.add_parser("decompose", help="decompose a field document")
    p_dec.add_argument("input", help="path to a field document (JSON)")
    p_dec.add_argument("--output", help="write the decomposition to this path")
    add_cap_override(p_dec)
    p_dec.set_defaults(handler=_cmd_decompose)

    p_gram = sub.add_parser("gram", help="print an exact Gram matrix")
    p_gram.add_argument(
        "--kind",
        choices=("full", "UV", "XY", "ambigenic", "contragenic", "vec"),
        default="full",
    )
    p_gram.add_argument("--degree", "-n", type=int, required=True)
    add_common(p_gram)
    p_gram.set_defaults(handler=_cmd_gram)

    p_dims = sub.add_parser("dims", help="compute and verify the dimension table")
    p_dims.add_argument("--max-degree", type=int, default=6)
    add_common(p_dims)
    p_dims.set_defaults(handler=_cmd_dims)

    p_eval = sub.add_parser("bergman-eval", help="evaluate a Bergman kernel pair")
    p_eval.add_argument("--degree", "-n", type=int, required=True)
    p_eval.add_argument("--x", required=True, help="first point, 'x0,x1,x2'")
    p_eval.add_argument("--y", required=True, help="second point, 'y0,y1,y2'")
    add_common(p_eval)
    p_eval.set_defaults(handler=_cmd_bergman_eval)

    p_quad = sub.add_parser("quadcheck", help="quadrature cross-check of inner products")
    p_quad.add_argument("--max-degree", type=int, default=8)
    p_quad.add_argument("--trials", type=int, default=50)
    p_quad.add_argument("--seed", type=int, default=0)
    p_quad.add_argument("--order", type=int, default=None, help="force a rule order (undersized rules alias)")
    p_quad.add_argument("--tol", type=float, default=1e-12)
    add_common(p_quad)
    p_quad.set_defaults(handler=_cmd_quadcheck)

    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (UsageError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
