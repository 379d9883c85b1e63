"""File formats: exact field documents and deterministic report documents.

A field document is UTF-8 JSON with a mandatory "format-version" key and one
of two representations:

* ``monomial``: entries (component, a, b, c, coefficient) giving the
  coefficient of x0^a x1^b x2^c on the e0/e1/e2 component, coefficients as
  exact "p/q" strings;
* ``basis-coeffs``: entries (label, n, m, coefficient) against the named
  bases: U/V solid harmonics (scalar fields), X/Y the monogenic basis in its
  (1/2) D normalization, X+/X-/Y+/Y- the orthogonal ambigenic basis, and
  Z0/Z+/Z- the contragenic basis (m is ignored for Z0 and stored as 0).

Documents round-trip bit-exactly: terms are emitted in a fixed order
(graded-lex monomials; label order U, V, X, Y, X+, Y+, X-, Y-, Z0, Z+, Z-)
and coefficients in canonical fraction form.  Unknown labels are rejected.

Report documents wrap tabular results (basis tables, Gram matrices,
dimension counts, decompositions, check suites) with exact values rendered
as "q*pi" strings; float renderings, when present, are marked as derived.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import PiRational, TriPoly, format_rational, grlex_key, parse_rational
from .fields import VecField

FORMAT_VERSION = 1

#: label -> index used for the deterministic term ordering
_LABEL_ORDER = {
    label: rank
    for rank, label in enumerate(
        ("U", "V", "X", "Y", "X+", "Y+", "X-", "Y-", "Z0", "Z+", "Z-")
    )
}


class DocumentError(ValueError):
    """Malformed field document (bad schema, unknown label, bad coefficient)."""


@dataclass(frozen=True)
class MonomialTerm:
    component: int  # 0, 1 or 2
    a: int
    b: int
    c: int
    coefficient: Fraction


@dataclass(frozen=True)
class BasisTerm:
    label: str
    n: int
    m: int
    coefficient: Fraction


@dataclass(frozen=True)
class FieldDocument:
    """Exact serialized form of an R^3-valued polynomial field.

    Terms are held in canonical order (components then graded-lex monomials,
    or degree then label then order), so documents describing the same data
    compare equal and serialize identically regardless of input order.
    """

    representation: str  # 'monomial' or 'basis-coeffs'
    monomial_terms: tuple[MonomialTerm, ...] = ()
    basis_terms: tuple[BasisTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "monomial_terms",
            tuple(
                sorted(
                    self.monomial_terms,
                    key=lambda t: (t.component, grlex_key((t.a, t.b, t.c))),
                )
            ),
        )
        object.__setattr__(
            self,
            "basis_terms",
            tuple(
                sorted(
                    self.basis_terms, key=lambda t: (t.n, _LABEL_ORDER[t.label], t.m)
                )
            ),
        )

    @staticmethod
    def from_field(f: VecField) -> FieldDocument:
        terms = []
        for component, poly in enumerate(f.components()):
            for exps in sorted(poly.terms, key=grlex_key):
                a, b, c = exps
                terms.append(MonomialTerm(component, a, b, c, poly.terms[exps]))
        return FieldDocument("monomial", monomial_terms=tuple(terms))

    def to_field(self) -> VecField:
        if self.representation == "monomial":
            comps = [dict(), dict(), dict()]
            for term in self.monomial_terms:
                exps = (term.a, term.b, term.c)
                comps[term.component][exps] = (
                    comps[term.component].get(exps, Fraction(0)) + term.coefficient
                )
            return VecField(*(TriPoly(c) for c in comps))
        total = VecField.zero()
        for term in self.basis_terms:
            total = total + _basis_field(term.label, term.n, term.m).scale(
                term.coefficient
            )
        return total

    def degree(self) -> int:
        """Highest degree any term names, -1 without terms.

        Read from the terms alone, so a caller can refuse a document before
        ``to_field`` builds the bases it names.
        """
        if self.representation == "monomial":
            return max((t.a + t.b + t.c for t in self.monomial_terms), default=-1)
        return max((t.n for t in self.basis_terms), default=-1)

    def to_dict(self) -> dict:
        """The JSON object of the document, as ``to_json`` serializes it."""
        if self.representation == "monomial":
            terms = [
                {
                    "component": t.component,
                    "a": t.a,
                    "b": t.b,
                    "c": t.c,
                    "coefficient": format_rational(t.coefficient),
                }
                for t in self.monomial_terms
            ]
        else:
            terms = [
                {
                    "label": t.label,
                    "n": t.n,
                    "m": t.m,
                    "coefficient": format_rational(t.coefficient),
                }
                for t in self.basis_terms
            ]
        return {
            "format-version": FORMAT_VERSION,
            "representation": self.representation,
            "terms": terms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> FieldDocument:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DocumentError("document must be a JSON object")
        version = doc.get("format-version")
        if version is None:
            raise DocumentError("missing mandatory 'format-version' field")
        if type(version) is not int or version != FORMAT_VERSION:
            raise DocumentError(f"unsupported format version {version!r}")
        representation = doc.get("representation")
        terms = doc.get("terms")
        if not isinstance(terms, list):
            raise DocumentError("'terms' must be a list")
        if representation == "monomial":
            parsed_mono = []
            for entry in terms:
                try:
                    component = _json_int(entry, "component")
                    exps = tuple(_json_int(entry, key) for key in "abc")
                    coefficient = parse_rational(str(entry["coefficient"]))
                except (KeyError, TypeError, ValueError) as exc:
                    raise DocumentError(f"bad monomial term {entry!r}: {exc}") from exc
                if component not in (0, 1, 2):
                    raise DocumentError(f"component must be 0, 1 or 2, got {component}")
                if min(exps) < 0:
                    raise DocumentError(f"negative exponent in term {entry!r}")
                parsed_mono.append(MonomialTerm(component, *exps, coefficient))
            return FieldDocument("monomial", monomial_terms=tuple(parsed_mono))
        if representation == "basis-coeffs":
            parsed_basis = []
            for entry in terms:
                try:
                    label = str(entry["label"])
                    n = _json_int(entry, "n")
                    m = _json_int(entry, "m")
                    coefficient = parse_rational(str(entry["coefficient"]))
                except (KeyError, TypeError, ValueError) as exc:
                    raise DocumentError(f"bad basis term {entry!r}: {exc}") from exc
                if label not in _LABEL_ORDER:
                    raise DocumentError(f"unknown basis label {label!r}")
                parsed_basis.append(BasisTerm(label, n, m, coefficient))
            return FieldDocument("basis-coeffs", basis_terms=tuple(parsed_basis))
        raise DocumentError(f"unknown representation {representation!r}")


def _json_int(entry: dict, key: str) -> int:
    """An integer entry field; JSON floats and booleans are rejected, not cast."""
    value = entry[key]
    if type(value) is not int:
        raise DocumentError(f"{key!r} must be an integer, got {value!r}")
    return value


def _basis_field(label: str, n: int, m: int) -> VecField:
    """Resolve a basis label to its exact field, validating the index range."""
    from .harmonic import solid_harmonic
    from .monogenic import monogenic_element
    from .spaces import ambigenic_basis, contragenic_basis

    try:
        if label in ("U", "V"):
            return solid_harmonic(label, n, m).as_field()
        if label in ("X", "Y"):
            return monogenic_element(label, n, m).field.as_vec()
        if label in ("X+", "X-", "Y+", "Y-"):
            for element in ambigenic_basis(n):
                if element.kind == label and element.m == m:
                    return element.field.as_vec()
            raise ValueError(f"no ambigenic element {label}({n},{m})")
        if label in ("Z0", "Z+", "Z-"):
            for element in contragenic_basis(n):
                if element.label == label and (label == "Z0" or element.m == m):
                    return element.field
            raise ValueError(f"no contragenic element {label}({n},{m})")
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    raise DocumentError(f"unknown basis label {label!r}")


def read_field_document(path: str) -> FieldDocument:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"document is not valid UTF-8: {exc}") from exc
    return FieldDocument.from_json(text)


# -- report documents -----------------------------------------------------------

def render_value(value) -> str:
    """Serialize an exact value: PiRational as "q*pi", Fraction as "p/q"."""
    if isinstance(value, PiRational):
        return str(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


@dataclass
class ReportDocument:
    """A deterministic tabular report: named columns, exact cell values.

    Cells hold strings (already in canonical exact form) or numbers; float
    cells should live in columns whose name ends in "_derived" so readers
    can tell rendered approximations from exact data.
    """

    kind: str  # basis-table | gram | dims | decomposition | check-suite
    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "format-version": FORMAT_VERSION,
            "kind": self.kind,
            "title": self.title,
            "metadata": self.metadata,
            "columns": self.columns,
            "rows": self.rows,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def to_latex(self) -> str:
        spec = "l" * len(self.columns)
        lines = [
            f"% {self.title}",
            f"\\begin{{tabular}}{{{spec}}}",
            " & ".join(_latex_escape(str(c)) for c in self.columns) + r" \\ \hline",
        ]
        for row in self.rows:
            lines.append(" & ".join(_latex_escape(str(c)) for c in row) + r" \\")
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"

    # cells already in math mode (leading '$') pass through unescaped

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "latex":
            return self.to_latex()
        raise ValueError(f"unknown format {fmt!r}")


def _latex_escape(text: str) -> str:
    if text.startswith("$") and text.endswith("$"):
        return text
    return (
        text.replace("\\", r"\textbackslash{}")
        .replace("&", r"\&")
        .replace("%", r"\%")
        .replace("#", r"\#")
        .replace("_", r"\_")
    )
