"""The three benchmark workloads: seeded inputs, the timed op, and its check.

Each workload produces its inputs one pass at a time.  A pass has a fixed
size profile (degrees, term counts); the seed picks coefficients, exponents
and order.  Keeping the profile fixed across seeds is what makes the medians
of different seeds comparable.  The timed op receives only the generated
input; every check runs outside the timed region against ``oracle``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import contragenic.bergman
import contragenic.cli
import contragenic.spaces
from contragenic.bergman import ProjectionResult
from contragenic.exact import PiRational, TriPoly
from contragenic.fields import VecField, degree_split, inner_product, norm_sq

import oracle
from spans import coeff_bits

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

#: top degree of each decompose-dense document in one pass (30 documents).
#: The median falls inside the degree-6 block and p90 inside the degree-9
#: block, so neither sits on the boundary between two cost classes.
DECOMPOSE_PROFILE = (0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 6,
                     7, 7, 7, 8, 8, 8, 9, 9, 9, 9, 9, 12)

#: truncation degree of each project-nonharmonic field in one pass (30
#: fields), with the median inside the degree-7 block and p90 inside degree 10
PROJECT_PROFILE = (2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 7, 7, 7, 7,
                   8, 8, 8, 9, 9, 9, 10, 10, 10, 10, 10, 12)

#: max degree of the cold gram + bergman sweep
SWEEP_MAX_DEGREE = 6
SWEEP_SUITES = ("gram", "bergman")


def child_env(seed: int) -> dict:
    """Environment for a child interpreter whose str hashing follows the seed."""
    return dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))


def random_fraction(rng) -> Fraction:
    return Fraction(rng.choice((-9, -7, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 7, 9)),
                    rng.randint(1, 9))


def field_bits(comps) -> int:
    return coeff_bits(v for comp in comps for v in comp.values())


def _as_dicts(field) -> list[dict]:
    return [dict(poly.terms) for poly in field.components()]


def size_properties(items: list[dict]) -> dict:
    """Degree histogram (documents per degree), term counts and coefficient bits."""
    histogram: dict = {}
    for item in items:
        for n in item["degrees"]:
            histogram[n] = histogram.get(n, 0) + 1
    terms = sorted(item["terms"] for item in items)
    return {
        "inputs": len(items),
        "degree_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "terms_median": terms[len(terms) // 2],
        "terms_max": terms[-1],
        "input_coeff_bits_max": max(item["bits"] for item in items),
    }


class DecomposeDense:
    """``contragenic decompose`` on dense random harmonic field documents."""

    name = "decompose-dense"
    min_ops = 100
    in_child = False

    def __init__(self, workdir: Path):
        self.workdir = workdir

    @staticmethod
    def warm() -> None:
        # through the module attribute, so a traced run sees these calls
        for n in range(1, max(DECOMPOSE_PROFILE) + 1):
            contragenic.spaces.ambigenic_basis(n)
            contragenic.spaces.contragenic_basis(n)

    def _document(self, rng, top: int, path: Path, out: Path) -> dict:
        degrees = sorted({top, top // 3})
        comps = [{}, {}, {}]
        expected = {}
        for n in degrees:
            if n == 0:
                for axis, label in enumerate(("1", "e1", "e2")):
                    coeff = random_fraction(rng)
                    expected[(0, label, 0)] = coeff
                    comps[axis] = oracle.add(comps[axis], {(0, 0, 0): coeff})
                continue
            elements = [(e.kind, e.m, e.field.as_vec())
                        for e in contragenic.spaces.ambigenic_basis(n)]
            elements += [(z.label, z.m, z.field)
                         for z in contragenic.spaces.contragenic_basis(n)]
            for label, m, field in elements:
                coeff = random_fraction(rng)
                expected[(n, label, m)] = coeff
                for axis, poly in enumerate(field.components()):
                    comps[axis] = oracle.add(comps[axis], poly.terms, coeff)
        terms = [
            {"component": axis, "a": a, "b": b, "c": c, "coefficient": str(coeff)}
            for axis, comp in enumerate(comps)
            for (a, b, c), coeff in comp.items()
        ]
        path.write_text(json.dumps({"format-version": 1, "representation": "monomial",
                                    "terms": terms}), encoding="utf-8")
        return {"path": str(path), "out": str(out), "comps": comps,
                "expected": expected, "degrees": degrees,
                "terms": len(terms), "bits": field_bits(comps)}

    def generate(self, rng, index: int) -> list[dict]:
        tops = list(DECOMPOSE_PROFILE)
        rng.shuffle(tops)
        return [self._document(rng, top, self.workdir / f"in-{index}-{k}.json",
                               self.workdir / f"out-{k}.json")
                for k, top in enumerate(tops)]

    @staticmethod
    def run(item: dict):
        return contragenic.cli.main(["decompose", item["path"], "--output", item["out"]])

    def verify(self, item: dict, code) -> tuple[bool, str, int]:
        if code != 0:
            return False, f"exit code {code}", 0
        with open(item["out"], encoding="utf-8") as handle:
            return self.check(item, json.load(handle))

    @staticmethod
    def check(item: dict, payload: dict) -> tuple[bool, str, int]:
        total = [{}, {}, {}]
        bits = 0
        for part in ("monogenic", "antimonogenic", "contragenic"):
            for term in payload[part]["terms"]:
                exps = (term["a"], term["b"], term["c"])
                coeff = Fraction(term["coefficient"])
                bits = max(bits, coeff_bits([coeff]))
                axis = term["component"]
                total[axis] = oracle.add(total[axis], {exps: coeff})
        if total != item["comps"]:
            return False, "parts do not reconstruct the input", bits
        coefficients = {(c["n"], c["label"], c["m"]): Fraction(c["coefficient"])
                        for c in payload["coefficients"]}
        bits = max(bits, coeff_bits(coefficients.values()))
        if coefficients != item["expected"]:
            return False, "spectral coefficients differ from the generating ones", bits
        reported = {k: oracle.parse_pi(v) for k, v in payload["norms"].items()
                    if isinstance(v, str)}
        bits = max(bits, coeff_bits(reported.values()))
        want = sum((oracle.fischer_norm_sq(c) for c in item["comps"]), Fraction(0))
        if reported["total"] != want:
            return False, f"norms.total {reported['total']} != ||f||^2 {want}", bits
        return True, "", bits

    def self_test(self, rng) -> list[tuple[str, bool]]:
        """Corrupt a real result in several ways; each must be counted as failed."""
        item = self._document(rng, 4, self.workdir / "selftest-in.json",
                              self.workdir / "selftest-out.json")
        code = self.run(item)
        with open(item["out"], encoding="utf-8") as handle:
            good = json.load(handle)
        cases = {"clean result passes": self.check(item, good)[0]}

        def corrupted(mutate) -> bool:
            bad = json.loads(json.dumps(good))
            mutate(bad)
            return not self.check(item, bad)[0]

        def bump_total(p):
            p["norms"]["total"] = f"{oracle.parse_pi(p['norms']['total']) + 1}*pi"

        def bump_coefficient(p):
            p["coefficients"][0]["coefficient"] = str(
                Fraction(p["coefficients"][0]["coefficient"]) + 1)

        cases["wrong norms.total is caught"] = corrupted(bump_total)
        cases["dropped contragenic term is caught"] = corrupted(
            lambda p: p["contragenic"]["terms"].pop())
        cases["wrong coefficient is caught"] = corrupted(bump_coefficient)
        cases["nonzero exit is caught"] = code == 0 and not self.verify(item, 1)[0]
        return list(cases.items())

    properties = staticmethod(size_properties)


class ProjectNonharmonic:
    """``bergman.project_truncated`` on sparse random non-harmonic fields."""

    name = "project-nonharmonic"
    min_ops = 100
    in_child = False

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._basis: dict = {}

    @staticmethod
    def warm() -> None:
        for n in range(max(PROJECT_PROFILE) + 1):
            contragenic.bergman.kernel(n)

    @staticmethod
    def _field(rng, degree: int) -> dict:
        """One random monomial per degree 0..degree on each of e1 and e2."""
        while True:
            comps = [{}]
            for _axis in (1, 2):
                comp = {}
                for n in range(degree + 1):
                    a = rng.randint(0, n)
                    b = rng.randint(0, n - a)
                    comp[(a, b, n - a - b)] = random_fraction(rng)
                comps.append(comp)
            if any(oracle.laplacian(c) for c in comps):
                break
        field = VecField(*(TriPoly(c) for c in comps))
        return {"field": field, "degree": degree, "comps": comps,
                "degrees": [degree], "terms": sum(map(len, comps)),
                "bits": field_bits(comps)}

    def generate(self, rng, index: int) -> list[dict]:
        degrees = list(PROJECT_PROFILE)
        rng.shuffle(degrees)
        return [self._field(rng, d) for d in degrees]

    @staticmethod
    def run(item: dict):
        return contragenic.bergman.project_truncated(item["field"], item["degree"])

    def basis(self, n: int) -> list[list[dict]]:
        """The package's orthogonal Vec M basis of degree n, as component dicts.

        Built on first use, which is always outside the timed region.
        """
        if n not in self._basis:
            self._basis[n] = [_as_dicts(e.field) for e in contragenic.spaces.vec_basis(n)]
        return self._basis[n]

    def verify(self, item: dict, result) -> tuple[bool, str, int]:
        f = item["comps"]
        proj = _as_dicts(result.projected)
        resid = _as_dicts(result.residual)
        n_proj, n_resid = result.projected_norm_sq.q, result.residual_norm_sq.q
        bits = max(field_bits(proj), field_bits(resid), coeff_bits([n_proj, n_resid]))
        if [oracle.add(p, r) for p, r in zip(proj, resid)] != f:
            return False, "projected + residual != f", bits
        try:
            want_proj = sum((oracle.fischer_norm_sq(p) for p in proj), Fraction(0))
        except ValueError:
            return False, "projection is not harmonic", bits
        if n_proj != want_proj:
            return False, f"||Pf||^2 reported {n_proj}, computed {want_proj}", bits
        # <Pf, r> = <Pf, f> - ||Pf||^2, and f is sparse, so this stays cheap
        cross = sum((oracle.moment_pairing(p, g) for p, g in zip(proj, f)), Fraction(0))
        if cross != want_proj:
            return False, f"<Pf, r> = {cross - want_proj}, not 0", bits
        norm_f = sum((oracle.moment_pairing(g, g) for g in f), Fraction(0))
        if norm_f != n_proj + n_resid:
            return False, f"||f||^2 {norm_f} != ||Pf||^2 + ||r||^2", bits
        # r is orthogonal to all of Vec M up to the degree: <e, f> = <e, Pf>
        # for every basis field e, by moments against the sparse f and by the
        # Fischer identity against the harmonic Pf
        for n in range(item["degree"] + 1):
            for k, e in enumerate(self.basis(n)):
                via_f = sum((oracle.moment_pairing(c, g) for c, g in zip(e, f)), Fraction(0))
                via_proj = sum((oracle.fischer_pairing(c, p) for c, p in zip(e, proj)),
                               Fraction(0))
                if via_f != via_proj:
                    return False, f"r is not orthogonal to basis field {k} of degree {n}", bits
        return True, "", bits

    def self_test(self, rng) -> list[tuple[str, bool]]:
        degree = 4
        item = self._field(rng, degree)
        good = self.run(item)
        f = item["field"]

        def moved(part) -> ProjectionResult:
            """``part`` of Pf moved into r, with norms the package computes."""
            projected, residual = good.projected - part, good.residual + part
            return ProjectionResult(projected, residual, norm_sq(projected), norm_sq(residual))

        top = dict(degree_split(good.projected)).get(degree, VecField.zero())
        # one nonzero coefficient <e, f> / ||e||^2 of the expansion of Pf
        dropped = VecField.zero()
        for e in (e.field for n in range(degree + 1) for e in contragenic.spaces.vec_basis(n)):
            coeff = inner_product(e, f).q / norm_sq(e).q
            if coeff:
                dropped = e.scale(coeff)
                break
        shift = VecField(TriPoly.zero(), TriPoly.variable(1), TriPoly.zero())
        cases = {
            "clean result passes": self.verify(item, good)[0],
            "wrong ||Pf||^2 is caught": not self.verify(item, dataclasses.replace(
                good, projected_norm_sq=good.projected_norm_sq + PiRational(1)))[0],
            "wrong ||r||^2 is caught": not self.verify(item, dataclasses.replace(
                good, residual_norm_sq=good.residual_norm_sq + PiRational(1)))[0],
            "non-orthogonal split is caught": not self.verify(item, dataclasses.replace(
                good, projected=good.projected + shift,
                residual=good.residual - shift))[0],
            "top degree of Pf moved into r is caught": (
                not top.is_zero() and not self.verify(item, moved(top))[0]),
            "one dropped coefficient of Pf is caught": (
                not dropped.is_zero() and not self.verify(item, moved(dropped))[0]),
        }
        return list(cases.items())

    properties = staticmethod(size_properties)


class SweepCold:
    """A fresh interpreter runs ``check --suite gram`` then ``--suite bergman``."""

    name = "sweep-cold"
    min_ops = 5
    in_child = True

    def __init__(self, workdir: Path, seed: int = 0, trace_out: Path | None = None):
        self.workdir = workdir
        self.seed = seed
        self.trace_out = trace_out

    @staticmethod
    def warm() -> None:
        """Nothing: the sweep measures cold caches."""

    def generate(self, rng, index: int) -> list[dict]:
        # the sweep is fixed; the seed only sets the child's hash seed
        return [{"max_degree": SWEEP_MAX_DEGREE,
                 "out": str(self.workdir / f"sweep-{index}")}]

    def run(self, item: dict):
        os.makedirs(item["out"], exist_ok=True)
        command = [sys.executable, str(CHILD), "sweep", "--max-degree",
                   str(item["max_degree"]), "--out", item["out"]]
        if self.trace_out is not None and item.get("traced"):
            command += ["--trace-out", str(self.trace_out)]
        return subprocess.run(command, cwd=ROOT, env=child_env(self.seed),
                              capture_output=True, text=True, timeout=60)

    @staticmethod
    def speed_reading(done) -> tuple[float | None, float]:
        """The mean unit time the child sampled during its sweep (None when
        traced) and the seconds it spent after its import that were not
        the sweep (``child.py``)."""
        info = json.loads(done.stdout.splitlines()[-1])
        return info["unit_s"], info["outside_s"]

    def verify(self, item: dict, done) -> tuple[bool, str, int]:
        if done.returncode != 0:
            return False, f"exit code {done.returncode}: {done.stderr[-400:]}", 0
        reports = {}
        for suite in SWEEP_SUITES:
            with open(os.path.join(item["out"], f"{suite}.json"), encoding="utf-8") as handle:
                reports[suite] = json.load(handle)
        return self.check(item, reports)

    @staticmethod
    def expected_rows(suite: str, max_degree: int) -> int:
        if suite == "gram":
            return 2 * max_degree  # diagonal + spanning, per degree 1..max
        # degree 0: two Vec M fields + 3 global checks; degree n: (2n+3) Vec M
        # fields, 2n-1 contragenic fields and the same 3 global checks
        return 5 + sum(4 * n + 5 for n in range(1, max_degree + 1))

    def check(self, item: dict, reports: dict) -> tuple[bool, str, int]:
        for suite, report in reports.items():
            rows = report["rows"]
            if len(rows) != self.expected_rows(suite, item["max_degree"]):
                return False, f"{suite}: {len(rows)} lines", 0
            failed = [row for row in rows if row[0] != "PASS"]
            if failed or report["metadata"].get("failures") != 0:
                return False, f"{suite}: {failed[:1]}", 0
        return True, "", 0

    def self_test(self, rng) -> list[tuple[str, bool]]:
        item = {"max_degree": 1, "out": str(self.workdir / "selftest")}
        os.makedirs(item["out"], exist_ok=True)
        reports = {}
        for suite in SWEEP_SUITES:
            path = os.path.join(item["out"], f"{suite}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                contragenic.cli.main(["check", "--suite", suite, "--max-degree", "1",
                                      "--output", path])
            with open(path, encoding="utf-8") as handle:
                reports[suite] = json.load(handle)
        bad = json.loads(json.dumps(reports))
        bad["bergman"]["rows"][0][0] = "FAIL"
        short = json.loads(json.dumps(reports))
        short["gram"]["rows"].pop()
        failing = subprocess.CompletedProcess([], 1, "", "simulated failure")
        return [
            ("clean result passes", self.check(item, reports)[0]),
            ("FAIL line is caught", not self.check(item, bad)[0]),
            ("missing line is caught", not self.check(item, short)[0]),
            ("nonzero exit is caught", not self.verify(item, failing)[0]),
        ]

    @staticmethod
    def properties(items: list[dict]) -> dict:
        return {"max_degree": SWEEP_MAX_DEGREE, "suites": list(SWEEP_SUITES),
                "sweeps": len(items)}


WORKLOADS = {w.name: w for w in (DecomposeDense, ProjectNonharmonic, SweepCold)}
