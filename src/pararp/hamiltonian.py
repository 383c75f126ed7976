"""Reflection-symmetric, gauge-invariant Hamiltonians H = H_- + H_0 + theta(H_-).

The crossing part H_0 is a sum of terms

    (-1)^{d+1} omega^{d^2/2} J_I C_I theta(C_I),   d = degree(I) > 0,

over exponent vectors I supported on the minus half, with real couplings
J_I.  The reflection-positivity theorem needs a sign rule on the couplings:
either all J_I >= 0 (any n), or (-1)^d J_I >= 0 for all I (even n only).
``validate_couplings`` reports which rule (if any) a table satisfies.

Hamiltonians are not required to be hermitian.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import (
    Polynomial,
    Side,
    _cmul,
    _zeta_array,
    classify,
    gauge_apply,
    reflect,
    sum_polynomials,
    zeta_power,
)
from .exponents import ExponentVector, degree, unit_vector
from .representation import Representation, to_matrix


class CouplingRule(Enum):
    ALL_NONNEG = "all_nonneg"
    EVEN_N_ALTERNATING = "even_n_alternating"
    NONE = "none"


class SpecError(ValueError):
    """Malformed Hamiltonian data (couplings or spec file)."""


def _check_coupling_key(vec: ExponentVector) -> None:
    if not vec.supported_on_minus():
        raise SpecError(
            f"coupling key {vec.entries} not supported on sites 1..L/2"
        )
    if degree(vec) == 0:
        raise SpecError("coupling key must have positive degree")


class CouplingTable:
    """Map from exponent vectors on the minus half (degree > 0) to real J."""

    def __init__(self, entries: dict[ExponentVector, float] | None = None):
        self.entries: dict[ExponentVector, float] = {}
        if entries:
            for vec, j in entries.items():
                self[vec] = j

    def __setitem__(self, vec: ExponentVector, j: float) -> None:
        _check_coupling_key(vec)
        j = float(j)
        if not math.isfinite(j):
            raise SpecError(f"coupling for {vec.entries} is not finite")
        self.entries[vec] = j

    def __iter__(self):
        return iter(self.entries.items())

    def __len__(self):
        return len(self.entries)


def build_h0(couplings: CouplingTable, n: int, L: int) -> Polynomial:
    """Crossing Hamiltonian: sum of (-1)^{d+1} zeta^{d^2} J C_I theta(C_I).

    theta(C_I) = omega^{-circ(I, I)} C_{reverse(I^c)} lies on the plus half,
    so circ(I, reverse(I^c)) = 0 and each term is the single monomial
    (-1)^{d+1} J zeta^{d^2} omega^{-circ(I, I)} C_{I + reverse(I^c)}, with
    -2 circ(I, I) = sum a^2 - (sum a)^2 and Python's complex rounding.
    Distinct I give distinct keys, so no terms merge."""
    if any(vec.order != n or vec.sites != L for vec in couplings.entries):
        raise SpecError("coupling key does not match n, L")
    a = np.array([vec.entries for vec in couplings.entries], dtype=np.int64)
    a = a.reshape(len(couplings), L)
    j = np.fromiter(couplings.entries.values(), dtype=float, count=len(a))
    d = a.sum(axis=1)
    d2 = (d % (2 * n)) ** 2  # d^2 mod 2n, without an int64 overflow of d^2
    zeta = _zeta_array(n)
    coeffs = _cmul(
        _cmul(np.where(d % 2 == 0, -j, j), zeta[d2 % (2 * n)]),
        zeta[((a * a).sum(axis=1) - d2) % (2 * n)],
    )
    keys = a + (n - a[:, ::-1]) % n
    return Polynomial._from_arrays(keys, coeffs + 0, n, L)


def validate_couplings(couplings: CouplingTable, n: int) -> CouplingRule:
    """Which RP sign hypothesis the table satisfies, if any."""
    values = [(degree(vec), j) for vec, j in couplings]
    if all(j >= 0 for _, j in values):
        return CouplingRule.ALL_NONNEG
    if n % 2 == 0 and all((-1) ** d * j >= 0 for d, j in values):
        return CouplingRule.EVEN_N_ALTERNATING
    return CouplingRule.NONE


@dataclass
class HamiltonianSpec:
    order: int
    sites: int
    h_minus: Polynomial
    couplings: CouplingTable
    h_zero: Polynomial
    h_plus: Polynomial
    validated_rule: CouplingRule

    def total(self) -> Polynomial:
        return sum_polynomials((self.h_minus, self.h_zero, self.h_plus))


def assemble(h_minus: Polynomial, couplings: CouplingTable) -> HamiltonianSpec:
    """Build the full Hamiltonian from its minus part and crossing couplings.

    h_minus must be a gauge-invariant element of the minus algebra; the plus
    part is derived as its reflection.
    """
    n, L = h_minus.order, h_minus.sites
    side = classify(h_minus)
    if side.side not in (Side.MINUS, Side.SCALAR) or not side.observable:
        a = h_minus.exponents
        bad = a[:, L // 2:].any(axis=1) | (a.sum(axis=1) % n != 0)
        offending = list(map(tuple, a[bad].tolist()))
        raise SpecError(
            "h_minus must be an observable supported on sites 1..L/2; "
            f"offending terms: {offending}"
        )
    h_zero = build_h0(couplings, n, L)
    h_plus = reflect(h_minus)
    spec = HamiltonianSpec(
        order=n,
        sites=L,
        h_minus=h_minus,
        couplings=couplings,
        h_zero=h_zero,
        h_plus=h_plus,
        validated_rule=validate_couplings(couplings, n),
    )
    report = check_symmetries(spec)
    if not (report["reflection_symbolic"] and report["gauge_symbolic"]):
        raise SpecError(f"assembled Hamiltonian is not symmetric: {report}")
    return spec


def check_symmetries(
    spec: HamiltonianSpec, rep: Representation | None = None
) -> dict:
    """Verify theta(H) = H and U(H) = H, symbolically and (optionally)
    at matrix level, to 1e-10 relative."""
    tol = 1e-10
    h = spec.total()
    report = {
        "reflection_symbolic": reflect(h).almost_equal(h),
        "gauge_symbolic": gauge_apply(h).almost_equal(h),
    }
    if rep is not None:
        hm = to_matrix(h, rep)
        scale = 1.0 + float(np.linalg.norm(hm))
        report["reflection_matrix_gap"] = float(
            np.linalg.norm(to_matrix(reflect(h), rep) - hm)
        )
        report["gauge_matrix_gap"] = float(
            np.linalg.norm(to_matrix(gauge_apply(h), rep) - hm)
        )
        report["matrix_ok"] = (
            report["reflection_matrix_gap"] <= tol * scale
            and report["gauge_matrix_gap"] <= tol * scale
        )
    return report


def baxter(n: int, L: int, t) -> HamiltonianSpec:
    """Baxter clock chain -zeta * sum_j t_j c_j c_{j+1}^{n-1}, split at the
    middle bond.

    Requires the mirror symmetry t_{L-j} = t_j for j < L/2; the crossing
    coupling is J = -t_{L/2}.  For odd n the RP hypotheses need
    t_{L/2} <= 0; for even n any real t_{L/2} is allowed (reported through
    the validation flag, not enforced).
    """
    t = [float(x) for x in t]
    if len(t) != L - 1:
        raise SpecError(f"expected {L - 1} couplings t_j, got {len(t)}")
    half = L // 2
    for j in range(1, half):
        if t[j - 1] != t[L - j - 1]:
            raise SpecError(
                f"asymmetric couplings: t_{j}={t[j - 1]} but "
                f"t_{L - j}={t[L - j - 1]}"
            )
    zeta = zeta_power(n, 1)
    bonds = {}
    for j in range(1, half):
        entries = [0] * L
        entries[j - 1] = 1
        entries[j] = n - 1
        # 0 + c: the bond terms summed from zero, as distinct monomials
        bonds[ExponentVector(tuple(entries), n)] = 0 + -zeta * t[j - 1]
    h_minus = Polynomial(bonds, n, L)
    couplings = CouplingTable({unit_vector(n, L, half): -t[half - 1]})
    return assemble(h_minus, couplings)


# -- spec files -----------------------------------------------------------


def _reject_constant(name: str):
    raise SpecError(f"non-finite number {name!r} in spec file")


def load_spec(path: str) -> HamiltonianSpec:
    """Parse a JSON Hamiltonian spec.

    Either {"baxter": {"n":.., "L":.., "t": [...]}} or
    {"n":.., "L":.., "h_minus": [{"coefficient": [re, im],
    "exponents": [...]}, ...], "couplings": [{"exponents": [...],
    "J": x}, ...]}.
    """
    return spec_from_dict(read_spec(path))


def read_spec(path: str):
    """The parsed JSON document of a spec file, not yet checked."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def spec_size(data) -> tuple[int, int]:
    """The order n >= 2 and even number of sites L >= 2 of a parsed JSON
    spec (see load_spec); true and false are not integers here."""
    if not isinstance(data, dict):
        raise SpecError("spec must be a JSON object")
    if "baxter" in data:
        data = data["baxter"]
        if not isinstance(data, dict):
            raise SpecError("field 'baxter' must be an object")
    n, L = data.get("n"), data.get("L")
    if type(n) is not int or n < 2:
        raise SpecError(f"field 'n' must be an integer >= 2, got {n!r}")
    if type(L) is not int or L < 2 or L % 2 != 0:
        raise SpecError(f"field 'L' must be an even integer >= 2, got {L!r}")
    return n, L


def spec_from_dict(data) -> HamiltonianSpec:
    """The Hamiltonian of a parsed JSON spec (see load_spec); SpecError,
    naming the field, for a document of any other shape."""
    n, L = spec_size(data)
    if "baxter" in data:
        t = _get_list(data["baxter"], "t", _is_real, "finite reals")
        return baxter(n, L, t)
    terms = {}
    for pos, term in enumerate(_get_list(data, "h_minus", _is_object, "objects")):
        coeff = term.get("coefficient")
        if (
            not isinstance(coeff, (list, tuple)) or len(coeff) != 2
            or not all(map(_is_real, coeff))
        ):
            raise SpecError(f"h_minus[{pos}]: coefficient must be [re, im]")
        vec = _parse_exponents(term.get("exponents"), n, L, f"h_minus[{pos}]")
        terms[vec] = terms.get(vec, 0) + complex(coeff[0], coeff[1])
    couplings = CouplingTable()
    for pos, entry in enumerate(_get_list(data, "couplings", _is_object, "objects")):
        vec = _parse_exponents(
            entry.get("exponents"), n, L, f"couplings[{pos}]"
        )
        j = entry.get("J")
        if not _is_real(j):
            raise SpecError(f"couplings[{pos}]: J must be a finite real")
        try:
            couplings[vec] = j
        except SpecError as exc:
            raise SpecError(f"couplings[{pos}]: {exc}") from exc
    return assemble(Polynomial(terms, n, L), couplings)


def _is_real(val) -> bool:
    """A finite JSON number; true and false are not numbers here."""
    return type(val) in (int, float) and math.isfinite(val)


def _is_object(val) -> bool:
    return isinstance(val, dict)


def _get_list(data: dict, key: str, ok, what: str) -> list:
    """The list in field ``key`` (empty if absent), every item ``ok``."""
    val = data.get(key, [])
    if not isinstance(val, list) or not all(map(ok, val)):
        raise SpecError(f"field {key!r} must be a list of {what}")
    return val


def _parse_exponents(exps, n: int, L: int, where: str) -> ExponentVector:
    if not isinstance(exps, (list, tuple)) or len(exps) != L:
        raise SpecError(f"{where}: exponents must be a list of {L} integers")
    for k, e in enumerate(exps):
        if type(e) is not int or not 0 <= e < n:
            raise SpecError(
                f"{where}: exponent {e!r} at site {k + 1} outside 0..{n - 1}"
            )
    return ExponentVector(tuple(exps), n)
