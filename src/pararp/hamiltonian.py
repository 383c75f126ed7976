"""Reflection-symmetric, gauge-invariant Hamiltonians H = H_- + H_0 + theta(H_-).

The crossing part H_0 is a sum of terms

    (-1)^{d+1} omega^{d^2/2} J_I C_I theta(C_I),   d = degree(I) > 0,

over exponent vectors I supported on the minus half, with real couplings
J_I.  A ``HamiltonianSpec`` is built from H_- and the couplings alone, and
derives H_0, H_+ = theta(H_-) and H from them, so every spec has the form
the reflection-positivity theorem covers; nothing needs to check it later.
The theorem also needs a sign rule on the couplings: either all J_I >= 0
(any n), or (-1)^d J_I >= 0 for all I (even n only).
``validate_couplings`` reports which rule (if any) a table satisfies.

Hamiltonians are not required to be hermitian.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from enum import Enum

import numpy as np

from .algebra import (
    Polynomial,
    Side,
    _cmul,
    _theta,
    _zeta_array,
    classify,
    gauge_apply,
    reflect,
    sum_polynomials,
    zeta_power,
)
from .exponents import ExponentVector, degree, unit_vector


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
    (-1)^{d+1} J zeta^{d^2} omega^{-circ(I, I)} C_{I + reverse(I^c)}, its
    phase and rows from ``_theta``, the kernel of reflect, with Python's
    complex rounding.  Distinct I give distinct keys, so no terms merge."""
    if any(vec.order != n or vec.sites != L for vec in couplings.entries):
        raise SpecError("coupling key does not match n, L")
    a = np.array([vec.entries for vec in couplings.entries], dtype=np.int64)
    a = a.reshape(len(couplings), L)
    j = np.fromiter(couplings.entries.values(), dtype=float, count=len(a))
    d = a.sum(axis=1) % (2 * n)
    zeta_d2 = _zeta_array(n)[d * d % (2 * n)]
    signed = _cmul(np.where(d % 2 == 0, -j, j), zeta_d2)
    rows, c = _theta(a, signed.conj(), n)
    return Polynomial._from_arrays(a + rows, c, n, L)


def validate_couplings(couplings: CouplingTable, n: int) -> CouplingRule:
    """Which RP sign hypothesis the table satisfies, if any."""
    values = [(degree(vec), j) for vec, j in couplings]
    if all(j >= 0 for _, j in values):
        return CouplingRule.ALL_NONNEG
    if n % 2 == 0 and all((-1) ** d * j >= 0 for d, j in values):
        return CouplingRule.EVEN_N_ALTERNATING
    return CouplingRule.NONE


@dataclass(frozen=True)
class HamiltonianSpec:
    """H = H_- + H_0 + theta(H_-), built from H_- and the couplings alone.

    Everything else (order, sites, H_0, H_+ = theta(H_-), the coupling rule
    and H) is derived once, here; the coupling table is read, not kept.
    SpecError unless ``h_minus`` is an observable on the minus half, the
    coupling keys fit the chain and H is finite.
    """

    h_minus: Polynomial
    couplings: InitVar[CouplingTable]
    order: int = field(init=False)
    sites: int = field(init=False)
    h_zero: Polynomial = field(init=False)
    h_plus: Polynomial = field(init=False)
    validated_rule: CouplingRule = field(init=False)
    _total: Polynomial = field(init=False, repr=False)

    def __post_init__(self, couplings: CouplingTable) -> None:
        h_minus = self.h_minus
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
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            h_plus = reflect(h_minus)
            total = sum_polynomials((h_minus, h_zero, h_plus))
        # H drops NaN terms, and only a non-finite H_- gives one.
        if not all(np.isfinite(p.coeffs).all() for p in (h_minus, total)):
            raise SpecError("H has a non-finite coefficient")
        derived = dict(order=n, sites=L, h_zero=h_zero, h_plus=h_plus,
                       validated_rule=validate_couplings(couplings, n),
                       _total=total)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def total(self) -> Polynomial:
        """H = H_- + H_0 + H_+, summed once when the spec was built."""
        return self._total


def assemble(h_minus: Polynomial, couplings: CouplingTable) -> HamiltonianSpec:
    """The spec of H_- + H_0 + theta(H_-); see HamiltonianSpec."""
    return HamiltonianSpec(h_minus, couplings)


def check_symmetries(spec: HamiltonianSpec) -> dict:
    """theta(H) = H and U(H) = H, checked on the coefficients of H: the
    monomials are a basis, so no matrix is needed."""
    h = spec.total()
    return {"reflection_symbolic": reflect(h).almost_equal(h),
            "gauge_symbolic": gauge_apply(h).almost_equal(h)}


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
    "J": x}, ...]}, with no other fields.
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
    except RecursionError:
        raise SpecError(f"{path}: nested too deeply") from None


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
        _known(data, ("baxter",), "")
        _known(data["baxter"], ("n", "L", "t"), "baxter: ")
        t = _get_list(data["baxter"], "t", _is_real, "finite reals")
        return baxter(n, L, t)
    _known(data, ("n", "L", "h_minus", "couplings"), "")
    terms = {}
    for pos, term in enumerate(_get_list(data, "h_minus", _is_object, "objects")):
        _known(term, ("coefficient", "exponents"), f"h_minus[{pos}]: ")
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
        _known(entry, ("exponents", "J"), f"couplings[{pos}]: ")
        vec = _parse_exponents(
            entry.get("exponents"), n, L, f"couplings[{pos}]"
        )
        if vec in couplings.entries:  # entry k holds couplings[k]
            raise SpecError(f"couplings[{pos}]: exponents repeat "
                            f"couplings[{list(couplings.entries).index(vec)}]")
        j = entry.get("J")
        if not _is_real(j):
            raise SpecError(f"couplings[{pos}]: J must be a finite real")
        try:
            couplings[vec] = j
        except SpecError as exc:
            raise SpecError(f"couplings[{pos}]: {exc}") from exc
    return assemble(Polynomial(terms, n, L), couplings)


def _known(obj: dict, fields, where: str) -> None:
    """SpecError naming the first key of ``obj``, in document order, that is
    not one of ``fields``."""
    for key in obj:
        if key not in fields:
            raise SpecError(f"{where}unknown field {key!r}")


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
