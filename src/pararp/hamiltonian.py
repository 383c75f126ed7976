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

The parts share no monomial but the identity (H_- lies on the minus half,
H_+ on the plus half, H_0 on both), so H is their rows concatenated, the
identity of H_+ folded into that of H_-, with no merge; one ``_theta`` on
the stacked coupling keys and rows of H_- gives H_0 and H_+.

Hamiltonians are not required to be hermitian.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from enum import Enum

import numpy as np

from .algebra import (
    Polynomial, _cmul, _theta, _zeta_array, gauge_apply, reflect, zeta_power,
)
from .exponents import ExponentVector


class CouplingRule(Enum):
    ALL_NONNEG = "all_nonneg"
    EVEN_N_ALTERNATING = "even_n_alternating"
    NONE = "none"


class SpecError(ValueError):
    """Malformed Hamiltonian data (couplings or spec file)."""


def _check_coupling_key(key: tuple[int, ...], where: str = "") -> None:
    if any(key[len(key) // 2:]):
        raise SpecError(f"{where}coupling key {key} not supported on sites 1..L/2")
    if not any(key):
        raise SpecError(f"{where}coupling key must have positive degree")


class CouplingTable:
    """Map from exponent vectors on the minus half (degree > 0) to real J,
    held as a dict (order, entries) -> J that the spec reader fills directly;
    ``entries`` builds the ExponentVector view on each call."""

    def __init__(self, entries: dict[ExponentVector, float] | None = None):
        self._rows: dict[tuple[int, tuple[int, ...]], float] = {}
        for vec, j in (entries or {}).items():
            self[vec] = j

    def __setitem__(self, vec: ExponentVector, j: float) -> None:
        _check_coupling_key(vec.entries)
        j = float(j)
        if not math.isfinite(j):
            raise SpecError(f"coupling for {vec.entries} is not finite")
        self._rows[vec.order, vec.entries] = j

    @property
    def entries(self) -> dict[ExponentVector, float]:
        return {ExponentVector(key, n): j for (n, key), j in self._rows.items()}

    def __iter__(self):
        return iter(self.entries.items())

    def __len__(self):
        return len(self._rows)


def _theta_parts(couplings: CouplingTable, a, c, n: int, L: int):
    """The rows and coefficients of H_0 and of theta(H_-), H_- = (a, c), from
    one ``_theta`` on the stacked rows [keys; a].  theta(C_I) lies on the
    plus half, so each crossing term is one monomial, (-1)^{d+1} J zeta^{d^2}
    omega^{-circ(I, I)} C_{I + reverse(I^c)}, with Python's complex rounding."""
    table, k = couplings._rows, len(couplings)
    if any(order != n or len(key) != L for order, key in table):
        raise SpecError("coupling key does not match n, L")
    keys = np.array([key for _, key in table], dtype=np.int64).reshape(k, L)
    j = np.fromiter(table.values(), dtype=float, count=k)
    d = keys.sum(axis=1) % (2 * n)
    x = _cmul(np.where(d % 2 == 0, -j, j), _zeta_array(n)[d * d % (2 * n)])
    rows, coeffs = _theta(np.concatenate([keys, a]), np.concatenate([x.conj(), c]), n)
    return keys + rows[:k], coeffs[:k], rows[k:], coeffs[k:]


def build_h0(couplings: CouplingTable, n: int, L: int) -> Polynomial:
    """Crossing Hamiltonian: sum of (-1)^{d+1} zeta^{d^2} J C_I theta(C_I)."""
    empty = np.zeros((0, L), dtype=np.int64), np.zeros(0, dtype=complex)
    return Polynomial._from_arrays(*_theta_parts(couplings, *empty, n, L)[:2], n, L)


def validate_couplings(couplings: CouplingTable, n: int) -> CouplingRule:
    """Which RP sign hypothesis the table satisfies, if any, read from the
    array of its J and that of the parities of their degrees."""
    rows, k = couplings._rows, len(couplings)
    j = np.fromiter(rows.values(), dtype=float, count=k)
    if (j >= 0).all():
        return CouplingRule.ALL_NONNEG
    odd = np.fromiter((sum(key) % 2 for _, key in rows), dtype=bool, count=k)
    if n % 2 == 0 and (np.where(odd, -j, j) >= 0).all():
        return CouplingRule.EVEN_N_ALTERNATING
    return CouplingRule.NONE


@dataclass(frozen=True)
class HamiltonianSpec:
    """H = H_- + H_0 + theta(H_-), built from H_- and the couplings alone.

    Everything else (order, sites, H_0, H_+ = theta(H_-), the coupling rule
    and H) is derived once, here; the coupling table is read, not kept.
    SpecError unless ``h_minus`` is an observable on the minus half, the
    coupling keys fit the chain and H is finite."""

    h_minus: Polynomial
    couplings: InitVar[CouplingTable]
    order: int = field(init=False)
    sites: int = field(init=False)
    h_zero: Polynomial = field(init=False)
    h_plus: Polynomial = field(init=False)
    validated_rule: CouplingRule = field(init=False)
    _total: Polynomial = field(init=False, repr=False)

    def __post_init__(self, couplings: CouplingTable) -> None:
        h = self.h_minus
        n, L, a, c = h.order, h.sites, h.exponents, h.coeffs
        degrees = a.sum(axis=1)
        if a[:, L // 2:].any() or (degrees % n).any():
            bad = a[a[:, L // 2:].any(axis=1) | (degrees % n != 0)].tolist()
            raise SpecError("h_minus must be an observable supported on sites "
                            f"1..L/2; offending terms: {list(map(tuple, bad))}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            h0_rows, h0_c, plus_rows, plus_c = _theta_parts(couplings, a, c, n, L)
            coeffs = np.concatenate([c, h0_c, plus_c])
            if not degrees.all():  # the identity, in two parts: drop H_+'s
                one = np.flatnonzero(degrees == 0)
                fold = one + len(c) + len(h0_c)
                coeffs[one] += coeffs[fold]
                coeffs[fold] = 0
        if not np.isfinite(coeffs).all():  # H_- too: its terms are all here
            raise SpecError("H has a non-finite coefficient")
        rows = np.concatenate([a, h0_rows, plus_rows])
        derived = dict(order=n, sites=L,
                       h_zero=Polynomial._from_arrays(h0_rows, h0_c, n, L),
                       h_plus=Polynomial._from_arrays(plus_rows, plus_c, n, L),
                       validated_rule=validate_couplings(couplings, n),
                       _total=Polynomial._from_arrays(rows, coeffs, n, L))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def total(self) -> Polynomial:
        """H = H_- + H_0 + H_+, concatenated once when the spec was built."""
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
            raise SpecError(f"asymmetric couplings: t_{j}={t[j - 1]} but "
                            f"t_{L - j}={t[L - j - 1]}")
    zeta = zeta_power(n, 1)
    # Bond j is c_j c_{j+1}^{n-1}: 1 at site j and n - 1 at site j + 1.
    rows = np.eye(half - 1, L, 0, np.int64) + (n - 1) * np.eye(half - 1, L, 1, np.int64)
    # 0 + c: the bond terms summed from zero, as distinct monomials
    coeffs = np.array([0 + -zeta * tj for tj in t[:half - 1]], dtype=complex)
    couplings = CouplingTable()
    couplings._rows[n, (0,) * (half - 1) + (1,) + (0,) * half] = -t[half - 1]
    return assemble(Polynomial._from_arrays(rows, coeffs, n, L), couplings)


# -- spec files -----------------------------------------------------------


def _reject_constant(name: str):
    raise SpecError(f"non-finite number {name!r} in spec file")


def load_spec(path: str) -> HamiltonianSpec:
    """Parse a JSON Hamiltonian spec: {"baxter": {"n":.., "L":.., "t": [...]}}
    or {"n":.., "L":.., "h_minus": [{"coefficient": [re, im], "exponents":
    [...]}, ...], "couplings": [{"exponents": [...], "J": x}, ...]}, with no
    other fields."""
    return spec_from_dict(read_spec(path))


def read_spec(path: str):
    """The parsed JSON document of a spec file, not yet checked."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: line {exc.lineno} column {exc.colno}: "
                        f"{exc.msg}") from exc
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
        where = f"h_minus[{pos}]"
        _known(term, ("coefficient", "exponents"), f"{where}: ")
        coeff = term.get("coefficient")
        if not isinstance(coeff, (list, tuple)) or len(coeff) != 2 or not all(
                map(_is_real, coeff)):
            raise SpecError(f"{where}: coefficient must be [re, im]")
        key = _parse_exponents(term.get("exponents"), n, L, where)
        if any(key[L // 2:]):
            raise SpecError(f"{where}: exponents {key} not supported on sites 1..L/2")
        if sum(key) % n:
            raise SpecError(f"{where}: exponents {key} have degree {sum(key)}, "
                            f"not a multiple of n = {n}")
        terms[key] = terms.get(key, 0) + complex(coeff[0], coeff[1])
    couplings = CouplingTable()
    rows = couplings._rows
    for pos, entry in enumerate(_get_list(data, "couplings", _is_object, "objects")):
        where = f"couplings[{pos}]"
        _known(entry, ("exponents", "J"), f"{where}: ")
        key = _parse_exponents(entry.get("exponents"), n, L, where)
        if (n, key) in rows:  # entry k holds couplings[k]
            raise SpecError(f"{where}: exponents repeat "
                            f"couplings[{list(rows).index((n, key))}]")
        j = entry.get("J")
        if not _is_real(j):
            raise SpecError(f"{where}: J must be a finite real")
        _check_coupling_key(key, f"{where}: ")
        rows[n, key] = float(j)
    a = np.array(list(terms), dtype=np.int64).reshape(len(terms), L)
    c = np.fromiter(terms.values(), dtype=complex, count=len(terms))
    return assemble(Polynomial._from_arrays(a, c, n, L), couplings)


def _known(obj: dict, fields, where: str) -> None:
    """SpecError naming the first key of ``obj``, in document order, that is
    not one of ``fields``."""
    for key in obj:
        if key not in fields:
            raise SpecError(f"{where}unknown field {key!r}")


def _is_real(val) -> bool:
    """A JSON number that a float holds finitely, so no integer past the
    float range; true and false are not numbers here."""
    try:
        return type(val) in (int, float) and math.isfinite(val)
    except OverflowError:
        return False


def _is_object(val) -> bool:
    return isinstance(val, dict)


def _get_list(data: dict, key: str, ok, what: str) -> list:
    """The list in field ``key`` (empty if absent), every item ``ok``."""
    val = data.get(key, [])
    if not isinstance(val, list) or not all(map(ok, val)):
        raise SpecError(f"field {key!r} must be a list of {what}")
    return val


def _parse_exponents(exps, n: int, L: int, where: str) -> tuple[int, ...]:
    if not isinstance(exps, (list, tuple)) or len(exps) != L:
        raise SpecError(f"{where}: exponents must be a list of {L} integers")
    for k, e in enumerate(exps):
        if type(e) is not int or not 0 <= e < n:
            raise SpecError(f"{where}: exponent {e!r} at site {k + 1} "
                            f"outside 0..{n - 1}")
    return tuple(exps)
