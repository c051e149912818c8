"""Independent references for the benchmark's output checks.

SC, CR and the check-expr family have closed forms in math.gamma.  FM and
SD have none; their double integral Q comes from the exact 1D reduction
Q = Gamma(q+2) * int_0^1 beta(t, 1-t) dt, evaluated with mpmath by
gen_references.py and frozen in references.json.  The same file freezes
the p values avgkernel printed when the benchmark was defined, which the
table3 checks compare against and p_err_ratio divides by.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

DATA_PATH = Path(__file__).with_name("references.json")

# b = 1/2 is left out of the family on purpose: numpy's power takes a sqrt
# fast path for it, which makes the oracle about 17% cheaper and would tie
# check-expr's wall time to the seed.  All members below cost the same.
FAMILY_A = ("-1/3", "-1/6", "1/6", "1/3")
FAMILY_B = ("1/3", "2/3")

TABLE3_RELTOL = 1e-9


def load_data() -> dict:
    return json.loads(DATA_PATH.read_text(encoding="utf-8"))


def family_kernel(a: str, b: str) -> str:
    return f"(x^({a})+y^({a}))*(x^({b})+y^({b}))"


def family_members() -> list[tuple[str, str]]:
    return [(a, b) for a in FAMILY_A for b in FAMILY_B]


def family_member(seed: int) -> tuple[str, str]:
    """The (a, b) exponents the check-expr workload uses for this seed."""
    return random.Random(seed).choice(family_members())


def family_p_exact(a: str, b: str) -> float:
    """p = Gamma(a+b+1) + Gamma(a+1) Gamma(b+1) for (x^a+y^a)(x^b+y^b)."""
    fa, fb = float(Fraction(a)), float(Fraction(b))
    return math.gamma(fa + fb + 1.0) + math.gamma(fa + 1.0) * math.gamma(fb + 1.0)


def builtin_p_exact(kernel_id: str, data: dict) -> float:
    """Exact p = Q/2 for a builtin kernel."""
    if kernel_id == "SC":
        return (2.0 + 6.0 * math.gamma(5.0 / 3.0) * math.gamma(4.0 / 3.0)) / 2.0
    if kernel_id == "CR":
        return (2.0 + 2.0 * math.gamma(4.0 / 3.0) * math.gamma(2.0 / 3.0)) / 2.0
    return float(data["q_1d"][kernel_id]) / 2.0


def parse_table3(text: str) -> dict[str, float]:
    """{kernel id: p} from table3's csv output; raises ValueError if malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "# columns: type,p,q,beta_bar":
        raise ValueError("table3 header missing")
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 4:
            raise ValueError(f"bad table3 row {line!r}")
        rows[fields[0]] = float(fields[1])
    if sorted(rows) != ["CR", "FM", "SC", "SD"]:
        raise ValueError(f"table3 rows {sorted(rows)} are not the four builtins")
    return rows


def parse_check(text: str) -> tuple[dict[float, tuple[float, float]], bool]:
    """({u: (beta_bar, tol)}, passed) from check's csv output."""
    lines = text.splitlines()
    if len(lines) != 5 or lines[0] != "# columns: u,beta_bar,oracle,delta,tol":
        raise ValueError("check output is not a header, three rows and a verdict")
    rows = {}
    for line in lines[1:4]:
        u, beta, _, _, tol = line.split(",")
        rows[float(u)] = (float(beta), float(tol))
    return rows, lines[4] == "# check passed"
