"""Independent reference check of every CLI response.

The benchmark carries its own copies of the paper's closed forms
(quant-ph/0412125) and imports nothing from cvteleport here:

* eta_N = sqrt(N n1 n2 / (2 e^{4 rbar} + (N - 2) n1 / n2))
* optimal fidelity F = 1 / (1 + eta_N)
* entanglement of teleportation E_T = max(0, (1 - eta_N) / (1 + eta_N))
* the optimal bias d_N_opt, and the smallest symplectic eigenvalue of the
  partially transposed resource (``eta_pt``), for the dense figures

``check`` returns None for a correct response, else a short failure cause.
Causes starting with ``mismatch_`` or equal to ``bad_output`` mean a wrong
answer; ``imprecise_`` marks a wrong answer of the known kind described at
``dense_envelope``; the others are refusals that the CLI reported cleanly. The
benchmark counts causes per request kind, as ``<kind>.<cause>``.
"""

from __future__ import annotations

import math
import re
import sys

# Responses carry 12 significant digits and the closed forms agree with the
# program to 1e-12, so 1e-9 separates rounding from a wrong answer.
TOL = 1e-9

WRONG_ANSWER = ("mismatch_", "bad_output", "exception_")


def dense_envelope(rbar: float) -> float:
    """Relative error of a dense eta figure (the localized eta, eta_pt) that
    counts as the known loss of precision rather than a new wrong answer.

    The envelope is machine epsilon times e^{8 rbar}: 1e-7 at rbar = 2.5,
    2e-2 at rbar = 4, about 1 at rbar = 4.5. eta_pt is read off the
    eigenvalues of -(Omega sigma)^2, whose condition number grows as
    e^{8 rbar}. At the commit that added the benchmark, both dense figures
    stayed at least five times inside the envelope for N in 2..200 and rbar
    in 0..6, and lost precision from about rbar = 3. Such an answer still
    fails the request.
    """
    return sys.float_info.epsilon * math.exp(8.0 * rbar)


def eta_n(N: int, n1: float, n2: float, rbar: float) -> float:
    return math.sqrt(N * n1 * n2 / (2.0 * math.exp(4.0 * rbar) + (N - 2) * n1 / n2))


def d_opt(N: int, n1: float, n2: float, rbar: float) -> float:
    """Optimal squeezing bias d_N_opt, the CLI's default d."""
    return rbar + 0.25 * math.log(N / ((N - 2) + 2.0 * math.exp(4.0 * rbar) * n2 / n1))


def eta_pt(N: int, n1: float, n2: float, rbar: float, d: float) -> float:
    """Smallest symplectic eigenvalue of the resource after time reversal of
    mode 1: the entanglement of the 1|(N-1) split.

    Mode 1 is squeezed in p (noise n1, r1 = rbar + d), the others in x (noise
    n2, r2 = rbar - d), and a balanced N-splitter mixes them. With input
    variances v1 (mode 1) and v2 (the others) in one quadrature, every output
    mode has variance a = v2 + c and each pair covariance c = (v1 - v2) / N.
    Mode 1 then correlates only with the symmetric mode of the other N - 1,
    whose variance is b = a + (N - 2) c and covariance with mode 1 is
    sqrt(N - 1) c. The split reduces to two modes with x and p blocks X and P;
    time reversal flips the sign of the p covariance, and the squared
    symplectic eigenvalues are the eigenvalues of X P'. All terms of the
    trace are positive and det(X P') = v1x v2x v1p v2p, so the small root
    det / lambda_max loses no precision at large squeezing. The other N - 2
    modes are uncorrelated with mode 1 and keep symplectic eigenvalue n2.
    """
    r1, r2 = rbar + d, rbar - d
    v1x, v1p = n1 * math.exp(2.0 * r1), n1 * math.exp(-2.0 * r1)
    v2x, v2p = n2 * math.exp(-2.0 * r2), n2 * math.exp(2.0 * r2)
    cx, cp = (v1x - v2x) / N, (v1p - v2p) / N
    ax, ap = v2x + cx, v2p + cp
    bx, bp = ax + (N - 2) * cx, ap + (N - 2) * cp
    trace = ax * ap + bx * bp - 2.0 * (N - 1) * cx * cp
    det = v1x * v2x * v1p * v2p
    lam_max = 0.5 * (trace + math.sqrt(max(trace * trace - 4.0 * det, 0.0)))
    two_mode = math.sqrt(det / lam_max)
    return two_mode if N == 2 else min(two_mode, n2)


def fidelity_opt(eta: float) -> float:
    return 1.0 / (1.0 + eta)


def entanglement_of_teleportation(eta: float) -> float:
    return max(0.0, (1.0 - eta) / (1.0 + eta))


def parse_csv(text: str) -> list[dict[str, str]]:
    """Rows of the CLI's csv output as header -> field dicts."""
    lines = text.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("expected a header and at least one row")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("row width differs from header")
    return [dict(zip(header, r)) for r in rows]


def _close(got: str, want: float, tol: float = TOL) -> bool:
    return abs(float(got) - want) <= tol * max(1.0, abs(want))


def _check_dense(key: str, got: str, want: float, rbar: float) -> str | None:
    """None within TOL; ``imprecise_<key>`` within dense_envelope(rbar);
    else ``mismatch_<key>``. A value that is not finite is a mismatch."""
    if _close(got, want):
        return None
    if abs(float(got) - want) <= dense_envelope(rbar) * want:
        return f"imprecise_{key}"
    return f"mismatch_{key}"


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def refusal_cause(kind: str, rc: int, stdout: str, stderr: str) -> str:
    """Name the cause of a nonzero exit: the failing verify suites, or the
    CLI's error message up to its first number or colon."""
    if rc == 1 and kind == "verify":
        failed = [line.split(":")[0] for line in stdout.splitlines()
                  if line.endswith(" FAIL") and not line.startswith("verify:")]
        if failed:
            return "verify_fail_" + "_".join(_slug(name) for name in failed)
    message = stderr.strip().removeprefix("error:")
    words = _slug(re.split(r"[:,0-9]", message, maxsplit=1)[0])
    return f"exit_{rc}_{words}" if words else f"exit_{rc}"


def _check_spec_row(kind: str, p: dict, row: dict[str, str]) -> str | None:
    N, n1, n2, rbar = p["N"], p["n1"], p["n2"], p["rbar"]
    eta, d = eta_n(N, n1, n2, rbar), d_opt(N, n1, n2, rbar)
    expected = {
        "fidelity": {"d": d, "fidelity": fidelity_opt(eta)},
        "entanglement": {"d": d, "eta_N": eta, "E_T": entanglement_of_teleportation(eta)},
        "localize": {"d_opt": d, "eta_N": eta, "E_T": entanglement_of_teleportation(eta)},
        "optimize": {"eta_N": eta, "fidelity_opt": fidelity_opt(eta)},
        "optimize_numerical": {"eta_N": eta, "fidelity_opt": fidelity_opt(eta)},
    }[kind]
    for key, want in expected.items():
        if not _close(row[key], want):
            return f"mismatch_{key}"
    # the figures computed on the dense covariance matrix
    if kind == "entanglement":
        return _check_dense("eta", row["eta"], eta_pt(N, n1, n2, rbar, d), rbar)
    if kind == "localize":
        return _check_dense("eta_localized", row["eta_localized"], eta, rbar)
    return None


def _check_sweep(p: dict, rows: list[dict[str, str]]) -> str | None:
    steps = p["steps"]
    if len(rows) != len(p["N_list"]) * steps:
        return "mismatch_rows"
    span = p["rbar_max"] - p["rbar_min"]
    for i, row in enumerate(rows):
        N = p["N_list"][i // steps]
        rbar = p["rbar_min"] + (i % steps) * span / (steps - 1)
        if int(row["N"]) != N:
            return "mismatch_N"
        if not _close(row["F_opt"], fidelity_opt(eta_n(N, p["n1"], p["n2"], rbar))):
            return "mismatch_F_opt"
    return None


def _check_verify(stdout: str) -> str | None:
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "verify: PASS":
        return "bad_output"
    if any(not line.endswith(" ok") for line in lines[:-1]):
        return "bad_output"
    return None


def check(kind: str, params: dict, rc: int, stdout: str, stderr: str = "") -> str | None:
    """None if the response to one request is correct, else its failure cause."""
    if rc != 0:
        return refusal_cause(kind, rc, stdout, stderr)
    if kind == "verify":
        return _check_verify(stdout)
    try:
        rows = parse_csv(stdout)
        if kind == "sweep":
            return _check_sweep(params, rows)
        if len(rows) != 1:
            return "bad_output"
        return _check_spec_row(kind, params, rows[0])
    except (ValueError, KeyError):
        return "bad_output"


def is_new_wrong_answer(cause: str) -> bool:
    """True for a ``<kind>.<cause>`` wrong answer other than ``imprecise_``."""
    return cause.partition(".")[2].startswith(WRONG_ANSWER)
