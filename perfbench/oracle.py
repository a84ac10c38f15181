"""Independent re-derivations the benchmark checks pcs against.

Nothing here imports pcs.  Sensing matrices follow the recipe in the
repository README ("Reproducibility"): slice i of an ensemble seeded s reads
a Philox stream keyed (s mod 2**64, i), maps each 64-bit word w to the
uniform ((w >> 11) + 0.5) * 2**-53 and that to N(0, 1/m) through the inverse
normal CDF; entry (k, j) is element k*n + j.  The file readers follow the
byte layouts in the same README.
"""

import struct

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

ROWS_2D, BANDS_3D = 0, 1

# acquisition must reproduce y = Phi x to this relative error (bit-exact today)
ACQUIRE_RTOL = 1e-12
# the sweep solver's feasibility tolerance: every written slice whose solves
# pcs reports as converged must meet it
CONSISTENCY_RTOL = 1e-3
# planted batch: recovery threshold and the share of problems that must meet it
PLANTED_RTOL = 1e-4
PLANTED_MIN_RECOVERED = 0.95


def phi(seed: int, i: int, m: int, n: int) -> np.ndarray:
    """Sensing matrix of slice i, derived from the published recipe."""
    key = np.array([seed % (1 << 64), i], dtype=np.uint64)
    words = Philox(key=key).random_raw(m * n)
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return (ndtri(u) / np.sqrt(m)).reshape(m, n)


def read_measurements(path) -> dict:
    """Parse a .pcsm file: 48-byte header, then slices x m float64."""
    with open(path, "rb") as fh:
        data = fh.read()
    (magic, _version, layout, seed, m, num_slices, n,
     rows, cols, bands, _flags, _reserved) = struct.unpack_from("<4sHHQ8I", data)
    if magic != b"PCSM":
        raise ValueError(f"{path}: not a measurement file")
    y = np.frombuffer(data, dtype="<f8", offset=48)
    return {"layout": layout, "seed": seed, "m": m, "n": n,
            "shape": (rows, cols, bands), "y": y.reshape(num_slices, m)}


def read_cube(path) -> np.ndarray:
    """Parse an f64 .pcs3 file into a (rows, cols, bands) array."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, _version, fmt, rows, cols, bands = struct.unpack_from("<4sHHIII", data)
    if magic != b"PCS3" or fmt != 2:
        raise ValueError(f"{path}: not an f64 cube file")
    bsq = np.frombuffer(data, dtype="<f8", offset=32).reshape(bands, rows, cols)
    return bsq.transpose(1, 2, 0)


def slices(signal: np.ndarray, layout: int) -> np.ndarray:
    """(num_slices, n) view: image rows, or bands stacked column-major."""
    if layout == ROWS_2D:
        return signal.reshape(signal.shape[0], -1)
    if layout == BANDS_3D:
        r, c, b = signal.shape
        return signal.transpose(2, 1, 0).reshape(b, r * c)
    raise ValueError(f"layout {layout} is not used by the benchmark")


def mse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean((np.asarray(a, dtype=np.float64) - b) ** 2))


def acquisition_error(meas: dict, truth: np.ndarray) -> float:
    """Largest relative error of a stored y_i against Phi_i x_i."""
    x = slices(truth, meas["layout"])
    worst = 0.0
    for i, y in enumerate(meas["y"]):
        want = phi(meas["seed"], i, meas["m"], meas["n"]) @ x[i]
        worst = max(worst, np.linalg.norm(y - want) / np.linalg.norm(want))
    return worst


def consistency_error(meas: dict, recon: np.ndarray, skip=()) -> float:
    """Largest ||Phi_i xhat_i - y_i|| / ||y_i|| over the slices not in skip."""
    x = slices(recon, meas["layout"])
    worst = 0.0
    for i, y in enumerate(meas["y"]):
        if i in skip:
            continue
        resid = phi(meas["seed"], i, meas["m"], meas["n"]) @ x[i] - y
        worst = max(worst, np.linalg.norm(resid) / np.linalg.norm(y))
    return worst


def planted_batch(key: int, n: int, k: int, m: int, count: int):
    """count k-sparse problems: (A stack, theta stack, y stack), seeded by key."""
    rng = np.random.Generator(Philox(key=np.array([key % (1 << 64), 0x91A7], dtype=np.uint64)))
    a = rng.normal(0.0, 1.0 / np.sqrt(m), (count, m, n))
    theta = np.zeros((count, n))
    for t in range(count):
        support = rng.choice(n, k, replace=False)
        theta[t, support] = rng.normal(0.0, 1.0, k) + 0.5 * np.sign(rng.normal(0.0, 1.0, k))
    y = np.matmul(a, theta[:, :, None])[..., 0]
    return a, theta, y


def _relative_errors(theta_hat: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return np.linalg.norm(theta_hat - theta, axis=1) / np.linalg.norm(theta, axis=1)


def planted_recovered(theta_hat: np.ndarray, theta: np.ndarray) -> int:
    """Number of problems whose relative coefficient error is below PLANTED_RTOL."""
    return int(np.sum(_relative_errors(theta_hat, theta) < PLANTED_RTOL))


def planted_error(theta_hat: np.ndarray, theta: np.ndarray) -> float:
    """Mean squared relative coefficient error, each floored at PLANTED_RTOL**2.

    Below the recovery threshold the error only reflects where the solver
    stopped inside its tolerances, so a recovered problem counts as exactly
    the floor and only a failed recovery moves the figure.
    """
    return float(np.mean(np.maximum(_relative_errors(theta_hat, theta), PLANTED_RTOL) ** 2))


def planted_feasible(a, theta_hat, y, feas_tol: float, converged) -> bool:
    """Every solve reported as converged meets ||A theta - y|| <= tol ||y||.

    Solves that stop at the iteration cap are reported as not converged and
    are counted by the traced run (solvers.unconverged), not failed here.
    """
    resid = np.linalg.norm(np.matmul(a, theta_hat[:, :, None])[..., 0] - y, axis=1)
    feasible = resid <= feas_tol * np.linalg.norm(y, axis=1)
    return bool(np.all(feasible[np.asarray(converged, dtype=bool)]))
