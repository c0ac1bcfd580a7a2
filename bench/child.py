"""Child processes of the benchmark; run.py starts one at a time.

    python bench/child.py cli OUT.json ARGS...
        run ``nmems ARGS...`` in this process with every public function
        traced, then write the call statistics to OUT.json (traced runs only;
        untraced runs start ``python -m nmems`` as a user would).

    python bench/child.py library OUT.json --seed N --segment K --seconds S --trace 0|1
        closed loop with one client: seeded requests straight through the
        per-point API, in batches, each checked against numpy references.
        Times are scaled to the reference speed (speed.py) batch by batch.

nmems must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from speed import Calibration
from tracer import Tracer

BATCH = 50            # library requests per timed batch
WARMUP_BATCHES = 2
TOLERANCE = 1e-9      # library results against the numpy references
# results each library request returns, counted as its output cells
RESULTS_PER_REQUEST = 9

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI_PAIRS = np.array([[np.kron(a, b) for b in (_SX, _SY, _SZ)]
                         for a in (_SX, _SY, _SZ)])
_YY = np.kron(_SY, _SY)


def run_cli(out_path: str, argv: list) -> int:
    import nmems.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = nmems.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


# ---------------------------------------------------------------- library

def _random_density(rng) -> np.ndarray:
    """A dense (non-X) full-rank 4x4 state: G G^dagger / Tr, G Ginibre."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def make_batch(rng) -> list:
    return [(_random_density(rng), rng.uniform(), rng.uniform(), rng.uniform(),
             rng.uniform()) for _ in range(BATCH)]


def library_request(nm, req) -> tuple:
    """One request through the public per-point API."""
    matrix, gamma, lam, p, gamma_c = req
    rho = nm.DensityMatrix.from_matrix(matrix)
    fid = nm.teleportation_fidelity(rho)
    image = nm.apply_product_pair(nm.gadc(gamma, lam), rho)
    family = nm.nmems(p)
    return (
        nm.concurrence_wootters(rho),
        fid.fidelity,
        fid.n_value,
        nm.chsh_criterion(rho).m_value,
        nm.mid_dephasing(rho),
        nm.psd_sqrt(rho.matrix),
        nm.von_neumann_entropy(image),
        nm.discord_x(family).discord,
        nm.apply_correlated_pair(nm.adc(gamma_c), family).matrix,
    )


def _entropy(vals) -> float:
    vals = np.clip(vals, 0.0, None)
    vals = vals[vals > 0.0]
    return float(-(vals * np.log2(vals)).sum())


def _sqrtm(rho) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _kraus_image(ops, rho, pairs) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for i, j in pairs:
        k = np.kron(ops[i], ops[j])
        out += k @ rho @ k.conj().T
    return out


def _adc_ops(g):
    return [np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex),
            np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)]


def _gadc_ops(g, lam):
    a0, a1 = _adc_ops(g)
    b0 = np.array([[math.sqrt(1 - g), 0], [0, 1]], dtype=complex)
    b1 = np.array([[0, 0], [math.sqrt(g), 0]], dtype=complex)
    return [math.sqrt(lam) * a0, math.sqrt(lam) * a1,
            math.sqrt(1 - lam) * b0, math.sqrt(1 - lam) * b1]


def _dephased_disturbance(rho) -> float:
    r = rho.reshape(2, 2, 2, 2)
    _, va = np.linalg.eigh(np.einsum("ijkj->ik", r))
    _, vb = np.linalg.eigh(np.einsum("jijk->ik", r))
    u = np.kron(va, vb)
    probs = np.diag(u.conj().T @ rho @ u).real
    return _entropy(probs) - _entropy(np.linalg.eigvalsh(rho))


def reference_mismatches(req, got) -> list:
    """Names of the request's results that disagree with numpy references
    built on eigvalsh/eigh/svd, independent of the library."""
    matrix, gamma, lam, p, gamma_c = req
    conc, fidelity, n_value, m_value, mid, root, s_image, _discord, corr = got
    bad = []

    def close(name, value, ref):
        if not abs(value - ref) <= TOLERANCE * max(1.0, abs(ref)):
            bad.append(name)

    sq = _sqrtm(matrix)
    s = np.linalg.svd(sq @ _YY @ sq.conj(), compute_uv=False)
    close("concurrence_wootters", conc, max(0.0, s[0] - s[1] - s[2] - s[3]))
    t = np.einsum("ijab,ba->ij", _PAULI_PAIRS, matrix).real
    n_ref = float(np.linalg.svd(t, compute_uv=False).sum())
    close("correlation_n", n_value, n_ref)
    if abs(n_ref - 1.0) > TOLERANCE:
        close("fidelity", fidelity, 0.5 * (1.0 + n_ref / 3.0) if n_ref > 1.0 else 2.0 / 3.0)
    close("chsh_m", m_value, float(np.linalg.eigvalsh(t.T @ t)[1:].sum()))
    close("mid_dephasing", mid, _dephased_disturbance(matrix))
    close("psd_sqrt", float(np.abs(root @ root - matrix).max()), 0.0)
    image = _kraus_image(_gadc_ops(gamma, lam), matrix, [(i, j) for i in range(4) for j in range(4)])
    close("entropy_product_image", s_image, _entropy(np.linalg.eigvalsh(image)))
    family = np.zeros((4, 4), dtype=complex)
    family[0, 0], family[3, 3] = (p + 2) / 6, p / 2
    family[1, 1] = family[2, 2] = family[1, 2] = family[2, 1] = (1 - p) / 3
    corr_ref = _kraus_image(_adc_ops(gamma_c), family, [(0, 0), (1, 1)])
    close("correlated_image", float(np.abs(corr - corr_ref).max()), 0.0)
    return bad


def run_library(out_path: str, seed: int, segment: int, seconds: float, trace: bool) -> int:
    import nmems as nm

    rng = np.random.default_rng([seed, segment])
    for _ in range(WARMUP_BATCHES):
        for req in make_batch(rng):
            try:
                library_request(nm, req)
            except Exception:  # warm-up only; measured requests count failures
                pass
    tracer = Tracer() if trace else None
    calibration = Calibration()
    batches = []      # (traced, wall_s, cpu_s), scaled to the reference speed
    raw = []          # (wall_s, cpu_s) as measured
    latencies = []    # on-CPU time of each untraced request, scaled, in ns
    attempted = failed = 0
    failures = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(batches) < 2:
        reqs = make_batch(rng)
        results = []
        # a traced run alternates untraced and traced batches; the gap
        # between their medians is the tracing overhead
        traced = tracer is not None and len(batches) % 2 == 1
        if traced:
            tracer.install()
        request_ns = []
        t_cpu = time.process_time()
        t_wall = time.perf_counter()
        for req in reqs:
            # on-CPU time: the client is one CPU-bound thread, so this is its
            # latency less the time the host's hypervisor took the core away
            t0 = time.process_time_ns()
            try:
                results.append(library_request(nm, req))
            except Exception as exc:  # any exception is a failed request
                results.append(exc)
            request_ns.append(time.process_time_ns() - t0)
        wall = time.perf_counter() - t_wall
        cpu = time.process_time() - t_cpu
        if traced:
            tracer.uninstall()
        scale = calibration.scale()
        batches.append((traced, wall * scale, cpu * scale))
        raw.append((wall, cpu))
        if not traced:
            latencies += [ns * scale for ns in request_ns]
        for req, got in zip(reqs, results):
            attempted += 1
            bad = [type(got).__name__] if isinstance(got, Exception) else reference_mismatches(req, got)
            if bad:
                failed += 1
                for name in bad:
                    failures[name] = failures.get(name, 0) + 1
    if tracer is not None:
        latencies = []  # latency percentiles come from untraced runs only
    report = {
        "batch": BATCH,
        "results_per_request": RESULTS_PER_REQUEST,
        "batches": batches,
        "raw": raw,
        "probes": calibration.probes,
        "latencies_ns": latencies,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


def main(argv) -> int:
    mode, out_path, rest = argv[0], argv[1], argv[2:]
    if mode == "cli":
        return run_cli(out_path, rest)
    parser = argparse.ArgumentParser(prog="child.py library")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--segment", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = parser.parse_args(rest)
    return run_library(out_path, ns.seed, ns.segment, ns.seconds, bool(ns.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
