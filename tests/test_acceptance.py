"""Acceptance suite: each test checks one numbered criterion at its stated
tolerance and prints one pass/fail line (run with ``pytest -s`` to see them
inline)."""

import dataclasses
import json
import math

import numpy as np

import wsrbeam as wb
from wsrbeam.model import total_power
from wsrbeam.objective import weighted_gram

from conftest import make_system, mmse_blocks


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def solve_suite(M, N, K, d, snr_db, seeds, algorithms, **option_overrides):
    """Shared-channel solves of several algorithms over a seed list."""
    out = {algo: [] for algo in algorithms}
    for seed in seeds:
        cfg, ch = make_system(seed=seed, M=M, N=N, K=K, d=d, snr_db=snr_db)
        for algo in algorithms:
            opts = wb.SolverOptions(algorithm=wb.Algorithm.from_name(algo),
                                    **option_overrides)
            out[algo].append(wb.solve(ch, cfg, opts))
    return out


# --- 1: all three algorithms reach the same WSR --------------------------------

def test_criterion_1_wsr_agreement():
    runs = solve_suite(M=32, N=2, K=8, d=2, snr_db=10.0, seeds=range(20),
                       algorithms=("wmmse", "mmmse", "ammmse"),
                       eps2=1e-3, max_iters=4000)
    means = {algo: np.mean([r.trace[-1].wsr_bits for r in results])
             for algo, results in runs.items()}
    dev_m = abs(means["mmmse"] - means["wmmse"]) / means["wmmse"]
    dev_a = abs(means["ammmse"] - means["wmmse"]) / means["wmmse"]
    ok = dev_m <= 0.02 and dev_a <= 0.02
    assert report(1, "WSR agreement", ok,
                  f"mean WMMSE {means['wmmse']:.3f} bpcu; "
                  f"MMMSE dev {100 * dev_m:.3f}%, A-MMMSE dev {100 * dev_a:.3f}%")


# --- 2: monotone descent in the provable regime ---------------------------------

def test_criterion_2_monotone_descent():
    worst_rise = -math.inf
    worst_chain = -math.inf
    for seed in range(10):
        cfg, ch = make_system(seed=seed, M=16, N=2, K=4, d=2)
        opts = wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE, gamma=wb.GAMMA_SAFE,
                                omega=0.0, eps1=math.inf, eps2=1e-3, max_iters=3000)
        res = wb.solve(ch, cfg, opts)
        f_prev = math.inf
        for rec in res.trace:
            worst_rise = max(worst_rise, rec.f_after_v - f_prev)
            worst_chain = max(worst_chain, rec.f_after_w - rec.f_after_u,
                              rec.f_after_v - rec.f_after_w)
            f_prev = rec.f_after_v
    ok = worst_rise <= 1e-9 and worst_chain <= 1e-9
    assert report(2, "monotone descent", ok,
                  f"max f rise {worst_rise:.2e}, max chain violation {worst_chain:.2e}")


# --- 3: iterate bound suite over full traces ---------------------------------------

def test_criterion_3_bound_suite():
    violations = []
    scanned = 0
    for snr in (0.0, 10.0, 20.0):
        for algo in ("wmmse", "ammmse"):
            for seed in range(10):
                cfg, ch = make_system(seed=seed, M=16, N=2, K=4, d=2, snr_db=snr)
                opts = wb.SolverOptions(algorithm=wb.Algorithm.from_name(algo),
                                        eps2=1e-3, max_iters=8000)
                res = wb.solve(ch, cfg, opts)
                bounds = wb.compute_bounds(ch, cfg.weight_vector, cfg.p_max, ch.noise_power)
                rep = wb.check_lemma_bounds(ch, res, bounds, cfg.weight_vector)
                scanned += rep.instances
                if not rep.passed:
                    violations.append((snr, algo, seed, rep.detail))
    ok = not violations
    assert report(3, "iterate bound suite", ok,
                  f"{scanned} iterates scanned across 60 traces, "
                  f"{len(violations)} violations {violations[:3]}")


# --- 4: closed-form gradient vs finite differences -------------------------------

def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        M = int(rng.integers(2, 9))
        K = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        N = int(rng.integers(max(1, d - 1), 4))  # mixes d <= N and d > N
        cfg, ch = make_system(seed=trial, M=M, N=N, K=K, d=d,
                              snr_db=float(rng.uniform(0.0, 20.0)))
        v = wb.project_sum_power(wb.init_precoders(cfg), cfg.p_max)
        u, w = mmse_blocks(ch, v)

        def objective(vv):
            return wb.wmmse_objective(u, w, vv, ch, cfg.weight_vector, ch.noise_power)

        fd = wb.finite_diff_gradient(objective, v)
        grad = wb.gradient_v(u, w, v, ch, cfg.weight_vector)
        for k in range(cfg.K):
            g = grad[k]
            worst = max(worst, float(np.linalg.norm(g - fd[k]) / np.linalg.norm(g)))
    ok = worst < 1e-6
    assert report(4, "gradient correctness", ok, f"worst relative error {worst:.3e}")


# --- 5: exact update vs independent reference solver -----------------------------

def _subproblem(cfg, ch, seed):
    rng = np.random.default_rng(seed)
    v = wb.project_sum_power(
        wb.PrecoderSet(rng.standard_normal((cfg.K, cfg.M, cfg.d))
                       + 1j * rng.standard_normal((cfg.K, cfg.M, cfg.d))), cfg.p_max)
    u, w = mmse_blocks(ch, v)
    gram = weighted_gram(ch, u, w, cfg.weight_vector)
    alpha = cfg.weight_vector
    targets = np.stack([alpha[k] * (ch.channels[k].conj().T @ u[k]
                                    @ w[k]) for k in range(cfg.K)])
    return u, w, gram, targets


def test_criterion_5_exact_solver_oracle():
    rng = np.random.default_rng(55)
    worst_obj, worst_v = 0.0, 0.0
    for trial in range(20):
        M = int(rng.integers(4, 9))
        K = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        p_max = float(rng.choice([1.0, 2.0, 10.0]))
        cfg, ch = make_system(seed=trial, M=M, N=2, K=K, d=d, p_max=p_max)
        u, w, gram, targets = _subproblem(cfg, ch, trial)
        exact = wb.update_precoders_exact(ch, u, w, cfg.weight_vector, cfg.p_max)
        ref = wb.reference_subproblem_solver(gram, targets, cfg.p_max, tol=1e-10)
        assert ref.converged

        def quad(vset):
            total = 0.0
            for k in range(cfg.K):
                vk = np.asarray(vset)[k]
                total += float(np.real(np.trace(vk.conj().T @ gram @ vk)))
                total -= 2.0 * float(np.real(np.trace(targets[k].conj().T @ vk)))
            return total

        worst_obj = max(worst_obj, abs(quad(exact) - quad(ref.precoders)))
        worst_v = max(worst_v, float(np.linalg.norm(exact - ref.precoders.precoders)
                                     / np.linalg.norm(ref.precoders.precoders)))
    ok = worst_obj <= 1e-8 and worst_v <= 1e-4
    assert report(5, "exact-solver oracle", ok,
                  f"worst objective gap {worst_obj:.2e}, worst V rel diff {worst_v:.2e}")


# --- 6: dual bisection respects the power constraint ------------------------------

def test_criterion_6_power_constraint_activity():
    rng = np.random.default_rng(66)
    n_active, n_inactive = 0, 0
    ok = True
    details = []
    for trial in range(30):
        M = int(rng.integers(4, 9))
        K = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        p_max = float(rng.choice([0.5, 2.0, 10.0, 1000.0]))
        cfg, ch = make_system(seed=trial, M=M, N=2, K=K, d=d, p_max=p_max)
        _, _, gram, targets = _subproblem(cfg, ch, trial + 100)
        res = wb.bisect_dual(gram, targets, cfg.p_max)
        power = total_power(res.precoders)
        if res.lam > 0:
            n_active += 1
            if not (0.999 * cfg.p_max <= power <= cfg.p_max):
                ok = False
                details.append((trial, res.lam, power, cfg.p_max))
        else:
            n_inactive += 1
            if power > cfg.p_max:
                ok = False
                details.append((trial, res.lam, power, cfg.p_max))
    ok = ok and n_active > 0 and n_inactive > 0
    assert report(6, "power-constraint activity", ok,
                  f"{n_active} active / {n_inactive} inactive instances, "
                  f"violations: {details[:3]}")


# --- 7: single-user runs attain the water-filling optimum -------------------------

def test_criterion_7_single_user_optimality():
    worst_gap = -math.inf
    for seed in range(10):
        cfg, ch = make_system(seed=seed, M=4, N=4, K=1, d=4)
        opts = wb.SolverOptions(eps2=1e-8, max_iters=4000)
        res = wb.solve(ch, cfg, opts)
        final_nats = res.trace[-1].wsr_bits * math.log(2)
        wf_rate, _ = wb.single_user_waterfilling(ch.channels[0], cfg.p_max,
                                                 ch.noise_power, d=cfg.d)
        worst_gap = max(worst_gap, wf_rate - final_nats)
    ok = worst_gap <= 1e-3
    assert report(7, "single-user optimality", ok,
                  f"worst rate gap to water-filling {worst_gap:.2e} nats")


# --- 8: warm start needs no more iterations than the standard solver --------------

def test_criterion_8_warm_start_iteration_savings():
    runs = solve_suite(M=64, N=2, K=12, d=4, snr_db=10.0, seeds=range(20),
                       algorithms=("wmmse", "mmmse"), eps2=1e-3, max_iters=2000)
    mean_w = np.mean([r.iterations for r in runs["wmmse"]])
    mean_m = np.mean([r.iterations for r in runs["mmmse"]])
    ok = mean_m <= mean_w
    assert report(8, "warm-start iteration savings", ok,
                  f"mean iterations MMMSE {mean_m:.2f} vs WMMSE {mean_w:.2f}")


# --- 9: tight-tolerance first-order runs end near stationarity --------------------

def test_criterion_9_stationarity():
    worst = -math.inf
    for seed in range(5):
        cfg, ch = make_system(seed=seed, M=16, N=2, K=4, d=2)
        opts = wb.SolverOptions(algorithm=wb.Algorithm.AMMMSE, gamma=wb.GAMMA_SAFE,
                                omega=0.0, eps2=1e-6, max_iters=5000)
        res = wb.solve(ch, cfg, opts)
        worst = max(worst, res.stationarity_residual)
    ok = worst <= 1e-3
    assert report(9, "stationarity", ok, f"worst exit residual {worst:.2e}")


# --- 10: byte determinism and exact trace round trips ------------------------------

def test_criterion_10_determinism_round_trip(tmp_path):
    doc = {"M": 16, "N": 2, "K": 4, "d": 2, "snr_db": 10.0, "algorithm": "mmmse",
           "n_realizations": 2, "max_iters": 300}
    spec = dataclasses.replace(wb.parse_experiment(json.dumps(doc)),
                               output_dir=tmp_path / "out")
    wb.run_experiment(spec)
    names = ["mmmse_base_seed0.csv", "mmmse_base_seed1.csv", "summary.json"]
    first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    wb.run_experiment(spec)
    identical = all((tmp_path / "out" / n).read_bytes() == first[n] for n in names)

    cfg, ch = make_system(seed=0, M=16, N=2, K=4, d=2)
    res = wb.solve(ch, cfg, wb.SolverOptions(algorithm=wb.Algorithm.MMMSE, eps2=1e-4))
    wb.emit_trace(res, tmp_path / "trace.csv")
    round_trip = wb.read_trace(tmp_path / "trace.csv") == res.trace

    ok = identical and round_trip
    assert report(10, "determinism & round-trip", ok,
                  f"byte-identical={identical}, csv round-trip exact={round_trip}")
