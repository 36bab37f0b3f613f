"""Golden outcomes of all three solvers on small systems.

The table pins what each solve ends with -- the iteration count, the switch
iteration of the two-stage solvers, the converged flag and the final weighted
sum rate -- on M8/K3 and M16/K4 (N = 2, d = 2) at 0, 10 and 20 dB, with
channel_seed = init_seed = 0, 1, 2 and default options.  A refactor that is
meant to keep behaviour must keep every row: counts and flags exactly, the
rate to 1e-10 relative.
"""

import pytest

import wsrbeam as wb

# (M, K, snr_db, seed, algorithm, iterations, switch_iteration, converged, wsr_bits)
GOLDEN = [
    (8, 3, 0.0, 0, 'wmmse', 5, None, True, 7.814856591226557),
    (8, 3, 0.0, 0, 'mmmse', 6, 3, True, 7.811541670377625),
    (8, 3, 0.0, 0, 'ammmse', 10, 6, True, 7.810164143527522),
    (8, 3, 0.0, 1, 'wmmse', 8, None, True, 7.366346774281363),
    (8, 3, 0.0, 1, 'mmmse', 7, 3, True, 7.366205063599168),
    (8, 3, 0.0, 1, 'ammmse', 13, 7, True, 7.3671363797798675),
    (8, 3, 0.0, 2, 'wmmse', 7, None, True, 7.402133460955028),
    (8, 3, 0.0, 2, 'mmmse', 8, 3, True, 7.408726083132414),
    (8, 3, 0.0, 2, 'ammmse', 12, 7, True, 7.404097843627966),
    (8, 3, 10.0, 0, 'wmmse', 5, None, True, 22.51348712331306),
    (8, 3, 10.0, 0, 'mmmse', 7, 3, True, 22.50147902271796),
    (8, 3, 10.0, 0, 'ammmse', 18, 9, True, 22.5135645793288),
    (8, 3, 10.0, 1, 'wmmse', 10, None, True, 20.16608176199475),
    (8, 3, 10.0, 1, 'mmmse', 12, 4, True, 20.15633228739049),
    (8, 3, 10.0, 1, 'ammmse', 25, 12, True, 19.961373665064215),
    (8, 3, 10.0, 2, 'wmmse', 11, None, True, 20.980925767496263),
    (8, 3, 10.0, 2, 'mmmse', 9, 4, True, 20.953964708406446),
    (8, 3, 10.0, 2, 'ammmse', 16, 7, True, 19.89070919396365),
    (8, 3, 20.0, 0, 'wmmse', 5, None, True, 41.46297557603833),
    (8, 3, 20.0, 0, 'mmmse', 5, 4, True, 41.234396828017125),
    (8, 3, 20.0, 0, 'ammmse', 71, 3, True, 36.606125019935845),
    (8, 3, 20.0, 1, 'wmmse', 13, None, True, 35.48248349193227),
    (8, 3, 20.0, 1, 'mmmse', 11, 5, True, 35.82015564314146),
    (8, 3, 20.0, 1, 'ammmse', 54, 3, True, 28.1573246717257),
    (8, 3, 20.0, 2, 'wmmse', 23, None, True, 38.98957242741182),
    (8, 3, 20.0, 2, 'mmmse', 7, 5, True, 39.018581073505565),
    (8, 3, 20.0, 2, 'ammmse', 96, 3, True, 35.19138630173118),
    (16, 4, 0.0, 0, 'wmmse', 7, None, True, 8.280384942415944),
    (16, 4, 0.0, 0, 'mmmse', 9, 4, True, 8.27346265879692),
    (16, 4, 0.0, 0, 'ammmse', 13, 7, True, 8.274018981818765),
    (16, 4, 0.0, 1, 'wmmse', 7, None, True, 7.977074383482236),
    (16, 4, 0.0, 1, 'mmmse', 5, 3, True, 7.977431589199103),
    (16, 4, 0.0, 1, 'ammmse', 10, 7, True, 7.9767727126303685),
    (16, 4, 0.0, 2, 'wmmse', 7, None, True, 8.257278668960867),
    (16, 4, 0.0, 2, 'mmmse', 7, 3, True, 8.256246244095536),
    (16, 4, 0.0, 2, 'ammmse', 12, 7, True, 8.254145897603898),
    (16, 4, 10.0, 0, 'wmmse', 6, None, True, 25.13808489064789),
    (16, 4, 10.0, 0, 'mmmse', 7, 4, True, 25.12782029671416),
    (16, 4, 10.0, 0, 'ammmse', 17, 10, True, 24.910417395598312),
    (16, 4, 10.0, 1, 'wmmse', 7, None, True, 25.217607414289315),
    (16, 4, 10.0, 1, 'mmmse', 6, 4, True, 25.205773135540714),
    (16, 4, 10.0, 1, 'ammmse', 20, 10, True, 24.96670143364217),
    (16, 4, 10.0, 2, 'wmmse', 6, None, True, 25.35202234596469),
    (16, 4, 10.0, 2, 'mmmse', 7, 4, True, 25.337272331286172),
    (16, 4, 10.0, 2, 'ammmse', 43, 10, True, 25.21078407398069),
    (16, 4, 20.0, 0, 'wmmse', 8, None, True, 49.47887280315208),
    (16, 4, 20.0, 0, 'mmmse', 7, 5, True, 49.25339739981539),
    (16, 4, 20.0, 0, 'ammmse', 100, 3, True, 49.283961972666894),
    (16, 4, 20.0, 1, 'wmmse', 8, None, True, 49.25200758372942),
    (16, 4, 20.0, 1, 'mmmse', 7, 5, True, 49.29358747691706),
    (16, 4, 20.0, 1, 'ammmse', 77, 3, True, 49.13777331196702),
    (16, 4, 20.0, 2, 'wmmse', 7, None, True, 49.744536215580595),
    (16, 4, 20.0, 2, 'mmmse', 6, 4, True, 49.74061171939014),
    (16, 4, 20.0, 2, 'ammmse', 74, 3, True, 46.24474937081761),

]


@pytest.mark.parametrize("M, K, snr_db, seed, algorithm, iterations, switch, converged, wsr_bits",
                         GOLDEN, ids=[f"M{r[0]}K{r[1]}-{r[2]:g}dB-s{r[3]}-{r[4]}" for r in GOLDEN])
def test_golden_outcome(M, K, snr_db, seed, algorithm, iterations, switch, converged, wsr_bits):
    cfg = wb.SystemConfig(M=M, N=2, K=K, d=2, snr_db=snr_db, channel_seed=seed, init_seed=seed)
    ch = wb.generate_channels(cfg)
    ch = ch.with_noise_power(wb.compute_noise_power(ch, cfg.snr_db, cfg))
    res = wb.solve(ch, cfg, wb.SolverOptions(algorithm=algorithm))
    assert res.iterations == iterations
    assert res.switch_iteration == switch
    assert res.converged is converged
    assert res.trace[-1].wsr_bits == pytest.approx(wsr_bits, rel=1e-10, abs=0)
