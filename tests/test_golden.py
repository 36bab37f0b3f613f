"""Golden outcomes of all three solvers on small systems.

The table pins what each solve ends with -- the iteration count, the switch
iteration of the two-stage solvers, the converged flag and the final weighted
sum rate -- on M8/K3, M16/K4 and M64/K4 (N = 2, d = 2) at 0, 10 and 20 dB,
with channel_seed = init_seed = 0, 1, 2 and default options.  All three
solvers run the loop in the basis of range(H^H) on all three shapes (KN < M);
the WMMSE and MMMSE rows were taken with the loop in all M dimensions, the
A-MMMSE rows in that basis, from V_0's component in range(H^H).  A refactor
that is meant to keep behaviour must keep every row: counts and flags
exactly, the rate to 1e-10 relative.
"""

import pytest

import wsrbeam as wb

# (M, K, snr_db, seed, algorithm, iterations, switch_iteration, converged, wsr_bits)
GOLDEN = [
    (8, 3, 0.0, 0, 'wmmse', 5, None, True, 7.814856591226557),
    (8, 3, 0.0, 0, 'mmmse', 6, 3, True, 7.811541670377625),
    (8, 3, 0.0, 0, 'ammmse', 7, 4, True, 7.811846412796682),
    (8, 3, 0.0, 1, 'wmmse', 8, None, True, 7.366346774281363),
    (8, 3, 0.0, 1, 'mmmse', 7, 3, True, 7.366205063599168),
    (8, 3, 0.0, 1, 'ammmse', 8, 4, True, 7.298431527840315),
    (8, 3, 0.0, 2, 'wmmse', 7, None, True, 7.402133460955028),
    (8, 3, 0.0, 2, 'mmmse', 8, 3, True, 7.408726083132414),
    (8, 3, 0.0, 2, 'ammmse', 8, 4, True, 7.366989348112129),
    (8, 3, 10.0, 0, 'wmmse', 5, None, True, 22.51348712331306),
    (8, 3, 10.0, 0, 'mmmse', 7, 3, True, 22.50147902271796),
    (8, 3, 10.0, 0, 'ammmse', 8, 4, True, 22.465966796573408),
    (8, 3, 10.0, 1, 'wmmse', 10, None, True, 20.16608176199475),
    (8, 3, 10.0, 1, 'mmmse', 12, 4, True, 20.15633228739049),
    (8, 3, 10.0, 1, 'ammmse', 12, 5, True, 19.97385862747053),
    (8, 3, 10.0, 2, 'wmmse', 11, None, True, 20.980925767496263),
    (8, 3, 10.0, 2, 'mmmse', 9, 4, True, 20.953964708406446),
    (8, 3, 10.0, 2, 'ammmse', 7, 6, True, 20.919254720401778),
    (8, 3, 20.0, 0, 'wmmse', 5, None, True, 41.46297557603833),
    (8, 3, 20.0, 0, 'mmmse', 5, 4, True, 41.234396828017125),
    (8, 3, 20.0, 0, 'ammmse', 9, 6, True, 41.340403242692396),
    (8, 3, 20.0, 1, 'wmmse', 13, None, True, 35.48248349193227),
    (8, 3, 20.0, 1, 'mmmse', 11, 5, True, 35.82015564314146),
    (8, 3, 20.0, 1, 'ammmse', 15, 4, True, 35.918074355401714),
    (8, 3, 20.0, 2, 'wmmse', 23, None, True, 38.98957242741182),
    (8, 3, 20.0, 2, 'mmmse', 7, 5, True, 39.018581073505565),
    (8, 3, 20.0, 2, 'ammmse', 11, 8, True, 39.50668416645683),
    (16, 4, 0.0, 0, 'wmmse', 7, None, True, 8.280384942415944),
    (16, 4, 0.0, 0, 'mmmse', 9, 4, True, 8.27346265879692),
    (16, 4, 0.0, 0, 'ammmse', 8, 4, True, 8.210660218754951),
    (16, 4, 0.0, 1, 'wmmse', 7, None, True, 7.977074383482236),
    (16, 4, 0.0, 1, 'mmmse', 5, 3, True, 7.977431589199103),
    (16, 4, 0.0, 1, 'ammmse', 1000, 4, False, 7.904273693692827),
    (16, 4, 0.0, 2, 'wmmse', 7, None, True, 8.257278668960867),
    (16, 4, 0.0, 2, 'mmmse', 7, 3, True, 8.256246244095536),
    (16, 4, 0.0, 2, 'ammmse', 8, 4, True, 8.246553498178372),
    (16, 4, 10.0, 0, 'wmmse', 6, None, True, 25.13808489064789),
    (16, 4, 10.0, 0, 'mmmse', 7, 4, True, 25.12782029671416),
    (16, 4, 10.0, 0, 'ammmse', 7, 5, True, 25.003151728248497),
    (16, 4, 10.0, 1, 'wmmse', 7, None, True, 25.217607414289315),
    (16, 4, 10.0, 1, 'mmmse', 6, 4, True, 25.205773135540714),
    (16, 4, 10.0, 1, 'ammmse', 8, 5, True, 25.1287708326246),
    (16, 4, 10.0, 2, 'wmmse', 6, None, True, 25.35202234596469),
    (16, 4, 10.0, 2, 'mmmse', 7, 4, True, 25.337272331286172),
    (16, 4, 10.0, 2, 'ammmse', 8, 5, True, 25.278384144351268),
    (16, 4, 20.0, 0, 'wmmse', 8, None, True, 49.47887280315208),
    (16, 4, 20.0, 0, 'mmmse', 7, 5, True, 49.25339739981539),
    (16, 4, 20.0, 0, 'ammmse', 11, 7, True, 49.58027493275187),
    (16, 4, 20.0, 1, 'wmmse', 8, None, True, 49.25200758372942),
    (16, 4, 20.0, 1, 'mmmse', 7, 5, True, 49.29358747691706),
    (16, 4, 20.0, 1, 'ammmse', 11, 7, True, 49.82062124382254),
    (16, 4, 20.0, 2, 'wmmse', 7, None, True, 49.744536215580595),
    (16, 4, 20.0, 2, 'mmmse', 6, 4, True, 49.74061171939014),
    (16, 4, 20.0, 2, 'ammmse', 11, 6, True, 49.93793838628273),
    (64, 4, 0.0, 0, 'wmmse', 7, None, True, 8.978695593935187),
    (64, 4, 0.0, 0, 'mmmse', 6, 3, True, 8.981075280444369),
    (64, 4, 0.0, 0, 'ammmse', 5, 4, True, 8.974091128739934),
    (64, 4, 0.0, 1, 'wmmse', 6, None, True, 9.100815640036283),
    (64, 4, 0.0, 1, 'mmmse', 4, 4, True, 9.100222537644902),
    (64, 4, 0.0, 1, 'ammmse', 5, 4, True, 9.101084289226382),
    (64, 4, 0.0, 2, 'wmmse', 6, None, True, 9.035882190014723),
    (64, 4, 0.0, 2, 'mmmse', 4, 3, True, 9.035740453404586),
    (64, 4, 0.0, 2, 'ammmse', 6, 4, True, 9.036500663882535),
    (64, 4, 10.0, 0, 'wmmse', 10, None, True, 28.831131603910332),
    (64, 4, 10.0, 0, 'mmmse', 8, 3, True, 28.81948656826954),
    (64, 4, 10.0, 0, 'ammmse', 6, 5, True, 28.8206757047317),
    (64, 4, 10.0, 1, 'wmmse', 9, None, True, 29.2216838575259),
    (64, 4, 10.0, 1, 'mmmse', 9, 3, True, 29.2302113179886),
    (64, 4, 10.0, 1, 'ammmse', 5, 4, True, 29.153735274583735),
    (64, 4, 10.0, 2, 'wmmse', 7, None, True, 28.96787464634527),
    (64, 4, 10.0, 2, 'mmmse', 7, 3, True, 28.973365554277184),
    (64, 4, 10.0, 2, 'ammmse', 5, 4, True, 28.972041982084768),
    (64, 4, 20.0, 0, 'wmmse', 30, None, True, 53.19087844712674),
    (64, 4, 20.0, 0, 'mmmse', 30, 3, True, 53.156689811711416),
    (64, 4, 20.0, 0, 'ammmse', 7, 6, True, 54.30730468653013),
    (64, 4, 20.0, 1, 'wmmse', 38, None, True, 53.44220059326303),
    (64, 4, 20.0, 1, 'mmmse', 39, 3, True, 53.47784782039392),
    (64, 4, 20.0, 1, 'ammmse', 8, 6, True, 54.84542120185498),
    (64, 4, 20.0, 2, 'wmmse', 34, None, True, 53.222809380740955),
    (64, 4, 20.0, 2, 'mmmse', 34, 3, True, 53.21379440907358),
    (64, 4, 20.0, 2, 'ammmse', 8, 6, True, 54.519397907686),
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
