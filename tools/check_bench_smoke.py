#!/usr/bin/env python3
"""Checks the JSON files the bench-smoke CI job writes.

The same checks run in CI and on a developer's machine:

    python3 tools/check_bench_smoke.py iteration-engine   # BENCH_iteration_engine.json
    python3 tools/check_bench_smoke.py precision-tables   # table8/table10_smoke.json
    python3 tools/check_bench_smoke.py outputs            # fig17/fig8/hfht_chunked
    python3 tools/check_bench_smoke.py all

Files are read from --dir (default: the current directory) under the names
the CI job gives them. The committed BENCH_iteration_engine.json passes
`iteration-engine` from the repository root. Exits non-zero on the first
failed assertion.
"""
import argparse
import json
import os
import sys


def check_iteration_engine(d):
    # Iteration engine (pooled storage + reused backward engine +
    # step-program replay): the replay invariants — zero heap allocations
    # AND zero autograd Node constructions per replayed iteration, with
    # replay-vs-eager losses bit-equal.
    assert d['figure'] == 'iteration_engine', d
    # The vec backend the run dispatched to is part of the record.
    assert d['simd'] in ('avx2', 'scalar'), d
    assert len(d['rows']) >= 4, d
    assert d['replay_vs_eager_max_diff'] == 0.0, d
    for r in d['rows']:
        assert r['allocs_per_iter_engine'] == 0.0, r
        assert r['allocs_per_iter_replay'] == 0.0, r
        assert r['nodes_per_iter_replay'] == 0.0, r
        assert r['nodes_per_iter_engine'] > 0.0, r
        assert r['allocs_per_iter_baseline'] > 0.0, r
    # Thread sweep: warm replay steps allocate nothing at ANY worker
    # count, and the final training loss is bit-identical across all
    # of them (fixed partitions, unsplit accumulation chains).
    assert d['hardware_threads'] >= 1, d
    assert len(d['threads_sweep']) >= 4, d
    assert d['threads_sweep_max_loss_diff'] == 0.0, d
    losses = {t['final_loss'] for t in d['threads_sweep']}
    assert len(losses) == 1, d['threads_sweep']
    for t in d['threads_sweep']:
        assert t['allocs_per_iter'] == 0.0, t
    print('replay: 0 allocs/iter, 0 node constructions/iter,',
          'replay-vs-eager diff 0.00e+00; speedups',
          [(r['speedup'], r['speedup_replay']) for r in d['rows']])
    print('thread sweep: bit-identical loss and 0 allocs/iter at',
          [t['threads'] for t in d['threads_sweep']], 'threads')
    # AMP section: warm f16-autocast replay steps also allocate
    # nothing and build no autograd nodes; a well-scaled run never
    # skips, and the 2^130 overflow exercise MUST skip at least once
    # (backoff observed) before recovering to a finite scale.
    amp = d['amp']
    assert amp['dtype'] == 'f16', amp
    assert len(amp['rows']) >= 4, amp
    for r in amp['rows']:
        assert r['allocs_per_iter'] == 0.0, r
        assert r['nodes_per_iter'] == 0.0, r
        assert r['amp_replay_iters_per_sec'] > 0.0, r
    assert amp['clean_run_overflow_skips'] == 0, amp
    assert amp['overflow_exercise_skips'] >= 1, amp
    assert amp['overflow_exercise_recovered_scale'] > 0.0, amp
    assert amp['amp_vs_fp32_loss_gap'] >= 0.0, amp
    # With quantize-on-pack (no cast tensors), F16C hardware
    # conversion, a read-only branchless overflow scan, and the
    # unscale folded into the optimizer, AMP replay sits at parity
    # with fp32 replay: CPU AMP does strictly more work per step
    # (quantize + scan, with no half-precision FMA to pay for it),
    # so parity IS the ceiling — interleaved paired measurement
    # reads 0.95-1.0x. Gate well below the honest band so thermal
    # jitter can't flake the job, but far above the 0.78-0.82x
    # measured before that rework.
    if d['simd'] == 'avx2':
        for r in amp['rows']:
            assert r['vs_fp32_replay'] >= 0.90, r
    print('amp: 0 allocs/iter + 0 nodes/iter at every B;',
          'overflow exercise skipped', amp['overflow_exercise_skips'],
          'steps then recovered; measured loss gap',
          amp['amp_vs_fp32_loss_gap'])


def check_precision_table(path, d):
    # Precision tables: sim predictions + the measured CPU fp32-vs-AMP
    # section (software-half cast cost; the measured loss gap is reported,
    # never hidden, and the well-scaled run must not skip a step).
    assert len(d['sim_rows']) > 0, d
    m = d['measured_cpu']
    assert m['fp32_iters_per_sec'] > 0.0, m
    assert m['amp_iters_per_sec'] > 0.0, m
    assert m['overflow_skips'] == 0, m
    assert m['amp_vs_fp32_loss_gap'] >= 0.0, m
    print(path, 'measured amp/fp32', m['amp_over_fp32'],
          'loss gap', m['amp_vs_fp32_loss_gap'])


def check_outputs(directory):
    # The paper-figure smoke JSONs exist, are non-empty and carry their
    # key fields (literal substring checks).
    expect = {
        'fig17_smoke.json': ['"fused_units": 10', '"fused_units": 0'],
        'fig8_smoke.json': ['"figure": "fig8_hfht_cost"',
                            '"algorithm": "Hyperband"', '"saving"'],
        'hfht_chunked_smoke.json': ['"figure": "hfht_real_training"',
                                    '"max_fused_vs_serial_diff": 0.000e+00'],
    }
    for name, needles in expect.items():
        path = os.path.join(directory, name)
        assert os.path.getsize(path) > 0, path + ' is empty'
        with open(path) as f:
            text = f.read()
        for needle in needles:
            assert needle in text, (path, needle)
    d = load(os.path.join(directory, 'hfht_chunked_smoke.json'))
    assert d['multi_source_repacks'] >= 1 and \
        d['iterations_verified_after_merge'] > 0, d
    print('figure outputs: fig17, fig8 and chunked HFHT JSON present')


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('check', choices=('iteration-engine', 'precision-tables',
                                      'outputs', 'all'))
    ap.add_argument('--dir', default='.',
                    help='directory holding the JSON files')
    args = ap.parse_args()
    if args.check in ('iteration-engine', 'all'):
        check_iteration_engine(
            load(os.path.join(args.dir, 'BENCH_iteration_engine.json')))
    if args.check in ('precision-tables', 'all'):
        for name in ('table8_smoke.json', 'table10_smoke.json'):
            path = os.path.join(args.dir, name)
            check_precision_table(path, load(path))
    if args.check in ('outputs', 'all'):
        check_outputs(args.dir)
    return 0


if __name__ == '__main__':
    sys.exit(main())
