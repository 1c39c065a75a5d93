"""
Benchmarking full enumerations against the classical baseline
=============================================================

Wall-clock confirmation of what the operation counts predict: scoring
subsets through the correlation determinant ratio beats re-solving
least squares per subset, and the gap widens with more observations and
more responders.
"""

from bestsubset.cli import run_bench

# A moderate instance keeps this demo quick; bump d to 1000 and m to 10
# to reproduce the desk-scale configuration used by the release gate.
report = run_bench(d=400, n=12, k=3, m=5, seed=0, limit=0)

print(f"instance: d={report['d']} n={report['n']} k={report['k']} "
      f"m={report['m']}  ({report['subsets']} subsets per responder)")
print()
for t in report["timings"]:
    print(f"  {t['method']:>18}: {t['wall_s']:8.3f} s total  "
          f"{t['per_subset_s'] * 1e6:9.1f} us/subset")
print()
for method, ratio in sorted(report["speedup_vs_hat_b"].items(),
                            key=lambda kv: -kv[1]):
    print(f"  speedup vs hat-b: {method:>18}  {ratio:6.1f}x")
print()
print(f"all methods agree on every winner: {report['winners_agree']}")
print(f"measured op counts exact: {all(r['exact_match'] for r in report['counts'])}")
