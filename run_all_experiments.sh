#!/usr/bin/env bash
# Regenerates every table and figure of the reproduction into results/.
# See DESIGN.md for the experiment index and EXPERIMENTS.md for the
# recorded outcomes.
set -euo pipefail
# Preflight: fmt, clippy with the workspace lint table, the comment-marker
# grep, the rfkit-analyze lint gate, release build, full tests, and the
# numsan-armed numeric test pass. Experiments never run on a tree that
# fails the correctness tooling.
./ci.sh
cargo build --release -p lna-bench
mkdir -p results
for bin in table1_model_comparison table2_param_recovery table3_final_design \
           table4_performance table5_tsplitter table6_yield table7_prefilter \
           table8_constellations \
           fig1_extraction_convergence fig2_iv_fit fig3_sparam_fit \
           fig4_pareto_front fig5_sparams_band fig6_nf_band fig7_im3 \
           fig8_ga_ablation fig9_dispersion fig10_cold_fet fig11_temperature \
           fig12_harmonic_balance fig13_metaheuristics fig14_snap_repair; do
  echo "== $bin"
  ./target/release/$bin > "results/$bin.txt"
done
echo "all experiment outputs written to results/"
