#!/bin/sh
# Rewrite golden/ with what every entry point prints:
#   - stdout of every `wanpred figure` and `wanpred ablate` id at its
#     defaults (serving as --smoke), and of the faults ablation with chaos;
#   - a 3-day seed-42 campaign per month, and evaluate, predict, provider
#     and a two-replica select over its logs;
#   - stdout of every example under examples/.
# Wall-clock numbers go to stderr, so two runs write the same bytes.
# Run from the repository root after `cargo build --release`; then
# `git diff -- golden/ 'BENCH_*.json'` shows every printed change.
set -eu

W=./target/release/wanpred
G=golden
rm -rf "$G"
mkdir -p "$G/figure" "$G/ablate" "$G/example"

for id in $($W figure); do
  $W figure "$id" > "$G/figure/$id.txt"
done
for id in $($W ablate); do
  if [ "$id" = serving ]; then
    $W ablate serving --smoke > "$G/ablate/serving.txt"
  else
    $W ablate "$id" > "$G/ablate/$id.txt"
  fi
done
$W ablate faults --days 2 --chaos 0.05 > "$G/ablate/faults-chaos.txt"

for month in august december; do
  D=$G/campaign-$month
  $W campaign --month "$month" --seed 42 --days 3 --out "$D" 2>/dev/null > "$D.txt"
  {
    for pair in lbl-anl isi-anl; do
      $W evaluate --log "$D/$pair.ulm"
      $W evaluate --log "$D/$pair.ulm" --class 100mb
      $W predict --log "$D/$pair.ulm" --size-mb 100
    done
    $W provider --log "$D/lbl-anl.ulm" --host dpsslx04.lbl.gov --address 131.243.2.91
    $W select --replica "$D/lbl-anl.ulm:dpsslx04.lbl.gov" --replica "$D/isi-anl.ulm:jet.isi.edu" \
      --size-mb 100 --client 140.221.65.69
  } > "$D/queries.txt"
done

for f in examples/*.rs; do
  name=$(basename "$f" .rs)
  cargo run --release -q -p wanpred-core --example "$name" > "$G/example/$name.txt"
done
