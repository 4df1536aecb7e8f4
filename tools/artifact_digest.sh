#!/bin/sh
# Run a synthetic round trip with the lpm of <src-tree> and print one
# "sha256  path" line per artifact it writes, sorted by path.
#
#   tools/artifact_digest.sh <src-tree> <out-dir>
#
# The round trip is lovo_like at seed 3, every training with --restarts 1:
# synth --emit-voxels, ingest of the emitted voxels, select --k-max 5,
# train 3+2 and 3+0, fit of both cohorts, validate, baseline and report.
# Beside it, ingest --signals reads signals.csv, which the script writes:
# 12 voxels at 4 b-values each, one signal that does not parse, one voxel
# with a single b-value, and one voxel whose rows another voxel's row
# splits, so the digest also covers the rejections and a split group.
# ingest --voxels also reads fallback.csv, which the script writes with
# CRLF endings, a quoted id that holds a comma, a non-ASCII id, a blank
# line and one ADC that does not parse, so csv.reader reads it rather than
# the numpy splitter of plain CSV chunks. It also reads late_fallback.csv,
# a copy of the synth voxels.csv with a row whose quoted id holds a comma
# and a row whose ADC does not parse appended, so csv.reader takes over
# only after 11 MB of plain chunks and the rejected row's line number,
# counted across them, lands in the digest.
# select and validate run once more with --jobs 2 (into select_jobs2 and
# validate_jobs2), so the digest also covers validate's process pool; the
# script exits 1 after the digest if those differ from select and validate
# in any byte. train 3+2 also runs from train.cfg, which the script writes
# with a UTF-8 byte-order mark, CRLF endings and a # comment, its first line
# n_treatment = 2 (into train_config); the script exits 1 after the digest
# if that model.json differs from train_3_2's in any byte. fit, report and
# baseline also read copies of model.json, response_treated.csv and one
# histogram that start with a UTF-8 byte-order mark (in bom_inputs; into
# bom_fit, bom_report and bom_baseline); the script exits 1 after the
# digest if those outputs differ from train_3_2's response_treated.csv,
# report and baseline in any byte. Run it on two trees and diff the outputs
# to compare their artifacts byte for byte.
# <out-dir> must not exist yet.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 <src-tree> <out-dir>" >&2
    exit 2
fi
src=$(cd "$1" && pwd)/src
out=$2
if [ -e "$out" ]; then
    echo "$0: $out already exists" >&2
    exit 2
fi
mkdir -p "$out"
out=$(cd "$out" && pwd)

lpm() {
    PYTHONPATH="$src" python3 -m lpm.cli "$@" --seed 3 >/dev/null
}

fast="--restarts 1"
hists=$out/synth/histograms
lpm synth --preset lovo_like --emit-voxels --out-dir "$out/synth"
lpm ingest --voxels "$out/synth/voxels.csv" --out-dir "$out/ingest"
awk 'BEGIN {
    print "tumor_id,cohort,timepoint,voxel_id,b,signal"
    split("0 250 500 1000", b, " ")
    for (t = 1; t <= 2; t++)
        for (h = 0; h <= 72; h += 72)
            for (v = 1; v <= 3; v++)
                for (i = 1; i <= 4; i++)
                    printf "s%d,%s,%d,v%d,%d,%.3f\n", t, t == 1 ? "control" : "treated",
                        h, v, b[i], 1000 * exp(-b[i] * (0.0007 + 0.0001 * (v + t + h / 36)))
    print "s1,control,0,v4,0,n/a"
    print "s1,control,72,v6,0,1000"
    print "s2,treated,72,v5,500,420.5"
    print "s1,control,72,v6,1000,310.5"
}' >"$out/signals.csv"
lpm ingest --signals "$out/signals.csv" --out-dir "$out/ingest_signals"
printf '%s\r\n' tumor_id,cohort,timepoint,adc '"f,1",control,0,0.0011' \
    '"f,1",control,72,0.0012' '' 'fü,treated,0,0.0009' 'fü,treated,72,n/a' \
    'fü,treated,72,0.0016' >"$out/fallback.csv"
lpm ingest --voxels "$out/fallback.csv" --out-dir "$out/ingest_fallback"
cp "$out/synth/voxels.csv" "$out/late_fallback.csv"
printf '%s\r\n' '"q,1",control,0,0.0011' 'q2,control,72,n/a' >>"$out/late_fallback.csv"
lpm ingest --voxels "$out/late_fallback.csv" --out-dir "$out/ingest_late_fallback"
sweeps() {  # <jobs> <out-dir suffix>
    lpm select --histograms "$hists" --k-max 5 $fast --jobs "$1" \
        --out-dir "$out/select$2"
    lpm validate --histograms "$hists" --n-control 3 --n-treatment 2 $fast \
        --jobs "$1" --out-dir "$out/validate$2"
}
sweeps 1 ""
sweeps 2 _jobs2
lpm train --histograms "$hists" --n-control 3 --n-treatment 0 $fast \
    --out-dir "$out/train_3_0"
lpm train --histograms "$hists" --n-control 3 --n-treatment 2 $fast \
    --out-dir "$out/train_3_2"
printf '\357\273\277n_treatment = 2\r\nrestarts = 1\r\n# as train_3_2\r\n' \
    >"$out/train.cfg"
lpm train --config "$out/train.cfg" --histograms "$hists" --n-control 3 \
    --out-dir "$out/train_config"
for cohort in control treated; do
    lpm fit --model "$out/train_3_2/model.json" --histograms "$hists" \
        --cohort "$cohort" --out-dir "$out/train_3_2"
done
lpm baseline --histograms "$hists" --out-dir "$out/baseline"
lpm report --model "$out/train_3_2/model.json" \
    --response "$out/train_3_2/response_treated.csv" --out-dir "$out/report"
bom=$out/bom_inputs
mkdir "$bom"
cp -R "$hists" "$bom/histograms"
bom_copy() {  # <file> <copy>
    { printf '\357\273\277'; cat "$1"; } >"$2"
}
bom_copy "$hists/ctl01.json" "$bom/histograms/ctl01.json"
bom_copy "$out/train_3_2/model.json" "$bom/model.json"
bom_copy "$out/train_3_2/response_treated.csv" "$bom/response_treated.csv"
lpm fit --model "$bom/model.json" --histograms "$hists" --cohort treated \
    --out-dir "$out/bom_fit"
lpm report --model "$out/train_3_2/model.json" \
    --response "$bom/response_treated.csv" --out-dir "$out/bom_report"
lpm baseline --histograms "$bom/histograms" --out-dir "$out/bom_baseline"

cd "$out"
find . -type f | LC_ALL=C sort | sed 's|^\./||' | while IFS= read -r f; do
    sha256sum "$f"
done
for d in select validate; do
    if ! diff -r "$d" "${d}_jobs2" >/dev/null; then
        echo "$0: ${d}_jobs2 differs from $d" >&2
        exit 1
    fi
done
if ! cmp -s train_config/model.json train_3_2/model.json; then
    echo "$0: train_config/model.json differs from train_3_2/model.json" >&2
    exit 1
fi
if ! cmp -s train_3_2/response_treated.csv bom_fit/response_treated.csv \
        || ! diff -r report bom_report >/dev/null \
        || ! diff -r baseline bom_baseline >/dev/null; then
    echo "$0: a byte-order mark changed bom_fit, bom_report or bom_baseline" >&2
    exit 1
fi
