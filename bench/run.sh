#!/usr/bin/env bash
# Builds the benchmark and runs every workload: three repeats untraced plus
# one traced run each, into bench/results/, then assembles
# bench/results/all.json (host + every result) for `e2e-bench --compare`.
#
#   bench/run.sh                    full set (~6 min on 2 cores)
#   bench/run.sh --quick            CI smoke: one repeat of a tenth of the
#                                   simulated time per workload, ~10 s
#   bench/run.sh --baseline TAG     also copy the set to bench/baselines/TAG.json
set -euo pipefail
cd "$(dirname "$0")/.."

quick=()
repeats=3
tag=""
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) quick=(--quick); repeats=1 ;;
        --baseline) tag="$2"; shift ;;
        *) echo "usage: bench/run.sh [--quick] [--baseline TAG]" >&2; exit 2 ;;
    esac
    shift
done

cargo build --release --offline --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/e2e-bench"
out=bench/results
mkdir -p "$out"

failed=0
files=()
for w in rubis_paper rubis_stream mesh_idle fanout_phased; do
    "$bin" --workload "$w" --repeats "$repeats" "${quick[@]}" --out "$out/$w.json" || failed=1
    files+=("$out/$w.json")
    # The smoke run checks outputs only; per-layer numbers need a full run.
    if [ ${#quick[@]} -eq 0 ]; then
        "$bin" --workload "$w" --trace 1 --trace-dir "$out" --out "$out/$w.trace.json" || failed=1
        files+=("$out/$w.trace.json")
    fi
done

{
    printf '{"host": {"tag": "%s", "nproc": %s, "rustc": "%s", "commit": "%s", "quick": %s},\n' \
        "${tag:-unnamed}" "$(nproc)" "$(rustc --version)" \
        "$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
        "$([ ${#quick[@]} -eq 0 ] && echo false || echo true)"
    printf ' "results": [\n'
    sep=""
    for f in "${files[@]}"; do
        printf '%s  ' "$sep"
        tr -d '\n' < "$f"
        sep=$',\n'
    done
    printf '\n ]}\n'
} > "$out/all.json"
echo "wrote $out/all.json"

if [ -n "$tag" ]; then
    mkdir -p bench/baselines
    cp "$out/all.json" "bench/baselines/$tag.json"
    echo "wrote bench/baselines/$tag.json"
fi
exit "$failed"
