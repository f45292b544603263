#!/usr/bin/env bash
# Public-surface guard: fail on a `pub fn` under crates/*/src that no
# non-test code names outside its own definition line, unless it is on
# the allowlist below. Non-test code is every line of crates/*/src and
# examples/ above the file's first `#[cfg(test)]` that opens a `mod`,
# minus the items that carry `#[cfg(test)]` themselves; comments do not
# count as names. The benchmark suite (crates/bench/src/bin/suite, a
# package of its own) counts as a caller, but its own functions are not
# checked. A `pub fn` under `#[cfg(test)]` is exempt. The check is a
# word match, so a name that another item shares passes.
#
# Also prints the non-test line count of crates/*/src by that same cut
# (suite excluded; items under their own `#[cfg(test)]` included), the
# figure CHANGES.md and ROADMAP.md quote.
#
# Usage: scripts/check-public-api.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Probes and oracles that tests in other crates, integration tests or
# the frozen suite use; each stays public for the reason given.
allow='
as_f64                socket tests read numeric JSON fields with it
contains_point        tests/properties.rs checks point-in-polygon against envelope containment
decode_bundle         tests/end_to_end_polar.rs round-trips PCDSS bundles through it
describe              plan snapshot tests in ee-rdf and ee-serve print plans with it
has_band              ee-datasets tests check the bands a simulated scene carries
list_scenes           tests/platform_roundtrip.rs lists what the platform archived
min_max               ee-datasets and ee-food tests bound simulated rasters with it
num_geometries        E3 complexity tests count the geometries a store interned
score_detections      tests/end_to_end_polar.rs scores iceberg detections against truth
scratch_dir           ee-rdf and ee-serve storage tests make their store directories with it
shutdown              socket tests stop the servers they start
stream_plan_baseline  the executor oracle that exec tests and naive_differential compare against
world_to_pixel        ee-datasets tests find the pixel under a parcel centroid with it
write_to              tests/event.rs frames the router answers it compares the wire against
'

files=$(find crates/*/src examples -name '*.rs' | sort)
# shellcheck disable=SC2086
awk -v allow="$allow" '
function flush_pending() {
    if (pending) { keep(pending_line, FNR - 1); pending = 0 }
}
# One non-test line: count it, note a `pub fn` it defines, keep its words.
function keep(text, line,    m, n, w, i) {
    mine = FILENAME ~ /^crates\// && FILENAME !~ /^crates\/bench\/src\/bin\/suite\//
    if (mine) counted++
    if (skip_to != "") {
        if (text == skip_to) skip_to = ""
        return
    }
    if (text ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) { gated = 1; return }
    if (text ~ /^[ \t]*#\[/) return
    if (gated) {
        gated = 0
        match(text, /^[ \t]*/)
        indent = substr(text, 1, RLENGTH)
        skip_to = (text ~ /[;,][ \t]*$/) ? "" : indent "}"
        return
    }
    loc = FILENAME ":" line
    if (mine && match(text, /^[ \t]*pub ((const|unsafe|async) )*fn [A-Za-z0-9_]+/)) {
        m = substr(text, RSTART, RLENGTH)
        sub(/.* fn /, "", m)
        defs[m] = defs[m] " " loc
    }
    sub(/(^|[ \t])\/\/.*/, "", text)
    n = split(text, w, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) if (w[i] != "") words[++nw] = w[i] SUBSEP loc
}
FNR == 1 { if (NR > 1) flush_pending(); cut = 0; pending = 0; gated = 0; skip_to = "" }
cut { next }
pending {
    if ($0 ~ /^[ \t]*((pub(\([a-z]+\))?[ \t]+)?mod[ \t])/) { cut = 1; pending = 0; next }
    flush_pending()
}
/^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = 1; pending_line = $0; next }
{ keep($0, FNR) }
END {
    flush_pending()
    for (i = 1; i <= nw; i++) {
        split(words[i], p, SUBSEP)
        if ((p[1] in defs) && index(defs[p[1]] " ", " " p[2] " ") == 0) used[p[1]] = 1
    }
    n = split(allow, lines, "\n")
    for (i = 1; i <= n; i++) if (split(lines[i], f, " ") > 1) allowed[f[1]] = 1
    bad = 0
    for (name in defs) {
        if (name in used) continue
        if (name in allowed) { allowed[name] = 2; continue }
        printf "public-api: pub fn %s (%s) is named only by tests\n", name, substr(defs[name], 2)
        bad = 1
    }
    for (name in allowed) if (allowed[name] == 1) {
        printf "public-api: allowlist entry %s is stale (not defined, or named by non-test code)\n", name
        bad = 1
    }
    total = 0; for (name in defs) total++
    printf "public-api: %d pub fns checked, %d non-test lines under crates/*/src\n", total, counted
    exit bad
}
' $files
