#!/usr/bin/env bash
# CI gate: formatting, vet, build, the full test suite under the race
# detector and across scheduler interleavings, then end-to-end smokes against
# real binaries. Every served smoke boots vista-server through start_server
# and ends with stop_server, which fails CI unless SIGTERM yields exit 0
# within 15s; vista-load is the one load harness that enforces the admission
# and sharing contract on the wire. Run from anywhere; operates on the
# repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== perfbench vet + test =="
# perfbench is a nested module that compiles against internal/* but is not
# part of ./..., so an internal API change would otherwise break it unseen.
(cd perfbench && go vet . && go test -count=1 .)

echo "== package docs =="
go run ./scripts/pkgdoc

echo "== go build =="
go build ./...

echo "== sgemm kernels: portable fallback =="
# The AVX microkernel is amd64-only; vetting an arm64 build keeps the
# !amd64 portable path compiling (asmdecl already checks the .s frames on
# the native vet above).
GOARCH=arm64 go vet ./internal/tensor ./internal/cnn

echo "== go test -race =="
# The full chaos schedule set is too slow under the race detector; it gets a
# dedicated -short smoke below plus a full non-race run. internal/experiments
# alone runs ~4 min without -race, so the default 10m per-package timeout is
# too tight under the race detector's overhead.
go test -race -timeout 30m $(go list ./... | grep -v '/internal/chaos$')

echo "== go test -race (fault-injection critical packages) =="
# Armed-at-exit is enforced by each package's TestMain: a test that leaves a
# failpoint site armed fails the package even when every test passed.
# internal/tensor and internal/cnn carry the parallel GEMM kernels and slab
# arena; their shared-model concurrency tests must run under -race every time.
# internal/workload is the load driver: its open/closed-loop scheduling and
# result bookkeeping are all cross-goroutine, so it races under -race or not
# at all. internal/calib carries the crash-consistent calibration log and the
# aggregates that metrics callbacks read while runs write.
go test -race -count=1 ./internal/faultinject/... ./internal/calib ./internal/dataflow ./internal/featurestore ./internal/share ./internal/tensor ./internal/cnn ./internal/workload

echo "== go test -cpu 1,2,4 -count 3 (scheduler interleavings) =="
# Tier-1 must pass at any GOMAXPROCS, including a 2-core host. Repeating the
# concurrency-heavy packages under several -cpu values shakes out tests and
# code that only pass under one goroutine schedule (a test that assumes which
# goroutine runs first, a refit published before it was persisted).
# -p 1 runs one package at a time: the phase varies GOMAXPROCS, and the
# closed-loop calibration test converges on real measured stage times, which
# another package's CPU load would skew.
go test -p 1 -count 3 -cpu 1,2,4 ./internal/featurestore ./internal/calib ./internal/share \
    ./internal/admission ./internal/workload ./internal/clock ./cmd/vista-server

echo "== chaos: -race short smoke =="
go test -race -short -count=1 ./internal/chaos

echo "== chaos: full schedule set =="
go test -count=1 ./internal/chaos

# Every end-to-end smoke below shares one scratch dir and one build of the
# binaries it boots. start_server/stop_server own the server lifecycle: the
# EXIT trap kills whatever is still up, and stop_server turns a shutdown that
# is slow or unclean into a CI failure.
tmp=$(mktemp -d)
declare -A server_pid server_url
trap 'for pid in ${server_pid[@]+"${server_pid[@]}"}; do kill -9 "$pid" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT
for cmd in vista vista-server vista-load; do
    go build -o "$tmp/$cmd" "./cmd/$cmd"
done

# start_server NAME ARGS...: boot vista-server with ARGS on a loopback port,
# logging to $tmp/NAME-server.log, and wait for /healthz to answer 200. The
# base URL lands in server_url[NAME].
start_server() {
    local name=$1
    shift
    local port=$((20000 + RANDOM % 10000))
    "$tmp/vista-server" -addr "127.0.0.1:$port" "$@" >"$tmp/$name-server.log" 2>&1 &
    server_pid[$name]=$!
    server_url[$name]="http://127.0.0.1:$port"
    for _ in $(seq 1 50); do
        if curl -sf -o /dev/null "${server_url[$name]}/healthz"; then return 0; fi
        kill -0 "${server_pid[$name]}" 2>/dev/null || break
        sleep 0.2
    done
    echo "$name server never became healthy:" >&2
    cat "$tmp/$name-server.log" >&2
    return 1
}

# stop_server NAME: SIGTERM the server and fail unless it exits 0 within 15s.
# Graceful shutdown drains in-flight runs first, so a hang or a nonzero exit
# here is a serving bug, not noise.
stop_server() {
    local name=$1 pid=${server_pid[$1]} rc=0
    unset 'server_pid[$1]'
    kill -TERM "$pid"
    for _ in $(seq 1 150); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        kill -9 "$pid"
        echo "$name server did not exit within 15s of SIGTERM" >&2
        return 1
    fi
    wait "$pid" || rc=$?
    if [[ "$rc" -ne 0 ]]; then
        echo "$name server exited $rc after SIGTERM:" >&2
        cat "$tmp/$name-server.log" >&2
        return 1
    fi
}

echo "== trace/timeseries export smoke =="
"$tmp/vista" -rows 200 -layers 2 \
    -trace-out "$tmp/trace.json" -timeseries-out "$tmp/series.csv" \
    >"$tmp/vista-stdout.txt" 2>"$tmp/vista-stderr.txt"
go run ./scripts/tracecheck -trace "$tmp/trace.json" -timeseries "$tmp/series.csv"

echo "== vista-load smoke (compressed overload replay) =="
# Boot a single-slot server (the 60000 MiB budget fits exactly one priced
# tiny-alexnet/foods run — modeled memory, nothing near that is allocated)
# and replay a two-wave overload profile compressed 60x: ~30s of wall clock
# covering a calm baseline, a moderate flood, and a saturating flood. The
# request is sized so one run takes about 0.8s on this host: six queued runs
# then outlast the 3s queue timeout and 429s occur, and the queue waits are
# long enough for Retry-After (whole seconds) to take several values. The
# row count comes from a timed probe /run, not a constant, so a faster
# kernel or a slower host changes the size of the request, not what the
# smoke tests; the probe's first run fills the server's dataset memo and the
# second is timed.
# vista-load exits nonzero unless every offered request is classified
# exactly once as 200/429/503, nothing timed out or failed at the transport
# layer, every 429 carried Retry-After, the server's admission counters
# reconcile with the observed responses (cancellations included) and drain
# to zero, and the 429s carried >= 2 distinct Retry-After values — the
# regression gate for the static-hint retry herd.
start_server load -feature-cache-mb 0 -mem-budget 60000 -queue-depth 6 -queue-timeout 3s
probe_body='{"model":"tiny-alexnet","dataset":"foods","rows":200,"layers":2}'
curl -sf -o /dev/null -d "$probe_body" "${server_url[load]}/run"
probe_s=$(curl -sf -o /dev/null -w '%{time_total}' -d "$probe_body" "${server_url[load]}/run")
load_rows=$(awk -v s="$probe_s" 'BEGIN { r = int(200 * 0.8 / s); print (r < 200 ? 200 : r > 20000 ? 20000 : r) }')
echo "probe run of 200 rows took ${probe_s}s; load requests carry $load_rows rows"
"$tmp/vista-load" -url "${server_url[load]}" \
    -profile 'const(1) + flood(4m,3m,25) + flood(16m,8m,45)' \
    -duration 30m -time-scale 60 -tick 2m \
    -min-retry-distinct 2 -max-inflight 1024 -rows "$load_rows" \
    -timeline "$tmp/timeline.csv" | tee "$tmp/load.txt"
# The herd gate only binds when the run actually throttled; make sure the
# profile produced real signal on this machine rather than passing vacuously.
load_ok=$(sed -n 's/.* ok=\([0-9]*\).*/\1/p' "$tmp/load.txt")
load_throttled=$(sed -n 's/.* throttled=\([0-9]*\).*/\1/p' "$tmp/load.txt")
if [[ -z "$load_ok" || "$load_ok" -eq 0 || -z "$load_throttled" || "$load_throttled" -lt 2 ]]; then
    echo "vista-load smoke produced too little signal (ok=$load_ok throttled=$load_throttled)" >&2
    exit 1
fi
stop_server load

echo "== vista-load share smoke (identical burst on a -share server) =="
# About a dozen identical /run bodies arrive over one second, so each 500ms
# share window groups several of them. The budget fits twelve priced runs
# (the queue twelve more), so every request must admit: a 429 or 503 fails
# the smoke. Because the server exports vista_share_*, vista-load also
# requires leader + follower + solo to equal the admitted runs, the share
# gauges to drain to zero, and no member to abort. The /metrics scrape then
# proves the burst really shared: followers attached and deduplicated real
# modeled FLOPs.
start_server share -feature-cache-mb 0 -mem-budget 720000 -queue-depth 12 \
    -share -share-window 500ms
"$tmp/vista-load" -url "${server_url[share]}" \
    -profile 'const(12)' -duration 1s -time-scale 1 | tee "$tmp/share.txt"
share_throttled=$(sed -n 's/.* throttled=\([0-9]*\).*/\1/p' "$tmp/share.txt")
share_overload=$(sed -n 's/.* overload=\([0-9]*\).*/\1/p' "$tmp/share.txt")
curl -sf "${server_url[share]}/metrics" >"$tmp/share-metrics.txt"
share_followers=$(sed -n 's/^vista_share_runs_total{role="follower"} //p' "$tmp/share-metrics.txt")
share_dedup=$(sed -n 's/^vista_share_dedup_flops_total //p' "$tmp/share-metrics.txt")
if [[ "$share_throttled" != 0 || "$share_overload" != 0 ]] ||
    ! awk -v f="$share_followers" -v d="$share_dedup" 'BEGIN { exit !(f > 0 && d > 0) }'; then
    echo "share smoke: throttled=$share_throttled overload=$share_overload followers=$share_followers dedup_flops=$share_dedup" >&2
    exit 1
fi
stop_server share

echo "== calibration smoke (drift observatory end-to-end) =="
# Boot a log-backed server, drive three real /run requests, and assert the
# drift observatory saw them on every surface: /calibration reports non-empty
# per-stage aggregates, /metrics exports the vista_calib_* series, and the
# offline replay (vista -calib report) reproduces the live JSON byte-for-byte
# from the persisted log — the property that makes the log trustworthy.
start_server calib -feature-cache-mb 0 -calib-log "$tmp/calib.log" -log-format json
for _ in 1 2 3; do
    curl -sf "${server_url[calib]}/run" \
        -d '{"model":"tiny-alexnet","dataset":"foods","layers":2,"rows":100}' >/dev/null
done
curl -sf "${server_url[calib]}/calibration" >"$tmp/calib-live.json"
for kind in ingest join infer train; do
    if ! grep -q "\"kind\":\"$kind\",\"samples\":[1-9]" "$tmp/calib-live.json"; then
        echo "calibration smoke: kind $kind has no samples after 3 runs" >&2
        cat "$tmp/calib-live.json" >&2
        exit 1
    fi
done
# (/metrics lands in a file first: grep -q on a live pipe SIGPIPEs curl,
# which pipefail would then report as a smoke failure.)
curl -sf "${server_url[calib]}/metrics" >"$tmp/calib-metrics.txt"
if ! grep -q '^vista_calib_samples_total{stage="infer"} [1-9]' "$tmp/calib-metrics.txt"; then
    echo "calibration smoke: vista_calib_samples_total missing from /metrics" >&2
    exit 1
fi
stop_server calib
"$tmp/vista" -calib "$tmp/calib.log" -calib-json report >"$tmp/calib-offline.json"
cmp "$tmp/calib-live.json" "$tmp/calib-offline.json"

echo "== calibration closed-loop smoke (-auto-calibrate) =="
# Boot a deliberately mis-calibrated server (-calib-infer-scale 25) with the
# feedback loop on, and assert the loop end to end: the distortion shows up as
# out-of-band drift, a refit fits and persists a profile (visible on /metrics
# as vista_calib_profile_*), fresh traffic recorded under the profile brings
# every kind's drift ratio back inside [0.5, 2.0], and the offline replay with
# the same half-life and the fitted profile reproduces the live /calibration
# JSON byte-for-byte. Single-layer runs keep each stage kind homogeneous so a
# per-kind factor can fully correct it (see docs/CALIBRATION.md).
start_server loop -feature-cache-mb 0 \
    -calib-log "$tmp/loop.log" -calib-half-life 5s \
    -calib-profile "$tmp/loop-profile.json" -auto-calibrate \
    -calib-refit-interval 2s -calib-infer-scale 25 -log-format json
loop_run() {
    curl -sf "${server_url[loop]}/run" \
        -d '{"model":"tiny-alexnet","dataset":"foods","layers":1,"rows":100}' >/dev/null
}
# drift_of METRICS_FILE STAGE: pull one stage's vista_calib_drift_ratio.
drift_of() {
    sed -n "s/^vista_calib_drift_ratio{stage=\"$2\"} //p" "$1"
}
# band_ok LIVE_JSON: every evidenced kind's drift_ratio within [0.5, 2.0].
# Kinds whose active scale sits at a clamp bound (0.02 / 50, the
# DefaultFitOptions guardrail) are exempt: the loop has corrected as far as
# the guardrail allows, by design — see docs/CALIBRATION.md on saturation.
band_ok() {
    tr '{' '\n' <"$1" | awk -F'[:,]' '
        /"kind"/ && /"drift_ratio"/ {
            kind = ""; samples = 0; drift = 1; active = 1
            for (i = 1; i < NF; i++) {
                if ($i == "\"kind\"")         { gsub(/"/, "", $(i+1)); kind = $(i+1) }
                if ($i == "\"samples\"")      samples = $(i+1)
                if ($i == "\"drift_ratio\"")  drift = $(i+1)
                if ($i == "\"active_scale\"") active = $(i+1)
            }
            if (active <= 0.02 || active >= 50) next
            if (samples > 0 && (drift < 0.5 || drift > 2.0)) {
                printf "  %s drift %s out of band\n", kind, drift
                bad = 1
            }
        }
        END { exit bad }'
}
for _ in 1 2 3; do loop_run; done
# Probe A: the injected 25x inference inflation deflates the other kinds'
# estimated shares, so train's drift ratio blows out above the band.
curl -sf "${server_url[loop]}/metrics" >"$tmp/loop-metrics_a.txt"
drift_a=$(drift_of "$tmp/loop-metrics_a.txt" train)
if ! awk -v d="$drift_a" 'BEGIN { exit !(d > 2.0) }'; then
    echo "closed-loop smoke: train drift before refit = $drift_a, want > 2.0" >&2
    exit 1
fi
# The refit loop notices within a couple of intervals.
for i in $(seq 1 40); do
    curl -sf "${server_url[loop]}/metrics" >"$tmp/loop-metrics.txt"
    if grep -q '^vista_calib_profile_refits_total [1-9]' "$tmp/loop-metrics.txt"; then break; fi
    if [[ "$i" == 40 ]]; then
        echo "closed-loop smoke: no profile refit after 20s" >&2
        exit 1
    fi
    sleep 0.5
done
if ! grep -q '^vista_calib_profile_scale{stage="train"} ' "$tmp/loop-metrics.txt"; then
    echo "closed-loop smoke: vista_calib_profile_scale missing from /metrics" >&2
    exit 1
fi
[[ -s "$tmp/loop-profile.json" ]] || { echo "closed-loop smoke: profile file not persisted" >&2; exit 1; }
# Convergence rounds: fade the mis-calibrated history (several half-lives),
# drive fresh profile-corrected traffic, give the fitter two intervals to
# consume the residual window, and check the band. Real stage times are noisy
# (join is milliseconds of wall clock), so allow a few corrective rounds.
loop_converged=0
for round in 1 2 3; do
    sleep 12
    for _ in 1 2 3; do loop_run; done
    sleep 5
    curl -sf "${server_url[loop]}/calibration" >"$tmp/loop-live.json"
    if band_ok "$tmp/loop-live.json"; then loop_converged=1; break; fi
    echo "closed-loop smoke: round $round not yet converged"
done
if [[ "$loop_converged" != 1 ]]; then
    echo "closed-loop smoke: drift never converged into [0.5, 2.0]" >&2
    cat "$tmp/loop-live.json" >&2
    exit 1
fi
# Probe B: the same gauge that blew out at probe A is back inside the band.
curl -sf "${server_url[loop]}/metrics" >"$tmp/loop-metrics_b.txt"
drift_b=$(drift_of "$tmp/loop-metrics_b.txt" train)
if ! awk -v a="$drift_a" -v b="$drift_b" \
    'function al(x) { return x < 1 ? -log(x) : log(x) } BEGIN { exit !(al(b) < al(a) && b >= 0.5 && b <= 2.0) }'; then
    echo "closed-loop smoke: train drift did not converge: before=$drift_a after=$drift_b" >&2
    exit 1
fi
stop_server loop
# Offline replay with the fitted profile active must reproduce the last live
# capture byte-for-byte: same log, same half-life, same profile file. (The
# capture above waited out two idle refit intervals, so the profile is stable.)
"$tmp/vista" -calib "$tmp/loop.log" -calib-half-life 5s \
    -calib-profile "$tmp/loop-profile.json" -calib-json report >"$tmp/loop-offline.json"
cmp "$tmp/loop-live.json" "$tmp/loop-offline.json"

echo "== calibration convergence exhibit (admission flip) =="
# The graded scenario suite must converge, and the fitted profile must flip a
# real admission verdict: the exhibit errors out if any scenario fails to
# converge, and the flip line is asserted literally.
go run ./cmd/vista-bench -only calib | tee "$tmp/exhibit.txt"
grep -q -- '-> reject, fitted .* -> admit' "$tmp/exhibit.txt" || {
    echo "calibration exhibit: admission verdict did not flip" >&2
    exit 1
}

echo "== bench smoke (BENCH_SHORT=1) =="
BENCH_SHORT=1 scripts/bench.sh "$tmp/bench.json"

echo "CI passed."
