#!/bin/sh
# check.sh — the full verification gate, run from anywhere inside the
# repository. Everything here must pass before a change lands:
#
#   gofmt        all source formatted
#   go vet       toolchain static checks; its copylocks check is the
#                gate for copied locks
#   go build     the module compiles
#   lint         the repo's own cross-package analyzer engine (see
#                internal/lint) in -json mode: no findings
#   go test -race  full test suite under the race detector
#   fuzz smoke   FuzzDecodePartialsFrame — the decoder that takes fleet
#                bytes off the network — mutates its checked-in corpus
#                for a fixed 10 s: no panic, allocation bounded by input
#                length, error or a bundle that re-encodes to a fixed
#                point. A crasher it finds lands in testdata/fuzz/ and
#                fails plain go test from then on. FuzzTelnetConn — the
#                IAC state machine every Telnet byte goes through — gets
#                the same 10 s: no panic, lines bounded, never more bytes
#                out than in, at most one Write per Read, the same result
#                however the input is cut into reads. FuzzWALFrame — the
#                one walker every WAL reader steps — gets it too, raw and
#                with each frame re-sealed: no panic, every step advances
#                by a whole frame, allocation bounded by input length, a
#                batch it yields survives a re-encode. FuzzCowrieImport
#                — the Cowrie log decoder — gets it too: no panic, an
#                error or a store. FuzzShellRun — every line
#                an intruder types — gets it too: no panic in Parse,
#                SplitSegments or Run on a fresh filesystem clone.
#                FuzzReadPacket — the SSH packet reader every SSH byte
#                goes through — gets it too, plaintext and keyed: no
#                panic, the buffer bounded whatever the length field
#                says, the same packets as the reference reader
#   chaos smoke  the fault plan's decision streams and backoff, and the
#                coordinator's chaos suite (shards down, lost
#                responses, pull storms) once more under -race — the
#                tests most sensitive to goroutine leaks and deadlocks
#   disk chaos   the disk-fault suite under -race: crash-at-every-
#                syscall recovery, fsync-failure schedules, and the
#                ENOSPC outage window at both the WAL and the live wire
#                front — degraded mode must count-and-drop, recover on a
#                fresh segment, and leak nothing
#   dataset smoke  the offline binaries: cmd/honeyfarm writes one dataset
#                as a record log and as a Cowrie export, fsck finds the
#                log healthy, cmd/analyze prints byte-identical tables
#                from both, and its extensions block prints the per-AS
#                notification table
#   merge smoke  a 3-shard farm (cmd/shard, built with -race) feeds
#                under a merge coordinator (cmd/merge); one shard is
#                SIGKILLed mid-run — /v1/healthz must degrade to
#                "degraded:shard" while the merge keeps serving — then
#                restarted on the same address/WAL; after re-convergence
#                every /v1 endpoint must compare byte-identical against
#                a single-node run over the same dataset, healthz must
#                return to "ok", the merge node's /metrics must show the
#                untouched shards pulled in full once and in deltas
#                after, the restarted one again — and the merged bundle
#                rebuilt if its WAL held more than had been merged —
#                and every process must drain leak-free
#   loadgen smoke  a 2-shard wire fleet (cmd/shard -wire, built with
#                -race) behind a merge node is driven by cmd/loadgen's
#                open-loop schedule; the driver's completed-session
#                count must reconcile exactly with the fleet's /metrics
#                counters, the same seed must produce a byte-identical
#                plan twice; shard 0, quiescent once reconciled, must
#                answer healthz "ok" and 200 on every /v1 table, with an
#                ETag on /v1/summary that If-None-Match revalidates to
#                304; every process must drain leak-free, and
#                cmd/analyze over shard 0's drained WAL must count its
#                accepted sessions
#   real ENOSPC  (Linux, needs mount privileges; skipped otherwise) the
#                WAL degraded-mode test re-run against an actually full
#                filesystem: a size-capped tmpfs is filled with ballast
#                and TestRealENOSPC drives appends into the real kernel
#                ENOSPC, checking the same degrade/recover/gap-frame
#                contract the injected-fault suite pins
#   bench smoke  every benchmark runs once (-benchtime=1x), so a broken
#                benchmark cannot sit undetected; the numbers are
#                go run ./bench's business (bench/README.md)
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'umount "$tmp/enospc" 2>/dev/null || true; rm -rf "$tmp"' EXIT

# poll_file <path> <what>: wait for a process to write its address file.
poll_file() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 150 ]; then
            echo "smoke: $2 never wrote $1" >&2
            cat "$tmp"/*.log >&2 || true
            exit 1
        fi
        sleep 0.1 2>/dev/null || sleep 1
    done
}

# The /v1 table endpoints every node kind serves; the merge smoke compares
# them byte for byte, the loadgen smoke checks them on a wire shard.
v1_tables="summary pots clients countries"

# expect_clean_drain <label> <pid> <log> [<pid> <log>]...: every process,
# already sent SIGTERM, must exit 0 (a -race binary exits 66 on a detected
# race) and have logged the line each daemon prints last, and only after
# its own goroutine-leak check passed.
expect_clean_drain() {
    label=$1
    shift
    while [ $# -ge 2 ]; do
        status=0
        wait "$1" || status=$?
        if [ "$status" -ne 0 ] || ! grep -q "drained cleanly" "$2"; then
            echo "$label: exit status $status, or no clean-drain confirmation, in $2" >&2
            cat "$2" >&2
            exit 1
        fi
        shift 2
    done
}

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go run ./cmd/lint -json ./..."
go run ./cmd/lint -json ./... >"$tmp/lint.json" || {
    cat "$tmp/lint.json" >&2
    exit 1
}

echo "==> go test -race ./..."
go test -race ./...

echo "==> fuzz smoke (FuzzDecodePartialsFrame, FuzzTelnetConn, FuzzWALFrame, FuzzCowrieImport, FuzzShellRun, FuzzReadPacket, 10s each)"
go test ./internal/shard -run '^$' -fuzz FuzzDecodePartialsFrame -fuzztime 10s
# The Telnet seeds are kilobytes long by design (a 1 KiB option storm, a
# 5,000-byte line); at the default minimizer budget of 60 s per new input
# the smoke would minimize one and mutate nothing.
go test ./internal/telnet -run '^$' -fuzz FuzzTelnetConn -fuzztime 10s -fuzzminimizetime 1s
go test ./internal/wal -run '^$' -fuzz FuzzWALFrame -fuzztime 10s -fuzzminimizetime 1s
go test ./internal/cowrielog -run '^$' -fuzz FuzzCowrieImport -fuzztime 10s -fuzzminimizetime 1s
go test ./internal/shell -run '^$' -fuzz FuzzShellRun -fuzztime 10s -fuzzminimizetime 1s
go test ./internal/sshwire -run '^$' -fuzz FuzzReadPacket -fuzztime 10s -fuzzminimizetime 1s

chaos_run='TestDecisions|TestBackoff|TestDropsSession|TestPotDown|TestCoordinator|TestBlockingPull'
echo "==> chaos smoke (go test -race -count=1 -run '$chaos_run')"
go test -race -count=1 -run "$chaos_run" ./internal/faults ./internal/shard

disk_run='TestCrashAtEverySyscall|TestFsyncFaultSchedule|TestCommitterFsyncErrorSticky|TestCloseDrainsInflightSync|TestENOSPCWindowRecovers|TestWireFrontRefusesUnpersisted'
echo "==> disk chaos smoke (go test -race -count=1 -run '$disk_run')"
go test -race -count=1 -run "$disk_run" ./internal/wal ./internal/shard
go test -race -count=20 -run TestCommitPipeline ./internal/wal # the committer's queue: absorb, barriers, the segment bound
go test -race -count=20 -run 'TestLoadDatasetFileLiveLog|TestReadersAgree' . ./internal/wal # the one read policy, the recovery scan: a read during rotation is a batch-aligned prefix, and Read refuses what Open refuses without writing
go test -race -count=20 -run 'TestSinkOrderUnderENOSPC|TestWireFrontRefusesUnpersisted' ./internal/query ./internal/shard # the one durable-ingest sink: recovered ≡ acknowledged
go test -race -count=20 -run 'TestCoordinatorRebuildDuringCatchUp|TestCoordinatorCompactsFrames|TestCoordinatorLostResponse|TestBlockingPullStorm' ./internal/shard # the install order: publish first, then append the frame; compact a shard's frames off mergeMu; rebuild from the held frames
go test -race -count=20 -run 'TestServer|TestWireFront|TestCoordinatorProbeBackoff|TestNode' ./internal/honeypot ./internal/shard ./internal/daemon # the one accept loop: its Close against sessions in flight; the puller's backoff while a shard is down; each node's one Close: recovered ≡ acknowledged, no goroutine left
go test -race -count=20 -run 'TestCutPartials|TestNewsWake|TestIngestAllocsWhilePulled' ./internal/query # a cut reads the rows Ingest writes: counters under the mutex, lists swapped, encoded after
go test -race -count=3 -run 'TestSameSeedByteIdentical|TestWorkersByteIdentical|TestFaultsByteIdentical|TestGenerateDigestPinned|TestGenerateDeterministic' . ./internal/workload # the generator's planner appends plan shards while decorators read the finished ones

echo "==> dataset smoke (honeyfarm, fsck, analyze over a record log and Cowrie)"
go build -o "$tmp/honeyfarm" ./cmd/honeyfarm
go build -o "$tmp/analyze" ./cmd/analyze
go build -o "$tmp/fsck" ./cmd/fsck
"$tmp/honeyfarm" -sessions 5000 -out "$tmp/ds" >/dev/null
"$tmp/honeyfarm" -sessions 5000 -format cowrie -out "$tmp/ds-cowrie.json" >/dev/null
"$tmp/fsck" "$tmp/ds" >"$tmp/ds-fsck.txt"
grep -q ' ok$' "$tmp/ds-fsck.txt"
"$tmp/analyze" -in "$tmp/ds" -tables table1,figure2 >"$tmp/ds-wal.txt"
"$tmp/analyze" -cowrie -in "$tmp/ds-cowrie.json" -tables table1,figure2 >"$tmp/ds-cowrie.txt"
cmp "$tmp/ds-wal.txt" "$tmp/ds-cowrie.txt"
"$tmp/analyze" -in "$tmp/ds" -tables extensions >"$tmp/ds-extensions.txt"
grep -q 'notification (Conclusion)' "$tmp/ds-extensions.txt"

echo "==> merge smoke (3 shards, SIGKILL+restart, byte-identical merge)"
go build -race -o "$tmp/shard" ./cmd/shard
go build -race -o "$tmp/merge" ./cmd/merge
shard_args="-sessions 20000 -seed 5 -pots 97 -workers 2 -batch 100 -pace 40ms"

# Single-node reference: one shard owning every pot is by construction
# the merge target the sharded run must reproduce byte-for-byte.
"$tmp/shard" $shard_args -shards 1 -index 0 -pace 1ms \
    -wal-dir "$tmp/ref-wal" -addr 127.0.0.1:0 -addr-file "$tmp/ref-addr" \
    >"$tmp/ref.log" 2>&1 &
ref_pid=$!
poll_file "$tmp/ref-addr" "reference shard"
ref_addr=$(cat "$tmp/ref-addr")
i=0
until grep -q "feed complete" "$tmp/ref.log"; do
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "merge smoke: reference shard never finished feeding" >&2
        cat "$tmp/ref.log" >&2
        exit 1
    fi
    sleep 0.1 2>/dev/null || sleep 1
done
for ep in $v1_tables; do
    curl -fsS "http://$ref_addr/v1/$ep" >"$tmp/ref-$ep.json"
done

# The 3-shard fleet, fed slowly enough that the kill lands mid-feed.
for i in 0 1 2; do
    "$tmp/shard" $shard_args -shards 3 -index "$i" \
        -wal-dir "$tmp/s$i-wal" -addr 127.0.0.1:0 -addr-file "$tmp/s$i-addr" \
        >"$tmp/s$i.log" 2>&1 &
    eval "s${i}_pid=\$!"
    poll_file "$tmp/s$i-addr" "shard $i"
done
# Give every shard a head start, so that what it folds between two pulls
# stays small beside what it holds (the drop rule would otherwise answer
# some early pulls in full, and the path assertions below count those).
for i in 0 1 2; do
    j=0
    until [ "$(curl -s "http://$(cat "$tmp/s$i-addr")/metrics" |
        awk '$1 == "honeyfarm_ingested_records_total" {print $2}')" -ge 1500 ] 2>/dev/null; do
        j=$((j + 1))
        if [ "$j" -gt 300 ]; then
            echo "merge smoke: shard $i never ingested 1500 records" >&2
            cat "$tmp/s$i.log" >&2
            exit 1
        fi
        sleep 0.1 2>/dev/null || sleep 1
    done
done
# A full frame of shard 0 as of now: no larger than the first one the
# merge will pull from it.
s0_frame=$(curl -fsS "http://$(cat "$tmp/s0-addr")/shard/v1/partials" | wc -c)
"$tmp/merge" -shards "http://$(cat "$tmp/s0-addr"),http://$(cat "$tmp/s1-addr"),http://$(cat "$tmp/s2-addr")" \
    -pots 97 -pull-every 50ms -fail-after 2 \
    -addr 127.0.0.1:0 -addr-file "$tmp/merge-addr" \
    >"$tmp/merge.log" 2>&1 &
merge_pid=$!
poll_file "$tmp/merge-addr" "merge"
merge_addr=$(cat "$tmp/merge-addr")

# Let the merge make real progress, then SIGKILL shard 1 mid-feed.
i=0
while :; do
    seq=$(curl -s "http://$merge_addr/v1/healthz" | grep -o '"snapshot_seq":[0-9]*' | cut -d: -f2)
    if [ "${seq:-0}" -ge 9000 ]; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "merge smoke: merge never reached seq 9000 (at ${seq:-?})" >&2
        cat "$tmp/merge.log" >&2
        exit 1
    fi
    sleep 0.1 2>/dev/null || sleep 1
done
kill -9 "$s1_pid" 2>/dev/null || true
wait "$s1_pid" 2>/dev/null || true

# The coordinator must mark the shard down and healthz must degrade —
# while the merged snapshot keeps serving (summary stays 200).
i=0
until curl -s "http://$merge_addr/v1/healthz" | grep -q '"status":"degraded:shard"'; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "merge smoke: healthz never degraded after shard kill" >&2
        curl -s "http://$merge_addr/v1/healthz" >&2 || true
        exit 1
    fi
    sleep 0.1 2>/dev/null || sleep 1
done
curl -fsS "http://$merge_addr/v1/summary" >/dev/null
# What the merge holds of the dead shard: frozen until it is back.
s1_installed=$(curl -fsS "http://$merge_addr/metrics" |
    awk '$1 == "honeyfarm_shard_last_seq{shard=\"1\"}" {print $2}')

# Restart the killed shard on its recorded address: the WAL recovers,
# feeding resumes from the first unpersisted record, and the
# coordinator's monotonic install rule rides out the catch-up.
s1_addr=$(cat "$tmp/s1-addr")
"$tmp/shard" $shard_args -shards 3 -index 1 \
    -wal-dir "$tmp/s1-wal" -addr "$s1_addr" \
    >"$tmp/s1-restart.log" 2>&1 &
s1_pid=$!

# Re-convergence: healthz back to ok and /v1/summary byte-identical to
# the single-node reference.
i=0
while :; do
    if curl -s "http://$merge_addr/v1/healthz" | grep -q '"status":"ok"' &&
        curl -fsS "http://$merge_addr/v1/summary" >"$tmp/merge-summary.json" &&
        cmp -s "$tmp/ref-summary.json" "$tmp/merge-summary.json"; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "merge smoke: merge never re-converged to the reference" >&2
        curl -s "http://$merge_addr/v1/healthz" >&2 || true
        cat "$tmp/merge.log" >&2
        exit 1
    fi
    sleep 0.1 2>/dev/null || sleep 1
done
for ep in $v1_tables; do
    curl -fsS "http://$merge_addr/v1/$ep" >"$tmp/merge-$ep.json"
    cmp "$tmp/ref-$ep.json" "$tmp/merge-$ep.json"
done

# The path, not only the bytes: the untouched shards were pulled in full
# exactly once and in deltas ever after, the killed one again after its
# restart, and the mean frame from an untouched shard is far below its
# first. When the restarted shard's WAL held more than the merge had
# installed of it, its full frame replaced merged state: one rebuild at
# least. (When it held exactly as much, deltas just carry on.)
merge_metrics=$(curl -fsS "http://$merge_addr/metrics")
metric() { printf '%s\n' "$merge_metrics" | awk -v k="$1" '$1 == k {print $2}'; }
full0=$(metric 'honeyfarm_shard_full_pulls_total{shard="0"}')
full1=$(metric 'honeyfarm_shard_full_pulls_total{shard="1"}')
full2=$(metric 'honeyfarm_shard_full_pulls_total{shard="2"}')
rebuilds=$(metric 'honeyfarm_merge_rebuilds_total')
s1_recovered=$(grep -o 'recovered [0-9]*' "$tmp/s1-restart.log" | cut -d' ' -f2)
want_rebuilds=0
if [ "${s1_recovered:-0}" -gt "${s1_installed:-0}" ]; then
    want_rebuilds=1
fi
pulls0=$(metric 'honeyfarm_shard_pulls_total{shard="0"}')
bytes0=$(metric 'honeyfarm_shard_pull_bytes_total{shard="0"}')
if [ "${full0:-0}" -ne 1 ] || [ "${full2:-0}" -ne 1 ] || [ "${full1:-0}" -lt 2 ] ||
    [ "${rebuilds:-0}" -lt "$want_rebuilds" ] || [ "${pulls0:-0}" -lt 10 ] ||
    [ $((${bytes0:-0} / ${pulls0:-1} * 3)) -ge "$s0_frame" ]; then
    echo "merge smoke: wrong pull path: full pulls $full0/$full1/$full2 (want 1/>=2/1)," \
        "$rebuilds rebuild(s) (want >=$want_rebuilds: shard 1 recovered $s1_recovered, merge held $s1_installed)," \
        "shard 0 mean frame $bytes0/$pulls0 B against a first frame of >=$s0_frame B (want under a third)" >&2
    printf '%s\n' "$merge_metrics" | grep -E '^honeyfarm_(shard|merge)_' >&2
    exit 1
fi

# Drain everything.
for pid in $merge_pid $s0_pid $s1_pid $s2_pid $ref_pid; do
    kill -TERM "$pid" 2>/dev/null || true
done
expect_clean_drain "merge smoke" "$merge_pid" "$tmp/merge.log" \
    "$s0_pid" "$tmp/s0.log" "$s1_pid" "$tmp/s1-restart.log" \
    "$s2_pid" "$tmp/s2.log" "$ref_pid" "$tmp/ref.log"
# The killed shard's first incarnation must NOT have drained cleanly —
# proof the SIGKILL landed mid-run and the restart actually recovered.
if grep -q "drained cleanly" "$tmp/s1.log"; then
    echo "merge smoke: shard 1 drained before the kill; nothing was tested" >&2
    exit 1
fi
fsck_out=$("$tmp/fsck" "$tmp/s0-wal" "$tmp/s1-wal" "$tmp/s2-wal" "$tmp/ref-wal")
printf '%s\n' "$fsck_out" | grep -q "summary: 4 path(s)" || {
    echo "merge smoke: fsck printed no fleet summary table" >&2
    printf '%s\n' "$fsck_out" >&2
    exit 1
}

echo "==> loadgen smoke (2-shard wire fleet, open-loop drive, count reconciliation)"
go build -race -o "$tmp/loadgen" ./cmd/loadgen

# Two wire shards: real SSH/Telnet listeners for the owned pots, each
# appending accepted sessions to its own WAL before ingesting them.
# (si, not i: poll_file uses i as its internal counter.)
for si in 0 1; do
    "$tmp/shard" -wire -pots 6 -shards 2 -index "$si" -seed 11 \
        -wal-dir "$tmp/lg-s$si-wal" -addr 127.0.0.1:0 -addr-file "$tmp/lg-s$si-addr" \
        -wire-addr-file "$tmp/lg-s$si.pots" \
        >"$tmp/lg-s$si.log" 2>&1 &
    eval "lg${si}_pid=\$!"
    poll_file "$tmp/lg-s$si-addr" "wire shard $si"
    poll_file "$tmp/lg-s$si.pots" "wire shard $si pot table"
done
lg_s0=$(cat "$tmp/lg-s0-addr")
lg_s1=$(cat "$tmp/lg-s1-addr")

# A merge node over both shards: the full deployment every accepted wire
# session must flow through.
"$tmp/merge" -shards "http://$lg_s0,http://$lg_s1" -pots 6 -pull-every 50ms \
    -addr 127.0.0.1:0 -addr-file "$tmp/lg-merge-addr" \
    >"$tmp/lg-merge.log" 2>&1 &
lg_merge_pid=$!
poll_file "$tmp/lg-merge-addr" "loadgen merge"
lg_merge=$(cat "$tmp/lg-merge-addr")

# Same seed, same targets: the emitted plan must be byte-identical.
lg_args="-seed 11 -rate 40 -duration 3s -targets $tmp/lg-s0.pots,$tmp/lg-s1.pots"
"$tmp/loadgen" $lg_args -plan-only -out "$tmp/lg-plan-a.json"
"$tmp/loadgen" $lg_args -plan-only -out "$tmp/lg-plan-b.json"
cmp "$tmp/lg-plan-a.json" "$tmp/lg-plan-b.json"

# Drive the fleet and reconcile: the driver's completed count must match
# the sum of the shards' accepted-session counters exactly.
"$tmp/loadgen" $lg_args -concurrency 32 \
    -check "http://$lg_s0/metrics,http://$lg_s1/metrics" \
    -require-clean -out "$tmp/lg-report.json"
grep -q '"match": true' "$tmp/lg-report.json" || {
    echo "loadgen smoke: report shows no reconciliation match" >&2
    cat "$tmp/lg-report.json" >&2
    exit 1
}

# What shard 0 accepted: its WAL, read after the drain, must hold as many.
acc0=$(curl -fsS "http://$lg_s0/metrics" |
    awk '$1 == "honeyfarm_wire_sessions_accepted_total" {print $2}')
if [ -z "$acc0" ] || [ "$acc0" -lt 1 ]; then
    echo "loadgen smoke: shard 0 accepted no sessions (${acc0:-?})" >&2
    exit 1
fi
# Shard 0's query API, now that nothing more arrives: its snapshot stays
# put, so the ETag cannot rotate between the two requests below.
case "$(curl -fsS "http://$lg_s0/v1/healthz")" in
*'"status":"ok"'*) ;;
*)
    echo "loadgen smoke: shard 0 unhealthy: $(curl -sS "http://$lg_s0/v1/healthz")" >&2
    exit 1
    ;;
esac
for ep in $v1_tables; do
    curl -fsS "http://$lg_s0/v1/$ep" >/dev/null
done
etag=$(curl -fsSI "http://$lg_s0/v1/summary" | tr -d '\r' | awk 'tolower($1) == "etag:" {print $2}')
if [ -z "$etag" ]; then
    echo "loadgen smoke: shard 0's /v1/summary carries no ETag" >&2
    exit 1
fi
code=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" "http://$lg_s0/v1/summary")
if [ "$code" != "304" ]; then
    echo "loadgen smoke: revalidation returned $code, want 304" >&2
    exit 1
fi

# The merge node's /metrics must carry both shards as up, and its
# merged sequence (Σ shard seqs) must converge to the total accepted
# across the fleet — closing the loadgen → shards → merge count chain.
merge_up=$(curl -fsS "http://$lg_merge/metrics" |
    awk '$1 ~ /^honeyfarm_shard_up\{/ {n += $2} END {print n}')
if [ "${merge_up:-0}" -ne 2 ]; then
    echo "loadgen smoke: merge reports ${merge_up:-0}/2 shards up" >&2
    curl -fsS "http://$lg_merge/metrics" >&2 || true
    exit 1
fi
acc1=$(curl -fsS "http://$lg_s1/metrics" |
    awk '$1 == "honeyfarm_wire_sessions_accepted_total" {print $2}')
total=$((acc0 + ${acc1:-0}))
i=0
while :; do
    mseq=$(curl -fsS "http://$lg_merge/metrics" |
        awk '$1 == "honeyfarm_ingested_records_total" {print $2}')
    if [ "${mseq:-0}" -eq "$total" ]; then
        break
    fi
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "loadgen smoke: merge seq ${mseq:-?}, fleet accepted $total" >&2
        cat "$tmp/lg-merge.log" >&2
        exit 1
    fi
    sleep 0.1 2>/dev/null || sleep 1
done

# Drain the whole fleet.
for pid in $lg_merge_pid $lg0_pid $lg1_pid; do
    kill -TERM "$pid" 2>/dev/null || true
done
expect_clean_drain "loadgen smoke" "$lg_merge_pid" "$tmp/lg-merge.log" \
    "$lg0_pid" "$tmp/lg-s0.log" "$lg1_pid" "$tmp/lg-s1.log"

# The batch report over what the wire fleet collected: shard 0's WAL,
# read as a dataset, holds every session shard 0 accepted.
"$tmp/analyze" -in "$tmp/lg-s0-wal" -pots 6 -seed 11 -tables summary >"$tmp/lg-analyze.txt"
lg_sessions=$(awk '$1 == "dataset:" {print $2}' "$tmp/lg-analyze.txt")
if [ "${lg_sessions:-?}" != "$acc0" ]; then
    echo "loadgen smoke: analyze read ${lg_sessions:-?} sessions from shard 0's WAL, shard 0 accepted $acc0" >&2
    cat "$tmp/lg-analyze.txt" >&2
    exit 1
fi

echo "==> real-ENOSPC gate (WAL degraded mode on a size-capped tmpfs)"
if [ "$(uname -s)" = "Linux" ] &&
    mkdir -p "$tmp/enospc" &&
    mount -t tmpfs -o size=2m tmpfs "$tmp/enospc" 2>/dev/null; then
    enospc_status=0
    HONEYFARM_ENOSPC_DIR="$tmp/enospc" \
        go test -race -count=1 -run TestRealENOSPC ./internal/wal || enospc_status=$?
    umount "$tmp/enospc"
    if [ "$enospc_status" -ne 0 ]; then
        echo "real-ENOSPC gate failed" >&2
        exit 1
    fi
else
    echo "    tmpfs mount unavailable (needs Linux + privileges); skipping"
fi

echo "==> benchmark smoke (go test -bench=. -benchtime=1x)"
go test -run='^$' -bench=. -benchtime=1x ./... >/dev/null

echo "all checks passed"
