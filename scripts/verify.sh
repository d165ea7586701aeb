#!/usr/bin/env bash
# Tier-1 verification: release build + full test suite, the WAL crash-point
# torture matrix, and (optionally) sanitizer passes over the concurrency-
# and recovery-sensitive tests.
#
#   scripts/verify.sh           # build + ctest + torture label
#   scripts/verify.sh --asan    # also configure/build/run the ASan/UBSan tree
#   scripts/verify.sh --tsan    # also run ThreadSanitizer over the threaded
#                               # suites (worker pool, net server, batched
#                               # executor morsels)
#   scripts/verify.sh --overload  # also run the deadline/overload robustness
#                               # lane: ctest -L overload, the 4x open-loop
#                               # degradation sweep (bench_overload), and the
#                               # bench_net guard that fails if the disarmed
#                               # deadline check costs >=1% of a loopback SELECT
#   scripts/verify.sh --crash   # also run the kill -9 process-crash torture
#                               # (ctest -L crash: 20+ SIGKILL/restart cycles
#                               # of a live serverd under encrypted TPC-C)
#                               # and the recovery-time + commit-amortization
#                               # ablations (bench_recovery ->
#                               # BENCH_recovery.json + BENCH_commit.json)
#   scripts/verify.sh --large-data  # also run the buffer-pool lane: the
#                               # bufferpool suite plus TPC-C with a working
#                               # set many times the pool (ctest -L
#                               # large_data, gated on AEDB_RUN_LARGE_DATA)
#   scripts/verify.sh --shard-torture  # also run the cross-shard atomicity
#                               # lane: ctest -L shard_torture with the kill
#                               # -9 serverd half enabled (every 2pc/* fault
#                               # boundary crashed and recovered), plus the
#                               # shard-scaling bench (bench_shard ->
#                               # BENCH_shard.json, zero wrong results)
#
# Exits non-zero on the first failing step.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

run() { echo "==> $*"; "$@"; }

run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
run cmake --build build -j "$JOBS"
run ctest --test-dir build --output-on-failure
# The torture matrix runs as part of the suite above; run it again by label so
# a filtered/flaky-retry CI lane still exercises every WAL crash point.
run ctest --test-dir build -L torture --output-on-failure
# Same rationale for the sharding/2PC suite: shard_test and the in-process
# 2pc/* fault matrix are tier-1, so a label-filtered lane still covers them.
run ctest --test-dir build -L shard --output-on-failure

if [[ "${1:-}" == "--asan" ]]; then
  run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAEDB_SANITIZE=address,undefined
  # durability_test drives the WAL's open, truncate, rewrite and reopen
  # paths, where truncation slices the file's bytes in place.
  # shard_torture_test's in-process half drives the 2PC decision log's
  # appends, tears, compaction rewrites and truncation. enclave_test,
  # es_test and batch_equiv_test cross the call gate with column-major
  # morsels, whose columns view the caller's values (a comparison's Slice
  # vector likewise points into the caller's buffers). sql_test drives the
  # row decoders' column-set paths, which step over skipped columns by the
  # lengths stored in page bytes. An enclave worker pool item views the
  # submitter's columns: server_test and overload_test's pool cases queue,
  # shed, stall and reject such items on every early-completion path.
  # powerloss_test crashes storage::SimFs, which cuts and tears byte ranges
  # of its files and rolls overwritten ones back; bufferpool_test drops
  # objects whose frames free their page buffers, pinned ones at the last
  # unpin.
  run cmake --build build-asan -j "$JOBS" --target fault_test \
      fault_torture_test storage_test net_test durability_test \
      shard_torture_test enclave_test es_test batch_equiv_test sql_test \
      server_test overload_test powerloss_test bufferpool_test
  ASAN_OPTIONS=detect_leaks=0 run ctest --test-dir build-asan \
      -R '^(fault_test|fault_torture_test|storage_test|net_test|durability_test|shard_torture_test|enclave_test|es_test|batch_equiv_test|sql_test|server_test|powerloss_test|bufferpool_test)$' \
      --output-on-failure
  ASAN_OPTIONS=detect_leaks=0 run ./build-asan/tests/overload_test \
      --gtest_filter='PoolOverloadTest.*'
fi

if [[ "${1:-}" == "--overload" ]]; then
  # Deadline/overload robustness lane. The overload-labelled suite covers
  # deadline-bounded lock waits, worker-pool shedding, the admission gate and
  # the 4x socket stress; bench_overload gates graceful degradation (goodput
  # >= 70% of capacity at 4x offered load, zero wrong results, every shed
  # query typed); bench_net gates the disarmed deadline-check overhead.
  run ctest --test-dir build -L overload --output-on-failure
  run cmake --build build -j "$JOBS" --target bench_overload bench_net
  run ./build/bench/bench_overload
  run ./build/bench/bench_net
fi

if [[ "${1:-}" == "--crash" ]]; then
  # Process-crash durability lane, off tier-1 because it forks ~25 server
  # processes. crash_torture_test kill -9s a live aedb_serverd over a durable
  # data dir at seeded random points plus forced crashes at wal/append,
  # wal/sync, mid-checkpoint-publish, pre-WAL-truncate and mid-recovery, then
  # verifies exactly the acknowledged-commit prefix survives with zero wrong
  # results and no plaintext at rest. bench_recovery gates the checkpointing
  # rationale (recovery time vs WAL length) and sweeps group commit x pool
  # size (commits per fsync, TPC-C throughput vs per-commit baseline).
  AEDB_RUN_CRASH_TORTURE=1 run ctest --test-dir build -L crash \
      --output-on-failure
  run cmake --build build -j "$JOBS" --target bench_recovery
  run ./build/bench/bench_recovery
fi

if [[ "${1:-}" == "--large-data" ]]; then
  # Buffer-pool robustness lane, off tier-1 for runtime. The bufferpool label
  # covers pin/unpin + eviction races, paged-vs-unbounded equivalence and
  # group-commit durability; large_data runs TPC-C (incl. 4 concurrent
  # terminals) over a pool many times smaller than the working set, so every
  # access path crosses eviction + page-store I/O.
  run ctest --test-dir build -L bufferpool --output-on-failure
  AEDB_RUN_LARGE_DATA=1 run ctest --test-dir build -L large_data \
      --output-on-failure
fi

if [[ "${1:-}" == "--shard-torture" ]]; then
  # Cross-shard atomicity lane, off tier-1 because the kill -9 half forks
  # real aedb_serverd --shards=2 children. shard_torture_test crashes the
  # coordinator at every 2pc/* boundary (pre-prepare, prepared-without-
  # decision, pre-commit-decision, post-decision) via --die-at and mid-burst
  # SIGKILL, then verifies both ledger halves match exactly (all-or-nothing)
  # and every acknowledged commit survived. bench_shard records the 1/2/4
  # shard scaling sweep and gates zero wrong results.
  AEDB_RUN_SHARD_TORTURE=1 run ctest --test-dir build -L shard_torture \
      --output-on-failure
  run cmake --build build -j "$JOBS" --target bench_shard
  run ./build/bench/bench_shard
fi

if [[ "${1:-}" == "--tsan" ]]; then
  # The data-race surface: enclave worker pool, multi-threaded net server
  # (epoll shards + exec pool + connection-scale suite), overload shedding,
  # and the executor's batched enclave submissions (batch_equiv drives every
  # morsel path at batch sizes 1/3/256, and batch 256 through the enclave
  # worker pool, whose items view the submitter's columns). net_scale_test
  # self-shrinks its idle herd under TSan so the instrumented run stays
  # tractable.
  run cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAEDB_SANITIZE=thread
  # bufferpool_test rides along for the pool's pin/evict/writeback races and
  # the group-commit leader/follower handoff; shard_test for the router's
  # cross-shard 2PC paths (per-shard engines + the coordinator's decision
  # log) under the differential TPC-C run, and with storage_test for the
  # threaded deadlock-detection cases (lock tables + the shared wait-for
  # graph). powerloss_test for storage::SimFs, whose fsync runs inside the
  # WAL's group-commit leader/follower handoff.
  run cmake --build build-tsan -j "$JOBS" --target enclave_test net_test \
      server_test batch_equiv_test net_scale_test overload_test \
      bufferpool_test shard_test storage_test powerloss_test
  TSAN_OPTIONS=halt_on_error=1 run ctest --test-dir build-tsan \
      -R 'enclave_test|net_test|server_test|batch_equiv_test|net_scale_test|overload_test|bufferpool_test|shard_test|storage_test|powerloss_test' \
      --output-on-failure
fi

echo "verify: all checks passed"
