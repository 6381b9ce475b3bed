#!/usr/bin/env bash
# CI check: build and run the tier-1 test suite under sanitizers, then a
# Release-mode perf smoke.
#
# Stages, in sequence:
#   1. address,undefined  — memory errors, UB, leaks; any ASan or UBSan
#                           report aborts the test and fails the stage
#   2. thread             — data races in the serving / thread-pool paths
#   3. perf               — the indexed-vs-brute equivalence battery
#                           (indexed_brute_test: adversarial corpora, all
#                           measures x k in {1,3,5,10,25}, unknown-part
#                           fallbacks, the node-level battery comparing
#                           SelectTopNodes' (score bits, node) list with
#                           a full sort of the candidates at k from 0
#                           past num_nodes(), and seeded confirm sequences
#                           whose per-part segment rebuilds must equal a
#                           from-scratch Build) under ASan+UBSan, then a Release
#                           build of bench_knn_throughput --quick; proves
#                           brute == indexed rankings bit-for-bit and
#                           fails if the frozen index is slower than
#                           brute force. Writes its --quick result to
#                           build-perf/BENCH_knn.json; the committed
#                           BENCH_knn.json is the scaling stage's.
#   4. serve              — Release build of the epoll serving stack:
#                           qatk_serve --port=abc, --port=70000,
#                           --shards=1 --shard-index=7 (an index outside
#                           the cluster) and --sharder=hash (there is one
#                           sharder, so no such flag) must each exit 2
#                           (refused before training starts),
#                           then bench_serving_load --quick in-process (wire
#                           responses must be bit-identical to direct
#                           Recommend calls; shed/drain/fault gates), then
#                           a real qatk_serve process with four event loops
#                           (four SO_REUSEPORT listeners) on an ephemeral
#                           port, the bench replayed against it over TCP,
#                           and a SIGTERM drain that must exit 0. Writes
#                           its --quick result to
#                           build-perf/BENCH_serving.json.
#   5. obs                — observability hardening: the obs / fuzz /
#                           golden-frame test binaries rerun under both
#                           ASan+UBSan and TSan (reusing the build-san/
#                           trees), then an overhead smoke comparing
#                           bench_knn_throughput between the normal
#                           Release tree and one compiled with
#                           -DQATK_NO_METRICS=ON: metrics-enabled
#                           throughput must stay within 95% of the
#                           compiled-out build. The compiled-out tree
#                           also runs alloc_gate_test, the exact
#                           allocations-per-request gate.
#   6. durability         — crash-safety torture under ASan+UBSan: the
#                           service_durability_test binary (torn tails,
#                           CRC corruption, checkpoint-window crashes)
#                           plus bench_crash_recovery with 200 storage
#                           and 1000 service schedules. The bench's
#                           recovery_replay gate fails the stage on any
#                           recovery mismatch or a replay-free sweep.
#                           Writes BENCH_crash.json at the repo root.
#   7. cluster            — sharded serving end-to-end: Release build of
#                           bench_cluster_scaling --quick in-process
#                           (cluster responses over 1..4 hash shards must
#                           be bit-identical to single-node; the 1->4
#                           shard throughput table gates on >= 4-core
#                           hosts, SKIPPED elsewhere), then real 1-shard
#                           and 3-shard qatk_cluster process trees on
#                           ephemeral ports, each with the equivalence
#                           replay against its front end over TCP and a
#                           SIGTERM cluster drain that must exit 0. Both
#                           halves always run; the stage fails if either
#                           does.
#                           Writes its --quick result to
#                           build-perf/BENCH_cluster.json.
#   8. scaling            — multi-core scaling gates: full (non-quick)
#                           1->4 thread tables from bench_knn_throughput
#                           (monotonically non-decreasing) and
#                           bench_serving_load (>= 2.4x 1->4, i.e. 0.6x
#                           of linear), written to the committed
#                           BENCH_knn.json and BENCH_serving.json at the
#                           repo root: the only --quick-free runs, and so
#                           the only stage that refreshes files there
#                           besides durability's full BENCH_crash.json
#                           sweep. Both benches enforce their gates
#                           internally when the host has >= 4 cores; on
#                           smaller machines the stage prints a SKIPPED
#                           notice and succeeds, so laptops and small CI
#                           runners stay green without masking a real
#                           regression on serving-class hardware.
#   9. loadbench          — open-loop QUEST serving smokes
#                           (loadbench/run.py, seed 1; builds into
#                           .bench_build/): 5 s of oem-steady untraced,
#                           5 s of oem-steady with --trace 1 (the
#                           per-layer replay, which checks every answer
#                           while it drives the tokenizer, the trie
#                           annotator and the feature extractor), then
#                           25 s of confirm-storm (the shortest run its
#                           confirm count allows), which byte-compares the
#                           end state after its served confirms with a
#                           reference. Exit 0 passes. Exit 3 means the run
#                           was refused for host noise: it says nothing
#                           about the code, so the stage prints a notice
#                           and passes. Any other status (1: build failure
#                           or a wrong answer) fails the stage.
#  10. werror             — a Release tree configured with
#                           -DCMAKE_CXX_FLAGS=-Werror (build-werror/,
#                           Makefiles) builds every target under src/,
#                           bench/, examples/ and tests/, so any compiler
#                           warning there fails the stage.
#
# Each sanitizer pass gets its own build tree under build-san/ so the
# sanitizer runtimes never mix; the perf and serve stages share
# build-perf/. Usage:
#   scripts/check.sh            # all stages
#   scripts/check.sh address,undefined
#   scripts/check.sh thread
#   scripts/check.sh perf       # perf smoke only
#   scripts/check.sh serve      # serving stack end-to-end only
#   scripts/check.sh obs        # observability tests + overhead smoke
#   scripts/check.sh durability # crash torture under ASan+UBSan
#   scripts/check.sh cluster    # sharded scatter-gather serving end-to-end
#   scripts/check.sh scaling    # 1->4 multi-core scaling gates
#   scripts/check.sh loadbench  # open-loop serving smokes (oem-steady, confirm-storm)
#   scripts/check.sh werror     # warning-free Release build of src/, bench/, examples/, tests/
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# A UBSan report must fail the stage that hit it. The sanitizer trees are
# built with -fno-sanitize-recover=all (CMakeLists.txt); halt_on_error also
# covers a tree configured by hand without it.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:+${UBSAN_OPTIONS}:}halt_on_error=1:print_stacktrace=1"

STAGES=("${1:-address,undefined}")
if [[ $# -eq 0 ]]; then
  STAGES=("address,undefined" "thread" "perf" "serve" "obs" "durability" "cluster" "scaling" "loadbench" "werror")
fi

# Pulls the first indexed-path qps out of a (pretty-printed) BENCH_knn
# JSON: the "qps" line immediately inside the first "indexed" object.
knn_qps() {
  awk '/"indexed": \{/ { grab = 1; next }
       grab && /"qps":/ { gsub(/[^0-9.]/, ""); print; exit }' "$1"
}

for STAGE in "${STAGES[@]}"; do
  if [[ "${STAGE}" == "perf" ]]; then
    # The indexed-vs-brute battery rides the perf stage under ASan+UBSan:
    # the scorer indexes epoch-tagged accumulators and CSR offsets, exactly
    # the kind of indexing an off-by-one corrupts silently long before it
    # corrupts visibly. The same binary runs the confirm-sequence battery,
    # which drives copy-on-write parts and per-part segment rebuilds.
    SAN="address,undefined"
    SAN_DIR="build-san/${SAN//,/+}"
    echo "=== indexed-vs-brute battery under ${SAN} (build: ${SAN_DIR}) ==="
    cmake -B "${SAN_DIR}" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DQATK_SANITIZE="${SAN}" >/dev/null
    cmake --build "${SAN_DIR}" -j "${JOBS}" --target indexed_brute_test
    "${SAN_DIR}/tests/indexed_brute_test"
    BUILD_DIR="build-perf"
    echo "=== perf smoke: bench_knn_throughput --quick (build: ${BUILD_DIR}) ==="
    cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_knn_throughput
    # Exits 2 if any brute vs indexed ranking diverges, 1 if the indexed
    # path is slower than brute; either fails the check via errexit.
    "${BUILD_DIR}/bench/bench_knn_throughput" --quick \
      --out="${BUILD_DIR}/BENCH_knn.json"
    continue
  fi
  if [[ "${STAGE}" == "serve" ]]; then
    BUILD_DIR="build-perf"
    echo "=== serve smoke: bench_serving_load + qatk_serve drain (build: ${BUILD_DIR}) ==="
    cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_serving_load qatk_serve
    # A malformed or out-of-range numeric flag is refused with exit 2
    # before training or any event loop starts: not an uncaught exception
    # (exit 134), and no port wrapped into 16 bits (70000 -> 4464). So are
    # a shard index outside the cluster and --sharder (there is one
    # sharder, so no such flag).
    for BAD_FLAGS in "--port=abc" "--port=70000" \
      "--shards=1 --shard-index=7" "--sharder=hash"; do
      STATUS=0
      # Unquoted on purpose: one entry may hold several flags.
      # shellcheck disable=SC2086
      timeout 60 "${BUILD_DIR}/src/server/qatk_serve" ${BAD_FLAGS} \
        2>/dev/null || STATUS=$?
      if [[ "${STATUS}" -ne 2 ]]; then
        echo "qatk_serve ${BAD_FLAGS} exited ${STATUS}, want 2" >&2
        exit 1
      fi
    done
    # In-process gates: bit-identical wire responses over every held-out
    # bundle, deterministic shedding, zero-drop drain, fault schedules.
    "${BUILD_DIR}/bench/bench_serving_load" --quick \
      --out="${BUILD_DIR}/BENCH_serving.json"
    # Cross-process: a real qatk_serve (independent training of the same
    # deterministic corpus), the bench replayed over TCP, SIGTERM drain.
    # Four loops, so the replay and the drain run against four listeners.
    PORT_FILE="$(mktemp)"
    rm -f "${PORT_FILE}"
    "${BUILD_DIR}/src/server/qatk_serve" --port=0 --threads=4 \
      --port-file="${PORT_FILE}" &
    SERVE_PID=$!
    for _ in $(seq 1 600); do
      [[ -f "${PORT_FILE}" ]] && break
      sleep 0.5
    done
    if [[ ! -f "${PORT_FILE}" ]]; then
      echo "qatk_serve never wrote its port file" >&2
      kill -9 "${SERVE_PID}" 2>/dev/null || true
      exit 1
    fi
    PORT="$(cat "${PORT_FILE}")"
    rm -f "${PORT_FILE}"
    "${BUILD_DIR}/bench/bench_serving_load" --quick --connect="${PORT}" \
      --out=/dev/null
    kill -TERM "${SERVE_PID}"
    # The graceful drain must finish all in-flight work and exit 0.
    wait "${SERVE_PID}"
    continue
  fi
  if [[ "${STAGE}" == "cluster" ]]; then
    BUILD_DIR="build-perf"
    echo "=== cluster smoke: bench_cluster_scaling + qatk_cluster drain (build: ${BUILD_DIR}) ==="
    cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "${BUILD_DIR}" -j "${JOBS}" \
      --target bench_cluster_scaling qatk_cluster qatk_serve
    # In-process gates: bit-identical responses at every shard count
    # (1..4 hash shards, unknown-part fallbacks included);
    # the shard-scaling table gates itself only on >= 4-core hosts. Its
    # status is kept, not fatal here, so the cross-process half below
    # always runs too; the stage fails at the end if either half failed.
    IN_PROCESS=0
    "${BUILD_DIR}/bench/bench_cluster_scaling" --quick \
      --out="${BUILD_DIR}/BENCH_cluster.json" || IN_PROCESS=$?
    # Cross-process: a real 1-shard and a real 3-shard cluster (the
    # launcher forks qatk_serve workers, each training its own slice),
    # the equivalence replay against each front end, then a SIGTERM drain
    # of the whole tree.
    CROSS_PROCESS=0
    for SHARDS in 1 3; do
      echo "--- real ${SHARDS}-shard qatk_cluster: replay + drain ---"
      PORT_FILE="$(mktemp)"
      rm -f "${PORT_FILE}"
      "${BUILD_DIR}/src/cluster/qatk_cluster" --port=0 --shards="${SHARDS}" \
        --serve-bin="${BUILD_DIR}/src/server/qatk_serve" \
        --port-file="${PORT_FILE}" &
      CLUSTER_PID=$!
      for _ in $(seq 1 600); do
        [[ -f "${PORT_FILE}" ]] && break
        kill -0 "${CLUSTER_PID}" 2>/dev/null || break
        sleep 0.5
      done
      if [[ ! -f "${PORT_FILE}" ]]; then
        echo "${SHARDS}-shard qatk_cluster never wrote its port file" >&2
        kill -9 "${CLUSTER_PID}" 2>/dev/null || true
        wait "${CLUSTER_PID}" 2>/dev/null || true
        CROSS_PROCESS=1
        continue
      fi
      PORT="$(cat "${PORT_FILE}")"
      rm -f "${PORT_FILE}"
      "${BUILD_DIR}/bench/bench_cluster_scaling" --quick --connect="${PORT}" \
        --out=/dev/null || CROSS_PROCESS=$?
      kill -TERM "${CLUSTER_PID}"
      # The cluster drain must finish in-flight work on the front end and
      # every shard worker, reap all children, and exit 0.
      wait "${CLUSTER_PID}" || CROSS_PROCESS=$?
    done
    if [[ "${IN_PROCESS}" -ne 0 ]]; then
      echo "in-process bench_cluster_scaling failed with exit" \
        "${IN_PROCESS}" >&2
    fi
    if [[ "${CROSS_PROCESS}" -ne 0 ]]; then
      echo "cross-process qatk_cluster replay or drain failed with exit" \
        "${CROSS_PROCESS}" >&2
    fi
    if [[ "${IN_PROCESS}" -ne 0 || "${CROSS_PROCESS}" -ne 0 ]]; then
      exit 1
    fi
    continue
  fi
  if [[ "${STAGE}" == "scaling" ]]; then
    BUILD_DIR="build-perf"
    CORES="$(nproc 2>/dev/null || echo 1)"
    echo "=== scaling gates: 1->4 thread tables (build: ${BUILD_DIR}, ${CORES} cores) ==="
    if [[ "${CORES}" -lt 4 ]]; then
      # The benches would print their own SKIPPED notices too, but a full
      # non-quick run is minutes of wall clock for a result this host
      # cannot gate on — skip the measurement entirely.
      echo "SKIPPED: scaling stage needs >= 4 cores (host has ${CORES});" \
        "run on serving-class hardware to enforce the 1->4 gates" >&2
      continue
    fi
    cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "${BUILD_DIR}" -j "${JOBS}" \
      --target bench_knn_throughput bench_serving_load
    # Full (non-quick) runs: longer sweeps keep the 1->4 ratios out of
    # jitter range. Each bench enforces its own gate and exits non-zero
    # on a falling curve.
    "${BUILD_DIR}/bench/bench_knn_throughput" --out=BENCH_knn.json
    "${BUILD_DIR}/bench/bench_serving_load" --out=BENCH_serving.json
    continue
  fi
  if [[ "${STAGE}" == "loadbench" ]]; then
    for RUN in "oem-steady 5 0" "oem-steady 5 1" "confirm-storm 25 0"; do
      read -r WORKLOAD SECONDS TRACE <<<"${RUN}"
      echo "=== loadbench smoke: ${WORKLOAD}, seed 1, ${SECONDS} s, trace ${TRACE} (build: .bench_build/) ==="
      STATUS=0
      python3 loadbench/run.py --workload "${WORKLOAD}" --seed 1 \
        --seconds "${SECONDS}" --trace "${TRACE}" || STATUS=$?
      if [[ "${STATUS}" -eq 3 ]]; then
        echo "NOTICE: loadbench refused the ${WORKLOAD} run for host noise" \
          "(exit 3); that says nothing about the code, so the stage passes" >&2
      elif [[ "${STATUS}" -ne 0 ]]; then
        echo "loadbench ${WORKLOAD} failed with exit ${STATUS} (1: build" \
          "failure or a wrong answer)" >&2
        exit 1
      fi
    done
    continue
  fi
  if [[ "${STAGE}" == "werror" ]]; then
    BUILD_DIR="build-werror"
    echo "=== warning-free build of src/, bench/, examples/, tests/ (build: ${BUILD_DIR}) ==="
    # The Makefile generator gives every source directory its own "all"
    # target, which builds that directory's targets (and what they link).
    cmake -B "${BUILD_DIR}" -S . -G "Unix Makefiles" \
      -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror >/dev/null
    for DIR in src bench examples tests; do
      make -C "${BUILD_DIR}/${DIR}" -j "${JOBS}" --no-print-directory
    done
    continue
  fi
  if [[ "${STAGE}" == "durability" ]]; then
    # Crash torture wants sanitizers, not speed: every recovery path (torn
    # tails, rolled-back appends, snapshot replay) runs under ASan+UBSan so
    # a use-after-free or overflow in a rarely-taken branch can't hide
    # behind a bit-identical fingerprint.
    SAN="address,undefined"
    BUILD_DIR="build-san/${SAN//,/+}"
    echo "=== durability torture under ${SAN} (build: ${BUILD_DIR}) ==="
    cmake -B "${BUILD_DIR}" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DQATK_SANITIZE="${SAN}" >/dev/null
    cmake --build "${BUILD_DIR}" -j "${JOBS}" \
      --target service_durability_test bench_crash_recovery
    "${BUILD_DIR}/tests/service_durability_test"
    # Full seeded sweep: 200 storage schedules + 1000 service schedules.
    # The bench exits non-zero if any recovery mismatches or if the
    # service sweep never replayed a record (vacuous coverage).
    "${BUILD_DIR}/bench/bench_crash_recovery" \
      --storage=200 --service=1000 --out=BENCH_crash.json
    continue
  fi
  if [[ "${STAGE}" == "obs" ]]; then
    # The observability surface is all about concurrent counters and wire
    # formats, so the dedicated binaries rerun under both sanitizer
    # flavors: ASan+UBSan for the codec/fuzz paths, TSan for the sharded
    # counter and histogram stress tests.
    for SAN in "address,undefined" "thread"; do
      BUILD_DIR="build-san/${SAN//,/+}"
      echo "=== obs tests under ${SAN} (build: ${BUILD_DIR}) ==="
      cmake -B "${BUILD_DIR}" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DQATK_SANITIZE="${SAN}" >/dev/null
      cmake --build "${BUILD_DIR}" -j "${JOBS}" \
        --target obs_test fuzz_test server_protocol_test
      "${BUILD_DIR}/tests/obs_test"
      "${BUILD_DIR}/tests/fuzz_test"
      "${BUILD_DIR}/tests/server_protocol_test"
    done
    # Overhead smoke: the metrics-enabled Release build must hold at
    # least 95% of the throughput of a tree with recording compiled out
    # (-DQATK_NO_METRICS=ON). Catches anything creeping into the kNN hot
    # path — a shared cache line, a histogram on the per-candidate loop.
    echo "=== obs overhead smoke: metrics vs QATK_NO_METRICS ==="
    cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-perf -j "${JOBS}" --target bench_knn_throughput
    cmake -B build-noobs -S . -DCMAKE_BUILD_TYPE=Release \
      -DQATK_NO_METRICS=ON >/dev/null
    cmake --build build-noobs -j "${JOBS}" \
      --target bench_knn_throughput alloc_gate_test
    # The exact allocations-per-request gate holds with recording compiled
    # out too (ctest runs it in the other trees).
    build-noobs/tests/alloc_gate_test
    # Best-of-3 per build: single --quick runs jitter ~±10% on a shared
    # host, which would flake a 95% gate; the max over three runs is what
    # each build can actually do.
    QPS_OBS=0
    QPS_NOOBS=0
    for _ in 1 2 3; do
      build-noobs/bench/bench_knn_throughput --quick \
        --out=build-noobs/BENCH_knn.json
      Q="$(knn_qps build-noobs/BENCH_knn.json)"
      QPS_NOOBS="$(awk -v a="${Q}" -v b="${QPS_NOOBS}" \
        'BEGIN { print (a + 0 > b + 0) ? a : b }')"
      build-perf/bench/bench_knn_throughput --quick \
        --out=build-perf/BENCH_knn.json
      Q="$(knn_qps build-perf/BENCH_knn.json)"
      QPS_OBS="$(awk -v a="${Q}" -v b="${QPS_OBS}" \
        'BEGIN { print (a + 0 > b + 0) ? a : b }')"
    done
    echo "indexed qps: metrics=${QPS_OBS} compiled-out=${QPS_NOOBS}"
    awk -v a="${QPS_OBS}" -v b="${QPS_NOOBS}" 'BEGIN {
      if (a + 0 <= 0 || b + 0 <= 0) { print "missing qps"; exit 1 }
      if (a < 0.95 * b) {
        printf "metrics overhead too high: %.1f < 95%% of %.1f\n", a, b
        exit 1
      }
    }'
    continue
  fi
  # A comma-separated sanitizer list is a valid -fsanitize= value but not a
  # valid directory name; flatten it for the build tree.
  BUILD_DIR="build-san/${STAGE//,/+}"
  echo "=== sanitizer pass: ${STAGE} (build: ${BUILD_DIR}) ==="
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DQATK_SANITIZE="${STAGE}" >/dev/null
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"
done

echo "=== all check stages clean ==="
