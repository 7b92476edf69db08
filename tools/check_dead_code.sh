#!/usr/bin/env bash
# Census of library code that no product binary calls.
#
# Builds the tree in a separate directory with every function in its own
# section, no inlining, and a section-collecting link:
#
#     -O1 -fno-inline -ffunction-sections -fdata-sections  -Wl,--gc-sections
#
# so a function survives into a linked binary only if that binary calls
# it. It then lists every xp:: function defined in the seven layer
# libraries (libxp_<layer>.a) that appears in no bench, example or tool
# binary, and fails on any such function the allowlist below does not
# name, and on any allowlist entry that names nothing. Tests are not
# product binaries: a helper that only a test reaches belongs in the test.
#
# The printout is the census: symbol counts, then each unreached function
# with the reason that keeps it.
#
# Usage: tools/check_dead_code.sh [build-dir]   (default: build-census)
set -u

cd "$(dirname "$0")/.."
BUILD=${1:-build-census}
JOBS=${JOBS:-$(nproc)}

# Pairs: an extended regex over the demangled symbol, then why it stays.
# One entry may cover a template's instantiations or one class's test
# seam.
ALLOWLIST=(
  '^xp::lab::register_scenario\('
      'extension point: add a scenario'
  '^xp::core::register_estimator\('
      'extension point: add an estimator'
  '^xp::video::register_policy\('
      'extension point: add a treatment policy'
  '^xp::video::policy_names'
      'extension point: list the treatment policies'
  '^xp::util::StringRegistry<.*>::(add|names)'
      'extension point: the registries behind the four above'
  '^xp::core::Estimator::estimate\('
      'extension point: the serial estimate contract'
  '^xp::stats::bootstrap_two_sample_ci\('
      'test reference: the sort-path bootstrap the rank-count kernel is pinned to'
  '^xp::stats::Rng::poisson\('
      'test reference: BatchedRng::poisson is pinned to it'
  '^xp::sim::DropTailQueue::byte_count\('
      'test observer: queue occupancy in bytes'
  '^xp::sim::Link::queueing_delay\('
      'test observer: link queueing delay'
  '^xp::sim::EventQueue::next_time\('
      'test observer: time of the next event'
  '^xp::sim::Simulator::run\(\)'
      'test seam: run until the queue is empty'
  '^xp::core::CellAccumulator::cell_stats\('
      'test observer: one hourly cell of a sketch'
  '^xp::lab::CellJournal::truncated_bytes\('
      'test observer: bytes cut from a torn journal tail'
  '^xp::video::SessionPool::inject_spurious_rebuffer\('
      'test seam: a content-driven stall in a pool of one'
  '^xp::util::Runner::thread_count\('
      'perfbench caller: reports the pool size'
  '^xp::core::(DataSource::~DataSource|Estimator::~Estimator)\('
      'compiler: empty virtual base destructors, whose calls -O1 folds away'
)

echo "census: building ${BUILD} (Debug, -O1 -fno-inline, --gc-sections)"
cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug -DXP_BUILD_TESTS=OFF \
  -DXP_BUILD_BENCHES=ON -DXP_BUILD_EXAMPLES=ON \
  -DCMAKE_CXX_FLAGS="-O1 -fno-inline -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null || exit 1
if ! cmake --build "$BUILD" -j "$JOBS" >/dev/null; then
  echo "FAIL: census build failed; run cmake --build $BUILD to see why"
  exit 1
fi
if [[ ! -x "$BUILD/bench_micro" ]]; then
  echo "FAIL: bench_micro was not built (google-benchmark missing?);" \
       "the census needs every product binary"
  exit 1
fi

LIBS=()
for layer in util stats sim video core trace lab; do
  LIBS+=("$BUILD/libxp_${layer}.a")
done
BINS=("$BUILD"/bench_* "$BUILD"/example_* "$BUILD/xp_run"
      "$BUILD/xp_trace_export")

# Defined functions whose mangled name is in namespace xp (nested names
# and lambdas local to xp functions; not std:: templates over xp types),
# demangled so constructor and destructor variants fold into one line.
xp_functions() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZZ?N[KVRO]*2xp/ { print $3 }' |
    c++filt | sed 's/ \[clone [^]]*\]//g' | sort -u
}

lib=$(xp_functions "${LIBS[@]}")
mapfile -t unreached < <(comm -23 <(echo "$lib") <(xp_functions "${BINS[@]}"))
echo "census: $(wc -l <<<"$lib") xp:: functions in ${#LIBS[@]} layer" \
     "libraries, ${#unreached[@]} reached by none of ${#BINS[@]} product" \
     "binaries"

declare -A hits
dead=0
for symbol in "${unreached[@]}"; do
  reason=""
  for ((i = 0; i < ${#ALLOWLIST[@]}; i += 2)); do
    if [[ $symbol =~ ${ALLOWLIST[i]} ]]; then
      reason=${ALLOWLIST[i + 1]}
      hits[$i]=1
      break
    fi
  done
  if [[ -n "$reason" ]]; then
    echo "  kept  ${symbol}"
    echo "        ${reason}"
  else
    echo "  DEAD  ${symbol}"
    dead=$((dead + 1))
  fi
done

stale=0
for ((i = 0; i < ${#ALLOWLIST[@]}; i += 2)); do
  if [[ -z "${hits[$i]:-}" ]]; then
    echo "  STALE allowlist entry matches nothing: ${ALLOWLIST[i]}"
    stale=$((stale + 1))
  fi
done

if ((dead + stale > 0)); then
  echo "FAIL: ${dead} unreached function(s) not allowlisted, ${stale}" \
       "stale allowlist entr(ies). Delete the code, move a test-only" \
       "helper into its test, or allowlist it with a reason."
  exit 1
fi
echo "OK: every unreached function is allowlisted" \
     "($((${#ALLOWLIST[@]} / 2)) entries)"
