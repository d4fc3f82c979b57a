#!/usr/bin/env bash
# Runs the full static-analysis stack over the repository:
#
#   1. analock-verify              (the repo's one static analyzer:
#                                   interprocedural secret taint,
#                                   guarded_by lock checks, determinism,
#                                   parallel-region safety, lock-order
#                                   cycles, FP bit-exactness, constant-
#                                   time flow; built on demand) over
#                                   src bench examples tests tools
#   2. analock-verify self-test    (golden // expect: fixtures, including
#                                   the parallelism and constant-time
#                                   fixtures)
#   3. SARIF structure check       (2.1.0 shape of both emitted logs)
#   4. clang-tidy                  (curated .clang-tidy profile; skipped
#                                   with a notice when not installed)
#
# Value-unsafe FP compiler flags are rejected when CMake configures the
# build (cmake/fp_flags.cmake), so every configure below checks them.
#
# Usage: tools/run_static_analysis.sh [build-dir]
#
# The build dir (default: build) hosts the analock_verify binary and the
# compile_commands.json consumed by clang-tidy; the top-level CMakeLists
# exports the database unconditionally, so one configure serves both.
# analock-verify writes analock_verify.sarif (the repository scan) and
# analock_fixtures.sarif (the fixture scan) into the build dir; both are
# validated against the SARIF 2.1.0 structure (check_sarif.py).
#
# Every stage records pass/fail/skip and the script prints a summary at
# the end; the exit status aggregates ALL stages that ran, so a passing
# later stage can never mask an earlier failure.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
VERIFY_BIN="$BUILD_DIR/tools/analock_verify/analock_verify"

STAGE_NAMES=()
STAGE_RESULTS=()
STATUS=0

# record <name> <result: pass|FAIL|skip>
record() {
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("$2")
  if [ "$2" = "FAIL" ]; then
    STATUS=1
  fi
}

# run_stage <name> <command...> — runs the command, records pass/FAIL.
run_stage() {
  local name="$1"
  shift
  echo
  echo "== $name =="
  if "$@"; then
    record "$name" pass
  else
    record "$name" FAIL
  fi
}

echo
echo "== analock-verify: build =="
if [ ! -x "$VERIFY_BIN" ]; then
  echo "analock_verify not built; configuring and building..."
  cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null \
    && cmake --build "$BUILD_DIR" --target analock_verify -j >/dev/null
fi

if [ -x "$VERIFY_BIN" ]; then
  SARIF_OUT="$BUILD_DIR/analock_verify.sarif"
  FIXTURE_SARIF_OUT="$BUILD_DIR/analock_fixtures.sarif"

  run_stage "analock-verify: repository scan" \
    "$VERIFY_BIN" --root "$ROOT/src" --root "$ROOT/bench" \
    --root "$ROOT/examples" --root "$ROOT/tests" --root "$ROOT/tools" \
    --diff-baseline "$ROOT/tools/analock_verify/baseline.sarif" \
    --sarif "$SARIF_OUT"

  # The fixture tree includes parallel/ and ct/; ctest also runs those
  # two subtrees as gates of their own.
  run_stage "analock-verify: fixture self-test" \
    "$VERIFY_BIN" --self-test "$ROOT/tests/verify_fixtures"

  # Fixture scan as a SARIF log: CI merges this with the repository
  # scan into one artifact, and the schema check guards the emitter on a
  # log that is guaranteed to carry results.
  run_stage "analock-verify: fixture SARIF emit" \
    "$VERIFY_BIN" --root "$ROOT/tests/verify_fixtures" \
    --sarif "$FIXTURE_SARIF_OUT" --exit-zero

  run_stage "analock-verify: SARIF structure check (repo)" \
    python3 "$ROOT/tools/analock_verify/check_sarif.py" "$SARIF_OUT"

  run_stage "analock-verify: SARIF structure check (fixtures)" \
    python3 "$ROOT/tools/analock_verify/check_sarif.py" \
    "$FIXTURE_SARIF_OUT" --require-results
else
  echo "could not build analock_verify."
  record "analock-verify: build" FAIL
fi

echo
echo "== clang-tidy =="
if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy not installed; skipping (the .clang-tidy profile at"
  echo "the repo root applies when it is available)."
  record "clang-tidy" skip
else
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "no compile_commands.json in $BUILD_DIR; configuring..."
    cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null
  fi
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    record "clang-tidy" FAIL
  else
    # Product sources only: tests/benches link against gtest/benchmark
    # whose headers are outside the profile's remit.
    mapfile -t SOURCES < <(find "$ROOT/src" "$ROOT/tools" -name '*.cpp' | sort)
    TIDY_OK=1
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p "$BUILD_DIR" -quiet "${SOURCES[@]}" || TIDY_OK=0
    else
      for src in "${SOURCES[@]}"; do
        clang-tidy -p "$BUILD_DIR" --quiet "$src" || TIDY_OK=0
      done
    fi
    if [ "$TIDY_OK" = 1 ]; then
      record "clang-tidy" pass
    else
      record "clang-tidy" FAIL
    fi
  fi
fi

echo
echo "== summary =="
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %-48s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done
if [ "$STATUS" -ne 0 ]; then
  echo "static analysis: FAILED (see stages marked FAIL above)"
else
  echo "static analysis: all executed stages passed"
fi
exit $STATUS
