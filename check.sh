#!/bin/sh
# CI entry point: build everything, run the full test suite on the default
# plan and with every launch on the fiber path (the tree-engine oracle,
# GROVER_FORCE_PATH=fiber), smoke-test groverc (--verify-each over the example
# kernels; any error-severity diagnostic makes groverc exit non-zero and
# fails the run), gate Table IV at scales 1 and 8 and Fig. 2, Fig. 10 and
# the ablations at scale 1 against their checked-in output, then the
# interpreter throughput bench at a small size so the perf target cannot
# bit-rot.
set -eu

cd "$(dirname "$0")"

echo "== dune build @all =="
dune build @all

echo "== dune build @fmt =="
# Formatting gate, skipped when the container lacks ocamlformat.
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "(ocamlformat not installed; skipped)"
fi

echo "== dune runtest (default plan) =="
dune runtest --force

echo "== dune runtest (every launch on the fiber path: tree engine) =="
GROVER_FORCE_PATH=fiber dune runtest --force

echo "== paper figures: Table IV at scales 1 and 8 match the checked-in references =="
# The simulated cycles behind Fig. 10 / Table IV must not drift: the table4
# output at scale 1 (the size the end-to-end benchmark's fig10 workload
# runs) and at scale 8 must be byte-identical to the references the
# benchmark gates on (read here, never rewritten).
table4=$(mktemp)
for scale in 1 8; do
  ref=bench/e2e/fig10_table4_scale$scale.txt
  dune exec bench/main.exe -- table4 --scale $scale > "$table4"
  if ! cmp -s "$table4" "$ref"; then
    echo "FAIL: table4 --scale $scale differs from $ref"
    diff "$table4" "$ref" || true
    rm -f "$table4"
    exit 1
  fi
  echo "-- table4 --scale $scale is byte-identical"
done
rm -f "$table4"

echo "== paper figures: Fig. 2, Fig. 10 and the ablations at scale 1 match the checked-in references =="
# fig2 is the only gate on the GPU engine at the paper's size; fig10
# prints every t_with/t_wout to 1 us, finer than table4's two-decimal np;
# ablation's MIC-unifiedLLC has the most cores (60) sharing one cache,
# where the simulator's per-core local/private window matters most. Each
# output must be byte-identical to test/bench_golden/ (read here, never
# rewritten).
fig_out=$(mktemp)
for exp in fig2 fig10 ablation; do
  ref=test/bench_golden/${exp}_scale1.txt
  dune exec bench/main.exe -- $exp --scale 1 > "$fig_out"
  if ! cmp -s "$fig_out" "$ref"; then
    echo "FAIL: $exp --scale 1 differs from $ref"
    diff "$fig_out" "$ref" || true
    rm -f "$fig_out"
    exit 1
  fi
  echo "-- $exp --scale 1 is byte-identical"
done
rm -f "$fig_out"

echo "== a --scale below 1 is a usage error =="
# groverc: every command that takes --scale rejects a non-integer or
# non-positive divisor with a usage message (exit 124), before running
# anything. bench/main.exe prints its usage and exits 2.
for cmd in run sanitize promote autotune; do
  for v in 0 -1 x; do
    status=0
    err=$(dune exec bin/groverc.exe -- $cmd NVD-MT --scale=$v 2>&1 >/dev/null) \
      || status=$?
    case "$status:$err" in
      "124:groverc: option '--scale': invalid scale \"$v\" (want an integer >= 1)"*) ;;
      *) echo "FAIL: groverc $cmd NVD-MT --scale=$v (exit $status):"
         echo "$err"; exit 1 ;;
    esac
  done
done
for v in 0 -1 x; do
  status=0
  err=$(dune exec bench/main.exe -- --scale $v fig2 2>&1 >/dev/null) || status=$?
  case "$status:$err" in
    "2:invalid --scale \"$v\" (want an integer >= 1)"*"usage: "*) ;;
    *) echo "FAIL: bench/main.exe --scale $v fig2 (exit $status):"
       echo "$err"; exit 1 ;;
  esac
done
echo "-- groverc run/sanitize/promote/autotune exit 124, bench/main.exe exits 2"

echo "== suite under every forced execution path =="
# GROVER_FORCE_PATH pins the group scheduler; kernels that cannot take the
# requested path degrade to the strongest one they can. Executing the whole
# suite (both kernel versions, outputs validated, sanitizer on) under each
# of its two values gates both schedulers — lane batches (wg-vec) and
# fiber — on every kernel shape we have.
for mode in wg-vec fiber; do
  echo "-- GROVER_FORCE_PATH=$mode"
  GROVER_FORCE_PATH=$mode dune exec bin/groverc.exe -- sanitize all --scale 8 \
    > /dev/null
done

echo "== a bad GROVER_FORCE_PATH fails every command the same way =="
# groverc checks the variable once, before any command runs: each command
# must print exactly one located GRV-ENV error on stderr and exit 1 (not a
# sanitizer finding, a usage error or an uncaught exception).
for cmd in "report examples/kernels/saxpy.cl" "sanitize examples/kernels/saxpy.cl" \
    "sanitize NVD-MT" "autotune NVD-MT --save=false" "promote NVD-MT --predict" \
    "run NVD-MT"; do
  status=0
  # shellcheck disable=SC2086
  err=$(GROVER_FORCE_PATH=bogus dune exec bin/groverc.exe -- $cmd 2>&1 >/dev/null) \
    || status=$?
  case "$status:$err" in
    '1:$GROVER_FORCE_PATH: error: unknown GROVER_FORCE_PATH "bogus"'*'[GRV-ENV]') ;;
    *) echo "FAIL: GROVER_FORCE_PATH=bogus groverc $cmd (exit $status):"
       echo "$err"; exit 1 ;;
  esac
  if [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ]; then
    echo "FAIL: GROVER_FORCE_PATH=bogus groverc $cmd printed more than one line:"
    echo "$err"; exit 1
  fi
done
echo "-- report, sanitize (file, case), autotune, promote, run: one GRV-ENV error each"

echo "== uniform-branch barrier qualifies for lane-batched execution =="
# A barrier under *group-uniform* control flow must still take a region
# path — and this one is lane-capable, so the planner must pick wg-vec
# (guards against over-conservative region formation AND lane
# classification). It must also execute cleanly under the sanitizer.
out=$(dune exec bin/groverc.exe -- report examples/kernels/uniform_branch_barrier.cl)
case "$out" in
  *"execution path (with local memory): wg-vec"*) ;;
  *) echo "FAIL: uniform_branch_barrier.cl did not plan as wg-vec"
     echo "$out"; exit 1 ;;
esac
dune exec bin/groverc.exe -- sanitize examples/kernels/uniform_branch_barrier.cl \
  --local 16 > /dev/null

echo "== W-wide batches planned for the flagship barrier kernels =="
# Non-vacuousness: W-wide lane batches must actually be selected for the
# transpose and GEMM kernels, or every lane differential and bench row
# silently degrades to the fiber scheduler.
for f in examples/kernels/transpose_tile.cl examples/kernels/gemm_float4.cl; do
  out=$(dune exec bin/groverc.exe -- report "$f")
  case "$out" in
    *"execution path (with local memory): wg-vec, "[0-9]" lanes"*|\
    *"execution path (with local memory): wg-vec, "[0-9][0-9]" lanes"*|\
    *"execution path (with local memory): wg-vec, "[0-9][0-9][0-9]" lanes"*)
      echo "-- $f plans W-wide wg-vec" ;;
    *) echo "FAIL: $f did not plan W-wide wg-vec"; echo "$out"; exit 1 ;;
  esac
done

echo "== W-wide batches planned for a barrier-free (Grover-transformed) kernel =="
# A barrier-free kernel is the one-region case of the lane executor: the
# default plan must not drop Grover's transformed kernels back to fibers.
out=$(dune exec bin/groverc.exe -- report examples/kernels/transpose_tile.cl)
case "$out" in
  *"execution path (local memory disabled): wg-vec, "[0-9]" lanes"*|\
  *"execution path (local memory disabled): wg-vec, "[0-9][0-9]" lanes"*|\
  *"execution path (local memory disabled): wg-vec, "[0-9][0-9][0-9]" lanes"*)
     echo "-- transpose_tile.cl without local memory plans W-wide wg-vec" ;;
  *) echo "FAIL: transpose_tile.cl (local memory disabled) did not plan W-wide wg-vec"
     echo "$out"; exit 1 ;;
esac

echo "== private array across a barrier: fiber plan, clean sanitizer =="
# A region that allocates private memory cannot run as a lane batch, so
# the kernel plans the fiber scheduler; region 0's verdict says why, with
# the private array's position. The region after the barrier reads each
# work-item's private array.
out=$(dune exec bin/groverc.exe -- report examples/kernels/private_array.cl)
case "$out" in
  *"execution path (with local memory): fiber ("*) ;;
  *) echo "FAIL: private_array.cl did not plan as fiber"; echo "$out"; exit 1 ;;
esac
case "$out" in
  *"region 0: forces fibers: private alloca at "[0-9]*:[0-9]*)
     echo "-- private_array.cl region 0 reports its located private alloca" ;;
  *) echo "FAIL: private_array.cl lost its located private-alloca verdict"
     echo "$out"; exit 1 ;;
esac
dune exec bin/groverc.exe -- sanitize examples/kernels/private_array.cl \
  --local 16 > /dev/null

echo "== masked lane execution: guard diamonds and guarded stores run masked, divergent loops bail =="
# The guarded matmul carries the SDK boundary-clamp idiom: a pure
# divergent diamond that must be if-converted and run as a masked lane
# batch (not dropped to fibers), keeping the kernel on wg-vec.
out=$(dune exec bin/groverc.exe -- report examples/kernels/guarded_matmul.cl)
case "$out" in
  *"execution path (with local memory): wg-vec"*) ;;
  *) echo "FAIL: guarded_matmul.cl did not plan as wg-vec"
     echo "$out"; exit 1 ;;
esac
case "$out" in
  *"lane batch (masked"*) echo "-- guarded_matmul.cl runs masked lane batches" ;;
  *) echo "FAIL: guarded_matmul.cl reported no masked region"
     echo "$out"; exit 1 ;;
esac
# A store under a divergent guard runs in a masked arm (only the lanes
# that take the branch store): divergent_store.cl's guarded __local store
# and saxpy.cl's bounds-guarded __global store must plan 256-lane batches
# and report their masked region.
for f in examples/kernels/divergent_store.cl examples/kernels/saxpy.cl; do
  out=$(dune exec bin/groverc.exe -- report "$f")
  case "$out" in
    *"execution path (with local memory): wg-vec, 256 lanes"*) ;;
    *) echo "FAIL: $f did not plan wg-vec, 256 lanes"; echo "$out"; exit 1 ;;
  esac
  case "$out" in
    *"lane batch (masked"*) echo "-- $f runs its guarded store in masked lane batches" ;;
    *) echo "FAIL: $f reported no masked region"; echo "$out"; exit 1 ;;
  esac
done
# A loop whose trip count comes from get_local_id(0) is no diamond: its
# region cannot run as a lane batch, so the barrier-free kernel plans the
# fiber scheduler, and the bail reason must carry the loop branch's source
# location.
out=$(dune exec bin/groverc.exe -- report examples/kernels/divergent_loop.cl)
case "$out" in
  *"execution path (with local memory): fiber ("*) ;;
  *) echo "FAIL: divergent_loop.cl did not plan as fiber"; echo "$out"; exit 1 ;;
esac
case "$out" in
  *"forces fibers: divergent branch arms do not reconverge at 8:24"*)
     echo "-- divergent_loop.cl plans fibers with a located reason" ;;
  *) echo "FAIL: divergent_loop.cl lost its located divergent-branch bail reason"
     echo "$out"; exit 1 ;;
esac
# The masked verdicts must be scriptable: the same region verdicts are
# emitted as GRV-LANE remark diagnostics in JSON mode.
if ! dune exec bin/groverc.exe -- report examples/kernels/guarded_matmul.cl \
    --diag-format=json | grep -q '"code": "GRV-LANE"'; then
  echo "FAIL: report --diag-format=json emitted no GRV-LANE region verdicts"
  exit 1
fi

echo "== groverc --verify-each smoke (examples/kernels) =="
for f in examples/kernels/*.cl; do
  echo "-- $f"
  dune exec bin/groverc.exe -- transform "$f" --verify-each > /dev/null
done

echo "== groverc custom pipeline smoke (suite, all kernels) =="
dune exec bin/groverc.exe -- pipeline all \
  -passes=canon,mem2reg,simplify,cse,dce --time-passes --verify-each \
  > /dev/null

echo "== sanitizer smoke: good corpus and suite must be clean =="
# Static legality passes + shadow-memory sanitizer; any finding exits 1.
dune exec bin/groverc.exe -- sanitize examples/kernels/saxpy.cl > /dev/null
dune exec bin/groverc.exe -- sanitize examples/kernels/transpose_tile.cl \
  --local 16,16 > /dev/null
dune exec bin/groverc.exe -- sanitize examples/kernels/tiled_matmul.cl \
  --global 16,16 --local 8,8 > /dev/null

echo "== sanitizer: a launch geometry the runtime refuses is an error, not a finding =="
# A global size that is not a multiple of the work-group size is checked
# before launching: one located error, exit 1, no GRV-SAN-* code and no
# finding count (only barrier divergence is reported as GRV-SAN-DIV).
status=0
out=$(dune exec bin/groverc.exe -- sanitize examples/kernels/saxpy.cl \
  --global 10 --local 4 2>&1) || status=$?
case "$status:$out" in
  "1:examples/kernels/saxpy.cl: error: [sanitize] global size must be a multiple of the work-group size") ;;
  *) echo "FAIL: sanitize with a bad geometry (exit $status):"; echo "$out"; exit 1 ;;
esac
echo "-- saxpy.cl --global 10 --local 4: located error, exit 1, no finding"
# A work-group of more than 4096 work-items is refused the same way,
# before a tree state per work-item or a buffer is allocated.
status=0
out=$(dune exec bin/groverc.exe -- sanitize examples/kernels/saxpy.cl \
  --global 8192 --local 8192 2>&1) || status=$?
case "$status:$out" in
  "1:examples/kernels/saxpy.cl: error: [sanitize] a work-group holds at most 4096 work-items, not 8192 x 1 x 1") ;;
  *) echo "FAIL: sanitize with an 8192-item group (exit $status):"; echo "$out"; exit 1 ;;
esac
echo "-- saxpy.cl --global 8192 --local 8192: located error, exit 1, no finding"

echo "== sanitizer output: byte-identical to the checked-in references =="
# Findings, their order, their dedup and their messages are the
# sanitizer's contract, not only their codes: `sanitize all --scale 8`
# (stdout and stderr) and the bad corpus's JSON diagnostics must match
# test/sanitize_golden/ byte for byte (read here, never rewritten).
golden=test/sanitize_golden
san_out=$(mktemp)
san_err=$(mktemp)
expect_golden() {
  if ! cmp -s "$1" "$golden/$2"; then
    echo "FAIL: $3: output differs from $golden/$2"
    diff "$1" "$golden/$2" || true
    exit 1
  fi
}
dune exec bin/groverc.exe -- sanitize all --scale 8 > "$san_out" 2> "$san_err"
expect_golden "$san_out" sanitize_all_scale8.out "sanitize all --scale 8 (stdout)"
expect_golden "$san_err" sanitize_all_scale8.err "sanitize all --scale 8 (stderr)"
for k in bad_racy_store bad_divergent_barrier bad_oob_index; do
  if dune exec bin/groverc.exe -- sanitize "examples/kernels/$k.cl" --local 16 \
      --diag-format json > "$san_out"; then
    echo "FAIL: $k.cl exited 0 but must be rejected"; exit 1
  fi
  expect_golden "$san_out" "$k.json" "$k.cl --diag-format json"
done
rm -f "$san_out" "$san_err"
echo "-- sanitize all --scale 8 and the bad corpus are byte-identical"

echo "== groverc output: byte-identical to the checked-in references =="
# groverc has no unit tests of its own. The listings, the suite pipeline
# and promotion, and report / report --diag-format json / transform over
# four example kernels must match test/groverc_golden/ (stdout and stderr)
# byte for byte (read here, never rewritten). No cache directory: a cached
# run adds a cache line to stderr.
golden=test/groverc_golden
g_out=$(mktemp)
g_err=$(mktemp)
expect_groverc() {
  name=$1; shift
  GROVER_CACHE_DIR= dune exec bin/groverc.exe -- "$@" > "$g_out" 2> "$g_err"
  expect_golden "$g_out" "$name.out" "groverc $* (stdout)"
  expect_golden "$g_err" "$name.err" "groverc $* (stderr)"
}
expect_groverc list list
expect_groverc passes passes
expect_groverc pipeline_all pipeline all
expect_groverc promote_all promote all
for k in transpose_tile tiled_matmul guarded_matmul saxpy; do
  expect_groverc "report_$k" report "examples/kernels/$k.cl"
  expect_groverc "report_json_$k" report "examples/kernels/$k.cl" \
    --diag-format json
  expect_groverc "transform_$k" transform "examples/kernels/$k.cl"
done
rm -f "$g_out" "$g_err"
echo "-- groverc listings, pipeline, promote, report and transform are byte-identical"

echo "== sanitizer smoke: bad corpus must be rejected with the right codes =="
expect_bad() {
  f="examples/kernels/$1"; shift
  if out=$(dune exec bin/groverc.exe -- sanitize "$f" --local 16 2>&1); then
    echo "FAIL: $f exited 0 but must be rejected"; exit 1
  fi
  for code in "$@"; do
    case "$out" in
      *"$code"*) ;;
      *) echo "FAIL: $f diagnostics lack $code"; echo "$out"; exit 1 ;;
    esac
  done
  echo "-- $f rejected ($*)"
}
expect_bad bad_racy_store.cl GRV-RACE-MUST GRV-SAN-WW
expect_bad bad_divergent_barrier.cl GRV-BARRIER-DIV GRV-SAN-DIV
expect_bad bad_oob_index.cl GRV-OOB-STATIC GRV-SAN-OOB

echo "== autotune with auto domains, default plan and fiber path (validated wallclock) =="
# The host-throughput phase verifies kernel output per measured run, so a
# chunked-parallel miscompute fails this step (not just slows it down).
# The winner is persisted to a throwaway DB, which must gain an entry. The
# saved line names the plan that was timed and its batch width: W-wide
# lanes on the default plan; the fiber path with no lane count under
# GROVER_FORCE_PATH=fiber, which times the tree-engine oracle.
tunedir=$(mktemp -d)
out=$(dune exec bin/groverc.exe -- autotune NVD-MT --domains 0 \
  --cache-dir "$tunedir")
case "$out" in
  *"  saved: "*" path, "[0-9]*" lanes] for "*) ;;
  *) echo "FAIL: autotune on the default plan saved no W-wide line"
     echo "$out"; exit 1 ;;
esac
out=$(GROVER_FORCE_PATH=fiber dune exec bin/groverc.exe -- autotune NVD-MT \
  --domains 0 --cache-dir "$tunedir")
case "$out" in
  *"  saved: "*" [fiber path] for "*) ;;
  *) echo "FAIL: autotune under GROVER_FORCE_PATH=fiber saved no [fiber path] line"
     echo "$out"; exit 1 ;;
esac
if ! grep -q "transpose" "$tunedir/autotune.db"; then
  echo "FAIL: autotune did not persist a transpose entry to $tunedir/autotune.db"
  exit 1
fi
echo "-- autotune.db holds $(wc -l < "$tunedir/autotune.db") entry(ies)"
rm -rf "$tunedir"

echo "== promote: bidirectional optimizer over the whole suite (--predict) =="
# The insertion direction: every suite kernel must get a verdict (promoted
# or a stated refusal), every promoted kernel must pass race certification,
# the sanitizer and output validation (groverc promote exits non-zero
# otherwise), and the predictor-ranked winner is recorded to a throwaway
# autotune DB with predictor provenance.
promodir=$(mktemp -d)
dune exec bin/groverc.exe -- promote all --predict --cache-dir "$promodir" \
  > /tmp/grover_promote_out
verdicts=$(grep -c -E "(promoted [0-9]+ load|no promotion)" /tmp/grover_promote_out || true)
ncases=$(dune exec bin/groverc.exe -- list | wc -l)
if [ "$verdicts" -ne "$ncases" ]; then
  echo "FAIL: promote all gave $verdicts verdicts for $ncases suite kernels"
  cat /tmp/grover_promote_out
  exit 1
fi
if ! grep -q "promoted [0-9]* load" /tmp/grover_promote_out; then
  echo "FAIL: promote all promoted nothing (the insertion direction is vacuous)"
  cat /tmp/grover_promote_out
  exit 1
fi
if ! grep -q "tuned-by: predictor" /tmp/grover_promote_out; then
  echo "FAIL: promote --predict recorded no predictor-provenance entries"
  exit 1
fi
if ! grep -q "predictor" "$promodir/autotune.db"; then
  echo "FAIL: $promodir/autotune.db holds no predictor-tagged entries"
  exit 1
fi
dune exec bin/groverc.exe -- cache stats --cache-dir "$promodir" \
  | grep "autotune entries:"
echo "-- promote all: $verdicts verdicts, promoted kernels validated"
rm -rf "$promodir" /tmp/grover_promote_out

echo "== compile cache: warm run hits the disk tier and replays identically =="
# The whole suite is compiled twice through a fresh cache directory in two
# separate processes. The second run must (a) print byte-identical stdout
# (the staged artifact replays reports and counts exactly) and (b) report
# only cache hits on stderr — zero rebuilds.
cachedir=$(mktemp -d)
dune exec bin/groverc.exe -- pipeline all --cache-dir "$cachedir" \
  > /tmp/grover_cache_out1 2> /tmp/grover_cache_err1
dune exec bin/groverc.exe -- pipeline all --cache-dir "$cachedir" \
  > /tmp/grover_cache_out2 2> /tmp/grover_cache_err2
if ! cmp -s /tmp/grover_cache_out1 /tmp/grover_cache_out2; then
  echo "FAIL: cached pipeline runs differ on stdout"
  diff /tmp/grover_cache_out1 /tmp/grover_cache_out2 || true
  exit 1
fi
warmline=$(grep '^cache:' /tmp/grover_cache_err2 || true)
case "$warmline" in
  *" 0 disk hits"*|"")
    echo "FAIL: warm run reported no disk hits: $warmline"
    exit 1 ;;
esac
case "$warmline" in
  *" 0 misses"*) echo "-- warm run: $warmline" ;;
  *) echo "FAIL: warm run still rebuilt something: $warmline"; exit 1 ;;
esac

echo "== compile cache: two cold runs at once build each artifact once =="
# Two processes start the same suite compile together on a fresh
# directory (the built binary, so neither waits on dune). Each artifact
# file is its own lock: between them they build every key once, so their
# misses sum to the artifacts on disk, the directory holds nothing but
# artifacts, and each prints what the sequential cold run printed.
cachedir2=$(mktemp -d)
groverc=_build/default/bin/groverc.exe
"$groverc" pipeline all --cache-dir "$cachedir2" \
  > /tmp/grover_cache_out3 2> /tmp/grover_cache_err3 &
pid=$!
"$groverc" pipeline all --cache-dir "$cachedir2" \
  > /tmp/grover_cache_out4 2> /tmp/grover_cache_err4
wait $pid
for n in 3 4; do
  if ! cmp -s /tmp/grover_cache_out1 /tmp/grover_cache_out$n; then
    echo "FAIL: a concurrent cold run differs on stdout from the sequential one"
    diff /tmp/grover_cache_out1 /tmp/grover_cache_out$n || true
    exit 1
  fi
done
misses=$(cat /tmp/grover_cache_err3 /tmp/grover_cache_err4 | grep '^cache:' \
  | sed 's/.* \([0-9][0-9]*\) miss.*/\1/' | awk '{ s += $1 } END { print s + 0 }')
arts=$(ls "$cachedir2" | grep -c '\.art$' || true)
others=$(ls "$cachedir2" | grep -v '\.art$' || true)
if [ "$misses" -ne "$arts" ] || [ -n "$others" ]; then
  echo "FAIL: two concurrent cold runs missed $misses times for $arts artifacts"
  grep '^cache:' /tmp/grover_cache_err3 /tmp/grover_cache_err4 || true
  ls "$cachedir2"
  exit 1
fi
echo "-- concurrent cold runs: $misses misses, $arts artifacts, nothing else"
rm -rf "$cachedir" "$cachedir2" /tmp/grover_cache_out1 /tmp/grover_cache_out2 \
  /tmp/grover_cache_out3 /tmp/grover_cache_out4 /tmp/grover_cache_err1 \
  /tmp/grover_cache_err2 /tmp/grover_cache_err3 /tmp/grover_cache_err4

echo "== groverc run: out-of-order queue over the whole suite =="
# Every (case, version) pair twice through one command queue; outputs are
# validated against the host references, so a scheduling bug that leaks
# across launches fails the step, not just slows it.
dune exec bin/groverc.exe -- run all --jobs 2 --scale 8

echo "== bench perf --quick --check-scaling --multi-launch =="
# --check-scaling fails the run if the auto-domain row is >10% slower
# than domains=1 on any measured path, and its multi-launch row fails if
# queued submission of the suite is >10% below sequential (queue
# bookkeeping must be free even on one domain). --multi-launch adds the
# differential (queued buffers and totals bit-identical to sequential)
# and, on hosts with >= 2 effective domains, a >= 1.3x pipelining gate.
# Quick mode must never rewrite the checked-in full-size measurement
# (BENCH_interp.json).
if [ -f BENCH_interp.json ]; then
  bench_sum=$(cksum BENCH_interp.json)
else
  bench_sum=absent
fi
dune exec bench/main.exe -- perf --quick --check-scaling --multi-launch
if [ -f BENCH_interp.json ]; then
  bench_sum_after=$(cksum BENCH_interp.json)
else
  bench_sum_after=absent
fi
if [ "$bench_sum" != "$bench_sum_after" ]; then
  echo "FAIL: bench perf --quick rewrote BENCH_interp.json"
  exit 1
fi
