#!/bin/sh
# One-shot verification gate: build, run every test suite, then run the
# linter's self-test battery (also available as `dune build @check`).
# Exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune build @quick =="
# sub-minute inner-loop suites (tensor/nn equivalence, MCTS, pbqp, trail
# state, the Nn.Infer counted call); the full matrix follows, this just
# fails fast on the cheap ones
dune build @quick

echo "== dune build @golden =="
# recorded outputs of fixed-seed runs (GOLDEN): the train smoke's net,
# optimizer and replay digests and a batch-corpus subset's search
# counters; any changed bit fails (also part of `dune runtest`)
dune build @golden

echo "== dune build @analyze =="
# the repo's own static analysis (lib/analyze): guarded-by lock regions,
# lock-order cycles, hash-order/Random nondeterminism and the [@hot]
# allocation lint over lib/ and bin/; any finding whose rule|file|symbol
# key is not in ANALYZE_BASELINE fails the gate
dune build @analyze

echo "== pbqp_analyze --json =="
# same gate, machine-readable: non-zero exit on any unbaselined finding
dune exec bin/pbqp_analyze.exe -- --json --baseline ANALYZE_BASELINE lib bin

echo "== dune runtest =="
dune runtest

echo "== dune build @gemm =="
# GEMM-kernel equivalence suite: the packed-panel fused kernels bitwise
# against the naive reference, and the floatarray bridges
dune build @gemm

echo "== dune build @par =="
# parallel-runtime equivalence suite: pool semantics, and the train step
# and whole training runs bit-identical to serial at every pool size
dune build @par

echo "== dune build @incr =="
# incremental-state/evaluation-cache equivalence suite: trail apply/undo,
# cursor seeks and roll-outs vs the persistent State oracle (bitwise),
# Nn.Cache LRU/version semantics, episodes and solves vs the persistent
# reference drivers with the cache off and on, and training runs across
# {cache off, on} x domains
dune build @incr

echo "== dune build @exact =="
# exact-solver differential suite: 500 seeded graphs exact-vs-brute,
# family floor sweeps (no solver ever below the proven optimum), bound
# admissibility / budget-determinism properties, the Certify exact
# oracle, label round-trips, and the minimized fixture corpus
dune build @exact

echo "== dune build @serve =="
# inference-service equivalence suite: a Nn.Infer submit is one counted
# forward row on the caller's replica (it never waits on another worker;
# a forward exception reaches only its submitter), Nn.Cache consistency
# under domains, and bitwise episodes/training runs across service pool
# sizes x {cache off, on}
dune build @serve

echo "== dune build @daemon =="
# allocation-service suite: the Serve.Wire codec and malformed-frame
# rejection, daemon admission control, deadlines, hot-reload, the
# 4-concurrent-clients-bitwise-=-serial determinism claim (Infer rows =
# rl leaf evaluations - cache hits = forward rows)
dune build @daemon

echo "== dune build @dist =="
# distributed actor/learner suite: manifest and message codecs, binary
# parameter-snapshot round trips, the sharded replay vs the plain ring,
# the weighted (staleness) train step, and the whole-run equalities
# (--actors 1 = in-process bitwise; multi-actor runs bit-reproducible,
# with the learner's frames and payload bytes per iteration pinned)
dune build @dist

echo "== multi-domain smoke (train -j 2 --eval-cache --check) =="
# a tiny end-to-end training run on the domain pool with per-episode
# solution certification on, exercising pool self-play on the trail
# state with the shared striped evaluation cache + the data-parallel
# gradient step + the arena under the checker
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
dune exec bin/train.exe -- -i 1 -e 4 -j 2 -k 8 --n-mean 8 --check \
  --eval-cache 512 --batch 8 -o "$smoke_dir/smoke.ckpt"
test -f "$smoke_dir/smoke.ckpt"

echo "== plain smoke (train -j 2) =="
# the same tiny run without the evaluation cache: every search leaf is
# a forward on its own worker's replica (still under the checker)
dune exec bin/train.exe -- -i 1 -e 4 -j 2 -k 8 --n-mean 8 --check \
  --batch 8 -o "$smoke_dir/plain.ckpt"
test -f "$smoke_dir/plain.ckpt"

echo "== distributed smoke (2 actor subprocesses vs single-process) =="
# the real subprocess topology: one in-process reference run, then a
# --actors 1 run (must produce a bitwise-identical net checkpoint and
# replay buffer on the same seed), then two --actors 2 runs with a
# seeded manifest (their learner replay digests must agree with each
# other — bit-reproducibility across invocations)
train=./_build/default/bin/train.exe
dist_args="-i 1 -e 4 -j 1 -k 6 --n-mean 6 --batch 8 --seed 11"
"$train" $dist_args --checkpoint "$smoke_dir/ref" \
  -o "$smoke_dir/ref.ckpt" > /dev/null
"$train" $dist_args --checkpoint "$smoke_dir/d1" --actors 1 \
  --manifest "$smoke_dir/d1.manifest" -o "$smoke_dir/d1.ckpt" > /dev/null
cmp "$smoke_dir/ref.ckpt" "$smoke_dir/d1.ckpt" || {
  echo "--actors 1 net checkpoint differs from the in-process run"; exit 1
}
cmp "$smoke_dir/ref.replay.txt" "$smoke_dir/d1.replay.txt" || {
  echo "--actors 1 replay buffer differs from the in-process run"; exit 1
}
"$train" $dist_args --checkpoint "$smoke_dir/d2a" --actors 2 \
  --manifest "$smoke_dir/d2a.manifest" -o "$smoke_dir/d2a.ckpt" > /dev/null
"$train" $dist_args --checkpoint "$smoke_dir/d2b" --actors 2 \
  --manifest "$smoke_dir/d2b.manifest" -o "$smoke_dir/d2b.ckpt" > /dev/null
cmp "$smoke_dir/d2a.replay.txt" "$smoke_dir/d2b.replay.txt" || {
  echo "2-actor learner replay digest not reproducible across runs"; exit 1
}
cmp "$smoke_dir/d2a.ckpt" "$smoke_dir/d2b.ckpt" || {
  echo "2-actor net checkpoint not reproducible across runs"; exit 1
}

echo "== allocation daemon smoke (4 concurrent clients vs batch CLI) =="
# start the daemon on a scratch socket, drive it with 4 concurrent
# clients, check every daemon answer against the batch CLI on the same
# instance, push one rl solve through the inference service, query stats,
# then SIGTERM and require a clean drain (exit 0, socket unlinked)
serve=./_build/default/bin/pbqp_serve.exe
solve=./_build/default/bin/pbqp_solve.exe
daemon_sock="$smoke_dir/pbqp_serve.sock"
"$serve" daemon --socket "$daemon_sock" -m 2 --workers 2 \
  > "$smoke_dir/daemon.log" 2>&1 &
daemon_pid=$!
i=0
until "$serve" ping --socket "$daemon_sock" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 100 ]; then
    echo "daemon never came up"; cat "$smoke_dir/daemon.log"; exit 1
  fi
  sleep 0.1
done
smoke_fixtures="mrv_01 mrv_02 greedy_01 negative_00"
client_pids=""
for f in $smoke_fixtures; do
  "$serve" solve --socket "$daemon_sock" "test/fixtures/exact/$f.pbqp" \
    > "$smoke_dir/$f.daemon" 2>/dev/null &
  client_pids="$client_pids $!"
done
for p in $client_pids; do wait "$p"; done
for f in $smoke_fixtures; do
  want=$("$solve" -s scholz "test/fixtures/exact/$f.pbqp" \
    | sed -n 's/.*cost \([-0-9.]*\).*/\1/p' | head -1)
  got=$(sed -n 's/^cost \(.*\)$/\1/p' "$smoke_dir/$f.daemon")
  if [ "$got" != "$want" ]; then
    echo "daemon $f: cost $got != batch CLI cost $want"; exit 1
  fi
done
"$serve" solve --socket "$daemon_sock" -s rl -k 8 \
  test/fixtures/exact/mrv_01.pbqp > /dev/null
"$serve" stats --socket "$daemon_sock" | grep -q '^served ' || {
  echo "stats reply missing the served counter"; exit 1
}
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "daemon exited non-zero after SIGTERM"; exit 1; }
if [ -e "$daemon_sock" ]; then echo "socket not unlinked on drain"; exit 1; fi

echo "== bench --compare vs checked-in trajectory (gap group) =="
# optimality-gap gate: re-prove every family optimum with the exact
# branch-and-bound solver and fail on a >25% growth in branch-and-bound
# nodes per proof vs the checked-in BENCH_gap.json — the prover is
# deterministic, so this only moves on a real algorithmic regression
# (weakened bound or branching)
dune exec bench/main.exe -- gap --compare BENCH_gap.json

echo "== pbqp_lint --self-test =="
dune exec bin/pbqp_lint.exe -- --self-test

echo "== pbqp_lint --gen 50 --certify =="
dune exec bin/pbqp_lint.exe -- --gen 50 --certify

echo "== pbqp_lint --fuzz 25 (exact routing, quick profile) =="
# differential fuzzing of compiled MiniC programs with every PBQP graph
# of at most 24 live vertices also certified against the exact solver's
# proven optimum (--gap-vertices default); a claimed allocator cost
# below the optimum is an error
dune exec bin/pbqp_lint.exe -- --fuzz 25 --gap-nodes 500000

echo "all checks passed"
