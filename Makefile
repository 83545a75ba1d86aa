.PHONY: all build test bench bench-quick bench-compare chaos-quick fuzz-quick scale-quick serve-quick plane-quick golden baseline smoke fmt ci clean

all: build

build:
	dune build

test:
	dune runtest

# Full experiment tables + microbenchmarks; writes BENCH_sweeps.json.
bench:
	dune exec bench/main.exe

# Smallest k per table, no microbenchmarks; writes
# BENCH_sweeps.quick.json. Finishes in seconds — used by ci to keep the
# sweep pipeline (engine, pool, GC accounting, bench records) exercised.
# Drains every table through the one fused task graph and asserts
# whole-run parallel speedup >= 1.0 when both --jobs and the recommended
# domain count are >= 2; on a single-core machine the check is skipped
# with a notice.
bench-quick:
	dune exec bench/main.exe -- --quick

# Diff two bench record files (any BENCH_*.json, or a baseline under
# bench/baseline/): fails on any exact-field drift and on a measured
# field (walls, GC words) grown by more than 20% and 1 unit.
# Usage: make bench-compare OLD=baseline.json NEW=BENCH_sweeps.json
bench-compare:
	dune exec tools/bench_compare/bench_compare.exe -- $(OLD) $(NEW)

# Chaos grid only (smallest k): fault schedules vs the bSM oracle.
# Writes BENCH_chaos.quick.json and fails on any within-budget
# violation. Deterministic in the chaos seeds.
chaos-quick:
	dune exec bench/main.exe -- --chaos-quick

# Deterministic decoder fuzzing over every registered codec (the
# Codec_corpus): per codec, 500 clean round-trips plus 500 mutated-frame
# decodes — 20k decoder invocations, fully seeded, well under a second.
# Any exception other than Wire.Malformed fails the run.
fuzz-quick:
	dune exec bin/main.exe -- fuzz --cases 500

# Message-plane micro-bench: the three legs of the batched delivery
# path (arena encode, engine delivery pass, zero-copy slice decode),
# timed separately. Writes BENCH_plane.json; the *_ms walls are measured
# fields, the counters and fingerprint exact. Finishes in under a second.
plane-quick:
	dune exec bench/plane.exe

# T-scale gate: GS + sharded early-exit verification on implicit (Flat)
# instances at k = 10^3 (both families), seq==par shard identity
# enforced. Writes BENCH_scale.quick.json; finishes in seconds.
scale-quick:
	dune exec bin/main.exe -- bench --scale --quick

# Serving smoke: 100 instances through the daemon core over the
# in-process ring transport (the real wire path: encode, admit,
# schedule, execute, respond). Exits non-zero unless every instance
# matches; writes BENCH_serve.quick.json. Finishes in ~3 s.
serve-quick:
	dune exec bin/main.exe -- load --instances 100 --jobs 2 --out BENCH_serve.quick.json

# Golden reports: `bsm run -v` for bipartite/unauth at k = 4, 8, 16 and
# one-sided/unauth at k = 8, 16, diffed byte for byte against
# test/golden/*.txt. Pins the majority-proxy vote and general phase king
# (both group through Util.group_by). About 2 s.
golden:
	dune build @golden

# Counter gate: diff the fresh quick outputs against the committed
# exact-only records in bench/baseline/. Fails on any drift of a
# deterministic field (messages, bytes, rounds, proposals, fingerprints,
# rounds-to-recovery); walls are not in the baseline, so never compared.
# A deliberate change regenerates a baseline by emptying the measured
# objects of the quick output, e.g. for scale:
#   sed 's/"measured": {[^}]*}/"measured": {}/' BENCH_scale.quick.json > bench/baseline/scale.quick.json
baseline: chaos-quick scale-quick serve-quick plane-quick
	dune exec tools/bench_compare/bench_compare.exe -- bench/baseline/chaos.quick.json BENCH_chaos.quick.json
	dune exec tools/bench_compare/bench_compare.exe -- bench/baseline/scale.quick.json BENCH_scale.quick.json
	dune exec tools/bench_compare/bench_compare.exe -- bench/baseline/serve.quick.json BENCH_serve.quick.json
	dune exec tools/bench_compare/bench_compare.exe -- bench/baseline/plane.quick.json BENCH_plane.json

# Fast tier-1 exercise of the domain pool: one small parallel sweep,
# asserted bit-identical to its sequential run.
smoke:
	dune exec test/test_sweep.exe

# Format check. Skipped (with a notice) when ocamlformat is not
# installed, as on the bench container; the version pin lives in
# .ocamlformat.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not found; skipping format check"; \
	fi

ci: build test bench-quick chaos-quick fuzz-quick scale-quick serve-quick plane-quick golden baseline fmt

clean:
	dune clean
