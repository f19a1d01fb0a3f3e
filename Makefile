# Convenience targets; everything is plain dune underneath.

.PHONY: all test bench bench-smoke trace-smoke chaos-smoke snapshot-smoke arena-smoke serve-smoke serve-stress migrate-smoke cap-smoke examples doc clean

all:
	dune build @all

# The full gate: unit/property tests, then the two smoke passes that
# check what the unit tests cannot — byte-determinism of the modeled
# benches and of the trace exporters.
test:
	dune runtest
	$(MAKE) trace-smoke
	$(MAKE) chaos-smoke
	$(MAKE) snapshot-smoke
	$(MAKE) arena-smoke
	$(MAKE) serve-smoke
	$(MAKE) serve-stress
	$(MAKE) migrate-smoke
	$(MAKE) bench-smoke
	$(MAKE) cap-smoke

bench:
	dune exec bench/main.exe

# Fast sanity pass: fig1 and c1 plus the throughput experiment, with a
# determinism check — the modeled-cycle output must be byte-identical
# across runs.  The host-time tables (bechamel ns/run, wall-clock) are
# stripped first: they measure the host and are expected to wobble.
BENCH_NOISE_FILTER = sed -e '/micro-benchmark/,/^$$/d' \
                         -e '/host wall-clock/,/^$$/d' \
                         -e '/host time/,/^$$/d'

bench-smoke:
	dune build bench/main.exe
	_build/default/bench/main.exe fig1 c1 | $(BENCH_NOISE_FILTER) > /tmp/bench_smoke_a.out
	_build/default/bench/main.exe fig1 c1 | $(BENCH_NOISE_FILTER) > /tmp/bench_smoke_b.out
	@diff /tmp/bench_smoke_a.out /tmp/bench_smoke_b.out \
	  && echo "bench-smoke: modeled-cycle output deterministic" \
	  || { echo "bench-smoke: modeled-cycle output DIFFERS between runs"; exit 1; }
	_build/default/bench/main.exe throughput

# Run the demo program with every exporter on, twice: each output must
# be well-formed JSON and byte-identical across runs (the exporters
# read modeled state only, never the host clock).
trace-smoke:
	dune build bin/ringsim.exe bin/jsoncheck.exe
	@for run in a b; do \
	  _build/default/bin/ringsim.exe examples/programs/demo.rng \
	    --trace-out /tmp/trace_smoke_$$run.json \
	    --events-out /tmp/trace_smoke_$$run.jsonl \
	    --metrics-out /tmp/trace_smoke_$$run.metrics.json \
	    --metrics-prom /tmp/trace_smoke_$$run.prom \
	    --profile > /tmp/trace_smoke_$$run.out || exit 1; \
	done
	_build/default/bin/jsoncheck.exe /tmp/trace_smoke_a.json \
	  /tmp/trace_smoke_a.jsonl /tmp/trace_smoke_a.metrics.json
	@for f in json jsonl metrics.json prom out; do \
	  diff /tmp/trace_smoke_a.$$f /tmp/trace_smoke_b.$$f \
	    || { echo "trace-smoke: $$f output DIFFERS between runs"; exit 1; }; \
	done
	@echo "trace-smoke: exporter output well-formed and deterministic"
	@# A fully-traced fleet at --sample 8, run twice: the merged Chrome
	@# trace, metrics and report must be byte-identical across runs, and
	@# the trace must not depend on the shard count — a request's trace
	@# is a function of the request, not of where it ran.
	@for run in a b; do \
	  _build/default/bin/ringsim.exe serve --shards 4 --requests 100 --seed 7 \
	    --queue-cap 256 --sample 8 \
	    --trace-out /tmp/trace_smoke_serve_$$run.json \
	    --metrics-out /tmp/trace_smoke_serve_$$run.metrics.json \
	    --report-json /tmp/trace_smoke_serve_$$run.report.json \
	    > /tmp/trace_smoke_serve_$$run.out \
	    || { echo "trace-smoke: traced serve run failed"; exit 1; }; \
	done
	_build/default/bin/jsoncheck.exe /tmp/trace_smoke_serve_a.json \
	  /tmp/trace_smoke_serve_a.metrics.json /tmp/trace_smoke_serve_a.report.json
	@for f in json metrics.json report.json out; do \
	  diff /tmp/trace_smoke_serve_a.$$f /tmp/trace_smoke_serve_b.$$f \
	    || { echo "trace-smoke: traced serve $$f DIFFERS between runs"; exit 1; }; \
	done
	@_build/default/bin/ringsim.exe serve --shards 2 --requests 100 --seed 7 \
	  --queue-cap 256 --sample 8 \
	  --trace-out /tmp/trace_smoke_serve_s2.json \
	  > /dev/null \
	  || { echo "trace-smoke: 2-shard traced serve run failed"; exit 1; }
	@diff /tmp/trace_smoke_serve_a.json /tmp/trace_smoke_serve_s2.json \
	  || { echo "trace-smoke: merged trace depends on the shard count"; exit 1; }
	@echo "trace-smoke: traced fleet byte-deterministic and placement-invariant"

# Security-under-fault campaigns on three fixed seeds, each run twice:
# the reports must show zero protection violations (ringsim exits
# non-zero otherwise), be well-formed JSON, and be byte-identical
# across runs — fault injection is deterministic replay, not noise.
chaos-smoke:
	dune build bin/ringsim.exe bin/jsoncheck.exe
	@for seed in 1 2 3; do \
	  for run in a b; do \
	    _build/default/bin/ringsim.exe --campaigns 5 --inject $$seed \
	      --metrics-out /tmp/chaos_smoke_$${seed}_$$run.json \
	      > /tmp/chaos_smoke_$${seed}_$$run.out \
	      || { echo "chaos-smoke: seed $$seed reported violations"; exit 1; }; \
	  done; \
	  _build/default/bin/jsoncheck.exe /tmp/chaos_smoke_$${seed}_a.json || exit 1; \
	  for f in json out; do \
	    diff /tmp/chaos_smoke_$${seed}_a.$$f /tmp/chaos_smoke_$${seed}_b.$$f \
	      || { echo "chaos-smoke: seed $$seed output DIFFERS between runs"; exit 1; }; \
	  done; \
	done
	@echo "chaos-smoke: campaigns deterministic, reports valid, invariants intact"

# Kill-and-resume equivalence at the CLI: three kill points, the same
# under fault injection, delta chains folded and rebased on disk, resume
# through the fold, and the mixed-chain refusal.  The checks live in the
# cram test test/cram/snapshot_smoke.t, which `dune runtest` also runs.
snapshot-smoke:
	dune build @test/cram/snapshot_smoke

# Multi-tenant arena gate: billing reports deterministic and
# shard-count invariant, adversaries quarantined, and a 20-campaign
# zero-leak sweep.  The checks live in the cram test
# test/cram/arena_smoke.t, which `dune runtest` also runs.
arena-smoke:
	dune build @test/cram/arena_smoke

# Serving-fleet determinism: a 4-shard fleet byte-identical across
# runs, and its fleet section identical to a 2-shard fleet's.  The
# checks live in the cram test test/cram/serve_smoke.t, which
# `dune runtest` also runs.
serve-smoke:
	dune build @test/cram/serve_smoke

# Execution-pool determinism under stress: a high-shard fleet on an
# explicit multi-worker pool, where every run's report body (fleet,
# dispatch and shards sections — everything after the config echo) and
# stdout must be byte-identical (a) run-to-run with stealing on, (b)
# between stealing on and off, and (c) between a 4-worker and a
# 1-worker pool.  This is the tentpole contract: work stealing and
# host scheduling may change wall-clock only, never a byte of the
# report.
serve-stress:
	dune build bin/ringsim.exe bin/jsoncheck.exe
	@rm -rf /tmp/serve_stress && mkdir -p /tmp/serve_stress
	@for run in a b; do \
	  _build/default/bin/ringsim.exe serve --shards 8 --requests 500 --seed 11 \
	    --queue-cap 256 --pool 4 --steal on \
	    --report-json /tmp/serve_stress/on_$$run.json \
	    > /tmp/serve_stress/on_$$run.out \
	    || { echo "serve-stress: steal-on fleet run failed"; exit 1; }; \
	done
	_build/default/bin/jsoncheck.exe /tmp/serve_stress/on_a.json
	@for f in json out; do \
	  diff /tmp/serve_stress/on_a.$$f /tmp/serve_stress/on_b.$$f \
	    || { echo "serve-stress: $$f output DIFFERS between runs"; exit 1; }; \
	done
	@_build/default/bin/ringsim.exe serve --shards 8 --requests 500 --seed 11 \
	  --queue-cap 256 --pool 4 --steal off \
	  --report-json /tmp/serve_stress/off.json \
	  > /tmp/serve_stress/off.out \
	  || { echo "serve-stress: steal-off fleet run failed"; exit 1; }
	@_build/default/bin/ringsim.exe serve --shards 8 --requests 500 --seed 11 \
	  --queue-cap 256 --pool 1 --steal on \
	  --report-json /tmp/serve_stress/p1.json \
	  > /tmp/serve_stress/p1.out \
	  || { echo "serve-stress: 1-worker fleet run failed"; exit 1; }
	@for v in on_a off p1; do \
	  sed -n '/"fleet"/,$$p' /tmp/serve_stress/$$v.json \
	    > /tmp/serve_stress/$$v.body; \
	done
	@diff /tmp/serve_stress/on_a.body /tmp/serve_stress/off.body \
	  || { echo "serve-stress: report depends on work stealing"; exit 1; }
	@diff /tmp/serve_stress/on_a.out /tmp/serve_stress/off.out \
	  || { echo "serve-stress: stdout depends on work stealing"; exit 1; }
	@diff /tmp/serve_stress/on_a.body /tmp/serve_stress/p1.body \
	  || { echo "serve-stress: report depends on the pool size"; exit 1; }
	@diff /tmp/serve_stress/on_a.out /tmp/serve_stress/p1.out \
	  || { echo "serve-stress: stdout depends on the pool size"; exit 1; }
	@echo "serve-stress: report invariant under stealing, pool size and reruns"

# Elastic-fleet invariance: a live migration, rolling restarts and
# autoscaling each leave the fleet section byte-identical to the plain
# run, with zero dropped requests.  The checks live in the cram test
# test/cram/migrate_smoke.t, which `dune runtest` also runs.
migrate-smoke:
	dune build @test/cram/migrate_smoke

# Capability backend: cap-mode determinism, the example catalog, the
# unknown-backend usage error, the fleet's shard-count invariance and
# the bench's backends section.  The checks live in the cram test
# test/cram/cap_smoke.t, which `dune runtest` also runs.
cap-smoke:
	dune build @test/cram/cap_smoke

examples:
	@for e in quickstart protected_subsystem layered_supervisor debug_ring \
	          multiprogramming dynamic_linking grading typewriter \
	          argument_chain bare_metal; do \
	  echo "==== $$e ===="; dune exec examples/$$e.exe; echo; done

clean:
	dune clean
