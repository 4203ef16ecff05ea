# Convenience entry points; everything below is plain dune.

.PHONY: all build test analyze-smoke inject-smoke specialize-smoke tenancy-smoke drift-smoke torture-smoke soak bench-json tenancy-bench engine-bench ledger-check exports-check staticcheck lint check clean

all: build

build:
	dune build

test:
	dune runtest

# Sanitizer smoke run: lockdep + determinism + invariants over the
# small varbench scenario at a fixed seed.  Exits nonzero on any
# finding, so it doubles as a CI gate.
analyze-smoke:
	dune exec bin/ksurf_cli.exe -- analyze --scenario varbench --seed 42

# Fault-injection smoke run: a tiny "crashy" plan over a 2-unit native
# deployment, executed twice; exits nonzero if the injections fail to
# replay bit-identically or trip lockdep/invariants.
inject-smoke:
	dune exec bin/ksurf_cli.exe -- inject --plan crashy --seed 42 --smoke

# Specialization smoke run: compile a spec from a tiny fs-restricted
# corpus, deploy per-tenant pruned kernels (multikernel), replay twice
# under lockdep + determinism + invariants; exits nonzero on any
# finding or on an unexpected policy denial.
specialize-smoke:
	dune exec bin/ksurf_cli.exe -- specialize --seed 42 --smoke

# Tenancy smoke run (ktenant): a churny adaptive fleet executed twice
# under lockdep + determinism + invariants, then the SLO accounting
# cross-checked (attainment bounds, creates >= destroys, ...); exits
# nonzero on any divergence, finding or inconsistency.
tenancy-smoke:
	dune exec bin/ksurf_cli.exe -- tenancy --seed 42 --smoke

# Drift smoke run (kadapt): a small adaptive driftbench cell executed
# twice under lockdep + determinism + invariants, the controller
# accounting cross-checked against the probe stream (every policy
# hot-swap visible, swap count = ranks + promotions + demotions), and
# the same cell run under the static policy to assert adaptive strictly
# beats it on post-drift false positives; exits nonzero on any
# divergence, finding or inconsistency.
drift-smoke:
	dune exec bin/ksurf_cli.exe -- drift --seed 42 --smoke

# Torture smoke run (kdur): the quick crash-consistency grid (writer
# path x dose) at 1 and 4 workers with byte-compared exports and zero
# tolerated violations, then live scenario cells journalled under an
# armed host-I/O fault plan (transients, an ENOSPC window, a scheduled
# crash) with lockdep + determinism + invariants watching; exits
# nonzero on any violation, divergence or finding.
torture-smoke:
	dune exec bin/ksurf_cli.exe -- torture --seed 42 --smoke

# Chaos soak: supervised BSP under the "crashy" plan plus random
# crashes with each recovery policy (all supersteps must complete),
# then a kill-and-resume round trip from a mid-run checkpoint that
# must replay bit-identically; exits nonzero on any divergence.
soak:
	dune exec bin/ksurf_cli.exe -- recover --seed 42 --soak

# kpar throughput scan: the quick-scale dose sweep at jobs 1/2/4/8,
# cells/sec per worker count plus a stable hash of each rendered
# result, written to BENCH_kpar.json.  Exits nonzero if any job count
# produces output that differs from jobs=1 — the determinism gate —
# or if the scaling gate fails: on hosts with >= 4 cores jobs=4 must
# reach the 2x floor; on smaller hosts (where wall-clock speedup is
# physically capped at ~1x) the anti-scaling floor applies instead,
# catching any regression toward the 0.31x GC-rendezvous convoy.
bench-json:
	dune exec bench/main.exe -- sweep quick --gate-speedup 2.0

# ktenant memory-flatness bench: the same churny 64-tenant fleet at
# 10^5 and 10^6 requests, wall clock + peak RSS per run, written to
# BENCH_tenancy.json.  Exits nonzero if 10x the requests more than
# doubles the peak RSS — the streaming-statistics gate.
tenancy-bench:
	dune exec bench/main.exe -- tenancy full

# Simulator-core throughput: Bechamel microbenchmarks plus one mixed
# timer/lock workload timed end to end, events/sec and GC minor
# words/event written to BENCH_engine.json.  The allocation rate is the
# portable number; events/sec is machine context.
engine-bench:
	dune exec bench/main.exe -- micro

# Ledger fingerprint gate: one measured pass of each of the five ledger
# workloads at seed 42.  A seed-42 cell fails unless its fingerprint
# (the hash of its rendered simulated result) equals the reference in
# ledger/BENCH_ledger.json, so this proves a change left every simulated
# result bit-identical.  Exits nonzero unless every workload reports
# "failed": 0.  Each ok line also shows the pass's minor_mwords (the
# deterministic allocation count).  Writes only under .bench_build/.
LEDGER_WORKLOADS = shared-kernel partitioned-sweep fleet-churn observed-shared tail-serving

ledger-check:
	@for w in $(LEDGER_WORKLOADS); do \
	  line=$$(sh ledger/run.sh --workload $$w --seed 42 --seconds 1 --trace 0 | tail -n 1); \
	  case "$$line" in \
	    *'"failed": 0,'*) \
	      mw=$$(echo "$$line" | sed -n 's/.*"minor_mwords": {"value": \([0-9.]*\).*/\1/p'); \
	      printf 'ledger-check %s: ok (minor_mwords %.1f)\n' $$w "$$mw" ;; \
	    *) echo "ledger-check $$w: FAILED: $$line"; exit 1 ;; \
	  esac; \
	done

# Export bit-identity gate: regenerate the committed full-scale study
# exports into a temporary directory and byte-compare each against
# exports/.  Exits nonzero on the first study whose CSV differs.
EXPORT_STUDIES = tenancy drift torture

exports-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for s in $(EXPORT_STUDIES); do \
	  dune exec bin/ksurf_cli.exe -- $$s --scale full --export "$$tmp" >/dev/null || exit 1; \
	  cmp "$$tmp/$$s.csv" exports/$$s.csv || exit 1; \
	  echo "exports-check $$s: identical"; \
	done

# Static analysis gate (kstat): certify the stock table cycle-free,
# print the interference matrix, and verify the fs workload's
# profile-derived allowlist (gaps / slack / pruned-machinery hazards).
# No simulation involved; exits nonzero on any finding.
staticcheck:
	dune exec bin/ksurf_cli.exe -- staticcheck
	dune exec bin/ksurf_cli.exe -- staticcheck --spec fs

# Source lint (klint): module-level mutable state in the
# domain-parallel layers, and raw open_out / Unix.openfile /
# Sys.rename durable writes that bypass Fileio.
lint:
	dune exec bin/klint.exe -- lib

check: build test lint staticcheck analyze-smoke inject-smoke specialize-smoke tenancy-smoke drift-smoke torture-smoke soak

clean:
	dune clean
