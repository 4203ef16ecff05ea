# Convenience entry points; everything below is plain dune.

.PHONY: all build test gates bench-json tenancy-bench engine-bench ledger-check exports-check staticcheck lint check clean

all: build

build:
	dune build

test:
	dune runtest

# Every stock gate (Ksurf.Gates.stock) in one run: each workload twice
# under lockdep + determinism + invariants, then its own accounting
# checks (recovery policies complete, tenancy SLO accounting, drift
# controller choreography, torture crash consistency, ...).  Exits
# nonzero on any finding or FAIL line.
gates:
	dune exec bin/ksurf_cli.exe -- analyze --seed 42

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

check: build test lint staticcheck gates

clean:
	dune clean
