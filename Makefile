# Convenience entry points; everything below is plain dune.

.PHONY: all build test gates bench-json tenancy-bench ledger-check ab exports-check staticcheck lint loc check clean

all: build

build:
	dune build

test:
	dune runtest

# Every stock gate (Ksurf.Gates.stock) in one run: each workload twice
# under lockdep + determinism + invariants, then its own accounting
# checks (zero specialization denials, at least one injection under
# each faulted gate, tenancy SLO accounting, crash consistency of the
# journal and export writers at 1 and 4 workers, ...).  The torture gate is the only place the durable-I/O torture
# runs.  Exits nonzero on any finding or FAIL line.
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

# ktenant memory-flatness bench: the same churny 64-tenant Docker fleet
# at 10^5 and 10^6 requests, wall clock + peak RSS per run, written to
# BENCH_tenancy.json.  Exits nonzero if 10x the requests more than
# doubles the peak RSS — the streaming-statistics gate.
tenancy-bench:
	dune exec bench/main.exe -- tenancy full

# Ledger gate: one measured pass of each of the five ledger workloads at
# seed 42.  A seed-42 cell fails unless its fingerprint (the hash of its
# rendered simulated result) equals the reference in
# ledger/BENCH_ledger.json, so this proves a change left every simulated
# result bit-identical.  The pass's minor_mwords (the deterministic
# allocation count) must also stay within BENCHMARK.json's minor_mwords
# bound (1%) of that workload's median in the committed
# BENCH_ledger_snapshot.json, on either side: an allocation regression
# fails here, not only in the benchmark, and so does a gain the
# snapshot does not record yet, so the snapshot is refreshed in the same
# change as the gain.  Exits nonzero on any of these.  Writes only under
# .bench_build/.
LEDGER_WORKLOADS = shared-kernel partitioned-sweep fleet-churn observed-shared tail-serving
LEDGER_SNAPSHOT = BENCH_ledger_snapshot.json

ledger-check:
	@bound=$$(awk '/"name": "minor_mwords"/ { m = 1 } m && /"bound":/ { gsub(/[^0-9.]/, "", $$2); print $$2; exit }' BENCHMARK.json); \
	[ -n "$$bound" ] || { echo "ledger-check: no minor_mwords bound in BENCHMARK.json"; exit 1; }; \
	pct=$$(awk -v b="$$bound" 'BEGIN { print b * 100 }'); \
	for w in $(LEDGER_WORKLOADS); do \
	  ref=$$(awk -v w="$$w" '$$0 ~ "^    \"" w "\": [{]" { in_w = 1 } in_w && /"minor_mwords": [{]/ { in_m = 1 } in_m && /"median":/ { gsub(/[^0-9.eE+-]/, "", $$2); print $$2; exit }' $(LEDGER_SNAPSHOT)); \
	  [ -n "$$ref" ] || { echo "ledger-check $$w: no minor_mwords median in $(LEDGER_SNAPSHOT)"; exit 1; }; \
	  line=$$(sh ledger/run.sh --workload $$w --seed 42 --seconds 1 --trace 0 | tail -n 1); \
	  case "$$line" in \
	    *'"failed": 0,'*) \
	      mw=$$(echo "$$line" | sed -n 's/.*"minor_mwords": {"value": \([0-9.]*\).*/\1/p'); \
	      [ -n "$$mw" ] || { echo "ledger-check $$w: FAILED: no minor_mwords in $$line"; exit 1; }; \
	      if awk -v mw="$$mw" -v ref="$$ref" -v b="$$bound" 'BEGIN { exit !(mw > ref * (1 + b)) }'; then \
	        printf 'ledger-check %s: FAILED: minor_mwords %.1f is more than %s%% over the snapshot median %.1f\n' $$w "$$mw" "$$pct" "$$ref"; \
	        exit 1; \
	      fi; \
	      if awk -v mw="$$mw" -v ref="$$ref" -v b="$$bound" 'BEGIN { exit !(mw < ref * (1 - b)) }'; then \
	        printf 'ledger-check %s: FAILED: minor_mwords %.1f is more than %s%% under the snapshot median %.1f; record the gain with: sh ledger/run.sh ledger --trace --out $(LEDGER_SNAPSHOT)\n' $$w "$$mw" "$$pct" "$$ref"; \
	        exit 1; \
	      fi; \
	      printf 'ledger-check %s: ok (minor_mwords %.1f, snapshot %.1f)\n' $$w "$$mw" "$$ref" ;; \
	    *) echo "ledger-check $$w: FAILED: $$line"; exit 1 ;; \
	  esac; \
	done

# Paired A/B timing against a base revision: AB_N alternating
# (base, head) ledger runs per workload at --seconds AB_SECONDS, then
# per workload the median head/base ratio of sim_s and setup_s with a
# sign-test interval, each side's median peak_rss_mb and minor_mwords,
# and a flag on any metric worse than its BENCHMARK.json bound
# (bench/ab.sh).  BASE is built from an exported
# copy under .bench_build/ab/; the working tree is the head.
AB_N ?= 5
AB_SECONDS ?= 18
ab:
	@[ -n "$(BASE)" ] || { echo "usage: make ab BASE=<rev> [AB_N=5] [AB_SECONDS=18] [AB_WORKLOADS='w ...']"; exit 2; }
	sh bench/ab.sh "$(BASE)" $(AB_N) $(AB_SECONDS) $(AB_WORKLOADS)

# Export bit-identity gate: one `ksurf_cli all --scale full` run writes
# every study's CSV into a temporary directory, then each committed
# baseline in exports/ is byte-compared against it.  Exits nonzero if
# the run fails, if the run writes a CSV that has no baseline, or if a
# baseline is missing from the run or differs.  The baselines were
# written at --jobs 1 and this runs at the default --jobs, so it also
# proves every study is jobs-agnostic.
exports-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	dune exec bin/ksurf_cli.exe -- all --scale full --export "$$tmp" >/dev/null || exit 1; \
	for f in "$$tmp"/*.csv; do \
	  [ -f "exports/$${f#$$tmp/}" ] || { echo "exports-check $${f#$$tmp/}: no baseline in exports/"; exit 1; }; \
	done; \
	for f in exports/*.csv; do \
	  cmp "$$f" "$$tmp/$${f#exports/}" || exit 1; \
	  echo "exports-check $${f#exports/}: identical"; \
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

# Code size, as ROADMAP item 5 counts it: every line of lib + bin +
# bench, and the .mli lines among them (files git tracks or would
# track).  The test/ count shows whether code was deleted or only
# moved into the tests.
LOC_FILES = git ls-files -co --exclude-standard
loc:
	@echo "lib+bin+bench: $$(cat $$($(LOC_FILES) 'lib/*.ml' 'lib/*.mli' 'bin/*.ml' 'bin/*.mli' 'bench/*') | wc -l) lines"
	@echo ".mli: $$(cat $$($(LOC_FILES) 'lib/*.mli' 'bin/*.mli') | wc -l) lines"
	@echo "test: $$(cat $$($(LOC_FILES) 'test/*.ml') | wc -l) lines"

check: build test lint staticcheck gates

clean:
	dune clean
