# Convenience targets around dune; `make check` is the tier-1 gate
# plus a smoke run of the compilation service over examples/ and the
# built-in kernels.

SMOKE_DESIGNS := examples/designs/transpose.hir examples/designs/stencil_1d.hir \
                 examples/designs/fifo.hir examples/designs/delay_order.hir

.PHONY: all build test check faults crash fuzz serve-smoke serve-swarm bench-json clean

all: build

build:
	dune build @all

test:
	dune runtest

# Build + tests + an end-to-end `hirc batch` smoke over the textual
# example designs and every built-in kernel (4 workers, traced, on a
# cache emptied first so every job runs parse -> verify -> passes ->
# emit for real, except a job another job's entries already serve),
# plus bounded deterministic fuzz passes over the frontend and over
# the driver's shipped compile (`--full`, 0 crashes required).  The
# summary's cache hits must count exactly the jobs printed "(cached)",
# and `hirc cache --verify` must pass every file the batch left in the
# cache's shards.  `hirc print` of `hirc print` must equal `hirc print`
# on every example design, and `hirc verify` must report a parse error
# with the `error:` severity `hirc compile` gives it.  `hirc sim` must
# run every kernel, and every HLS suite kernel with --hls, with no
# assertion failure.
check: build test
	@rm -rf _build/.hirc-smoke-cache
	dune exec bin/hirc.exe -- batch $(SMOKE_DESIGNS) --kernels -j 4 \
	  --cache-dir _build/.hirc-smoke-cache --trace _build/smoke.trace.json \
	  -o _build/smoke-verilog > _build/smoke.out; \
	  code=$$?; cat _build/smoke.out; exit $$code
	@hits=$$(sed -n 's/.*, cache \([0-9]*\) hits.*/\1/p' _build/smoke.out); \
	  cached=$$(grep -c '(cached)' _build/smoke.out); \
	  if [ "$$hits" != "$$cached" ]; then \
	    echo "make check: FAILED (smoke batch counts $$hits cache hits but printed $$cached (cached) lines)"; exit 1; \
	  fi
	@echo "smoke batch cache count: OK"
	@files=$$(find _build/.hirc-smoke-cache -mindepth 2 -maxdepth 2 -type f \
	  -path '*/[0-9a-f][0-9a-f]/*' | wc -l); \
	  out=$$(_build/default/bin/hirc.exe cache _build/.hirc-smoke-cache --verify | head -1); \
	  echo "$$out"; \
	  if [ "$$out" != "verify: $$files entries scanned, $$files ok, 0 quarantined" ]; then \
	    echo "make check: FAILED (the smoke cache does not verify clean over its $$files shard files)"; exit 1; \
	  fi
	@echo "smoke cache verify: OK"
	dune exec bin/hirc.exe -- fuzz 2000 --seed 1
	dune exec bin/hirc.exe -- fuzz 10000 --seed 2 --full
	@_build/default/bin/hirc.exe sim transposee 2>&1 | grep -q "did you mean transpose" \
	  || { echo "make check: FAILED (sim typo did not suggest a kernel)"; exit 1; }
	@echo "sim typo suggestion: OK"
	@sim() { out=$$(timeout 60 _build/default/bin/hirc.exe sim "$$@" 2>&1) \
	    && echo "$$out" | head -1 | grep -qF " 0 assertion failure(s)" \
	    || { echo "make check: FAILED (hirc sim $$*: $$out)"; exit 1; }; }; \
	  for k in $$(_build/default/bin/hirc.exe kernels | cut -d' ' -f1); do sim $$k; done; \
	  for k in $$(_build/default/bin/hirc.exe kernels --hls); do sim $$k --hls; done
	@echo "sim sweep (every kernel, every HLS suite kernel): OK"
	@out=$$(timeout 10 _build/default/bin/hirc.exe compile examples/designs/err_call_cycle.hir 2>&1); \
	  code=$$?; \
	  if [ $$code -ne 1 ] || ! echo "$$out" | grep -q "call cycle through @"; then \
	    echo "make check: FAILED (err_call_cycle.hir exited $$code, not 1 with a call-cycle diagnostic)"; exit 1; \
	  fi
	@echo "call-cycle rejection: OK"
	@rm -rf _build/.hirc-no-such-dir
	@out=$$(timeout 10 _build/default/bin/hirc.exe compile examples/designs/transpose.hir \
	  -o _build/.hirc-no-such-dir/x.v 2>&1); \
	  code=$$?; \
	  if [ $$code -ne 1 ] || [ "$$out" = "$${out#hirc: cannot write _build/.hirc-no-such-dir/x.v: }" ] \
	     || [ $$(echo "$$out" | wc -l) -ne 1 ] || echo "$$out" | grep -q "internal error"; then \
	    echo "make check: FAILED (an -o path under a missing directory exited $$code, not 1 with one cannot-write line)"; exit 1; \
	  fi
	@echo "unwritable output rejection: OK"
	@for f in examples/designs/*.hir; do \
	  _build/default/bin/hirc.exe print $$f > _build/.hirc-print1.hir \
	  && _build/default/bin/hirc.exe print _build/.hirc-print1.hir > _build/.hirc-print2.hir \
	  && cmp -s _build/.hirc-print1.hir _build/.hirc-print2.hir \
	  || { echo "make check: FAILED (hirc print of hirc print differs from hirc print on $$f)"; exit 1; }; \
	done
	@echo "print fixed point: OK"
	@printf 'hir.func\n' > _build/.hirc-parse-error.hir; \
	  out=$$(timeout 10 _build/default/bin/hirc.exe verify _build/.hirc-parse-error.hir 2>&1); \
	  code=$$?; \
	  if [ $$code -ne 1 ] || ! echo "$$out" | grep -q "error: parse error"; then \
	    echo "make check: FAILED (hirc verify on a parse error exited $$code, not 1 with 'error: parse error')"; exit 1; \
	  fi
	@echo "verify parse-error diagnostic: OK"
	$(MAKE) faults
	$(MAKE) serve-smoke
	$(MAKE) crash
	dune exec bench/main.exe -- --canonicalize-scaling
	dune exec bench/main.exe -- --sim-scaling
	dune exec bench/main.exe -- --incremental
	dune exec bench/main.exe -- --emit-scaling
	@echo "make check: OK"

# Seeded fault-injection sweep over the kernel suite: at a 10% rate on
# every injection point the batch must terminate within the deadline
# (timeout(1) is the hang guard), lose no jobs, and exit 0 (all jobs
# produced output, however degraded) or 2 (some failed after retries)
# — never crash, never hang.  Three seeds so the sweep actually varies
# the fault schedule.
faults: build
	@rm -rf _build/.hirc-faults-cache
	@for seed in 1 2 3; do \
	  echo "faults: seed $$seed, 10% on all points"; \
	  timeout 120 dune exec bin/hirc.exe -- batch --kernels -j 4 \
	    --cache-dir _build/.hirc-faults-cache --inject '*=0.1' \
	    --inject-seed $$seed --deadline 60 \
	    --json _build/faults-$$seed.json; \
	  code=$$?; \
	  if [ $$code -ne 0 ] && [ $$code -ne 2 ]; then \
	    echo "make faults: FAILED (seed $$seed exited $$code)"; exit 1; \
	  fi; \
	  grep -q '"total":9' _build/faults-$$seed.json || \
	    { echo "make faults: FAILED (seed $$seed lost jobs)"; exit 1; }; \
	done
	@echo "make faults: OK"

# Crash-recovery acceptance: an 8-client swarm against a journaled
# `hirc serve` with 10% faults on every journal.* point, kill -9
# mid-swarm, restart on the same journal, recover every job
# byte-identical, then an unfaulted SIGTERM drain that must exit 0
# with zero incomplete journal records.  Three seeds vary the fault
# schedule; timeout(1) is the hang guard.
crash: build
	@for seed in 1 2 3; do \
	  echo "crash: seed $$seed, 10% on journal.* points"; \
	  timeout 240 dune exec bench/main.exe -- --serve-crash --crash-seed $$seed \
	    || { echo "make crash: FAILED (seed $$seed)"; exit 1; }; \
	done
	@echo "make crash: OK"

# End-to-end smoke of the real `hirc serve` binary: start the server,
# drive compiles / a health probe / an HTTP GET, run the early-closing
# client SIGPIPE regression, then a clean protocol shutdown.  The
# whole thing runs under timeout(1) as the hang guard.
serve-smoke: build
	timeout 120 dune exec test/serve_smoke.exe -- _build/default/bin/hirc.exe

# The admission-control acceptance run: 8 concurrent clients, mixed
# kernel sizes, 10% injected faults; zero lost jobs and bounded p99
# or the bench exits nonzero.  Heavier than serve-smoke, so it is not
# part of `make check`; run it when touching the server or scheduler.
serve-swarm: build
	timeout 300 dune exec bench/main.exe -- --serve-swarm

# The acceptance campaign from the never-crash contract: 10k mutated
# inputs through the frontend and 10k through the full pipeline, both
# seeded and deterministic.  Exits nonzero on any non-diagnostic crash.
fuzz: build
	dune exec bin/hirc.exe -- fuzz 10000 --seed 1
	dune exec bin/hirc.exe -- fuzz 10000 --seed 1 --full

# Machine-readable benchmark results for tracking the perf trajectory.
bench-json:
	dune exec bench/main.exe -- --table 6 --json bench-results.json

clean:
	dune clean
