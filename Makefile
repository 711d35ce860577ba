GO ?= go

.PHONY: ci fmt-check vet lint build test race shuffle bench-smoke equivalence fuzz-smoke ab obs-smoke accuracy paper cover profile fasebench

# ci is the full gate: formatting, vet + lint, build, tests (with the race
# detector, then again in shuffled order — the race pass includes the
# campaign-service concurrency hammer and its goroutine-leak check, and
# the exact adaptive-spend and load-test pins), the planner
# equivalence suite, a short fuzz of the band/extent overlap logic and the
# service submit endpoint, a benchmark smoke run, the speed gate against
# REF, the observability smoke test, the ground-truth accuracy gate, the
# paper-claims table, the detection-core coverage floor, and the benchmark
# module's vet and tests.
ci: fmt-check vet lint build race shuffle equivalence fuzz-smoke bench-smoke ab obs-smoke accuracy paper cover fasebench

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet also checks the paper-tagged claims test, which ./... leaves out.
vet:
	$(GO) vet ./...
	$(GO) vet -tags paper ./internal/experiments

# lint runs staticcheck and govulncheck when installed; neither is vendored,
# so on a bare toolchain this degrades gracefully to the vet gate above.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, go vet covers the gate"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# shuffle reruns the suite in randomized test order to catch tests that
# lean on cross-test state (shared caches, process-global metrics).
shuffle:
	$(GO) test -shuffle=on ./...

# equivalence runs the render oracle suite under the race detector: every
# production render (culled, static-cached, run-length segmented, blocked
# refresh, serial and parallel, faulted) must match its test-only reference
# bit for bit — the per-sample emitter oracles, the unculled uncached
# wrapped scene — plus the activity look-ahead contract (a capture renders
# the same whatever its trace holds from emsim.ActivityLookahead past its
# last sample), the journal and observability equivalences and the
# manifest attribution gate (concurrent service jobs archive the same
# manifests as their solo runs).
equivalence:
	$(GO) test -run Equivalence -race ./...

# fuzz-smoke briefly fuzzes the Band/extent overlap invariants the render
# planner's culling correctness rests on, the campaign config validator,
# the small-angle Sincos the regulator loops use (within 1 ulp of
# math.Sincos for |x| <= 2^-5, bit-equal outside, NaN/Inf propagated), the
# table phasor the impulse trains downconvert with (sig.Cis: each component
# within 2^-50 of math.Sincos for 0 < |x| < 1.3e7, bit-equal outside), the
# polyphase impulse kernel (a pulse at any finite position deposits
# without panicking, every tap within 1e-7 of the exact windowed sinc),
# the switching regulator's line coefficients (any duty in (0, 1), lines
# up to 64 and amplitude scales within 1e-12·d·|scale| of
# sig.PulseHarmonic), the random source every render stream runs on
# (sig.NewRand: for any seed, draw count and mix of Int63, Uint64,
# Float64, NormFloat64, Intn and Int31n draws, the same values as
# math/rand's rand.NewSource), and the campaign service's submit endpoint
# (arbitrary request bodies must answer 400 and never panic the server).
fuzz-smoke:
	$(GO) test -run FuzzExtent -fuzz FuzzExtent -fuzztime 5s ./internal/emsim
	$(GO) test -run xxx -fuzz FuzzCampaignValidate -fuzztime 5s ./internal/core
	$(GO) test -run xxx -fuzz FuzzAdaptivePlan -fuzztime 5s ./internal/core
	$(GO) test -run xxx -fuzz FuzzSmallSincos -fuzztime 5s ./internal/sig
	$(GO) test -run xxx -fuzz FuzzCis -fuzztime 5s ./internal/sig
	$(GO) test -run xxx -fuzz FuzzImpulseKernel -fuzztime 5s ./internal/sig
	$(GO) test -run xxx -fuzz FuzzSourceMatchesMathRand -fuzztime 5s ./internal/sig
	$(GO) test -run xxx -fuzz FuzzRegulatorLines -fuzztime 5s ./internal/machine
	$(GO) test -run xxx -fuzz FuzzSubmitScan -fuzztime 5s ./internal/service

# bench-smoke runs the pipeline micro-benchmarks once each — enough to
# catch a benchmark that no longer compiles or panics, without the cost of
# a full timing run. BenchmarkSceneRender covers both capture shapes,
# /256 (the service small scan's) and /4096.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkSceneRender|BenchmarkPeriodogram|BenchmarkSweep$$|BenchmarkCampaignNarrowband|BenchmarkCampaignAdaptive|BenchmarkRender(Regulator|RegulatorWide|Refresh|COT|SSC|Clock)$$' -benchtime 1x .

# ab is the speed and output gate: cmd/benchgate exports REF with git
# archive, builds both trees' benchmarks, times each gated row (the wide
# sweep, both campaigns with their bytes allocated per op, the service
# small scan's capture render, the twelve render-kernel rows, the two
# periodogram rows, the service load with its bytes allocated per op) in
# 10 interleaved pairs on this host, and fails when a row's median
# per-pair change/base ratio goes past its bound.
# Then it builds both trees' cmd/fase, runs the five built-in systems'
# campaigns (seeds 1-8, the fasebench campaign geometry) and the accuracy
# corpus once per side, and fails when a detection appears on one side
# only, a matched score moves by more than 1e-6 relative or its magnitude
# by more than 1e-4 dB, or a verify-report integer changes or float moves
# by more than 1e-6 relative. The bounds are constants in cmd/benchgate.
# The last line of its output is the verdict as one JSON object. To gate a
# change, point REF at its parent: make ab REF=<rev>.
REF ?= HEAD
ab:
	$(GO) run ./cmd/benchgate $(REF)

# profile captures CPU and allocation profiles of the narrowband campaign
# benchmark, of the adaptive campaign benchmark (short captures, where the
# impulse-train kernel dominated) and of the campaign service's load test
# (many small sharded jobs, where the set-up around each sweep, such as
# generating its alternation trace, weighs most) as artifacts under
# profiles/ (raw pprof files plus `go tool pprof -top` summaries), for
# before/after comparison when working on the render kernels or the sweep
# path.
profile:
	@mkdir -p profiles; \
	for p in campaign:.:BenchmarkCampaignNarrowband adaptive:.:BenchmarkCampaignAdaptive \
		service:./internal/service/loadtest:BenchmarkServiceLoad; do \
		name=$${p%%:*}; rest=$${p#*:}; pkg=$${rest%%:*}; bench=$${rest#*:}; \
		$(GO) test -run xxx -bench "$$bench\$$" -benchtime 10x \
			-cpuprofile profiles/$${name}_cpu.pprof -memprofile profiles/$${name}_mem.pprof \
			-o profiles/$${name}.test $$pkg >/dev/null || exit 1; \
		$(GO) tool pprof -top -nodecount 25 profiles/$${name}.test profiles/$${name}_cpu.pprof > profiles/$${name}_cpu.txt || exit 1; \
		$(GO) tool pprof -top -sample_index=alloc_space -nodecount 25 profiles/$${name}.test profiles/$${name}_mem.pprof > profiles/$${name}_mem.txt || exit 1; \
	done; \
	echo "profile: wrote profiles/{campaign,adaptive,service}_{cpu,mem}.pprof and -top summaries"

# accuracy runs the ground-truth harness (fase -verify): a 60-scenario
# seeded-random machine corpus scanned by the unchanged pipeline, clean,
# through the default fault-injection plan, and re-run with the adaptive
# planner across the budget fractions (-verify-budget), scored against
# each scene's planted carriers. Fails if the clean-corpus F1 or the
# fault-corpus precision drops below the committed VERIFY_baseline.json
# (or the absolute floors baked into internal/verify), or if no adaptive
# budget point reaches 95% of the exhaustive recall within 30% of the
# exhaustive captures. Regenerate the baseline deliberately with:
# fase -verify -verify-budget -verify-baseline-out VERIFY_baseline.json
accuracy:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/fase ./cmd/fase || { rm -rf $$tmp; exit 1; }; \
	$$tmp/fase -verify -verify-budget -verify-out $$tmp/report.json -verify-roc-csv $$tmp/roc.csv \
		-manifest-out $$tmp/manifest.json \
		-verify-baseline VERIFY_baseline.json || { rm -rf $$tmp; exit 1; }; \
	$$tmp/fase -validate-manifest $$tmp/manifest.json || { rm -rf $$tmp; exit 1; }; \
	for f in report.json roc.csv; do \
		[ -s $$tmp/$$f ] || { echo "accuracy: $$f missing or empty"; rm -rf $$tmp; exit 1; }; \
	done; \
	grep -q '"accuracy"' $$tmp/manifest.json || { echo "accuracy: manifest missing accuracy stats"; rm -rf $$tmp; exit 1; }; \
	grep -q '"budget"' $$tmp/report.json || { echo "accuracy: report missing recall-vs-budget sweep"; rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; \
	echo "accuracy: ok"

# paper runs every experiment at seeds 1-8 and fails unless EXPERIMENTS.md's
# claims table (each paper claim and the seeds it holds on) equals the
# fresh counts: a claim lost or gained on any seed is a reviewed diff of
# EXPERIMENTS.md. After review, regenerate the table with
# UPDATE_GOLDEN=1 go test -tags paper -run TestPaperClaims ./internal/experiments
paper:
	$(GO) test -tags paper -count=1 -run TestPaperClaims ./internal/experiments

# fasebench vets and tests the benchmark module. It is its own Go module
# (replace fase => ../), so `go build ./...` at the root never builds it:
# without this target, an API change that breaks the benchmark stays
# invisible until the benchmark runs.
fasebench:
	$(GO) -C fasebench vet ./... && $(GO) -C fasebench test ./...

# cover enforces a statement-coverage floor on the detection core — the
# package the accuracy gate exists to protect.
CORE_COVER_FLOOR ?= 85
cover:
	@prof=$$(mktemp); \
	$(GO) test -coverprofile=$$prof ./internal/core >/dev/null || { rm -f $$prof; exit 1; }; \
	pct=$$($(GO) tool cover -func=$$prof | awk '/^total:/ { sub(/%/, "", $$3); print int($$3) }'); \
	rm -f $$prof; \
	if [ -z "$$pct" ]; then echo "cover: could not read total coverage"; exit 1; fi; \
	echo "cover: internal/core $$pct% (floor $(CORE_COVER_FLOOR)%)"; \
	if [ "$$pct" -lt "$(CORE_COVER_FLOOR)" ]; then \
		echo "cover: internal/core coverage below floor"; exit 1; \
	fi

# obs-smoke runs a tiny instrumented campaign through the CLI with every
# observability output enabled, then validates the run manifest and event
# journal against their schemas, checks the manifest counts only its own
# run (one plan for its one segment, no process-wide dsp caches),
# checks the trace holds the campaign, sweep and capture spans laid out
# from the journal (also on the second run, whose -trace-out alone
# creates the journal), sanity-checks the metrics file, archives two
# runs into a run-history store, plants a torn
# manifest beside them (fase runs must still list both runs and name the
# torn file; fase diff must still resolve @N), and diffs them,
# exercises the live debug server end-to-end (/progress, Prometheus
# /metrics, and the /events SSE stream) against a lingering scan, and
# drives `fase serve` end to end: submit a scan over HTTP, poll it to
# completion, fetch the archived result, confirm the run landed in the
# store at its content address, and shut the server down with SIGTERM.
obs-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/fase ./cmd/fase || exit 1; \
	$$tmp/fase -f1 250e3 -f2 550e3 -fres 200 -fdelta 1e3 \
		-manifest-out $$tmp/run.json -trace-out $$tmp/trace.json \
		-metrics-out $$tmp/metrics.json -events-out $$tmp/events.jsonl \
		-runs-dir $$tmp/runs >/dev/null || { rm -rf $$tmp; exit 1; }; \
	$$tmp/fase -validate-manifest $$tmp/run.json || { rm -rf $$tmp; exit 1; }; \
	$$tmp/fase -validate-events $$tmp/events.jsonl || { rm -rf $$tmp; exit 1; }; \
	for f in run.json trace.json metrics.json events.jsonl; do \
		[ -s $$tmp/$$f ] || { echo "obs-smoke: $$f missing or empty"; rm -rf $$tmp; exit 1; }; \
	done; \
	grep -q '"fase_core_campaigns_total": 1' $$tmp/metrics.json || { echo "obs-smoke: metrics snapshot malformed"; rm -rf $$tmp; exit 1; }; \
	grep -q '"components_skipped": 0' $$tmp/run.json && { echo "obs-smoke: planner recorded no skips"; rm -rf $$tmp; exit 1; }; \
	grep -q '"plans_built": 1,' $$tmp/run.json || { echo "obs-smoke: one-segment campaign did not build exactly one plan"; rm -rf $$tmp; exit 1; }; \
	grep -q '"fft_plan"' $$tmp/run.json && { echo "obs-smoke: manifest carries the process-wide fft_plan cache"; rm -rf $$tmp; exit 1; }; \
	grep -q '"kind":"campaign_start"' $$tmp/events.jsonl || { echo "obs-smoke: journal missing campaign_start"; rm -rf $$tmp; exit 1; }; \
	grep -q '"kind":"sweep_end"' $$tmp/events.jsonl || { echo "obs-smoke: journal missing sweep events"; rm -rf $$tmp; exit 1; }; \
	grep -q '"build"' $$tmp/run.json || { echo "obs-smoke: manifest missing build info"; rm -rf $$tmp; exit 1; }; \
	$$tmp/fase -f1 250e3 -f2 550e3 -fres 200 -fdelta 1e3 -seed 2 \
		-trace-out $$tmp/trace2.json -runs-dir $$tmp/runs >/dev/null || { rm -rf $$tmp; exit 1; }; \
	for f in trace.json trace2.json; do \
		for want in '"traceEvents"' '"name":"campaign"' '"name":"sweep"' '"name":"capture"'; do \
			grep -q "$$want" $$tmp/$$f || { echo "obs-smoke: $$f has no $$want"; rm -rf $$tmp; exit 1; }; \
		done; \
	done; \
	printf '{"schema": "fase-run' > $$tmp/runs/0badc0ffee00.json; \
	$$tmp/fase runs -dir $$tmp/runs > $$tmp/runs.txt 2>&1 || { echo "obs-smoke: fase runs failed beside a torn manifest"; rm -rf $$tmp; exit 1; }; \
	grep -q '^@1' $$tmp/runs.txt || { echo "obs-smoke: run store did not list two runs"; rm -rf $$tmp; exit 1; }; \
	grep -q '0badc0ffee00.json' $$tmp/runs.txt || { echo "obs-smoke: fase runs did not name the torn manifest"; rm -rf $$tmp; exit 1; }; \
	$$tmp/fase diff -dir $$tmp/runs @1 @0 > $$tmp/diff.txt || { echo "obs-smoke: fase diff failed beside a torn manifest"; rm -rf $$tmp; exit 1; }; \
	grep -q '^run diff:' $$tmp/diff.txt || { echo "obs-smoke: diff report malformed"; rm -rf $$tmp; exit 1; }; \
	grep -q 'detections (matched within' $$tmp/diff.txt || { echo "obs-smoke: diff missing detection section"; rm -rf $$tmp; exit 1; }; \
	$$tmp/fase -f1 250e3 -f2 350e3 -fres 400 -fdelta 2e3 \
		-pprof 127.0.0.1:0 -linger 10s > $$tmp/live.log 2>&1 & pid=$$!; \
	addr=""; i=0; while [ $$i -lt 100 ]; do \
		addr=$$(sed -n 's|^pprof: http://\([^/]*\)/debug.*|\1|p' $$tmp/live.log); \
		[ -n "$$addr" ] && break; i=$$((i+1)); sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "obs-smoke: debug server never came up"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	curl -sf "http://$$addr/progress" | grep -q '"stage"' || { echo "obs-smoke: /progress malformed"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	curl -sf "http://$$addr/metrics?format=prom" | grep -q '^fase_core_campaigns_total' || { echo "obs-smoke: prometheus exposition malformed"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	curl -sN --max-time 3 "http://$$addr/events" | grep -q 'campaign_start' || { echo "obs-smoke: /events SSE stream malformed"; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	$$tmp/fase serve -addr 127.0.0.1:0 -runs-dir $$tmp/srvruns > $$tmp/serve.log 2>&1 & spid=$$!; \
	saddr=""; i=0; while [ $$i -lt 100 ]; do \
		saddr=$$(sed -n 's|^serve: listening on http://\(.*\)|\1|p' $$tmp/serve.log); \
		[ -n "$$saddr" ] && break; i=$$((i+1)); sleep 0.1; \
	done; \
	[ -n "$$saddr" ] || { echo "obs-smoke: campaign server never came up"; kill $$spid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	sid=$$(curl -sf -X POST "http://$$saddr/v1/scans" -d '{"tenant":"smoke","system":"i7-desktop","scan":{"f1_hz":300e3,"f2_hz":360e3,"fres_hz":500,"falt1_hz":43.3e3,"fdelta_hz":500,"seed":4}}' \
		| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	[ -n "$$sid" ] || { echo "obs-smoke: serve submit failed"; kill $$spid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	state=""; i=0; while [ $$i -lt 100 ]; do \
		state=$$(curl -sf "http://$$saddr/v1/scans/$$sid" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p'); \
		[ "$$state" = "done" ] && break; \
		case "$$state" in failed|cancelled) break;; esac; \
		i=$$((i+1)); sleep 0.1; \
	done; \
	[ "$$state" = "done" ] || { echo "obs-smoke: serve scan ended '$$state'"; kill $$spid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	curl -sf "http://$$saddr/v1/scans/$$sid/result" | grep -q '"schema"' || { echo "obs-smoke: serve result malformed"; kill $$spid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	curl -sf "http://$$saddr/v1/stats" | grep -q '"completed_total": 1' || { echo "obs-smoke: serve stats malformed"; kill $$spid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	ls $$tmp/srvruns/*.json >/dev/null 2>&1 || { echo "obs-smoke: serve archived no run"; kill $$spid 2>/dev/null; rm -rf $$tmp; exit 1; }; \
	kill -TERM $$spid 2>/dev/null; wait $$spid; srv=$$?; \
	[ "$$srv" -eq 0 ] || { echo "obs-smoke: serve exited $$srv on SIGTERM"; rm -rf $$tmp; exit 1; }; \
	grep -q 'serve: done' $$tmp/serve.log || { echo "obs-smoke: serve shutdown summary missing"; rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; \
	echo "obs-smoke: ok"
