# Tier-1: the gate every change must keep green.
.PHONY: check
check:
	go build ./... && go test ./...

# Tier-1.5: static analysis plus the race detector over the parallel
# pipeline stages (profile merging, histogram attribution, propagation,
# the shared static-layer cache).
.PHONY: race
race:
	go vet ./... && go test -race ./...

.PHONY: bench
bench:
	go test -bench=. -benchmem ./...

# Parallel-stage benchmarks only: the -jobs scaling story.
.PHONY: bench-parallel
bench-parallel:
	go test -run xxx -bench 'Parallel|AnalyzeCached' .

# Quick bench sanity pass for CI: every benchmark runs exactly once.
.PHONY: bench-smoke
bench-smoke:
	go test -run xxx -bench . -benchtime=1x ./...

# Regenerate the committed performance snapshot (BENCH_$(LABEL).json):
# the workload suite via the parallel driver, the scale and gprofd
# query suites, plus the engine-facing go-bench micro-benchmarks
# parsed into the same file. Schema in docs/FORMATS.md.
LABEL ?= PR10
.PHONY: bench-json
bench-json:
	go test -run xxx -bench 'Dispatch|McountFastPath|McountSteady|Snapshot|VMExecution|Overhead|GmonRead|GmonWrite|MergeAll|ImageIO|ModelBuild|ModelJSON|ObsSpan|ObsCounter|StackCollect|GmonV3ReadWrite|FoldedRender|HistogramObserve|HistogramMerge|Exposition|FlightSpan' \
		-benchmem . ./internal/mon ./internal/obs > bench-raw.out && \
	go run ./cmd/benchjson -label $(LABEL) -scale -query -parse bench-raw.out -o BENCH_$(LABEL).json && \
	rm -f bench-raw.out

# Compare two committed performance snapshots, worst regression first;
# -threshold (percent) makes it a gate. The per-stage span
# sub-measurements (analysis_stages) are single-digit microseconds and
# jitter close to 10x across runs on a shared host, so they are
# reported but ungated; the whole-run metrics they sum into
# (analysis_ns, profiles_analyzed_per_sec, warm_flat_ns, go_bench
# ns/op) stay under the gate and hold within tens of percent.
.PHONY: bench-diff
bench-diff:
	go run ./cmd/benchdiff -threshold 200 -ungated analysis_stages BENCH_PR9.json BENCH_$(LABEL).json

# Self-observability smoke: a profiled run and an analysis under
# -stats/-tracefile/-runreport, with both artifacts validated by
# tracecheck and stdout checked against an unobserved run. The vmrun
# step ignores the exit status because vmrun propagates the workload
# program's own exit code.
.PHONY: stats-smoke
stats-smoke:
	rm -rf .stats-smoke && mkdir -p .stats-smoke
	go build -o .stats-smoke/ ./cmd/vmrun ./cmd/gprof ./cmd/tracecheck
	cd .stats-smoke && (./vmrun -p -q -stats -workload sort || true)
	cd .stats-smoke && ./gprof -jobs 1 a.out gmon.out > plain.txt
	cd .stats-smoke && ./gprof -jobs 1 -stats -tracefile t.json -runreport r.json a.out gmon.out > observed.txt
	cmp .stats-smoke/plain.txt .stats-smoke/observed.txt
	cd .stats-smoke && ./tracecheck t.json r.json
	rm -rf .stats-smoke

# Regenerate the pinned presentation goldens (text reports and JSON
# profiles) under testdata/golden. The -update flag lives in the root
# package's golden tests only, so restrict to '.'.
.PHONY: golden
golden:
	go test -run 'TestGolden' -update .

# Short fuzzing pass over the two binary decoders (profile data and
# executables), where corrupt input must error, never panic, and over
# the report's number formatter, which must match strconv byte for byte.
.PHONY: fuzz-smoke
fuzz-smoke:
	go test -run xxx -fuzz 'FuzzRead$$' -fuzztime 20s ./internal/gmon
	go test -run xxx -fuzz 'FuzzReadImage$$' -fuzztime 20s ./internal/object
	go test -run xxx -fuzz 'FuzzAppendFixed$$' -fuzztime 20s ./internal/report

# End-to-end smoke of the continuous-profiling service: start gprofd,
# replay the workload corpus from concurrent agents via gprofload, and
# -verify byte-compares every fingerprint's merged profile against an
# offline gmon.MergeAll of the same uploads. gprofload exits nonzero on
# any upload error, a zero rate, or a verify mismatch.
.PHONY: gprofd-smoke
gprofd-smoke:
	rm -rf .gprofd-smoke && mkdir -p .gprofd-smoke
	go build -o .gprofd-smoke/ ./cmd/gprofd ./cmd/gprofload
	./.gprofd-smoke/gprofd -addr 127.0.0.1:7421 & echo $$! > .gprofd-smoke/pid
	./.gprofd-smoke/gprofload -addr http://127.0.0.1:7421 -agents 8 -uploads 50 -verify; \
		rc=$$?; kill `cat .gprofd-smoke/pid` 2>/dev/null; rm -rf .gprofd-smoke; exit $$rc

# Query-path smoke: mixed read/write traffic against a live gprofd —
# reader agents hit /v1/flat and /v1/profile while uploads invalidate
# underneath them. gprofload exits nonzero on any reader failure, a
# verify mismatch, or (with -readers) a server whose incremental
# caches served no hits.
.PHONY: query-smoke
query-smoke:
	rm -rf .query-smoke && mkdir -p .query-smoke
	go build -o .query-smoke/ ./cmd/gprofd ./cmd/gprofload
	./.query-smoke/gprofd -addr 127.0.0.1:7423 & echo $$! > .query-smoke/pid
	./.query-smoke/gprofload -addr http://127.0.0.1:7423 -agents 8 -uploads 50 -readers 4 -verify; \
		rc=$$?; kill `cat .query-smoke/pid` 2>/dev/null; rm -rf .query-smoke; exit $$rc

# Scale smoke: a 10^5-routine synthetic workload through the whole
# stack — generate real artifacts, run the in-process pipeline under a
# throughput floor, then run the actual gprof binary over the generated
# image + profile pair. Bounded by timeout so a scaling regression
# fails fast instead of hanging CI.
.PHONY: scale-smoke
scale-smoke:
	rm -rf .scale-smoke && mkdir -p .scale-smoke
	go build -o .scale-smoke/ ./cmd/synthgen ./cmd/gprof
	timeout 120 ./.scale-smoke/synthgen -nodes 100000 -seed 1 \
		-image .scale-smoke/a.out -o .scale-smoke/gmon.out -analyze -minrate 20000
	timeout 120 ./.scale-smoke/gprof -brief .scale-smoke/a.out .scale-smoke/gmon.out > .scale-smoke/report.txt
	test -s .scale-smoke/report.txt
	rm -rf .scale-smoke

# Whole-stack pipeline smoke: collect stacks from the E8 workload,
# write the v3 profile data plus the gzipped pprof protobuf, then
# validate the pprof stream with the in-repo decoder and check that
# pricey() — the routine the arc view famously underestimates — tops
# the measured table.
.PHONY: pprof-smoke
pprof-smoke:
	rm -rf .pprof-smoke && mkdir -p .pprof-smoke
	go build -o .pprof-smoke/ ./cmd/stackprof ./cmd/pprofcheck ./cmd/gmondump
	cd .pprof-smoke && ./stackprof -workload unequal -tick 200 -folded \
		-o stacks.gmon -pprof stacks.pb.gz > folded.txt
	test -s .pprof-smoke/folded.txt
	cd .pprof-smoke && ./gmondump stacks.gmon | grep -q 'stacks:'
	cd .pprof-smoke && ./pprofcheck stacks.pb.gz > top.txt
	grep -q pricey .pprof-smoke/top.txt
	rm -rf .pprof-smoke

# Production-observability smoke: start gprofd with the self-profile
# loop on, replay the corpus with the observability prober (-metrics:
# concurrent /metrics scrapes must parse and validate, /healthz and
# /readyz must hold 200), then take two /metrics dumps across a second
# replay and metricscheck them — per-file structural validation plus
# cross-dump counter/histogram monotonicity. Finally fetch /v1/self as
# pprof and round-trip it through pprofcheck, and /debug/flightrec
# through tracecheck.
.PHONY: metrics-smoke
metrics-smoke:
	rm -rf .metrics-smoke && mkdir -p .metrics-smoke
	go build -o .metrics-smoke/ ./cmd/gprofd ./cmd/gprofload ./cmd/metricscheck ./cmd/pprofcheck ./cmd/tracecheck
	./.metrics-smoke/gprofd -addr 127.0.0.1:7427 -selfprofile 300ms & echo $$! > .metrics-smoke/pid
	rc=0; \
	./.metrics-smoke/gprofload -addr http://127.0.0.1:7427 -agents 8 -duration 3s -metrics -verify || rc=$$?; \
	curl -sf http://127.0.0.1:7427/metrics > .metrics-smoke/m1.prom || rc=$$?; \
	./.metrics-smoke/gprofload -addr http://127.0.0.1:7427 -agents 4 -uploads 25 -metrics || rc=$$?; \
	curl -sf http://127.0.0.1:7427/metrics > .metrics-smoke/m2.prom || rc=$$?; \
	./.metrics-smoke/metricscheck .metrics-smoke/m1.prom .metrics-smoke/m2.prom || rc=$$?; \
	curl -sf 'http://127.0.0.1:7427/v1/self?view=pprof' > .metrics-smoke/self.pb.gz || rc=$$?; \
	./.metrics-smoke/pprofcheck .metrics-smoke/self.pb.gz > /dev/null || rc=$$?; \
	curl -sf http://127.0.0.1:7427/debug/flightrec > .metrics-smoke/flight.json || rc=$$?; \
	./.metrics-smoke/tracecheck .metrics-smoke/flight.json || rc=$$?; \
	kill `cat .metrics-smoke/pid` 2>/dev/null; rm -rf .metrics-smoke; exit $$rc

.PHONY: figures
figures:
	go run ./cmd/figures -all
