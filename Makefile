# Convenience targets around the go toolchain and the plotting recipe.

GO ?= go

.PHONY: build test race bench-smoke loc plot profile reach

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark in the module (the registry table and
# ablations in bench_test.go, the buffer-design ablation in
# internal/tcplp/ablation_test.go, the per-package kernels), so
# bench-only code cannot rot. Numbers come from the benchmark/ harness,
# not from here:
#   go run ./benchmark
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Non-test Go lines outside benchmark/: the one number subtraction PRs
# quote before and after.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l

# Reach report: the functions no CI run executes. A cover-built
# tcplp-bench runs every example spec but the city ones and every paper
# spec (examples/scenarios/paper), journey-traced (CI's only example run:
# a failed run or conformance check fails it), the benchmark workloads'
# specs (read, never written), one run per exporter flag, one markdown
# summary with -ci cells, one run writing its manifest (-manifest-out)
# and -exp all -scale 0.05, journey-traced too;
# go tool covdata then lists every function that never ran. Each must be
# in tools/reach.allow with a reason; a newly unreached function fails,
# an allowed one that now runs is reported for removal from the list.
#   make reach
# Leaves its binary, coverage data and lists in .reach/.
REACH := .reach

reach:
	rm -rf $(REACH) && mkdir -p $(REACH)/cov
	$(GO) build -cover -o $(REACH)/tcplp-bench ./cmd/tcplp-bench
	$(GO) build -o $(REACH)/workloadspecs ./tools/workloadspecs
	@set -e; \
	run() { GOCOVERDIR=$(REACH)/cov $(REACH)/tcplp-bench -workers 2 "$$@" > /dev/null 2> $(REACH)/run.log || \
		{ echo "reach: tcplp-bench $$* failed:" >&2; tail -20 $(REACH)/run.log >&2; exit 1; }; }; \
	short="-warmup 2s -duration 6s -journey"; \
	for f in examples/scenarios/*.json examples/scenarios/paper/*.json; do \
		case "$$f" in */city_1k.json|*/city_10k.json|*/city_100k.json) continue;; esac; \
		run -scenario "$$f" $$short; \
	done; \
	for w in benchmark/workloads/*.json; do \
		$(REACH)/workloadspecs "$$w" > $(REACH)/workload.json; \
		run -scenario $(REACH)/workload.json $$short; \
	done; \
	ex=examples/scenarios/interference.json; \
	run -scenario $$ex $$short -trace-out $(REACH)/frames.pcapng; \
	run -scenario $$ex $$short -events-out $(REACH)/events.ndjson -events-layers mac,tcp \
		-events-flow tcp-bbr-paced -metrics-interval 2s; \
	run -scenario $$ex $$short -journey-out $(REACH)/journeys.json; \
	run -scenario $$ex $$short -format csv; \
	run -scenario $$ex $$short -format json; \
	run -scenario $$ex $$short -workers 1 -manifest-out $(REACH)/manifest.ndjson; \
	run -scenario $$ex $$short -markdown -ci -seeds 2; \
	run -exp all -scale 0.05 -journey
	@$(GO) tool covdata func -i=$(REACH)/cov > $(REACH)/func.txt
	@awk '$$NF == "0.0%" { sub(/^tcplp\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' \
		$(REACH)/func.txt | sort > $(REACH)/unreached.txt
	@awk '!/^#/ && NF && NF < 3 { print "tools/reach.allow: no reason given: " $$0; bad = 1 } END { exit bad }' tools/reach.allow
	@awk '!/^#/ && NF { print $$1, $$2 }' tools/reach.allow | sort > $(REACH)/allowed.txt
	@echo "reach: $$(wc -l < $(REACH)/unreached.txt) of $$(grep -vc '^total' $(REACH)/func.txt) functions never ran ($$(wc -l < $(REACH)/allowed.txt) allowed)"
	@comm -13 $(REACH)/unreached.txt $(REACH)/allowed.txt > $(REACH)/stale.txt; \
	if [ -s $(REACH)/stale.txt ]; then echo "reach: these now run; drop them from tools/reach.allow:"; sed 's/^/  /' $(REACH)/stale.txt; fi
	@comm -23 $(REACH)/unreached.txt $(REACH)/allowed.txt > $(REACH)/new.txt; \
	if [ -s $(REACH)/new.txt ]; then echo "reach: newly unreached, not in tools/reach.allow:" >&2; sed 's/^/  /' $(REACH)/new.txt >&2; exit 1; fi

# CPU profile of one benchmark workload, from its name: the workload
# file's specs (read, never written) through tcplp-bench on one worker,
# then the flat top of the profile. SETUP=1 profiles the zero-window runs
# instead (-warmup 0s -duration 1ms), which are what setup_s times:
# topology, adjacency, stack.New, flow start; they are short, so it runs
# 200 seeds unless SEEDS says otherwise.
#   make profile WORKLOAD=bulk_chain [SEEDS=9] [SETUP=1]
# Leaves bin/tcplp-bench and $(WORKLOAD).prof for `go tool pprof -list`.
WORKLOAD ?= bulk_chain
SETUP    ?=
SEEDS    ?= $(if $(SETUP),200,9)

profile:
	$(GO) build -o bin/tcplp-bench ./cmd/tcplp-bench
	$(GO) run ./tools/workloadspecs benchmark/workloads/$(WORKLOAD).json | \
		bin/tcplp-bench -scenario /dev/stdin -workers 1 -seeds $(SEEDS) $(if $(SETUP),-warmup 0s -duration 1ms) \
		-cpuprofile $(WORKLOAD).prof > /dev/null
	$(GO) tool pprof -top -nodecount=40 bin/tcplp-bench $(WORKLOAD).prof

# Render a sweep spec into a paper-style figure:
#   make plot SPEC=examples/scenarios/paper/fig6.json OUT=fig6
# Produces $(OUT).csv and $(OUT).png (needs gnuplot).
SPEC ?= examples/scenarios/paper/fig6.json
OUT  ?= sweep

plot:
	$(GO) run ./cmd/tcplp-bench -scenario $(SPEC) -format csv > $(OUT).csv
	gnuplot -e "csv='$(OUT).csv'; out='$(OUT).png'" tools/plot.gp
	@echo "wrote $(OUT).csv and $(OUT).png"
