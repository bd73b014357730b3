# Convenience targets around the go toolchain and the plotting recipe.

GO ?= go

.PHONY: build test race bench-smoke loc plot profile

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

# CPU profile of one benchmark workload, from its name: the workload
# file's specs (read, never written) through tcplp-bench on one worker,
# then the flat top of the profile.
#   make profile WORKLOAD=bulk_chain [SEEDS=9]
# Leaves bin/tcplp-bench and $(WORKLOAD).prof for `go tool pprof -list`.
WORKLOAD ?= bulk_chain
SEEDS    ?= 9

profile:
	$(GO) build -o bin/tcplp-bench ./cmd/tcplp-bench
	$(GO) run ./tools/workloadspecs benchmark/workloads/$(WORKLOAD).json | \
		bin/tcplp-bench -scenario /dev/stdin -workers 1 -seeds $(SEEDS) -cpuprofile $(WORKLOAD).prof > /dev/null
	$(GO) tool pprof -top -nodecount=40 bin/tcplp-bench $(WORKLOAD).prof

# Render a sweep spec into a paper-style figure:
#   make plot SPEC=examples/scenarios/fig6_sweep.json OUT=fig6
# Produces $(OUT).csv and $(OUT).png (needs gnuplot).
SPEC ?= examples/scenarios/fig6_sweep.json
OUT  ?= sweep

plot:
	$(GO) run ./cmd/tcplp-bench -scenario $(SPEC) -format csv > $(OUT).csv
	gnuplot -e "csv='$(OUT).csv'; out='$(OUT).png'" tools/plot.gp
	@echo "wrote $(OUT).csv and $(OUT).png"
