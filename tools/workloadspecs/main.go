// Command workloadspecs prints the "specs" array of a benchmark workload
// file (benchmark/workloads/<name>.json) — the scenario specs the harness
// would hand the program, seeds as checked in — so a workload can be run
// or profiled through tcplp-bench by name (`make profile`). It reads the
// file and changes nothing.
//
//	go run ./tools/workloadspecs benchmark/workloads/bulk_chain.json | tcplp-bench -scenario /dev/stdin
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: workloadspecs benchmark/workloads/<name>.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var w struct {
		Specs json.RawMessage `json:"specs"`
	}
	if err := json.Unmarshal(data, &w); err != nil || len(w.Specs) == 0 {
		fmt.Fprintf(os.Stderr, "%s: no \"specs\" array (%v)\n", os.Args[1], err)
		os.Exit(1)
	}
	if _, err := os.Stdout.Write(append(w.Specs, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
