package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// Manifest is what one run cost the simulator, as distinct from what the
// simulated network did: which program ran which spec, what each phase
// took in wall-clock time and allocations, and the engine and channel
// counters that performance claims rest on. Like ns-3's FlowMonitor it is
// one monitor with a fixed schema, attached on request
// (ObsConfig.Manifest) and serialised once per run. Its times and
// allocations differ from run to run, so it stays out of every digest,
// and a run that fills it leaves every other Result field as it would be.
type Manifest struct {
	Spec string `json:"spec"`
	// SpecSHA256 hashes the JSON of the expanded cell, defaults applied:
	// what the run was built from.
	SpecSHA256 string `json:"spec_sha256"`
	Seed       int64  `json:"seed"`
	GoVersion  string `json:"go_version"`
	// Revision is the VCS revision the binary was built from, with
	// "+dirty" when the tree had changes; empty when the build recorded
	// none.
	Revision string `json:"revision,omitempty"`
	// Phases are build (topology, stack, flows), run (warm-up, window and
	// any idle phase) and collect.
	Phases []Phase `json:"phases"`
	// Events is the number of engine events fired, Result.Events.
	Events  uint64       `json:"events"`
	Engine  sim.Counters `json:"engine"`
	Channel phy.Counters `json:"channel"`
}

// Phase is one phase's host cost. Allocations are runtime.MemStats deltas,
// which are process-wide: they are the run's own only when it runs alone
// (Runner.Workers 1).
type Phase struct {
	Name       string `json:"name"`
	WallNs     int64  `json:"wall_ns"`
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// manifestClock times a run's phases into its manifest. A nil clock, what
// startManifest returns when no manifest is asked for, does nothing.
type manifestClock struct {
	m      Manifest
	t      time.Time
	allocs uint64
	bytes  uint64
}

func startManifest(oc *ObsConfig) *manifestClock {
	if oc == nil || !oc.Manifest {
		return nil
	}
	mc := &manifestClock{}
	mc.t, mc.allocs, mc.bytes = hostNow()
	return mc
}

// hostNow reads the wall clock and the process's allocation totals.
func hostNow() (t time.Time, allocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Now(), ms.Mallocs, ms.TotalAlloc
}

// lap closes the phase called name, which began at the previous lap.
func (mc *manifestClock) lap(name string) {
	if mc == nil {
		return
	}
	t, allocs, bytes := hostNow()
	mc.m.Phases = append(mc.m.Phases, Phase{
		Name:       name,
		WallNs:     t.Sub(mc.t).Nanoseconds(),
		Allocs:     allocs - mc.allocs,
		AllocBytes: bytes - mc.bytes,
	})
	mc.t, mc.allocs, mc.bytes = t, allocs, bytes
}

// manifest completes the manifest of the run rc, or returns nil.
func (mc *manifestClock) manifest(rc *runContext) *Manifest {
	if mc == nil {
		return nil
	}
	m := &mc.m
	m.Spec, m.Seed = rc.spec.Name, rc.seed
	if b, err := json.Marshal(rc.spec); err == nil {
		sum := sha256.Sum256(b)
		m.SpecSHA256 = hex.EncodeToString(sum[:])
	}
	m.GoVersion, m.Revision = runtime.Version(), revision()
	m.Events = rc.net.Eng.Processed()
	m.Engine = rc.net.Eng.Counters()
	m.Channel = rc.net.Channel.Counters()
	return m
}

// revision is the VCS revision recorded in the binary, if any.
var revision = sync.OnceValue(func() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev string
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
})
