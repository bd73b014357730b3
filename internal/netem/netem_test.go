package netem

import (
	"testing"

	"tcplp/internal/mesh"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
)

func TestUniformLossRate(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.5, 1} {
		f := UniformLoss(p, 42)
		drops := 0
		const n = 5000
		for i := 0; i < n; i++ {
			if f(nil) {
				drops++
			}
		}
		got := float64(drops) / n
		if got < p-0.03 || got > p+0.03 {
			t.Fatalf("p=%.2f: measured %.3f", p, got)
		}
	}
}

func TestUniformLossDeterministic(t *testing.T) {
	a, b := UniformLoss(0.3, 7), UniformLoss(0.3, 7)
	for i := 0; i < 1000; i++ {
		if a(nil) != b(nil) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDiurnalProfileBounds(t *testing.T) {
	prof := DiurnalProfile(2.0)
	for h := 0; h < 48; h++ {
		v := prof(sim.Time(h) * sim.Time(sim.Hour))
		if v < 0 || v > 2.0 {
			t.Fatalf("hour %d: activity %v out of [0,2]", h, v)
		}
	}
}

func TestAddOfficeInterferenceDisturbsChannel(t *testing.T) {
	net := stack.New(1, mesh.Office(), stack.DefaultOptions())
	ins := AddOfficeInterference(net, 1.0)
	if len(ins) == 0 {
		t.Fatal("no interferers placed")
	}
	for _, in := range ins {
		in.Activity = nil // constant activity for the test
		in.Start()
	}
	// Run mid-day so the sources are active, then check they transmitted.
	net.Eng.RunFor(30 * sim.Second)
	// Every radio on the channel but the nodes' is an interferer's.
	noiseFrames := net.TotalFramesSent()
	for _, n := range net.Nodes {
		noiseFrames -= n.Radio.FramesSent()
	}
	if noiseFrames == 0 {
		t.Fatal("interferers never transmitted")
	}
}
