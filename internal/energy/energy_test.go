package energy

import (
	"testing"

	"tcplp/internal/sim"
)

func TestCPUMeterDutyCycle(t *testing.T) {
	eng := sim.NewEngine(1)
	m := MakeCPUMeter(eng)
	// 100 ms of busy work over a 10 s window → 1%.
	m.Charge(100 * sim.Millisecond)
	eng.RunUntil(sim.Time(10 * sim.Second))
	if dc := m.DutyCycle(); dc < 0.0099 || dc > 0.0101 {
		t.Fatalf("duty cycle = %.4f, want 0.01", dc)
	}
}

func TestCPUMeterReset(t *testing.T) {
	eng := sim.NewEngine(1)
	m := MakeCPUMeter(eng)
	m.Charge(sim.Second)
	eng.RunUntil(sim.Time(2 * sim.Second))
	m.Reset()
	eng.RunUntil(sim.Time(4 * sim.Second))
	if m.Busy() != 0 {
		t.Fatalf("busy after reset = %v", m.Busy())
	}
	m.Charge(200 * sim.Millisecond)
	if dc := m.DutyCycle(); dc < 0.09 || dc > 0.11 {
		t.Fatalf("post-reset duty cycle = %.3f, want 0.1", dc)
	}
}

func TestChargeHelpers(t *testing.T) {
	eng := sim.NewEngine(1)
	m := MakeCPUMeter(eng)
	m.ChargeFrameTx()
	m.ChargeFrameRx()
	m.ChargeSegment()
	want := FrameTxCost + FrameRxCost + SegmentCost
	if m.Busy() != want {
		t.Fatalf("busy = %v, want %v", m.Busy(), want)
	}
	m.Reset()
	m.ChargeBytes(2048)
	if m.Busy() != 2*PerKByteCost {
		t.Fatalf("byte charge = %v, want %v", m.Busy(), 2*PerKByteCost)
	}
	m.Charge(-5) // negative charges ignored
	if m.Busy() != 2*PerKByteCost {
		t.Fatal("negative charge accepted")
	}
}

func TestDutyCycleClamps(t *testing.T) {
	eng := sim.NewEngine(1)
	m := MakeCPUMeter(eng)
	if m.DutyCycle() != 0 {
		t.Fatal("zero-elapsed duty cycle not 0")
	}
	m.Charge(10 * sim.Second)
	eng.RunUntil(sim.Time(sim.Second))
	if m.DutyCycle() != 1 {
		t.Fatalf("over-busy duty cycle = %v, want clamp to 1", m.DutyCycle())
	}
}
