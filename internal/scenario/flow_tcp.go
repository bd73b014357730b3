package scenario

import (
	"tcplp/internal/app"
	"tcplp/internal/gateway"
	"tcplp/internal/sim"
	"tcplp/internal/stats"
	"tcplp/internal/tcplp"
)

// tcpProbe runs bulk and anemometer patterns over one TCPlp
// connection — the internal/app workloads the throughput and telemetry
// experiments share.
type tcpProbe struct {
	*telemetry
	cfg tcplp.Config // effective sender config (profile-aware)

	conn *tcplp.Conn
	bulk *app.Source // bulk source (nil for anemometer)

	rtts stats.Sample // RTT samples over the connection's life, in ms
	base tcplp.ConnStats
	cwnd []CwndPoint // the trajectory since mark, for spec.Trace flows
}

func startTCP(t *telemetry, srcCfg, sinkCfg tcplp.Config) *tcpProbe {
	p := &tcpProbe{telemetry: t, cfg: srcCfg}
	fs, src, dst := &t.fr.spec, t.fr.src, t.fr.dst
	switch fs.Pattern {
	case PatternBulk:
		t.sink = &app.ListenSinkConfig(dst, fs.port, sinkCfg).CountingSink
		p.bulk = app.StartBulkConfig(src, srcCfg, dst.Addr, fs.port)
		p.conn = p.bulk.Conn
	default: // PatternAnemometer: ParseSpecs refuses every other pattern
		port := fs.port
		if t.gw != nil {
			port = gateway.DefaultTCPPort
			t.register()
		} else {
			t.sink = &app.ListenReadingSink(dst, fs.port, sinkCfg, t.deliver).CountingSink
		}
		tr := app.NewTCPTransportConfig(src, srcCfg, dst.Addr, port)
		t.startSensor(tr)
		p.conn = tr.Conn
	}
	// RTT samples are collected over the connection's whole life — the
	// estimator's full history, matching the paper's median-RTT plots —
	// unlike the byte counters, which cover only the post-mark window.
	p.conn.TraceRTT = func(s sim.Duration) {
		p.rtts.Add(float64(s) / float64(sim.Millisecond))
	}
	return p
}

func (p *tcpProbe) mark() {
	p.telemetry.mark()
	p.base = p.conn.Stats
	if p.fr.spec.Trace {
		p.conn.TraceCwnd = func(now sim.Time, cwnd, ssthresh int) {
			p.cwnd = append(p.cwnd, CwndPoint{T: Duration(now), Cwnd: cwnd, Ssthresh: ssthresh})
		}
	}
}

// stop ends the workload; an anemometer's connection closes behind it.
func (p *tcpProbe) stop() {
	if p.stopped {
		return
	}
	p.telemetry.stop()
	if p.bulk != nil {
		p.bulk.Stop()
		return
	}
	p.conn.Close()
}

func (p *tcpProbe) collect(r *FlowResult) {
	st := p.conn.Stats
	r.Variant = string(p.cfg.Variant)
	r.WindowSegs = p.cfg.RecvBufSize / p.cfg.MSS
	r.MSS = p.cfg.MSS
	r.SentBytes = int(st.BytesSent - p.base.BytesSent)
	r.Retransmits = st.Retransmits - p.base.Retransmits
	r.Timeouts = st.Timeouts - p.base.Timeouts
	r.FastRtx = st.FastRetransmits - p.base.FastRetransmits
	r.SRTTms = p.conn.SRTT().Milliseconds()
	r.RTOms = p.conn.RTO().Milliseconds()
	fillRTT(r, &p.rtts)
	r.CwndTrace = p.cwnd
	p.telemetry.collect(r, p.conn.BufferedBytes()/app.ReadingSize)
}

// fillRTT reports a flow's RTT sample distribution.
func fillRTT(r *FlowResult, rtts *stats.Sample) {
	r.MeanRTTms = rtts.Mean()
	r.MedianRTTms = rtts.Median()
	r.RTTp10ms = rtts.Quantile(0.1)
	r.RTTp90ms = rtts.Quantile(0.9)
	r.RTTMaxms = rtts.Max()
}
