package scenario

import "tcplp/internal/app"

// udpProbe runs the anemometer pattern over raw UDP datagrams — the
// unreliable floor of the §9 comparison: no acknowledgments, no
// retransmissions, delivery credited only for datagrams that survive
// the mesh.
type udpProbe struct {
	*telemetry
	tr            *app.UDPTransport
	markSentBytes uint64
}

func startUDP(t *telemetry) *udpProbe {
	fs, src, dst := &t.fr.spec, t.fr.src, t.fr.dst
	t.sink = app.ListenReadingUDP(dst, fs.port, t.deliver)
	tr := app.NewUDPTransport(src, dst.Addr, fs.port, messageSize(t.net, app.ReadingSize))
	t.startSensor(tr)
	return &udpProbe{telemetry: t, tr: tr}
}

func (p *udpProbe) mark() {
	p.telemetry.mark()
	p.markSentBytes = p.tr.SentBytes
}

// collect reports SentBytes as datagram payload put on the wire; there
// is no reliability machinery to report, and nothing in flight: a sent
// datagram is delivered or lost.
func (p *udpProbe) collect(r *FlowResult) {
	r.MSS = p.tr.MessageSize
	r.SentBytes = int(p.tr.SentBytes - p.markSentBytes)
	p.telemetry.collect(r, 0)
}
