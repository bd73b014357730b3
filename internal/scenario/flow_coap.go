package scenario

import (
	"tcplp/internal/app"
	"tcplp/internal/coap"
	"tcplp/internal/gateway"
	"tcplp/internal/ip6"
	"tcplp/internal/sim"
	"tcplp/internal/stats"
)

// coapProbe runs the anemometer pattern over CoAP POSTs — confirmable
// (retransmitted with the RFC 7252 or CoCoA RTO policy) or
// nonconfirmable (the §9.6 unreliable baseline) — against the gateway's
// shared CoAP terminator or a per-flow collector server on the sink
// node.
type coapProbe struct {
	*telemetry
	tr  *app.CoAPTransport
	srv *coap.Server // the flow's own collector; nil when the gateway's terminates it

	rtts stats.Sample // exchange RTT samples over the flow's life, ms
	base coap.ClientStats
}

func startCoAP(t *telemetry) *coapProbe {
	p := &coapProbe{telemetry: t}
	fs, src, dst := &t.fr.spec, t.fr.src, t.fr.dst
	port := fs.port
	if t.gw != nil {
		port = gateway.DefaultCoAPPort
		t.register()
	} else {
		t.sink = app.NewCountingSink(dst.Eng())
		p.srv = coap.NewServer(dst.Eng(), dst.UDP(), fs.port)
		p.srv.OnPost = func(_ ip6.Addr, payload []byte) coap.Code {
			t.sink.Received += len(payload)
			app.ForEachReading(payload, t.deliver)
			return coap.CodeChanged
		}
	}

	confirmable := fs.Confirmable == nil || *fs.Confirmable
	p.tr = app.NewCoAPTransportPort(src, dst.Addr, port, confirmable, messageSize(t.net, app.ReadingSize))
	if fs.RTO == "cocoa" {
		p.tr.Client.Policy = coap.NewCoCoA()
	}
	p.tr.Client.OnSample = func(d sim.Duration) {
		p.rtts.Add(d.Milliseconds())
	}
	t.startSensor(p.tr)
	return p
}

func (p *coapProbe) mark() {
	p.telemetry.mark()
	p.base = p.tr.Client.Stats
}

// collect reports CON retries as Retransmits and abandoned exchanges
// (MAX_RETRANSMIT exceeded) as Timeouts; pending exchanges hold a
// message of readings each.
func (p *coapProbe) collect(r *FlowResult) {
	st := p.tr.Client.Stats
	r.MSS = p.tr.MessageSize
	r.Retransmits = st.Retransmissions - p.base.Retransmissions
	r.Timeouts = st.GiveUps - p.base.GiveUps
	r.RTOms = p.tr.Client.Policy.OverallRTO().Milliseconds()
	fillRTT(r, &p.rtts)
	p.telemetry.collect(r, p.tr.Client.Pending()*p.tr.MessageSize/app.ReadingSize)
}
