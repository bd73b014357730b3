package experiments

import (
	"unsafe"

	"tcplp/internal/ip6"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
	"tcplp/internal/sixlowpan"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp"
)

// Table1 reproduces the feature matrix: which TCP features each stack
// supports. The uIP/BLIP/GNRC columns reflect the configuration profiles
// in package uip; the TCPlp column reflects tcplp's feature set.
func Table1() *Table {
	t := &Table{
		ID:      "table1",
		Title:   "Feature comparison among embedded TCP stacks",
		Columns: []string{"Feature", "uIP", "BLIP", "GNRC", "TCPlp"},
	}
	rows := [][5]string{
		{"Flow Control", "Yes", "Yes", "Yes", "Yes"},
		{"Congestion Control", "N/A", "No", "Yes", "Yes"},
		{"RTT Estimation", "Yes", "No", "Yes", "Yes"},
		{"MSS Option", "Yes", "No", "Yes", "Yes"},
		{"TCP Timestamps", "No", "No", "No", "Yes"},
		{"OOO Reassembly", "No", "No", "Yes", "Yes"},
		{"Selective ACKs", "No", "No", "No", "Yes"},
		{"Delayed ACKs", "No", "No", "No", "Yes"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3], r[4])
	}
	t.Note("TCPlp column is this library's default Config; baseline columns are the uip.Profile configurations")
	return t
}

// Table2 lists the platform classes the paper compares (§4, Table 2).
func Table2() *Table {
	t := &Table{
		ID:      "table2",
		Title:   "Platform comparison",
		Columns: []string{"Platform", "CPU", "ROM", "RAM"},
	}
	t.AddRow("TelosB", "16-bit, 25 MHz", "48 KiB", "10 KiB")
	t.AddRow("Hamilton", "32-bit, 48 MHz", "256 KiB", "32 KiB")
	t.AddRow("Firestorm", "32-bit, 48 MHz", "512 KiB", "64 KiB")
	t.AddRow("Raspberry Pi", "32-bit, 700 MHz", "SD card", "256 MB")
	t.Note("static reference data; the simulation models Hamilton-class timing")
	return t
}

// Table34 measures this implementation's connection-state memory
// footprint, answering the Tables 3/4 question — does full-scale TCP
// state fit in a few hundred bytes beyond its buffers — for our structs.
func Table34() *Table {
	t := &Table{
		ID:      "table34",
		Title:   "Memory footprint of TCPlp connection state (this implementation)",
		Columns: []string{"Object", "Bytes", "Notes"},
	}
	connSize := int(unsafe.Sizeof(tcplp.Conn{}))
	listenerSize := int(unsafe.Sizeof(tcplp.Listener{}))
	segSize := int(unsafe.Sizeof(tcplp.Segment{}))
	cfg := tcplp.DefaultConfig()
	t.AddRow("Active socket (Conn struct)", di(connSize), "both buffer headers inside, their byte arrays not; paper: a few hundred bytes")
	t.AddRow("Passive socket (Listener)", di(listenerSize), "paper: far smaller than active (§4.1)")
	t.AddRow("Segment descriptor", di(segSize), "transient per-packet state")
	t.AddRow("Send buffer", di(cfg.SendBufSize), "4 segments (§6.2)")
	t.AddRow("Receive buffer", di(cfg.RecvBufSize), "4 segments, in-place reassembly")
	t.AddRow("Reassembly bitmap", di((cfg.RecvBufSize+63)/64*8), "1 bit per buffered byte (Fig. 1b)")
	t.Note("Go struct sizes include pointers/interfaces absent on a Cortex-M0+; the comparison of interest is state ≪ buffers")
	return t
}

// Table5 compares frame transmission times across link technologies.
func Table5() *Table {
	t := &Table{
		ID:      "table5",
		Title:   "IEEE 802.15.4 vs traditional links",
		Columns: []string{"Physical layer", "Bandwidth", "Frame", "Tx time"},
	}
	t.AddRow("Gigabit Ethernet", "1 Gb/s", "1500 B", "0.012 ms")
	t.AddRow("Fast Ethernet", "100 Mb/s", "1500 B", "0.12 ms")
	t.AddRow("WiFi", "54 Mb/s", "1500 B", "0.22 ms")
	t.AddRow("Ethernet", "10 Mb/s", "1500 B", "1.2 ms")
	air := phy.AirTime(phy.MaxPHYPayload)
	t.AddRow("IEEE 802.15.4 (simulated)", "250 kb/s", "127 B",
		f2(float64(air)/float64(sim.Millisecond))+" ms")
	t.Note("simulated 127 B airtime %.3f ms vs paper's 4.1 ms; node occupancy incl. SPI %.3f ms vs paper's 8.2 ms",
		air.Milliseconds(), (air + phy.LoadTime(phy.MaxPHYPayload)).Milliseconds())
	return t
}

// Table6 measures per-frame header overhead for a five-frame TCP segment
// as actually produced by the codecs.
func Table6() *Table {
	t := &Table{
		ID:      "table6",
		Title:   "6LoWPAN fragmentation header overhead (measured from codecs)",
		Columns: []string{"Component", "First frame", "Other frames"},
	}
	// Build a five-frame TCP data packet and dissect it.
	info := stack.SegmentSizing(5, true)
	hdr := &ip6.Header{
		NextHeader: ip6.ProtoTCP,
		HopLimit:   64,
		Src:        ip6.AddrFromID(5),
		Dst:        ip6.AddrFromID(0),
	}
	seg := &tcplp.Segment{
		Flags: tcplp.FlagACK, HasTS: true,
		Payload: make([]byte, info.MSS),
	}
	segBytes := seg.AppendEncode(nil, hdr.Src, hdr.Dst)
	chdr := sixlowpan.AppendCompressHeader(nil, hdr)
	var frag sixlowpan.Fragmenter
	frames := frag.AppendFragments(nil, chdr, segBytes, phy.MaxMACPayload)

	t.AddRow("IEEE 802.15.4", di(phy.FrameOverhead), di(phy.FrameOverhead))
	t.AddRow("6LoWPAN fragment hdr", di(sixlowpan.Frag1HeaderLen), di(sixlowpan.FragNHeaderLen))
	t.AddRow("IPv6 (IPHC)", di(len(chdr)), "0")
	t.AddRow("TCP (w/ timestamps)", di(seg.HeaderLen()), "0")
	first := phy.FrameOverhead + sixlowpan.Frag1HeaderLen + len(chdr) + seg.HeaderLen()
	other := phy.FrameOverhead + sixlowpan.FragNHeaderLen
	t.AddRow("Total", di(first), di(other))
	t.Note("paper: 50-107 B first frame, 28-35 B others; a %d-frame segment carries %d B of TCP payload (MSS)",
		len(frames), info.MSS)
	return t
}
