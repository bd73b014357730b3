package udp

import "testing"

// FuzzDecode: no input panics the decoder; what it accepts has a length
// field that fits the buffer and a payload that is exactly b[8:length],
// aliased, not copied. Seeds: a CoAP POST and its ACK as udp.Stack sends
// them, and the CoAP option-number-wrap input behind a UDP header.
func FuzzDecode(f *testing.F) {
	post := append([]byte{0x40, 0x02, 0x1f, 0x07, 0xb9, 't', 'e', 'l', 'e', 'm', 'e', 't', 'r', 'y', 0xd1, 0x03, 0x86, 0xff}, make([]byte, 82)...)
	f.Add((&Datagram{SrcPort: 40001, DstPort: 5683, Payload: post}).AppendEncode(nil))
	f.Add((&Datagram{SrcPort: 5683, DstPort: 40001, Payload: []byte{0x64, 0x44, 0x1f, 0x07, 0, 0, 0, 9}}).AppendEncode(nil))
	f.Add((&Datagram{SrcPort: 9, DstPort: 5683, Payload: []byte{0x40, 0x02, 0x00, 0x01, 0xe0, 0xe9, 0x53, 0xe0, 0x17, 0x00}}).AppendEncode(nil))
	f.Add([]byte{0, 9, 0, 9, 0, 7, 0, 0}) // length field shorter than the header
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := Decode(b)
		if err != nil {
			return
		}
		ln := int(b[4])<<8 | int(b[5])
		if ln < HeaderLen || ln > len(b) {
			t.Fatalf("accepted length field %d in a %d-byte buffer", ln, len(b))
		}
		if len(d.Payload) != ln-HeaderLen || (len(d.Payload) > 0 && &d.Payload[0] != &b[HeaderLen]) {
			t.Fatalf("payload (%d bytes) is not b[8:%d]", len(d.Payload), ln)
		}
		if d.SrcPort != uint16(b[0])<<8|uint16(b[1]) || d.DstPort != uint16(b[2])<<8|uint16(b[3]) {
			t.Fatalf("ports %d→%d from % x", d.SrcPort, d.DstPort, b[:4])
		}
		again, err := Decode(d.AppendEncode(nil))
		if err != nil || again.SrcPort != d.SrcPort || again.DstPort != d.DstPort || string(again.Payload) != string(d.Payload) {
			t.Fatalf("re-encoded datagram decodes to %+v, %v", again, err)
		}
	})
}
