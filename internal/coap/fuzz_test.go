package coap

import (
	"bytes"
	"errors"
	"testing"

	"tcplp/internal/ip6"
	"tcplp/internal/sim"
)

// Seeds shared by the fuzz targets: a POST as the client sends it, the
// piggybacked ACK the server answers with, and the input whose second
// option delta carries the running option number past 16 bits (60 000 +
// 6 157 used to wrap to a well-formed option 621).
var (
	seedPOST = (&Message{Type: CON, Code: CodePOST, MessageID: 0x1f07, Token: []byte{0, 0, 0, 9},
		Options: []Option{{OptUriPath, []byte("telemetry")}, {OptBlock1, Block1{Num: 8, SZX: 6}.AppendEncode(nil)}},
		Payload: bytes.Repeat([]byte{0, 0, 0, 41, 7}, 82)}).Encode()
	seedACK  = (&Message{Type: ACK, Code: CodeChanged, MessageID: 0x1f07, Token: []byte{0, 0, 0, 9}}).Encode()
	seedWrap = []byte{0x40, 0x02, 0x00, 0x01, 0xe0, 0xe9, 0x53, 0xe0, 0x17, 0x00}
)

func TestDecodeRejectsOptionNumberWrap(t *testing.T) {
	if m, err := Decode(seedWrap); !errors.Is(err, ErrBadOption) {
		t.Fatalf("option number past 65535 decoded to %+v, %v; want ErrBadOption", m, err)
	}
	// The largest number that fits still decodes.
	if m, err := Decode([]byte{0x40, 0x02, 0, 1, 0xe0, 0xfe, 0xf2}); err != nil || m.Options[0].Number != 0xffff {
		t.Fatalf("option 65535: %+v, %v", m, err)
	}
}

// A header whose token length nibble is 9–15 (RFC 7252 reserves them) is
// refused by DecodeInto as truncated, even with the bytes present, so
// nothing a peer sends reaches AppendEncode's "token too long" panic: the
// server neither hands it to OnPost nor answers it.
func TestTokenLengthOverEightRefused(t *testing.T) {
	p := newPipe(1, sim.Millisecond)
	srv := NewServer(p.eng, p.b, DefaultPort)
	srv.OnPost = func(ip6.Addr, []byte) Code {
		t.Error("a request with an oversized token reached OnPost")
		return CodeChanged
	}
	answered := 0
	p.a.Bind(DefaultPort+1, func(ip6.Addr, uint16, []byte) { answered++ })
	for tkl := 9; tkl <= 15; tkl++ {
		b := []byte{1<<6 | uint8(CON)<<4 | uint8(tkl), uint8(CodePOST), 0, uint8(tkl)}
		b = append(b, bytes.Repeat([]byte{0xab}, tkl)...)
		b = append(b, 0xff, 'x')
		var m Message
		if err := DecodeInto(&m, b); !errors.Is(err, ErrTruncated) {
			t.Fatalf("token length %d: DecodeInto = %v, want ErrTruncated", tkl, err)
		}
		p.a.Send(ip6.AddrFromID(1), DefaultPort, DefaultPort+1, b)
	}
	p.eng.RunUntil(sim.Time(sim.Second))
	if srv.Stats.Requests != 0 || answered != 0 {
		t.Fatalf("server took %d requests and answered %d, want none", srv.Stats.Requests, answered)
	}
}

func sameMessage(t *testing.T, what string, got, want *Message) {
	t.Helper()
	ok := got.Type == want.Type && got.Code == want.Code && got.MessageID == want.MessageID &&
		bytes.Equal(got.Token, want.Token) && bytes.Equal(got.Payload, want.Payload) &&
		len(got.Options) == len(want.Options)
	for i := 0; ok && i < len(want.Options); i++ {
		ok = got.Options[i].Number == want.Options[i].Number && bytes.Equal(got.Options[i].Value, want.Options[i].Value)
	}
	if !ok {
		t.Fatalf("%s: %+v, want %+v", what, got, want)
	}
}

// FuzzDecodeMessage: no input panics the decoder; what it accepts
// aliases the input, is what the Decode wrapper and a dirty reused
// Message also produce, and survives re-encoding.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(seedPOST)
	f.Add(seedACK)
	f.Add(seedWrap)
	f.Fuzz(func(t *testing.T, b []byte) {
		var m Message
		if err := DecodeInto(&m, b); err != nil {
			return
		}
		if n := len(m.Payload); n > 0 && &m.Payload[n-1] != &b[len(b)-1] {
			t.Fatal("payload does not alias the tail of b")
		}
		if n := len(m.Token); n > 0 && &m.Token[0] != &b[4] {
			t.Fatal("token does not alias b")
		}
		w, err := Decode(b)
		if err != nil {
			t.Fatalf("wrapper rejects what DecodeInto accepts: %v", err)
		}
		sameMessage(t, "wrapper", w, &m)
		var reused Message // dirty: a token, two options and a payload set
		if err := DecodeInto(&reused, seedPOST); err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&reused, b); err != nil {
			t.Fatalf("dirty Message rejects what a clean one accepts: %v", err)
		}
		sameMessage(t, "dirty reuse", &reused, &m)
		again, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		sameMessage(t, "re-encode", again, &m)
	})
}

// FuzzDecodeBlock1: decode ∘ encode is the identity on every value the
// decoder accepts.
func FuzzDecodeBlock1(f *testing.F) {
	f.Add(Block1{Num: 8, SZX: 6}.AppendEncode(nil))
	f.Add(Block1{Num: 1 << 19, More: true, SZX: 2}.AppendEncode(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		blk, err := DecodeBlock1(b)
		if err != nil {
			return
		}
		enc := blk.AppendEncode(nil)
		if got, err := DecodeBlock1(enc); err != nil || got != blk || len(enc) > len(b) {
			t.Fatalf("%x decodes to %+v, which encodes to %x and decodes to %+v, %v", b, blk, enc, got, err)
		}
	})
}
