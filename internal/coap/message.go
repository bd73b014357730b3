// Package coap implements the Constrained Application Protocol (RFC 7252)
// message layer and the pieces the paper's §9 evaluation needs: a
// confirmable-exchange client with the default congestion control, the
// CoCoA RTO algorithm (including the retransmission-ambiguity behaviour
// §9.4 identifies), blockwise batch transfer that does not discard a
// whole batch on one failure (§9.1), and nonconfirmable (unreliable)
// mode (§9.6).
//
// # Buffer ownership
//
// The codec works in place: AppendEncode appends to the caller's buffer
// and DecodeInto fills the caller's Message, whose token, option values
// and payload alias the datagram and live as long as it does. A Client
// pools its exchanges; each owns the buffer its message is encoded into
// at PostJID (whose arguments are the caller's again on return), is sent
// from that buffer every time — udp copies it — and goes back to the
// pool only after its done callback, which is lent the payload, has
// returned. A Server decodes into its one Message, so OnPost's payload
// is good for the call only, and keeps each ACK (≤ 12 bytes) inline in
// its dedup entry.
package coap

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Type is the CoAP message type.
type Type uint8

// Message types.
const (
	CON Type = 0
	NON Type = 1
	ACK Type = 2
	RST Type = 3
)

func (t Type) String() string {
	switch t {
	case CON:
		return "CON"
	case NON:
		return "NON"
	case ACK:
		return "ACK"
	case RST:
		return "RST"
	}
	return "?"
}

// Code is a CoAP request method or response code (class.detail).
type Code uint8

// Codes used in this implementation.
const (
	CodeEmpty    Code = 0
	CodeGET      Code = 1
	CodePOST     Code = 2
	CodeCreated  Code = 2<<5 | 1  // 2.01
	CodeChanged  Code = 2<<5 | 4  // 2.04
	CodeContent  Code = 2<<5 | 5  // 2.05
	CodeContinue Code = 2<<5 | 31 // 2.31 (block transfer continue)
	CodeNotFound Code = 4<<5 | 4  // 4.04
)

func (c Code) String() string { return fmt.Sprintf("%d.%02d", c>>5, c&0x1f) }

// Option numbers.
const (
	OptUriPath       = 11
	OptContentFormat = 12
	OptBlock1        = 27
)

// Option is one CoAP option instance.
type Option struct {
	Number uint16
	Value  []byte
}

// Message is a parsed CoAP message.
type Message struct {
	Type      Type
	Code      Code
	MessageID uint16
	Token     []byte
	Options   []Option // must be sorted by Number before encoding
	Payload   []byte
}

// Codec errors.
var (
	ErrTruncated  = errors.New("coap: truncated message")
	ErrBadVersion = errors.New("coap: bad version")
	ErrBadOption  = errors.New("coap: bad option encoding")
)

// AddOption appends an option, keeping the list sorted by number.
func (m *Message) AddOption(num uint16, val []byte) {
	opt := Option{Number: num, Value: val}
	i := len(m.Options)
	for i > 0 && m.Options[i-1].Number > num {
		i--
	}
	m.Options = append(m.Options, Option{})
	copy(m.Options[i+1:], m.Options[i:])
	m.Options[i] = opt
}

// Encode serializes the message into a fresh buffer.
// Outside tests only benchmark/kernels.go calls it; it leaves with the
// benchmark refresh (ROADMAP item 5).
func (m *Message) Encode() []byte { return m.AppendEncode(make([]byte, 0, 16+len(m.Payload))) }

// AppendEncode appends the serialized message (RFC 7252 §3) to dst.
func (m *Message) AppendEncode(dst []byte) []byte {
	if len(m.Token) > 8 {
		panic("coap: token too long")
	}
	dst = append(dst, 1<<6|uint8(m.Type)<<4|uint8(len(m.Token)), uint8(m.Code))
	dst = binary.BigEndian.AppendUint16(dst, m.MessageID)
	dst = append(dst, m.Token...)
	prev := uint16(0)
	for _, o := range m.Options {
		h := len(dst)
		dst = append(dst, 0)
		var dn, ln uint8
		dst, dn = appendOptExt(dst, int(o.Number-prev))
		dst, ln = appendOptExt(dst, len(o.Value))
		dst[h] = dn<<4 | ln
		dst = append(dst, o.Value...)
		prev = o.Number
	}
	if len(m.Payload) > 0 {
		dst = append(dst, 0xff)
		dst = append(dst, m.Payload...)
	}
	return dst
}

// appendOptExt appends the extension bytes an option delta or length of
// 13 or more needs and returns v's 4-bit header field.
func appendOptExt(dst []byte, v int) ([]byte, uint8) {
	switch {
	case v < 13:
		return dst, uint8(v)
	case v < 269:
		return append(dst, uint8(v-13)), 13
	default:
		return binary.BigEndian.AppendUint16(dst, uint16(v-269)), 14
	}
}

// Decode is DecodeInto a fresh Message.
// Outside tests only benchmark/kernels.go calls it; it leaves with the
// benchmark refresh (ROADMAP item 5).
func Decode(b []byte) (*Message, error) {
	m := new(Message)
	return m, DecodeInto(m, b)
}

// DecodeInto parses a CoAP message into m, reusing m's option list; its
// token, option values and payload alias b. On error m is half-written.
func DecodeInto(m *Message, b []byte) error {
	if len(b) < 4 {
		return ErrTruncated
	}
	if b[0]>>6 != 1 {
		return ErrBadVersion
	}
	tkl := int(b[0] & 0xf)
	if tkl > 8 || len(b) < 4+tkl {
		return ErrTruncated
	}
	*m = Message{
		Type:      Type(b[0] >> 4 & 0x3),
		Code:      Code(b[1]),
		MessageID: binary.BigEndian.Uint16(b[2:4]),
		Options:   m.Options[:0],
	}
	if tkl > 0 {
		m.Token = b[4 : 4+tkl]
	}
	i := 4 + tkl
	number := 0
	for i < len(b) {
		if b[i] == 0xff {
			i++
			if i >= len(b) {
				return ErrTruncated
			}
			m.Payload = b[i:]
			return nil
		}
		dn := int(b[i] >> 4)
		ln := int(b[i] & 0xf)
		i++
		var delta, length int
		var err error
		if delta, i, err = readOptExt(b, i, dn); err != nil {
			return err
		}
		if length, i, err = readOptExt(b, i, ln); err != nil {
			return err
		}
		if i+length > len(b) {
			return ErrTruncated
		}
		// A delta can be 65 804; option numbers are 16 bits.
		if number += delta; number > 0xffff {
			return ErrBadOption
		}
		m.Options = append(m.Options, Option{Number: uint16(number), Value: b[i : i+length]})
		i += length
	}
	return nil
}

func readOptExt(b []byte, i, nib int) (int, int, error) {
	switch nib {
	case 13:
		if i >= len(b) {
			return 0, i, ErrTruncated
		}
		return int(b[i]) + 13, i + 1, nil
	case 14:
		if i+1 >= len(b) {
			return 0, i, ErrTruncated
		}
		return int(binary.BigEndian.Uint16(b[i:])) + 269, i + 2, nil
	case 15:
		return 0, i, ErrBadOption
	default:
		return nib, i, nil
	}
}

// Block1 is the RFC 7959 Block1 option value: block number, more flag,
// and block size exponent (size = 2^(szx+4)).
type Block1 struct {
	Num  uint32
	More bool
	SZX  uint8
}

// AppendEncode appends the packed option value (1–3 bytes) to dst.
func (b Block1) AppendEncode(dst []byte) []byte {
	v := b.Num<<4 | uint32(b.SZX)&0x7
	if b.More {
		v |= 0x8
	}
	switch {
	case v < 1<<8:
		return append(dst, uint8(v))
	case v < 1<<16:
		return binary.BigEndian.AppendUint16(dst, uint16(v))
	default:
		return append(dst, uint8(v>>16), uint8(v>>8), uint8(v))
	}
}
