package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the gzipped profile.proto that runtime/pprof writes, just
// deep enough to attribute CPU samples to layers: samples → locations →
// functions → string table. It exists so the benchmark needs nothing
// beyond the standard library.

// minProfileSamples is the fewest samples a share is reported from: at
// the profiler's 100 Hz, under 200 samples a 1% share is two ticks.
const minProfileSamples = 200

// modulePrefix marks the repository's own layers in function names.
const modulePrefix = "tcplp/internal/"

// pbuf walks one protobuf message's fields.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes. Fixed-width fields are skipped.
func (p *pbuf) next() (field int, v uint64, data []byte, ok bool) {
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			return field, p.varint(), nil, p.err == nil
		case 2:
			n := p.varint()
			if p.err != nil || n > uint64(len(p.b)) {
				p.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			data, p.b = p.b[:n], p.b[n:]
			return field, 0, data, true
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if len(p.b) < n {
				p.err = io.ErrUnexpectedEOF
				return 0, 0, nil, false
			}
			p.b = p.b[n:]
		default:
			p.err = fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return 0, 0, nil, false
}

// uint64s reads a repeated varint field given one occurrence of it,
// packed (data) or not (v).
func uint64s(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

// layerShares turns a CPU profile's per-layer sample counts into shares.
// It refuses profiles with under minProfileSamples.
func layerShares(gz []byte) (shares map[string]float64, samples int, err error) {
	counts, total, err := layerSamples(gz)
	if err != nil {
		return nil, 0, err
	}
	if total < minProfileSamples {
		return nil, int(total), fmt.Errorf("cpu profile has %d samples; refusing to report shares from fewer than %d", total, minProfileSamples)
	}
	shares = make(map[string]float64, len(counts))
	for l, c := range counts {
		shares[l] = float64(c) / float64(total)
	}
	return shares, int(total), nil
}

// layerSamples reads a CPU profile and counts, per layer, the samples
// whose leaf-most tcplp/internal/<pkg> frame is that package
// ("obs/journey" becomes layer "obs.journey"), with "runtime" holding
// the samples that have no such frame (collector, scheduler, the
// harness itself).
func layerSamples(gz []byte) (counts map[string]uint64, total uint64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %v", err)
	}
	type sample struct {
		locs  []uint64
		count uint64
	}
	var (
		all       []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf-most first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	top := pbuf{b: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		switch field {
		case 2: // Sample
			var s sample
			var values []uint64
			m := pbuf{b: data}
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs, m.err = uint64s(s.locs, v, d)
				case 2:
					values, m.err = uint64s(values, v, d)
				}
			}
			if m.err != nil {
				return nil, 0, fmt.Errorf("cpu profile sample: %v", m.err)
			}
			if len(values) > 0 {
				s.count = values[0] // sample_type[0] is samples/count
			}
			all = append(all, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			m := pbuf{b: data}
			for {
				f, v, d, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // Line; inlined callees come first
					l := pbuf{b: d}
					for {
						lf, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
					if l.err != nil {
						m.err = l.err
					}
				}
			}
			if m.err != nil {
				return nil, 0, fmt.Errorf("cpu profile location: %v", m.err)
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			m := pbuf{b: data}
			for {
				f, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if m.err != nil {
				return nil, 0, fmt.Errorf("cpu profile function: %v", m.err)
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if top.err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %v", top.err)
	}

	counts = map[string]uint64{}
	for _, s := range all {
		layer := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, 0, fmt.Errorf("cpu profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				if l, ok := layerOf(strs[idx]); ok {
					layer = l
					break walk
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	return counts, total, nil
}

// layerOf maps a function name such as
// "tcplp/internal/obs/journey.(*Recorder).Record" to its layer,
// "obs.journey".
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	// No package path in this module contains a dot, so the path ends at
	// the first one.
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "", false
	}
	return strings.ReplaceAll(rest[:dot], "/", "."), true
}
