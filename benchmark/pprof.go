package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small stdlib-only reader of the gzip'd pprof protobuf that
// runtime/pprof writes, so go.mod stays free of dependencies. It decodes
// exactly what the layer attribution needs — sample -> location ->
// function -> name — and skips every other field.

// stackSample is one profile sample: its call stack as function names,
// leaf first with inlined frames expanded, and its first value (the
// sample count of a CPU profile).
type stackSample struct {
	Stack []string
	Count int64
}

var errTruncated = errors.New("pprof: truncated message")

// pbReader walks one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are
// skipped; pprof's messages have none we need.
func (r *pbReader) next() (field int, val uint64, data []byte, err error) {
	for {
		key, err := r.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			val, err = r.varint()
			return field, val, nil, err
		case 2:
			n, err := r.varint()
			if err != nil {
				return 0, 0, nil, err
			}
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
			return field, 0, data, nil
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if len(r.b) < n {
				return 0, 0, nil, errTruncated
			}
			r.b = r.b[n:]
		default:
			return 0, 0, nil, fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
	}
}

// repeatedVarint appends a repeated scalar field's values, packed (data)
// or not (val).
func repeatedVarint(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzip'd pprof profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost inline first
		functions = map[uint64]uint64{}   // function id -> name's string index
		strs      []string
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s rawSample
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = repeatedVarint(s.locs, v, d)
				case 2:
					s.vals, err = repeatedVarint(s.vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pbReader{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locations[id] = fns
		case 5: // Function
			var id, name uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			functions[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{Count: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				idx := functions[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: function %d names string %d of %d", fn, idx, len(strs))
				}
				ss.Stack = append(ss.Stack, strs[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// harnessLayer marks samples taken in the harness's own code between
// reps (the forced collection, the memory statistics, verification);
// they are left out of the shares.
const harnessLayer = "harness"

// layerOfFunc maps a function's symbol name to the layer its package
// is, or "" for a function outside the repo (runtime, stdlib).
func layerOfFunc(fn string) string {
	// The package path ends at the first dot after the last slash, once
	// receivers and type arguments (which may hold slashes of their own)
	// are cut off.
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "main", pkg == "millipage/benchmark": // the latter under go test
		return harnessLayer
	case pkg == "millipage":
		return "root"
	case strings.HasPrefix(pkg, "millipage/internal/"):
		name := pkg[len("millipage/internal/"):]
		if name == "faultnet" {
			return "fastmsg" // the fault policy the transport consults per frame
		}
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "millipage/"):
		return "other"
	}
	return ""
}

// layerShares attributes every sample to the first frame from the leaf
// that belongs to a repo package; a stack with none is the Go runtime's
// (collector, scheduler, goroutine handoff). Shares are of the samples
// attributed, harness samples left out, and sum to 1.
func layerShares(samples []stackSample) (shares map[string]float64, total int64) {
	counts := map[string]int64{}
	for _, s := range samples {
		layer := "goruntime"
		for _, fn := range s.Stack {
			if l := layerOfFunc(fn); l != "" {
				layer = l
				break
			}
		}
		if layer != harnessLayer {
			counts[layer] += s.Count
			total += s.Count
		}
	}
	shares = make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, total
}
