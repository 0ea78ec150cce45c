package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShareLayers are the layers a CPU profile is split over; a sample
// that belongs to none of them counts as "other", so the shares sum
// to 1.
var cpuShareLayers = []string{"crypto", "sortition", "wire", "ledger", "diskstore", "txflow",
	"agreement", "network", "realnet", "node", "vtime", "runtime", "other"}

// layerOf buckets a function by its package: the program's packages by
// the directory under internal/ (sub-packages go with their parent,
// except ledger/diskstore; binomial, sortition's selection arithmetic,
// goes with sortition), the standard library's crypto/* with crypto,
// the Go runtime as runtime, everything else as other.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "algorand/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, ".("); i >= 0 {
			pkg = rest[:i]
		}
		if strings.HasPrefix(pkg, "ledger/diskstore") {
			return "diskstore"
		}
		if i := strings.IndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[:i]
		}
		if pkg == "binomial" {
			return "sortition"
		}
		for _, l := range cpuShareLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "crypto/"), strings.HasPrefix(fn, "vendor/golang.org/x/crypto/"):
		return "crypto"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/"),
		strings.HasPrefix(fn, "internal/runtime/"), fn == "gogo":
		return "runtime"
	}
	return "other"
}

// cpuShares splits a CPU profile's flat time by layer and stores
// "<layer>.cpu_share" for every layer. An empty profile (a run too
// short for one 10 ms sample) books everything to other.
func cpuShares(profile []byte, out map[string]float64) error {
	flat, err := flatByFunction(profile)
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	byLayer := make(map[string]float64)
	var total float64
	for fn, v := range flat {
		byLayer[layerOf(fn)] += v
		total += v
	}
	for _, l := range cpuShareLayers {
		out[l+".cpu_share"] = ratio(byLayer[l], total)
	}
	if total == 0 {
		out["other.cpu_share"] = 1
	}
	return nil
}

// flatByFunction decodes a gzipped pprof profile (profile.proto) far
// enough to attribute each sample's last value (cpu nanoseconds) to the
// function at the top of its stack.
func flatByFunction(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	locFunc := make(map[uint64]uint64) // location id → innermost function id
	funcName := make(map[uint64]int64) // function id → string table index
	var strs []string

	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1: // location_id, leaf first
					ids, err := uvarints(v, b)
					if err != nil {
						return err
					}
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2: // value
					vals, err := uvarints(v, b)
					if err != nil {
						return err
					}
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := make(map[string]float64)
	for _, s := range samples {
		name := "unknown"
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		flat[name] += float64(s.value)
	}
	return flat, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, handing every field to fn:
// varint fields as v, length-delimited fields as b.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wt)
		}
	}
	return nil
}

// uvarints reads a repeated integer field, which arrives either packed
// (b non-nil) or as one varint (v).
func uvarints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
