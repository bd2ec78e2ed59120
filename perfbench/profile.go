package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
)

// cpuBuckets maps a Go package path to the cpu.<bucket> metric its
// flat samples count toward. Program packages not listed here, and
// every other package, count toward cpu.other.
var cpuBuckets = map[string]string{
	"silenttracker/internal/sim":         "sim",
	"silenttracker/internal/channel":     "channel",
	"silenttracker/internal/antenna":     "antenna",
	"silenttracker/internal/phy":         "phy",
	"silenttracker/internal/ue":          "ue",
	"silenttracker/internal/netem":       "netem",
	"silenttracker/internal/mobility":    "mobility",
	"silenttracker/internal/geom":        "geom",
	"silenttracker/internal/core":        "core",
	"silenttracker/internal/world":       "world",
	"silenttracker/internal/scenario":    "scenario",
	"silenttracker/internal/rng":         "rng",
	"silenttracker/internal/mathx":       "mathx",
	"math":                               "mathx",
	"silenttracker/internal/cell":        "cell",
	"silenttracker/internal/mac":         "mac",
	"silenttracker/internal/handover":    "handover",
	"silenttracker/internal/beamsurfer":  "beamsurfer",
	"silenttracker/internal/stats":       "stats",
	"silenttracker/internal/experiments": "experiments",
	"silenttracker/internal/campaign":    "campaign",
	"silenttracker/internal/runner":      "runner",
	"encoding/json":                      "encoding_json",
	"runtime":                            "runtime",
}

// cpuMetricNames lists every cpu.<bucket> metric a traced cold run
// reports, cpu.other included.
func cpuMetricNames() []string {
	seen := map[string]bool{"other": true}
	names := []string{"cpu.other"}
	for _, b := range cpuBuckets {
		if !seen[b] {
			seen[b] = true
			names = append(names, "cpu."+b)
		}
	}
	return names
}

// funcPackage returns the package path of a Go symbol name such as
// "silenttracker/internal/sim.(*Loop).Run" or "runtime.mallocgc". Type
// arguments of a generic instantiation ("pkg.F[go.shape.…]") may hold
// other packages' paths, so they are cut first.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// bucketOf maps a symbol to its cpu bucket. The runtime's internal
// packages count as runtime.
func bucketOf(fn string) string {
	pkg := funcPackage(fn)
	if b, ok := cpuBuckets[pkg]; ok {
		return b
	}
	if strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuShares reads a CPU profile and returns each bucket's share of
// flat CPU time in percent, plus the sample count.
func cpuShares(path string) (map[string]metric, error) {
	flat, samples, err := flatByFunction(path)
	if err != nil {
		return nil, err
	}
	total := 0.0
	byBucket := map[string]float64{}
	for fn, v := range flat {
		byBucket[bucketOf(fn)] += v
		total += v
	}
	m := map[string]metric{"cpu.samples": {float64(samples), "count"}}
	for _, name := range cpuMetricNames() {
		m[name] = metric{100 * ratio(byBucket[strings.TrimPrefix(name, "cpu.")], total), "%"}
	}
	return m, nil
}

// flatByFunction decodes a gzipped pprof profile (the protobuf format
// runtime/pprof writes) and sums each sample's CPU value onto its leaf
// function: the innermost inlined frame of the first location.
func flatByFunction(path string) (map[string]float64, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	buf, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}

	var (
		strs        []string
		sampleTypes []int64 // string index of each value's type
		samples     []struct {
			loc uint64
			val []int64
		}
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcName = map[uint64]int64{}  // function id → name string index
	)
	err = pbFields(buf, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, p, func(x uint64) { locs = append(locs, x) })
				case 2:
					return pbRepeated(v, p, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err == nil && len(locs) > 0 {
				samples = append(samples, struct {
					loc uint64
					val []int64
				}{locs[0], vals})
			}
			return err
		case 4: // location
			var id, fn uint64
			lines := 0
			err := pbFields(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					lines++
					if lines == 1 { // the innermost inlined frame
						return pbFields(p, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Use the cpu/nanoseconds value; fall back to the last value.
	vi := len(sampleTypes) - 1
	for i, s := range sampleTypes {
		if s >= 0 && int(s) < len(strs) && strs[s] == "cpu" {
			vi = i
		}
	}
	flat := map[string]float64{}
	for _, s := range samples {
		if vi < 0 || vi >= len(s.val) {
			continue
		}
		name := "?"
		if idx := funcName[locFunc[s.loc]]; idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		flat[name] += float64(s.val[vi])
	}
	return flat, len(samples), nil
}

var errProto = errors.New("malformed profile")

// pbFields walks the fields of one protobuf message, handing each to
// fn: varints as v, length-delimited fields as b. Fixed-width fields
// are skipped.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated yields a repeated integer field's values, packed (b) or
// not (v).
func pbRepeated(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
