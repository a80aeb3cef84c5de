package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profBuckets names the prof.share.* buckets, and which packages'
// leaf frames count toward each. Packages not listed count as "other".
var profBuckets = []struct {
	name string
	pkgs []string
}{
	{"sim", []string{"rocc/internal/sim", "container/heap"}},
	{"netsim", []string{"rocc/internal/netsim", "rocc/internal/ringq", "rocc/internal/faults",
		"rocc/internal/workload", "rocc/internal/stats"}},
	{"cc", []string{"rocc/internal/roccnet", "rocc/internal/core", "rocc/internal/dcqcn", "rocc/internal/dcqcnpi",
		"rocc/internal/hpcc", "rocc/internal/timely", "rocc/internal/qcn", "rocc/internal/dctcp",
		"rocc/internal/flowtable", "rocc/internal/adversary", "rocc/internal/qos"}},
	{"chaos", []string{"rocc/internal/chaos", "rocc/internal/harness"}},
	{"runtime", []string{"runtime", "internal", "sync", "math"}},
	{"setup", []string{"rocc/internal/topology", "rocc/internal/experiments", "rocc/internal/telemetry"}},
}

// profShares maps a bucket name to its share of CPU samples.
type profShares map[string]float64

// profile runs fn under the CPU profiler and buckets the samples by
// the package of their leaf frame. A profile that cannot be taken or
// read yields all-zero shares and an "error" entry of 1.
func profile(fn func()) profShares {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		fn()
		return profShares{"error": 1}
	}
	fn()
	pprof.StopCPUProfile()
	shares, err := leafShares(&buf)
	if err != nil {
		return profShares{"error": 1}
	}
	return shares
}

func (r *result) setProf(p profShares) {
	for _, b := range profBuckets {
		r.set("prof.share."+b.name, "ratio", p[b.name])
	}
	r.set("prof.share.other", "ratio", p["other"])
	if p["error"] != 0 {
		r.check("cpu_profile", false, "CPU profile could not be taken or read")
	}
}

// bucketOf maps a function name such as "rocc/internal/sim.(*Engine).Step"
// to its bucket.
func bucketOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	for _, b := range profBuckets {
		for _, p := range b.pkgs {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return b.name
			}
		}
	}
	return "other"
}

// leafShares decodes a gzipped pprof profile just far enough to credit
// each sample's count to the function of its leaf frame (the innermost
// inlined function of its first location).
func leafShares(r io.Reader) (profShares, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("opening profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type sampleRec struct {
		leaf  uint64
		count int64
	}
	var samples []sampleRec
	locFunc := map[uint64]uint64{} // location id -> leaf function id
	funcName := map[uint64]int64{} // function id -> string index
	var strs []string

	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sampleRec
			first, vidx := true, 0
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1: // location_id, packed or not
					return scalars(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2: // value: [samples, cpu ns]
					return scalars(v, b, func(x uint64) {
						if vidx == 0 {
							s.count = int64(x)
						}
						vidx++
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fid uint64
			haveLine := false
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line: the first one is the innermost function
					if haveLine {
						return nil
					}
					haveLine = true
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fid = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fid
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
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
		return nil, err
	}
	shares := profShares{}
	var total int64
	for _, s := range samples {
		name := ""
		if i, ok := funcName[locFunc[s.leaf]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		shares[bucketOf(name)] += float64(s.count)
		total += s.count
	}
	if total == 0 {
		return nil, errors.New("profile has no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or bytes (wire type 2).
// Fixed-width fields are skipped; pprof uses none the decoder needs.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// scalars yields a repeated varint field's values from either its
// packed (bytes) or unpacked (single value) encoding.
func scalars(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
