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

// The traced run attributes CPU time to the repository's layers by the
// package of each sample's leaf frame (self time). The profile is the
// gzipped protobuf runtime/pprof writes; the standard library has no
// reader for it, so the few fields needed are decoded here.

// profiledPackages are the layers whose self time the benchmark reports;
// every other package's samples land in "other".
var profiledPackages = []string{
	"sim", "radio", "aodv", "mobility", "manet", "localsky", "storage",
	"core", "tcp", "wire", "gateway", "runtime", "other",
}

// cpuProfile records a CPU profile of the calling process until stop is
// called, which returns the self-time share per profiled package.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return selfShares(p.buf.Bytes())
}

// layerOf maps a Go symbol name to its profiled package. Symbols look like
// "manetskyline/internal/aodv.(*Network).handleRREQ" or "runtime.mallocgc";
// compiler-generated equality functions ("type:.eq.<pkg>.T") belong to the
// type's package, and dotless symbols ("aeshashbody") are runtime
// assembly.
func layerOf(fn string) string {
	if !strings.Contains(fn, ".") {
		return "runtime"
	}
	pkg := strings.TrimPrefix(fn, "type:.eq.")
	if br := strings.IndexByte(pkg, '['); br >= 0 {
		pkg = pkg[:br] // generic type arguments may hold other paths
	}
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "manetskyline/internal/"); ok {
		for _, l := range profiledPackages {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// selfShares decodes a gzipped CPU profile and returns, per profiled
// package, its share of all sampled CPU time by leaf frame. Every package
// in profiledPackages is present; the shares sum to 1 unless the profile
// holds no samples, in which case all are 0.
func selfShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	funcName := map[uint64]string{}
	for id, nameIdx := range prof.funcs {
		if nameIdx >= 0 && int(nameIdx) < len(prof.strings) {
			funcName[id] = prof.strings[nameIdx]
		}
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range prof.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		// The last value of a CPU profile sample is its CPU nanoseconds;
		// the first line of the leaf location is the innermost inlined
		// frame.
		v := float64(s.values[len(s.values)-1])
		layer := "other"
		if fns := prof.locs[s.locs[0]]; len(fns) > 0 {
			layer = layerOf(funcName[fns[0]])
		}
		byLayer[layer] += v
		total += v
	}
	out := make(map[string]float64, len(profiledPackages))
	for _, l := range profiledPackages {
		out[l] = per(byLayer[l], total)
	}
	return out, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

// profile holds the decoded subset of profile.proto: samples, each
// location's function IDs (innermost first), function name indexes and the
// string table.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64
	funcs   map[uint64]int64
	strings []string
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields iterates the top-level fields of one protobuf message,
// calling f with each field number, wire type, varint value (wire type 0)
// or payload (wire type 2). Other wire types are skipped.
func protoFields(b []byte, f func(num int, typ int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := f(num, typ, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, typ, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints appends a repeated integer field, packed (wire type 2) or not.
func varints(dst []uint64, typ int, v uint64, payload []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := protoFields(b, func(num, typ int, v uint64, payload []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := protoFields(payload, func(num, typ int, v uint64, payload []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = varints(s.locs, typ, v, payload)
				case 2:
					var vs []uint64
					vs, err = varints(nil, typ, v, payload)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(payload, func(num, typ int, v uint64, payload []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(payload, func(num, typ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(payload, func(num, typ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
