package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"manetskyline/internal/aodv.(*node).handleRREQ":       "aodv",
		"manetskyline/internal/radio.(*Medium).NeighborsInto": "radio",
		"manetskyline/internal/localsky.dominated2":           "localsky",
		"manetskyline/internal/tcp.(*Peer).serve.func1":       "tcp",
		"manetskyline/internal/telemetry.(*Counter).Inc":      "other",
		"manetskyline/internal/core.Merge":                    "core",
		"runtime.mallocgc":                                    "runtime",
		"runtime.gcBgMarkWorker":                              "runtime",
		"internal/runtime/maps.ctrlGroup.matchH2":             "runtime",
		"aeshashbody": "runtime",
		"type:.eq.manetskyline/internal/aodv.seenKey":                 "aodv",
		"slices.insertionSortOrdered[go.shape.int32]":                 "other",
		"syscall.Syscall6":                                            "other",
		"main.(*mesh).request":                                        "other",
		"manetskyline/internal/sim.(*Engine).Run[go.shape.struct {}]": "sim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protobuf encodes fields for the synthetic profile.
type protobuf struct{ b []byte }

func (p *protobuf) varint(num int, v uint64) *protobuf {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *protobuf) bytes(num int, payload []byte) *protobuf {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(payload)))
	p.b = append(p.b, payload...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestSelfSharesByLeafFrame builds a CPU profile by hand: three functions,
// one location inlining localsky into core, and samples whose leaf frames
// are localsky (60 ns), runtime (30 ns) and the standard library (10 ns).
func TestSelfSharesByLeafFrame(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"manetskyline/internal/localsky.dominated2", "manetskyline/internal/core.(*Device).Process",
		"runtime.mallocgc", "sort.Search"}
	var p protobuf
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} { // sample_type
		var vt protobuf
		vt.varint(1, st[0]).varint(2, st[1])
		p.bytes(1, vt.b)
	}
	// Functions 1..4 name strings 5..8.
	for id := uint64(1); id <= 4; id++ {
		var fn protobuf
		fn.varint(1, id).varint(2, id+4)
		p.bytes(5, fn.b)
	}
	// Location 1: localsky inlined into core (innermost line first).
	// Location 2: runtime. Location 3: sort, called from core.
	lines := map[uint64][]uint64{1: {1, 2}, 2: {3}, 3: {4}}
	for id := uint64(1); id <= 3; id++ {
		var loc protobuf
		loc.varint(1, id)
		for _, fn := range lines[id] {
			var ln protobuf
			ln.varint(1, fn).varint(2, 10)
			loc.bytes(4, ln.b)
		}
		p.bytes(4, loc.b)
	}
	for _, s := range []struct{ locs, vals []uint64 }{
		{[]uint64{1}, []uint64{6, 60}},
		{[]uint64{2, 1}, []uint64{3, 30}},
		{[]uint64{3, 1}, []uint64{1, 10}},
	} {
		var smp protobuf
		smp.bytes(1, packed(s.locs...)).bytes(2, packed(s.vals...))
		p.bytes(2, smp.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	shares, err := selfShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"localsky": 0.6, "runtime": 0.3, "other": 0.1}
	var sum float64
	for _, pkg := range profiledPackages {
		got, ok := shares[pkg]
		if !ok {
			t.Errorf("package %s missing from the shares", pkg)
		}
		if math.Abs(got-want[pkg]) > 1e-12 {
			t.Errorf("%s self share = %g, want %g", pkg, got, want[pkg])
		}
		sum += got
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}

func TestSelfSharesRejectsGarbage(t *testing.T) {
	if _, err := selfShares([]byte("not a profile")); err == nil {
		t.Error("selfShares accepted a non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f}) // field 2, length 127, no payload
	zw.Close()
	if _, err := selfShares(gz.Bytes()); err == nil {
		t.Error("selfShares accepted a truncated protobuf")
	}
}

// TestProfileOfThisProcess records a real CPU profile around a busy loop
// and checks that the decoder reads it and the shares sum to one.
func TestProfileOfThisProcess(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := 0.0
	for i := 0; i < 100_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	shares, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g (x=%g)", sum, x)
	}
}
