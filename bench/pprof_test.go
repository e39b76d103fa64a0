package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// Hand-rolled profile.proto encoding, just enough to build fixtures.

func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	b = pbVarint(b, uint64(field)<<3|2)
	b = pbVarint(b, uint64(len(data)))
	return append(b, data...)
}

func pbPacked(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = pbVarint(b, v)
	}
	return b
}

// fixtureProfile builds a gzipped profile: funcs are function names (ids
// 1..n), locs lists for each location (ids 1..n) its function ids innermost
// first, and each sample is (count, location ids leaf first).
func fixtureProfile(t *testing.T, funcs []string, locs [][]uint64, samples [][]uint64) []byte {
	t.Helper()
	var p []byte
	p = pbBytes(p, profStringTable, nil) // string 0 is always ""
	for _, f := range funcs {
		p = pbBytes(p, profStringTable, []byte(f))
	}
	for i := range funcs {
		var f []byte
		f = pbUint(f, functionID, uint64(i+1))
		f = pbUint(f, functionName, uint64(i+1))
		p = pbBytes(p, profFunction, f)
	}
	for i, fns := range locs {
		var l []byte
		l = pbUint(l, locationID, uint64(i+1))
		for _, fn := range fns {
			l = pbBytes(l, locationLine, pbUint(nil, lineFunctionID, fn))
		}
		p = pbBytes(p, profLocation, l)
	}
	for i, s := range samples {
		var m []byte
		if i%2 == 0 { // runtime/pprof packs repeated fields; accept both forms
			m = pbBytes(m, sampleLocationID, pbPacked(s[1:]...))
			m = pbBytes(m, sampleValue, pbPacked(s[0], s[0]*10_000_000))
		} else {
			for _, loc := range s[1:] {
				m = pbUint(m, sampleLocationID, loc)
			}
			m = pbUint(m, sampleValue, s[0])
			m = pbUint(m, sampleValue, s[0]*10_000_000)
		}
		p = pbBytes(p, profSample, m)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCPUSharesFixture(t *testing.T) {
	funcs := []string{
		"repro/internal/llc.(*Array).FindLine",      // 1
		"repro/internal/gpu.(*System).stepChip",     // 2
		"example.com/unknown/pkg.Work",              // 3
		"runtime.scanobject",                        // 4
		"runtime.gcBgMarkWorker",                    // 5
		"runtime.mallocgc",                          // 6
		"crypto/internal/fips140/sha256.blockSHANI", // 7
		"repro/internal/bwsim.(*Queue[go.shape.struct { Req *repro/internal/memsys.Request }]).Push", // 8
		"aeshashbody",            // 9: assembly body, no package
		"main.run",               // 10
		"net/http.(*conn).serve", // 11
	}
	locs := [][]uint64{
		{1, 2}, // 1: llc.FindLine inlined into gpu.stepChip — innermost wins
		{2},    // 2: gpu
		{3},    // 3: unknown package
		{4},    // 4: runtime.scanobject
		{5},    // 5: runtime.gcBgMarkWorker
		{6},    // 6: runtime.mallocgc
		{7},    // 7: sha256
		{8},    // 8: generic bwsim method
		{9},    // 9: asm body
		{10},   // 10: harness
		{11},   // 11: net/http
	}
	samples := [][]uint64{
		{4, 1, 2},  // leaf llc (inlined into gpu): 4 → llc
		{6, 2, 10}, // 6 → gpu
		{3, 3, 10}, // 3 → other
		{2, 4, 5},  // scanobject under the mark worker: 2 → gc
		{1, 6, 2},  // mallocgc called from gpu: 1 → runtime (not gc)
		{1, 7, 10}, // 1 → sha256
		{1, 8, 2},  // 1 → bwsim
		{1, 9, 2},  // 1 → runtime
		{1, 11},    // 1 → http
	}
	got, err := decodeProfile(fixtureProfile(t, funcs, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(got)
	want := map[string]float64{
		"llc": 4, "gpu": 6, "other": 3, "gc": 2, "runtime": 2, "sha256": 1, "bwsim": 1, "http": 1,
	}
	var sum float64
	for _, l := range cpuShareLayers {
		sum += shares[l]
		if w := want[l] / 20; math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("cpu_share.%s = %v, want %v", l, shares[l], w)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(cpuShareLayers) {
		t.Errorf("%d shares for %d layers", len(shares), len(cpuShareLayers))
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decoded a non-gzip profile")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // length-delimited field running past the end
	zw.Close()
	if _, err := decodeProfile(buf.Bytes()); err == nil {
		t.Error("decoded a truncated message")
	}
}
