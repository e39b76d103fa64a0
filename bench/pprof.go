package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the CPU profiles runtime/pprof writes: gzip around a
// profile.proto message, of which only the fields needed to attribute a
// sample to its leaf function are read. go.mod stays dependency-free.

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// protoBuf walks the fields of one protobuf message.
type protoBuf struct{ b []byte }

var errProto = errors.New("pprof: malformed protobuf")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are skipped
// over and come back with nil bytes.
func (p *protoBuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		err = p.skip(4)
	default:
		err = errProto
	}
	return field, v, data, err
}

func (p *protoBuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarints appends a repeated integer field's values, packed (data)
// or not (v).
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// cpuSample is one stack of a profile: function names leaf first, with
// inlined frames expanded innermost first, and the sample's first value
// (the sample count).
type cpuSample struct {
	stack []string
	count int64
}

// decodeProfile reads a gzipped profile.proto.
func decodeProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	p := protoBuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		m := protoBuf{data}
		switch field {
		case profSample:
			var s rawSample
			var values []uint64
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case sampleLocationID:
					if s.locs, err = repeatedVarints(s.locs, v, d); err != nil {
						return nil, err
					}
				case sampleValue:
					if values, err = repeatedVarints(values, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var funcs []uint64
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case locationID:
					id = v
				case locationLine:
					// A location with several lines has inlined functions;
					// the first line is the innermost.
					l := protoBuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == lineFunctionID {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case profFunction:
			var id, name uint64
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case functionID:
					id = v
				case functionName:
					name = v
				}
			}
			funcNames[id] = name
		case profStringTable:
			strs = append(strs, string(data))
		}
	}

	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// funcPackage returns the import path of the package a Go symbol lives in:
// everything before the first dot after the last slash, type arguments of a
// generic instantiation (which hold slashes and dots of their own) set
// aside. Assembly bodies the linker names without a package (aeshashbody,
// memeqbody, gcWriteBarrier, ...) all belong to the runtime.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime"
	}
	return fn[:slash+1+dot]
}

// packageLayers maps a package to the layer its CPU time is charged to. The
// repo's own packages map one to one; the standard-library packages the
// serving path leans on get a layer each; anything else is "other".
var packageLayers = map[string]string{
	"repro/internal/gpu":      "gpu",
	"repro/internal/sm":       "sm",
	"repro/internal/cache":    "cache",
	"repro/internal/noc":      "noc",
	"repro/internal/llc":      "llc",
	"repro/internal/xchip":    "xchip",
	"repro/internal/dram":     "dram",
	"repro/internal/bwsim":    "bwsim",
	"repro/internal/addr":     "addr",
	"repro/internal/memsys":   "memsys",
	"repro/internal/core":     "core",
	"repro/internal/workload": "workload",
	"repro/internal/backend":  "backend",
	"repro/internal/eval":     "eval",
	"repro/internal/store":    "store",
	"repro/internal/journal":  "journal",
	"repro/internal/server":   "server",
	"repro/internal/cluster":  "cluster",
	"repro/internal/obs":      "obs",
	"repro/client":            "client",
	"main":                    "harness",
	"encoding/json":           "json",
	"syscall":                 "syscall",
	"internal/poll":           "syscall",
	"runtime":                 "runtime",
}

// prefixLayers catches package families (sub-packages move between Go
// releases, e.g. crypto/internal/fips140/sha256).
var prefixLayers = []struct{ prefix, layer string }{
	{"net", "http"},
	{"compress/", "gzip"},
	{"crypto/sha256", "sha256"},
	{"crypto/internal/fips140/sha256", "sha256"},
	{"internal/runtime/syscall", "syscall"},
	{"internal/syscall", "syscall"},
	{"runtime/", "runtime"},
	{"internal/runtime/", "runtime"},
}

func layerOfPackage(pkg string) string {
	if l, ok := packageLayers[pkg]; ok {
		return l
	}
	for _, p := range prefixLayers {
		if pkg == p.prefix || strings.HasPrefix(pkg, strings.TrimSuffix(p.prefix, "/")+"/") {
			return p.layer
		}
	}
	return "other"
}

// isGCFrame reports whether a runtime function belongs to the garbage
// collector: the mark workers, assists, sweeper and scavenger.
func isGCFrame(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	name := fn[len("runtime."):]
	return strings.HasPrefix(name, "gc") || strings.HasPrefix(name, "bgsweep") ||
		strings.HasPrefix(name, "bgscavenge") || strings.Contains(name, "sweep")
}

// cpuShares attributes every sample to the layer of its leaf function (the
// innermost inlined frame). One exception keeps the table honest: a stack
// that passes through the garbage collector is charged to "gc" whatever its
// leaf, because GC leaves are spread over generic runtime helpers. The
// returned shares cover every name in cpuShareLayers and sum to 1.
func cpuShares(samples []cpuSample) map[string]float64 {
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		if len(s.stack) == 0 || s.count <= 0 {
			continue
		}
		layer := layerOfPackage(funcPackage(s.stack[0]))
		for _, fn := range s.stack {
			if isGCFrame(fn) {
				layer = "gc"
				break
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuShareLayers))
	for _, l := range cpuShareLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares
}
