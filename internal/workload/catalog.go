package workload

import "fmt"

// The catalog reproduces Table 4 of the paper: 16 benchmarks from five
// suites, the top half SM-side preferred (SP) and the bottom half
// memory-side preferred (MP). The footprint columns (total / truly shared /
// falsely shared MB) are taken from the table verbatim (private = footprint
// − true − false); kernels of a benchmark overlay the same address space, so
// repeated invocations re-touch the same data, as iterative GPU kernels do.
//
// The locality knobs are chosen to reproduce each benchmark's *sharing
// structure* as analysed in Figure 11:
//
//   - SP benchmarks keep a small truly-shared working set per time window
//     (TrueWindowMB at most ~2 MB: replicating it across four chips fits
//     comfortably in the system LLC) and/or a large falsely-shared set that
//     SM-side caching serves locally instead of across the ring.
//   - MP benchmarks keep a large truly-shared working set even over long
//     windows (replication thrashes the per-chip LLC and pollutes the
//     private data that dominates their footprint), and most run as a
//     sequence of kernel invocations, which charges the SM-side
//     configuration an LLC flush at every kernel boundary.

func spKernel(name string, privMB, falseMB, trueMB, windowMB float64) Kernel {
	return Kernel{
		Name:      name,
		PrivateMB: privMB, FalseMB: falseMB, TrueMB: trueMB,
		BlockLines: 32,
		ReusePriv:  2, ReuseFalse: 1,
		ReuseTrue: 2, SharersTrue: 3,
		PassesPriv: 1, PassesFalse: 3,
		TrueWindowMB:  windowMB,
		FalseWindowMB: 1.0,
		WriteFrac:     0.15,
		ComputeGap:    1,
	}
}

func mpKernel(name string, privMB, falseMB, trueMB, windowMB float64) Kernel {
	return Kernel{
		Name:      name,
		PrivateMB: privMB, FalseMB: falseMB, TrueMB: trueMB,
		// Blocks sized past the per-warp L1 share but within the chip LLC:
		// memory-side retains them, SM-side replication pollution evicts them.
		BlockLines: 24,
		ReusePriv:  3, ReuseFalse: 1, ReuseTrue: 3,
		PassesPriv: 1, PassesFalse: 2,
		TrueWindowMB: windowMB,
		WriteFrac:    0.25,
		ComputeGap:   1,
	}
}

// Catalog returns the 16 benchmarks of Table 4 in paper order (SP first), in
// a fresh slice the caller owns.
func Catalog() []Spec {
	return []Spec{
		// --- SM-side preferred (top half of Table 4) ---
		{Name: "RN", Suite: "Tango", CTAs: 512, SMSide: true, Repeats: 1,
			Kernels: []Kernel{spKernel("rn", 6, 4, 11, 2.2)}},
		{Name: "AN", Suite: "Tango", CTAs: 1024, SMSide: true, Repeats: 1,
			Kernels: []Kernel{spKernel("an", 8, 3, 9, 2.2)}},
		{Name: "SN", Suite: "Tango", CTAs: 512, SMSide: true, Repeats: 1,
			Kernels: []Kernel{spKernel("sn", 3, 13, 2, 1.8)}},
		{Name: "CFD", Suite: "Rodinia", CTAs: 4031, SMSide: true, Repeats: 1,
			Kernels: []Kernel{spKernel("cfd", 55, 33, 9, 1.2)}},
		// BFS alternates a memory-side-preferred kernel K1 (the whole truly
		// shared set is hot: full-graph expansion) with an SM-side-preferred
		// kernel K2 (small hot frontier) — the substrate of Figure 12.
		{Name: "BFS", Suite: "Rodinia", CTAs: 1954, SMSide: true, Repeats: 2,
			Kernels: []Kernel{
				func() Kernel {
					k := mpKernel("bfs-k1", 13, 14, 10, 10)
					k.WriteFrac = 0.08 // expansion mostly reads; cheap handoff to K2
					// The per-chip visited/cost arrays fit the chip LLC and are
					// re-read each expansion: memory-side retains them, the
					// replicated frontier churns them out under SM-side.
					k.ReusePriv, k.PassesPriv = 1, 3
					return k
				}(),
				spKernel("bfs-k2", 4, 7, 5, 1.0),
			}},
		{Name: "3DC", Suite: "Polybench", CTAs: 2048, SMSide: true, Repeats: 1,
			Kernels: []Kernel{func() Kernel {
				k := spKernel("3dc", 43, 38, 17, 1.2)
				k.ReuseTrue = 3 // atypical: weaker sharing, minor org difference (§5.3)
				k.PassesFalse = 2
				return k
			}()}},
		{Name: "BS", Suite: "NvidiaSDK", CTAs: 480, SMSide: true, Repeats: 1,
			Kernels: []Kernel{func() Kernel {
				k := spKernel("bs", 20, 56, 0, 0)
				k.ReuseFalse = 2 // atypical: no true sharing at all
				return k
			}()}},
		{Name: "BT", Suite: "Rodinia", CTAs: 48096, SMSide: true, Repeats: 1,
			Kernels: []Kernel{spKernel("bt", 8, 19, 4, 1.8)}},

		// --- Memory-side preferred (bottom half of Table 4) ---
		{Name: "SRAD", Suite: "Rodinia", CTAs: 65536, SMSide: false, Repeats: 2,
			Kernels: []Kernel{func() Kernel {
				k := mpKernel("srad", 720, 3, 30, 12)
				k.ReusePriv = 2 // large streaming image: modest block reuse
				return k
			}()}},
		{Name: "GEMM", Suite: "Polybench", CTAs: 2048, SMSide: false, Repeats: 2,
			Kernels: []Kernel{mpKernel("gemm", 139, 21, 14, 8)}},
		{Name: "LUD", Suite: "Rodinia", CTAs: 131068, SMSide: false, Repeats: 3,
			Kernels: []Kernel{mpKernel("lud", 228, 51, 38, 8)}},
		{Name: "STEN", Suite: "Parboil", CTAs: 1024, SMSide: false, Repeats: 3,
			Kernels: []Kernel{mpKernel("sten", 170, 17, 18, 8)}},
		{Name: "3MM", Suite: "Polybench", CTAs: 4096, SMSide: false, Repeats: 3,
			Kernels: []Kernel{mpKernel("3mm", 90, 7, 12, 8)}},
		{Name: "BP", Suite: "Rodinia", CTAs: 65536, SMSide: false, Repeats: 2,
			Kernels: []Kernel{mpKernel("bp", 72, 0, 4, 4)}},
		{Name: "DWT", Suite: "Rodinia", CTAs: 91373, SMSide: false, Repeats: 2,
			Kernels: []Kernel{mpKernel("dwt", 194, 10, 3, 3)}},
		{Name: "NN", Suite: "Tango", CTAs: 60000, SMSide: false, Repeats: 1,
			Kernels: []Kernel{func() Kernel {
				k := mpKernel("nn", 1234, 0, 154, 6)
				k.ReusePriv = 2 // activation tiles re-read at LLC reach
				k.ReuseTrue = 2 // weights: shared but a modest traffic share
				return k
			}()}},
	}
}

// Table4Row is the paper-reported characterization of one benchmark.
type Table4Row struct {
	Name        string
	CTAs        int
	FootprintMB float64
	TrueMB      float64
	FalseMB     float64
}

// Table4 returns the paper's Table 4 rows verbatim, in paper order.
// At workload scale s, the measured footprints are these divided by s.
func Table4() []Table4Row {
	return []Table4Row{
		{"RN", 512, 21, 11, 4},
		{"AN", 1024, 20, 9, 3},
		{"SN", 512, 18, 2, 13},
		{"CFD", 4031, 97, 9, 33},
		{"BFS", 1954, 37, 10, 14},
		{"3DC", 2048, 98, 17, 38},
		{"BS", 480, 76, 0, 56},
		{"BT", 48096, 31, 4, 19},
		{"SRAD", 65536, 753, 30, 3},
		{"GEMM", 2048, 174, 14, 21},
		{"LUD", 131068, 317, 38, 51},
		{"STEN", 1024, 205, 18, 17},
		{"3MM", 4096, 109, 12, 7},
		{"BP", 65536, 76, 4, 0},
		{"DWT", 91373, 207, 3, 10},
		{"NN", 60000, 1388, 154, 0},
	}
}

// catalog is the Table 4 catalog ByName searches, built once. Nothing
// writes it: ByName hands out copies.
var catalog = Catalog()

// ByName returns the catalog spec with the given name. The spec's Kernels
// slice is a fresh copy the caller owns.
func ByName(name string) (Spec, error) {
	for _, s := range catalog {
		if s.Name == name {
			s.Kernels = append([]Kernel(nil), s.Kernels...)
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns the benchmark names in paper order.
func Names() []string {
	c := Catalog()
	out := make([]string, len(c))
	for i, s := range c {
		out[i] = s.Name
	}
	return out
}

// ScaleInput returns a copy of s with every region footprint (and the
// truly-shared window) multiplied by factor — the input-set sweep of
// Figure 13. Factors below 1 shrink the input (÷4 = 0.25), above 1 grow it.
func (s Spec) ScaleInput(factor float64) Spec {
	out := s
	out.Kernels = make([]Kernel, len(s.Kernels))
	for i, k := range s.Kernels {
		k.PrivateMB *= factor
		k.FalseMB *= factor
		k.TrueMB *= factor
		k.TrueWindowMB *= factor
		out.Kernels[i] = k
	}
	if factor != 1 {
		out.Name = fmt.Sprintf("%s(x%.3g)", s.Name, factor)
	}
	return out
}
