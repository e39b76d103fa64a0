package sac_test

import (
	"fmt"

	sac "repro"
)

// ExampleRun is the package doc's quick start: RN, a workload whose hot
// truly-shared data fits the LLC when replicated, under the memory-side
// baseline and under SAC, which profiles, picks the SM-side organization
// and reconfigures.
func ExampleRun() {
	cfg := sac.ScaledConfig() // the paper's Table 3, at laptop scale
	spec, err := sac.Benchmark("RN")
	if err != nil {
		fmt.Println(err)
		return
	}
	mem, err := sac.Run(cfg.WithOrg(sac.MemorySide), spec)
	if err != nil {
		fmt.Println(err)
		return
	}
	dyn, err := sac.Run(cfg.WithOrg(sac.SAC), spec)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("SAC speedup: %.2fx\n", sac.Speedup(dyn, mem))
	fmt.Printf("SAC ran RN's kernel %s after %d reconfiguration(s)\n", dyn.Kernels[0].Org, dyn.Reconfigs)
	// Output:
	// SAC speedup: 2.62x
	// SAC ran RN's kernel SM-side after 1 reconfiguration(s)
}

// ExampleDecideEAB uses the paper's analytical model (§3.3) without the
// simulator: from the machine's four bandwidths and five profiled workload
// numbers it predicts which LLC organization offers more effective
// bandwidth. The map below holds the memory-side hit rate (0.7) and slice
// uniformity fixed and varies the remote fraction and the SM-side hit rate:
// the more traffic crosses the ring, the lower the SM-side hit rate the
// model accepts, because replication takes that traffic off the inter-chip
// links ahead of the LLC. The last three lines are one decision worked out.
func ExampleDecideEAB() {
	arch := sac.PaperConfig().ArchParams()
	fmt.Printf("B_intra=%.0f B_inter=%.0f B_LLC=%.0f B_mem=%.0f B/cycle\n",
		arch.BIntra, arch.BInter, arch.BLLC, arch.BMem)

	fmt.Print("SM-side hit  ")
	for h := 0; h <= 9; h++ {
		fmt.Printf("%4.1f", float64(h)/10)
	}
	fmt.Println()
	for rr := 0; rr <= 9; rr++ {
		fmt.Printf("Rremote %.1f ", float64(rr)/10)
		for h := 0; h <= 9; h++ {
			w := sac.WorkloadInputs{RLocal: 1 - float64(rr)/10}
			w.MemSide.LLCHit, w.MemSide.LSU = 0.7, 0.6
			w.SMSide.LLCHit, w.SMSide.LSU = float64(h)/10, 0.95
			mark := "m" // stay memory-side
			if sac.DecideEAB(arch, w, 0.05).PickSM {
				mark = "S" // reconfigure to SM-side
			}
			fmt.Printf("%4s", mark)
		}
		fmt.Println()
	}

	w := sac.WorkloadInputs{RLocal: 0.35}
	w.MemSide.LLCHit, w.MemSide.LSU = 0.65, 0.45
	w.SMSide.LLCHit, w.SMSide.LSU = 0.5, 0.9
	d := sac.DecideEAB(arch, w, 0.05)
	fmt.Printf("EAB memory-side %.0f (local %.0f + remote %.0f)\n",
		d.MemSide.Total, d.MemSide.Local, d.MemSide.Remote)
	fmt.Printf("EAB SM-side     %.0f (local %.0f + remote %.0f)\n",
		d.SMSide.Total, d.SMSide.Local, d.SMSide.Remote)
	fmt.Printf("advantage %.1f%%, reconfigure: %v\n", 100*d.Advantage, d.PickSM)
	// Output:
	// B_intra=16384 B_inter=768 B_LLC=16384 B_mem=1750 B/cycle
	// SM-side hit   0.0 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9
	// Rremote 0.0    m   m   m   m   m   S   S   S   S   S
	// Rremote 0.1    m   m   m   m   m   S   S   S   S   S
	// Rremote 0.2    m   m   m   m   m   S   S   S   S   S
	// Rremote 0.3    m   m   m   m   S   S   S   S   S   S
	// Rremote 0.4    m   m   m   S   S   S   S   S   S   S
	// Rremote 0.5    m   m   m   S   S   S   S   S   S   S
	// Rremote 0.6    m   m   S   S   S   S   S   S   S   S
	// Rremote 0.7    m   m   S   S   S   S   S   S   S   S
	// Rremote 0.8    m   S   S   S   S   S   S   S   S   S
	// Rremote 0.9    m   S   S   S   S   S   S   S   S   S
	// EAB memory-side 3058 (local 2290 + remote 768)
	// EAB SM-side     8753 (local 3193 + remote 5560)
	// advantage 186.3%, reconfigure: true
}
