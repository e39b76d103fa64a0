// Design space: sweep the inter-chip link bandwidth (the paper's Figure 14
// first axis, from PCIe-class to interposer-class links) and watch SAC's
// advantage over the memory-side LLC shrink as the links catch up with the
// on-chip network — the paper's headline sensitivity result.
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"
	"os"

	sac "repro"
)

func main() {
	r := sac.NewRunner()
	r.Benchmarks = sac.FastSet() // 3 SP + 3 MP representative workloads
	fmt.Printf("sweeping inter-chip bandwidth over %v\n", r.Benchmarks)
	fmt.Println("(half an hour of cycles on one core; -progress on sacsweep shows progress)")

	res, err := r.Fig14([]sac.Axis{sac.AxisInterChipBW})
	if err != nil {
		log.Fatal(err)
	}
	res.Print(os.Stdout)

	fmt.Println("\nreading the series: at PCIe-class links (48 GB/s), caching remote")
	fmt.Println("data locally is everything; at interposer-class links (768 GB/s),")
	fmt.Println("remote data is almost as close as local and the organizations converge.")
}
