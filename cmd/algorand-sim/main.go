// algorand-sim runs a simulated Algorand deployment and reports
// per-round consensus latency, finality, and network costs.
//
// Usage:
//
//	algorand-sim -n 100 -rounds 5 -blocksize 1048576 -malicious 0.1
package main

import (
	"flag"
	"fmt"
	"os"

	"algorand"
)

func main() {
	var (
		n         = flag.Int("n", 100, "number of users")
		rounds    = flag.Uint64("rounds", 3, "rounds to run")
		blockSize = flag.Int("blocksize", 1<<20, "block size in bytes")
		malicious = flag.Float64("malicious", 0, "fraction of equivocating users (0..0.3)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		realCrypt = flag.Bool("real-crypto", false, "use full Ed25519+ECVRF instead of the fast provider")
	)
	flag.Parse()

	cfg := algorand.NewSimConfig(*n, *rounds)
	cfg.Seed = *seed
	cfg.Params.BlockSize = *blockSize
	cfg.UseRealCrypto = *realCrypt

	fmt.Printf("simulating %d users, %d rounds, %d KB blocks (crypto: %s)\n",
		*n, *rounds, *blockSize>>10, providerName(*realCrypt))
	cluster := algorand.NewCluster(cfg)
	if *malicious > 0 {
		k := int(*malicious * float64(*n))
		fmt.Printf("making %d users malicious (equivocating proposers + double voters)\n", k)
		cluster.MakeEquivocatingProposers(k)
	}
	end := cluster.Run()

	for r := uint64(1); r <= *rounds; r++ {
		fmt.Printf("round %2d: %v\n", r, algorand.Summarize(cluster.RoundLatencies(r)))
	}
	final, empty := cluster.FinalityRate()
	fmt.Printf("final-consensus rate %.0f%%, empty-block rate %.0f%%\n", 100*final, 100*empty)

	if err := cluster.AgreementCheck(); err != nil {
		fmt.Println("AGREEMENT VIOLATION:", err)
		os.Exit(1)
	}
	fmt.Println("agreement holds across all nodes ✓")

	var sent int64
	for i := range cluster.Nodes {
		sent += cluster.Net.NodeStats(i).BytesSent
	}
	fmt.Printf("network: %.1f MB total, %.2f Mbit/s per user over %v\n",
		float64(sent)/(1<<20),
		float64(sent*8)/end.Seconds()/float64(*n)/1e6,
		end)
}

func providerName(real bool) string {
	if real {
		return "real"
	}
	return "fast"
}
