// Custom topology: define your own cluster, compare all four fine-tuned
// heuristics and the Scotch-style baseline on every pattern, and see how
// each initial layout responds.
//
// Run with: go run ./examples/customtopology
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/osu"
	"repro/internal/sched"
)

func main() {
	// A hypothetical fat institution cluster: 32 nodes of 4 sockets x 8
	// cores (32 cores/node), 4 leaf switches with trunked uplinks.
	cluster, err := repro.NewCluster(32, 4, 8, repro.TwoLevelFatTree(4, 8, 2))
	if err != nil {
		log.Fatal(err)
	}
	const p = 1024
	machine, err := repro.NewMachine(cluster, repro.DefaultCostParams())
	if err != nil {
		log.Fatal(err)
	}

	// Flat allgather patterns span the whole cluster; the binomial tree
	// patterns are evaluated at node scale, which is where the paper
	// deploys BBMH and BGMH (the intra-node phases of the hierarchical
	// allgather) — a cluster-wide gather would be limited by the fan-in on
	// the root node's network link no matter the mapping.
	flatPatterns := []repro.Pattern{repro.RecursiveDoubling, repro.Ring}
	treePatterns := []repro.Pattern{repro.BinomialBroadcast, repro.BinomialGather}
	const size = 16 * 1024

	fmt.Printf("cluster: %v, %d processes, %dB per-process messages\n\n", cluster, p, size)
	fmt.Printf("%-16s %-20s %14s %14s %14s\n", "layout", "pattern", "default", "Hrstc", "Scotch")
	for _, kind := range []repro.LayoutKind{repro.BlockBunch, repro.CyclicScatter} {
		layout, err := repro.NewLayout(cluster, p, kind)
		if err != nil {
			log.Fatal(err)
		}
		d, err := repro.NewDistances(cluster, layout)
		if err != nil {
			log.Fatal(err)
		}
		for _, pat := range flatPatterns {
			s, err := sched.ForPattern(pat, p)
			if err != nil {
				log.Fatal(err)
			}
			def, err := machine.Price(s, layout, size)
			if err != nil {
				log.Fatal(err)
			}
			row := fmt.Sprintf("%-16v %-20v %12.3fms", kind, pat, def*1e3)

			hm, err := pat.Heuristic()(d, nil)
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf(" %7.1f%%", gain(machine, s, layout, hm, def, size))

			sm, err := repro.ScotchMap(pat, d)
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf("      %7.1f%%", gain(machine, s, layout, sm, def, size))
			fmt.Println(row)
		}
		fmt.Println()
	}

	// Node-scale comparison for the tree patterns: one 4-socket node, with
	// the node's 32 ranks laid out bunched vs scattered.
	node, err := repro.NewCluster(1, 4, 8, nil)
	if err != nil {
		log.Fatal(err)
	}
	nodeMachine, err := repro.NewMachine(node, repro.DefaultCostParams())
	if err != nil {
		log.Fatal(err)
	}
	const nodeP = 32
	fmt.Printf("intra-node tree patterns (%d ranks on one 4-socket node):\n\n", nodeP)
	fmt.Printf("%-16s %-20s %14s %14s %14s\n", "layout", "pattern", "default", "Hrstc", "Scotch")
	for _, kind := range []repro.LayoutKind{repro.BlockBunch, repro.BlockScatter} {
		layout, err := repro.NewLayout(node, nodeP, kind)
		if err != nil {
			log.Fatal(err)
		}
		d, err := repro.NewDistances(node, layout)
		if err != nil {
			log.Fatal(err)
		}
		for _, pat := range treePatterns {
			s, err := sched.ForPattern(pat, nodeP)
			if err != nil {
				log.Fatal(err)
			}
			// Tree messages in the hierarchical composition carry node
			// aggregates; price per-block at the full message size.
			def, err := nodeMachine.Price(s, layout, size)
			if err != nil {
				log.Fatal(err)
			}
			row := fmt.Sprintf("%-16v %-20v %12.3fms", kind, pat, def*1e3)
			for _, mapper := range []func() (repro.Mapping, error){
				func() (repro.Mapping, error) { return pat.Heuristic()(d, nil) },
				func() (repro.Mapping, error) { return repro.ScotchMap(pat, d) },
			} {
				m, err := mapper()
				if err != nil {
					log.Fatal(err)
				}
				row += fmt.Sprintf("       %7.1f%%", gain(nodeMachine, s, layout, m, def, size))
			}
			fmt.Println(row)
		}
		fmt.Println()
	}
	fmt.Println("(positive percentages: latency reduction over the default mapping)")
	fmt.Println()
	fmt.Println("note: on 4-socket nodes the gather heuristic trades heavy-edge locality")
	fmt.Println("against early-stage QPI contention and can lose slightly on an already-")
	fmt.Println("bunched layout — the wider-node regime the paper left as future work.")
}

// gain prices s on the layout reordered by m, with the initComm order fix,
// and returns its latency reduction in percent over def seconds.
func gain(machine *repro.Machine, s *sched.Schedule, layout []int, m repro.Mapping, def float64, size int) float64 {
	prof, err := machine.ProfileReordered(context.Background(), s, layout, m, sched.InitComm)
	if err != nil {
		log.Fatal(err)
	}
	t, err := prof.Price(size)
	if err != nil {
		log.Fatal(err)
	}
	return osu.Improvement(def, t)
}
