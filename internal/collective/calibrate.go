package collective

import (
	"fmt"
	"io"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// CalibrateConfig parameterizes a Calibrate run.
type CalibrateConfig struct {
	// P is the world size (a real goroutine world is spawned, so keep it
	// laptop-scale). Required.
	P int
	// Sizes lists the per-process message sizes to run, one calibration
	// bucket each. Required, at least one, each positive.
	Sizes []int
	// Rounds is the number of allgather calls per size (default 5).
	Rounds int
	// Alg selects the algorithm (AlgAuto re-selects per size, exactly as
	// production traffic would).
	Alg Algorithm
	// Layout is the initial rank placement priced by the model (default
	// topology.BlockBunch).
	Layout topology.LayoutKind
}

// Calibrate executes real allgathers on the goroutine runtime with a
// cost-model calibrator attached and writes the predicted-vs-measured skew
// table (obs.Report.String) to w. The skew gauges land on the default
// registry, so a subsequent -metrics-out snapshot carries them.
func Calibrate(w io.Writer, cc CalibrateConfig) error {
	if cc.P < 2 {
		return fmt.Errorf("calibrate: world size %d too small", cc.P)
	}
	if len(cc.Sizes) == 0 {
		return fmt.Errorf("calibrate: no message sizes")
	}
	for _, size := range cc.Sizes {
		if size <= 0 {
			return fmt.Errorf("calibrate: message size %d is not positive", size)
		}
	}
	rounds := cc.Rounds
	if rounds <= 0 {
		rounds = 5
	}
	cluster := topology.GPC()
	machine, err := simnet.NewMachine(cluster, simnet.DefaultParams())
	if err != nil {
		return err
	}
	layout, err := topology.Layout(cluster, cc.P, cc.Layout)
	if err != nil {
		return err
	}
	cal := obs.NewCalibrator(machine, layout)

	fmt.Fprintf(w, "calibrating: p=%d layout=%v alg=%v rounds=%d sizes=%v\n",
		cc.P, cc.Layout, cc.Alg, rounds, cc.Sizes)
	err = mpi.Run(cc.P, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			Configure(c, Config{Calibrator: cal})
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for _, size := range cc.Sizes {
			send := make([]byte, size)
			for i := range send {
				send[i] = byte(c.Rank() + i)
			}
			recv := make([]byte, c.Size()*size)
			for r := 0; r < rounds; r++ {
				if err := Allgather(c, send, recv, cc.Alg); err != nil {
					return fmt.Errorf("size %d round %d: %w", size, r, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, cal.Report().String())
	return nil
}

// ParseAlgorithm resolves the CLI algorithm names shared by cmd/allgather
// and cmd/reproduce to an Algorithm value.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "auto":
		return AlgAuto, nil
	case "rd", "recursive-doubling":
		return AlgRecursiveDoubling, nil
	case "ring":
		return AlgRing, nil
	case "bruck":
		return AlgBruck, nil
	case "neighbor", "neighbor-exchange":
		return AlgNeighborExchange, nil
	default:
		return AlgAuto, fmt.Errorf("unknown algorithm %q", name)
	}
}
