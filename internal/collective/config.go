package collective

import (
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/synth"
)

// worldConfigKey is the mpi world-value key the per-world collective
// configuration lives under.
const worldConfigKey = "collective.config"

// Config is the per-world collective configuration: an optional synthesized
// schedule table consulted before the registry's size rules — the per-world
// override of algorithm selection — plus the executor's observability sinks.
// Install it with Configure; worlds without one run the defaults.
//
// Config values are immutable snapshots — Configure replaces the whole
// value — so concurrent collectives on the same world read a consistent
// configuration without locking beyond the world store's own.
type Config struct {
	// Synth serves winners from a loaded synth.Table. A nil selector always
	// misses, leaving the registry's rules in charge.
	Synth *synth.Selector
	// Flight overrides the flight recorder rank 0 records execution profiles
	// into. Nil selects the process-wide obs.Flight ring.
	Flight *obs.Recorder
	// Calibrator, when set, joins every sampled execution profile against
	// the cost model's per-stage prediction for measured-vs-predicted skew
	// (obs.Calibrator.Report). Nil (the default) keeps the executor's record
	// path allocation-free.
	Calibrator *obs.Calibrator
}

// Configure installs cfg as the world's collective configuration. It is
// process-local in effect but world-global in visibility: any rank may call
// it, and all ranks of the world observe the new value on their next
// collective. Call it before the world starts communicating (or from every
// rank at a barrier) to keep ranks' selections coherent — ranks choosing
// different algorithms for one collective call would deadlock, exactly as
// mismatched tunables do in a real MPI library.
func Configure(c *mpi.Comm, cfg Config) {
	c.SetWorldValue(worldConfigKey, cfg)
}

// configOf returns the world's configuration, or the default Config.
func configOf(c *mpi.Comm) Config {
	if v, ok := c.WorldValue(worldConfigKey); ok {
		if cfg, ok := v.(Config); ok {
			return cfg
		}
	}
	return Config{}
}
