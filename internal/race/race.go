//go:build race

// Package race reports whether the binary was built with the race
// detector, so tests whose cost or measurements the detector distorts can
// adjust under -race while keeping full strength in normal runs.
package race

// Enabled is true when built with -race.
const Enabled = true
