//go:build race

// Package race reports whether the binary was built with the race
// detector, so allocation guards can skip themselves: the detector's
// instrumentation allocates on its own, and a count taken under it says
// nothing about the code.
package race

// Enabled is true in a -race build.
const Enabled = true
