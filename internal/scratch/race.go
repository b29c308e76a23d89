//go:build race

package scratch

// Race reports that the race detector is built in: Put poisons what it
// recycles, and allocation-regression tests skip, since the detector's
// instrumentation allocates.
const Race = true
