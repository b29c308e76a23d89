//go:build !race

package scratch

// Race reports that the race detector is built in.
const Race = false
