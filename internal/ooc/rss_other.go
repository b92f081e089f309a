//go:build !linux

package ooc

// PeakRSS returns the process's lifetime peak resident set size in bytes
// where the platform exposes it; on this platform it does not.
func PeakRSS() (int64, bool) { return 0, false }
