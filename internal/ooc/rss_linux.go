//go:build linux

package ooc

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// PeakRSS returns the process's lifetime peak resident set size in bytes
// (VmHWM from /proc/self/status). The second result is false where the
// kernel interface is unavailable. The benchmark spine reports it as
// peak_rss_mb; the absolute value includes the Go runtime and everything
// the process did before.
func PeakRSS() (int64, bool) {
	const field = "VmHWM:"
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		parts := strings.Fields(line[len(field):])
		if len(parts) < 1 {
			return 0, false
		}
		kb, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb << 10, true
	}
	return 0, false
}
