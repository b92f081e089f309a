package ooc

import (
	"sync"

	"dimboost/internal/obs"
)

// metrics is the package's obs instrument set: spill/read traffic, cache
// effectiveness, and the resident-bytes gauges read against the configured
// budget.
type metrics struct {
	spillBytes   *obs.Counter
	readSource   *obs.Counter
	readBinned   *obs.Counter
	hitsSource   *obs.Counter
	hitsBinned   *obs.Counter
	missesSource *obs.Counter
	missesBinned *obs.Counter
	evictSource  *obs.Counter
	evictBinned  *obs.Counter
	resident     *obs.Gauge
	residentPeak *obs.Gauge
	budget       *obs.Gauge
}

var (
	metricsOnce sync.Once
	metricsVal  *metrics
)

func oocMetrics() *metrics {
	metricsOnce.Do(func() {
		r := obs.Default()
		src := obs.L("cache", "source")
		bin := obs.L("cache", "binned")
		metricsVal = &metrics{
			spillBytes:   r.Counter("dimboost_ooc_spill_bytes_total", "Bytes written to binned spill files."),
			readSource:   r.Counter("dimboost_ooc_read_bytes_total", "Bytes read back from disk into the chunk caches.", src),
			readBinned:   r.Counter("dimboost_ooc_read_bytes_total", "Bytes read back from disk into the chunk caches.", bin),
			hitsSource:   r.Counter("dimboost_ooc_cache_hits_total", "Chunk pins satisfied by a resident entry.", src),
			hitsBinned:   r.Counter("dimboost_ooc_cache_hits_total", "Chunk pins satisfied by a resident entry.", bin),
			missesSource: r.Counter("dimboost_ooc_cache_misses_total", "Chunk pins that had to load from disk.", src),
			missesBinned: r.Counter("dimboost_ooc_cache_misses_total", "Chunk pins that had to load from disk.", bin),
			evictSource:  r.Counter("dimboost_ooc_cache_evictions_total", "Resident chunks evicted to stay under budget.", src),
			evictBinned:  r.Counter("dimboost_ooc_cache_evictions_total", "Resident chunks evicted to stay under budget.", bin),
			resident:     r.Gauge("dimboost_ooc_resident_bytes", "Bytes currently resident under the out-of-core budget."),
			residentPeak: r.Gauge("dimboost_ooc_resident_peak_bytes", "High-water mark of budget-accounted resident bytes."),
			budget:       r.Gauge("dimboost_ooc_budget_bytes", "Configured out-of-core memory budget (0 = unlimited)."),
		}
	})
	return metricsVal
}

// cacheMetrics returns the (hits, misses, evictions, readBytes) counters of
// the named cache.
func cacheMetrics(name string) (hits, misses, evict, read *obs.Counter) {
	m := oocMetrics()
	if name == "binned" {
		return m.hitsBinned, m.missesBinned, m.evictBinned, m.readBinned
	}
	return m.hitsSource, m.missesSource, m.evictSource, m.readSource
}
