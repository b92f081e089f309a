//go:build race

package serve

// raceEnabled gates allocation-count assertions: race instrumentation
// allocates shadow state and sync.Pool drops items at random under it.
const raceEnabled = true
