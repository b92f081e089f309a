// Package ps implements DimBoost's parameter server (§4): servers store
// model shards — quantile sketches, split candidates, sampled features,
// gradient histograms, and split results — partitioned over the feature
// space with the paper's hybrid range-hash strategy (§4.3). Servers expose
// push and pull with user-defined semantics; in particular the histogram
// pull runs Algorithm 1 on the server's own shard and returns only a split
// record, which is the server-side half of two-phase split finding (§6.3).
package ps

import (
	"fmt"
	"sort"
)

// Partition maps features to parameter servers using range-hash
// partitioning: the feature space [0, M) is cut into NumRanges contiguous
// ranges and each range is hashed onto a server. Contiguous ranges keep
// range queries (histogram shards) compact while hashing balances load.
type Partition struct {
	NumFeatures int
	NumServers  int
	NumRanges   int

	// rangeServer[r] is the server range r hashes onto, fixed at
	// construction.
	rangeServer []int32
}

// NewPartition builds a partition. numRanges < 1 defaults to 8 ranges per
// server — more ranges than the paper's default of one per server, which
// smooths the hash-assignment imbalance at the small server counts used on
// a single machine.
func NewPartition(numFeatures, numServers, numRanges int) (*Partition, error) {
	if numFeatures < 1 || numServers < 1 {
		return nil, fmt.Errorf("ps: bad partition %d features over %d servers", numFeatures, numServers)
	}
	if numRanges < 1 {
		numRanges = 8 * numServers
	}
	if numRanges > numFeatures {
		numRanges = numFeatures
	}
	p := &Partition{NumFeatures: numFeatures, NumServers: numServers, NumRanges: numRanges}
	p.rangeServer = make([]int32, numRanges)
	for r := range p.rangeServer {
		// FNV-1a over the range index's four little-endian bytes.
		h := uint32(2166136261)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint32(r) >> shift & 0xff
			h *= 16777619
		}
		p.rangeServer[r] = int32(h % uint32(numServers))
	}
	return p, nil
}

// rangeOf returns the range index of a feature. Ranges are the near-equal
// contiguous blocks of the feature space.
func (p *Partition) rangeOf(f int32) int {
	base, rem := p.NumFeatures/p.NumRanges, p.NumFeatures%p.NumRanges
	cut := rem * (base + 1)
	if int(f) < cut {
		return int(f) / (base + 1)
	}
	if base == 0 {
		return p.NumRanges - 1
	}
	return rem + (int(f)-cut)/base
}

// RangeBounds returns the [lo, hi) feature bounds of range r.
func (p *Partition) RangeBounds(r int) (lo, hi int32) {
	base, rem := p.NumFeatures/p.NumRanges, p.NumFeatures%p.NumRanges
	l := base*r + min(r, rem)
	sz := base
	if r < rem {
		sz++
	}
	return int32(l), int32(l + sz)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// serverOfRange returns the server range r hashes onto.
func (p *Partition) serverOfRange(r int) int { return int(p.rangeServer[r]) }

// ServerOf returns the server owning a feature.
func (p *Partition) ServerOf(f int32) int {
	if f < 0 || int(f) >= p.NumFeatures {
		panic(fmt.Sprintf("ps: feature %d outside [0,%d)", f, p.NumFeatures))
	}
	return p.serverOfRange(p.rangeOf(f))
}

// runs is the one place shard geometry is derived: it cuts an ascending
// feature list at the partition's range boundaries and calls visit(server,
// lo, hi) for every non-empty piece features[lo:hi], in order. Ranges are
// contiguous in feature id, so each piece is contiguous in the list — and in
// any array laid out in list order, such as a histogram's buckets.
func (p *Partition) runs(features []int32, visit func(server, lo, hi int)) {
	lo := 0
	for r := 0; r < p.NumRanges && lo < len(features); r++ {
		_, end := p.RangeBounds(r)
		rest := features[lo:]
		hi := lo + sort.Search(len(rest), func(i int) bool { return rest[i] >= end })
		if hi > lo {
			visit(int(p.rangeServer[r]), lo, hi)
		}
		lo = hi
	}
}

// FeaturesOf filters the ascending feature list (ids in [0, NumFeatures))
// down to those owned by the given server, preserving order.
func (p *Partition) FeaturesOf(server int, features []int32) []int32 {
	var out []int32
	p.runs(features, func(sv, lo, hi int) {
		if sv == server {
			out = append(out, features[lo:hi]...)
		}
	})
	return out
}

// NodeOwner returns the server that stores the split result of a tree node.
func (p *Partition) NodeOwner(node int) int { return node % p.NumServers }
