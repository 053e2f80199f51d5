// Package cluster provides the shard-routing substrate of a multi-node
// quotd deployment: a consistent-hash ring over member addresses, a
// health-probed membership view that rebuilds the ring as shards fail and
// rejoin, and a hot-key tracker that decides when a foreign-owned cache
// entry is requested often enough to replicate locally.
//
// The routing key is the derivation's content address (api.CacheKey, a
// SHA-256 over the canonical spec serializations — ultimately spec.Hash
// material). Because the derivation is a pure function of the key's
// preimage, any node's artifact for a key is bit-identical to any other's:
// routing is purely a load/dedup concern and can never affect answers,
// which is what makes cluster-wide request coalescing safe.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is how many ring points each member contributes.
// More points smooth the key distribution across members and shrink the
// slice of keyspace that moves when a member leaves or joins.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over a member set. Build one
// with NewRing; membership changes build a new Ring rather than mutating
// (readers hold a snapshot, so routing needs no locks on the hot path).
type Ring struct {
	points []point // sorted by hash, ascending
	size   int     // distinct members
}

type point struct {
	h      uint64
	member string
}

// NewRing builds a ring over members (deduplicated; order-independent)
// with vnodes virtual points per member (<= 0 means DefaultVirtualNodes).
// An empty member set yields an empty ring whose Owner is always "".
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.size++
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash64(fmt.Sprintf("%s#%d", m, i)), m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Tie-break on member so equal hashes (vanishingly rare) still give
		// every node the same deterministic ring.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owner returns the member owning key: the first ring point clockwise from
// the key's hash. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].member
}

// Size returns the number of members.
func (r *Ring) Size() int { return r.size }

// hash64 is FNV-1a over the string. Keys are already uniformly distributed
// (hex SHA-256), and member points only need spreading, so a fast
// non-cryptographic hash is the right tool.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
