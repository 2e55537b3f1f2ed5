// Package cluster turns a set of spurd daemons into one fault-tolerant
// service. It owns the placement function — a consistent-hash ring with
// virtual nodes that maps every content-addressed result key to an owner
// plus M−1 replicas — and the durable replication outbox that gets a
// freshly computed blob onto every replica even across crashes of the
// computing node.
//
// The membership model is deliberately static: a peer list is
// configuration, like the paper's fixed SPUR board count, not a gossip
// protocol. What is dynamic is *health* — peers die and come back — and
// the design burden sits entirely on the read/repair path: any node can
// answer any request (from its store, by fetching a replica, or in the worst
// case by recomputing, since every result is a pure function of its spec),
// and a node that lost blobs repairs them from its replica set before
// falling back to the simulator.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is how many virtual nodes each peer contributes to the
// ring. 64 keeps the per-peer share of the key space within a few percent
// of uniform for small fleets without making ring construction noticeable.
// Daemons and clients route alike only when their rings agree, so it is a
// constant rather than a setting.
const DefaultVNodes = 64

// point is one virtual node: a position on the ring and the peer it maps
// to.
type point struct {
	pos  uint64
	peer string
}

// Ring is an immutable consistent-hash ring over a static peer list. It is
// safe for concurrent use.
type Ring struct {
	peers  []string // sorted, deduped
	points []point  // sorted by pos
}

// NewRing builds a ring over peers (deduped; order does not matter — two
// nodes given the same peer set in any order compute identical placement)
// with DefaultVNodes virtual nodes per peer.
func NewRing(peers []string) (*Ring, error) {
	seen := map[string]bool{}
	var uniq []string
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer name")
		}
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	sort.Strings(uniq)
	r := &Ring{peers: uniq}
	r.points = make([]point, 0, len(uniq)*DefaultVNodes)
	for _, p := range uniq {
		for i := 0; i < DefaultVNodes; i++ {
			r.points = append(r.points, point{pos: ringHash(fmt.Sprintf("%s#%d", p, i)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// Hash collisions between virtual nodes are broken by peer name so
		// every ring over the same peer set is identical.
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// ringHash maps a label to a ring position: the first 8 bytes of its
// SHA-256, big-endian. Result keys are themselves hex SHA-256 of the
// experiment spec, so hashing the key string again keeps placement uniform
// and independent of the key's own encoding.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Peers returns the ring's sorted peer list.
func (r *Ring) Peers() []string { return append([]string(nil), r.peers...) }

// Owner returns the peer that owns key: the peer of the first virtual node
// at or clockwise of the key's ring position.
func (r *Ring) Owner(key string) string { return r.Replicas(key, 1)[0] }

// Replicas returns the n distinct peers responsible for key, owner first,
// walking the ring clockwise from the key's position. n is clamped to the
// peer count, so Replicas(key, 3) on a 2-peer ring returns both peers.
func (r *Ring) Replicas(key string, n int) []string {
	if n < 1 {
		n = 1
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	pos := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
