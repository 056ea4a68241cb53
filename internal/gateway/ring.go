// Package gateway is the fleet routing tier: a stateless HTTP front
// that consistent-hashes each submission's content address onto a ring
// of nmod shards, so identical jobs from any client land on the shard
// whose single-flight cache already holds (or is computing) the
// result. It proxies the whole job API — status, cancel, result, and
// sized trace responses with the ?from/to/core push-down intact — and
// merges /v1/stats across members into one fleet view.
//
// Placement must respect the same constraint structure the scheduler's
// per-backend admission does: a job conflicts with the shard that is
// already computing its key (rerunning it elsewhere wastes a worker
// and splits the cache), which is exactly what hashing the content
// address avoids — the conflict-aware assignment is computed by the
// ring, not negotiated between daemons.
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultReplicas is the per-member virtual-node count. 128 points
// per member keeps the expected per-member load within a few percent
// of uniform for fleet sizes in the tens (the balance test pins the
// bound) while the ring stays small enough to rebuild at will.
const DefaultReplicas = 128

// Ring is a consistent-hash ring over member names. Each member owns
// `replicas` pseudo-random points on a 64-bit circle; a key belongs to
// the member owning the first point at or clockwise of the key's hash.
//
// The two properties the fleet relies on:
//
//   - Deterministic placement: the mapping is a pure function of the
//     member set and replica count, so every gateway instance (and a
//     restarted one) routes identically — the tier stays stateless.
//   - Bounded re-mapping: adding or removing one member moves only the
//     keys adjacent to that member's points (expected 1/n of the
//     keyspace); keys between other members' points never move. Seq
//     extends this to failures: the successor walk re-homes a dead
//     member's keys without disturbing anyone else's.
//
// Ring is immutable after construction from the gateway's point of
// view (membership is fixed at boot; health is handled by walking
// Seq); Add/Remove exist for construction and for the re-mapping
// tests.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
	members  map[string]bool
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds an empty ring (replicas <= 0: DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, members: make(map[string]bool)}
}

// hash64 maps a label onto the ring circle. SHA-256 (truncated) rather
// than a fast non-cryptographic hash: the ring hashes rarely (one key
// per submission, members once at boot), and member names are
// adversarial-ish user input — a daemon address engineered to collide
// should not be able to shadow another shard's arc.
func hash64(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member's virtual nodes. Adding a present member is a
// no-op, so rebuilding from a config list is idempotent.
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for v := 0; v < r.replicas; v++ {
		r.points = append(r.points, ringPoint{
			// The vnode label nests the member name length so
			// ("ab","1") and ("a","b1") cannot alias.
			hash:   hash64(fmt.Sprintf("%d:%s#%d", len(member), member, v)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member's virtual nodes.
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the member set in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the member owning a key ("" on an empty ring).
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].member
}

// search finds the index of the first point at or clockwise of the
// key's hash (wrapping past the top of the circle).
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Seq returns every member in ring order starting at the key's owner:
// Seq(k)[0] is Lookup(k), Seq(k)[1] is where k's jobs go if the owner
// is down, and so on. Walking this sequence past unhealthy members is
// the gateway's failover rule — each dead shard re-homes only its own
// arcs onto successors, which is the bounded re-mapping guarantee.
func (r *Ring) Seq(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for i, start := 0, r.search(key); len(out) < len(r.members); i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
